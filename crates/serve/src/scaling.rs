//! Connection-count scaling driver: holds many TCP connections against a
//! running server and verifies every answer over the wire.
//!
//! [`measure_connection_scaling`] is the connection-model stress: it holds
//! `connections` open TCP connections against a running server — a small
//! `active` subset replaying a verified workload, the rest idle, the shape
//! of a real fleet of mostly-quiet clients — and reports over-the-wire
//! throughput plus any answer mismatches. Sweeping it over 8 → 512+
//! connections is what separates the epoll reactor from thread-per-
//! connection serving; `hc2l-serve --bench-scaling` runs that sweep on a
//! saved index. In-process serving throughput is measured by `sysbench`
//! (its `embedded` workload), not here.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Instant;

use hc2l_graph::Distance;
use hc2l_roadnet::QueryPair;

use crate::protocol::{read_response, write_request, Request, Response};

/// Result of one [`measure_connection_scaling`] run.
#[derive(Debug, Clone, Copy)]
pub struct ConnectionScalingReport {
    /// Connections held open for the whole timed section (active + idle).
    pub connections: usize,
    /// Connections that actually replayed the workload.
    pub active: usize,
    /// Total queries answered over the wire.
    pub queries: u64,
    /// Wall-clock seconds of the replay.
    pub seconds: f64,
    /// Aggregate over-the-wire queries per second.
    pub queries_per_second: f64,
    /// Answers that disagreed with the expected distances — any non-zero
    /// value means the served index is wrong under concurrency; callers
    /// gate on it.
    pub mismatches: u64,
}

/// Best-effort raise of the process's open-file soft limit to at least
/// `want` descriptors (capped by the hard limit). A 512-connection scaling
/// run holds ~1k fds in one process (client + accepted sides), which is
/// over the common 1024 default soft limit; failures are ignored — the
/// subsequent `connect` error carries the real diagnosis.
#[cfg(target_os = "linux")]
fn ensure_fd_headroom(want: u64) {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` lives on this stack frame and matches the kernel's
    // rlimit layout (two u64s); the kernel writes exactly one RLimit.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return;
    }
    if lim.cur >= want {
        return;
    }
    lim.cur = want.min(lim.max);
    // SAFETY: same layout argument; the kernel only reads through the
    // pointer during the call.
    unsafe { setrlimit(RLIMIT_NOFILE, &lim) };
}

#[cfg(not(target_os = "linux"))]
fn ensure_fd_headroom(_want: u64) {}

/// Holds `connections` open TCP connections against the server at `addr` —
/// `active` of them replay the pair set `reps` times (staggered, verifying
/// every answer against `expected`, which is parallel to `pairs`) while
/// the rest sit idle — and reports aggregate over-the-wire throughput.
///
/// The idle majority is the point: a deployed daemon's connection table is
/// mostly quiet clients, and a connection model is judged by whether held
/// connections cost it anything. All sockets are connected (and thus
/// accepted and registered by the server) before the clock starts.
pub fn measure_connection_scaling(
    addr: SocketAddr,
    pairs: &[QueryPair],
    expected: &[Distance],
    connections: usize,
    active: usize,
    reps: usize,
) -> io::Result<ConnectionScalingReport> {
    assert!(!pairs.is_empty(), "cannot measure an empty workload");
    assert_eq!(pairs.len(), expected.len(), "expected is parallel to pairs");
    let connections = connections.max(1);
    let active = active.clamp(1, connections);
    let reps = reps.max(1);
    // Both ends of every connection may live in this process (the bench
    // serves in-process): budget 2 fds per connection plus slack.
    ensure_fd_headroom(connections as u64 * 2 + 128);

    // Connect everything up front; the first `active` sockets will work.
    let mut sockets = Vec::with_capacity(connections);
    for _ in 0..connections {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true).ok();
        sockets.push(s);
    }
    let idle: Vec<TcpStream> = sockets.split_off(active);

    // Scoped workers borrow the (possibly large) pair and expected arrays
    // instead of cloning them per thread.
    let start_barrier = Barrier::new(active + 1);
    let barrier = &start_barrier;
    let mut queries = 0u64;
    let mut mismatches = 0u64;
    let mut first_err: Option<io::Error> = None;
    let seconds = std::thread::scope(|scope| {
        let workers: Vec<_> = sockets
            .into_iter()
            .enumerate()
            .map(|(w, stream)| {
                scope.spawn(move || -> io::Result<(u64, u64)> {
                    let mut reader = BufReader::new(stream.try_clone()?);
                    let mut writer = BufWriter::new(stream);
                    barrier.wait();
                    let mut queries = 0u64;
                    let mut mismatches = 0u64;
                    let offset = (w * pairs.len()) / active;
                    for _ in 0..reps {
                        for i in 0..pairs.len() {
                            let k = (i + offset) % pairs.len();
                            let p = pairs[k];
                            write_request(&mut writer, &Request::Distance(p.source, p.target))?;
                            match read_response(&mut reader)? {
                                Some(Response::Distance(d)) => {
                                    queries += 1;
                                    if d != expected[k] {
                                        mismatches += 1;
                                    }
                                }
                                other => {
                                    return Err(io::Error::new(
                                        io::ErrorKind::InvalidData,
                                        format!("unexpected response {other:?}"),
                                    ))
                                }
                            }
                        }
                    }
                    Ok((queries, mismatches))
                })
            })
            .collect();

        // The clock starts *before* releasing the barrier: workers cannot
        // proceed until this thread arrives, so the start is at most the
        // barrier-release overhead early, whereas starting it after
        // `wait()` returns under-measures whenever the OS parks this thread
        // while the released workers run.
        let start = Instant::now();
        barrier.wait();
        for w in workers {
            match w.join().expect("scaling client panicked") {
                Ok((q, m)) => {
                    queries += q;
                    mismatches += m;
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        start.elapsed().as_secs_f64()
    });
    drop(idle);
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(ConnectionScalingReport {
        connections,
        active,
        queries,
        seconds,
        queries_per_second: if seconds > 0.0 {
            queries as f64 / seconds
        } else {
            0.0
        },
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::server::{serve_with_model, ServeModel, ServeState};
    use hc2l_graph::toy::paper_figure1;
    use hc2l_oracle::{Method, OracleBuilder};
    use hc2l_roadnet::random_pairs;

    #[test]
    fn connection_scaling_verifies_answers_over_mostly_idle_connections() {
        use hc2l_oracle::DistanceOracle as _;
        let g = paper_figure1();
        let oracle = OracleBuilder::new(Method::Hc2l).build(&g);
        let pairs = random_pairs(16, 100, 5);
        let expected: Vec<Distance> = pairs
            .iter()
            .map(|p| oracle.distance(p.source, p.target))
            .collect();
        let state = Arc::new(ServeState::new(oracle, 2, 1024));
        let server = serve_with_model(
            Arc::clone(&state),
            ("127.0.0.1", 0),
            ServeModel::platform_default(),
        )
        .unwrap();
        // 48 connections, only 4 active — the idle majority must cost
        // nothing and every answer must stay exact.
        let report =
            measure_connection_scaling(server.addr(), &pairs, &expected, 48, 4, 2).unwrap();
        assert_eq!(report.connections, 48);
        assert_eq!(report.active, 4);
        assert_eq!(report.queries, 4 * 2 * 100);
        assert_eq!(report.mismatches, 0);
        assert!(report.queries_per_second > 0.0);
        server.shutdown().unwrap();
    }
}
