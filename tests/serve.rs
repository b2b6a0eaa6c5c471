//! Concurrent serving: the `hc2l-serve` subsystem over every backend
//! (PR 4).
//!
//! Pins down, for every [`Method`]:
//!
//! * 8 threads × 1k mixed `distance` / `one_to_many` queries against one
//!   shared `Arc<Oracle>` — and against one shared mmap-backed
//!   [`SharedOracle`] — agree **bit-identically** with single-threaded
//!   Dijkstra answers;
//! * serving through the [`ServeState`] result cache (on or off) changes
//!   no answer, and the cache actually hits on a repeating workload;
//! * the wire protocol carries exact answers end to end over TCP, the
//!   served state identifies the loaded backend and counts every answered
//!   query, and `Shutdown` drains the daemon cleanly.

use std::path::PathBuf;
use std::sync::Arc;

use hc2l_graph::{dijkstra, Distance, Graph, Vertex};
use hc2l_oracle::{DistanceOracle, Method, Oracle, OracleBuilder, SharedOracle};
use hc2l_roadnet::seeded_grid;
use hc2l_serve::{
    read_response, serve_with_model, write_request, Request, Response, ServeModel, ServeState,
};

/// The connection models that actually run on this host: both on Linux,
/// only the blocking fallback elsewhere.
fn models() -> &'static [ServeModel] {
    ServeModel::available()
}

const WORKERS: usize = 8;
const QUERIES_PER_WORKER: usize = 1000;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{name}.hc2l"))
}

/// The shared test graph: an 8x8 seeded grid (weighted, fully connected).
fn test_graph() -> Graph {
    seeded_grid(8, 8, 42)
}

/// All-pairs ground truth via single-threaded Dijkstra.
fn ground_truth(g: &Graph) -> Vec<Vec<Distance>> {
    (0..g.num_vertices() as Vertex)
        .map(|s| dijkstra(g, s))
        .collect()
}

/// The mixed per-worker workload: deterministic per `worker`, alternating
/// point queries with small one-to-many batches.
fn drive_worker(
    state: &ServeState,
    n: usize,
    worker: usize,
    truth: &[Vec<Distance>],
) -> Result<(), String> {
    let n = n as Vertex;
    let mut batch = Vec::new();
    for i in 0..QUERIES_PER_WORKER {
        let s = ((i * 31 + worker * 17) % n as usize) as Vertex;
        if i % 4 == 3 {
            // Batched one-to-many over a strided target set.
            let targets: Vec<Vertex> = (0..8)
                .map(|k| ((s as usize + k * 7 + i) % n as usize) as Vertex)
                .collect();
            state.one_to_many_into(s, &targets, &mut batch);
            for (&t, &d) in targets.iter().zip(batch.iter()) {
                if d != truth[s as usize][t as usize] {
                    return Err(format!(
                        "one_to_many({s}, {t}) = {d}, Dijkstra says {}",
                        truth[s as usize][t as usize]
                    ));
                }
            }
        } else {
            let t = ((i * 13 + worker * 5) % n as usize) as Vertex;
            let d = state.distance(s, t);
            if d != truth[s as usize][t as usize] {
                return Err(format!(
                    "distance({s}, {t}) = {d}, Dijkstra says {}",
                    truth[s as usize][t as usize]
                ));
            }
        }
    }
    Ok(())
}

/// Fans `WORKERS` threads out over one shared state and joins their verdicts.
fn fan_out(state: &Arc<ServeState>, truth: &Arc<Vec<Vec<Distance>>>, n: usize) {
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let state = Arc::clone(state);
            let truth = Arc::clone(truth);
            std::thread::spawn(move || drive_worker(&state, n, w, &truth))
        })
        .collect();
    for (w, handle) in workers.into_iter().enumerate() {
        handle
            .join()
            .expect("worker thread panicked")
            .unwrap_or_else(|msg| panic!("worker {w}: {msg}"));
    }
}

#[test]
fn every_method_serves_concurrently_from_shared_arcs() {
    let g = test_graph();
    let truth = Arc::new(ground_truth(&g));
    let n = g.num_vertices();
    for method in Method::ALL {
        let built = OracleBuilder::new(method).threads(2).build(&g);
        let path = scratch(&format!("concurrent-{}", method.name()));
        built.save(&path).expect("save");

        // One shared Arc<Oracle> (owned index), cache enabled.
        let state = Arc::new(ServeState::new(built, WORKERS, 4096));
        fan_out(&state, &truth, n);
        let stats = state.stats();
        assert_eq!(stats.method, method, "{method}");
        assert!(
            stats.cache_hits > 0,
            "{method}: repeating workload must hit the cache"
        );

        // One shared mmap-backed SharedOracle (zero-copy views), cache off.
        let shared = SharedOracle::open(&path).expect("mmap open");
        assert_eq!(shared.method(), method);
        let state = Arc::new(ServeState::new(shared, WORKERS, 0));
        fan_out(&state, &truth, n);
        assert_eq!(state.stats().cache_hits, 0, "{method}: cache was off");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn cache_on_and_off_agree_pair_by_pair() {
    let g = test_graph();
    let oracle = OracleBuilder::new(Method::Hc2l).build(&g);
    let cached = ServeState::new(Oracle::clone(&oracle), 2, 1024);
    let uncached = ServeState::new(oracle, 2, 0);
    let n = g.num_vertices() as Vertex;
    for s in 0..n {
        for t in 0..n {
            // Ask the cached state twice so the second answer is served
            // from the cache — it must still agree.
            let first = cached.distance(s, t);
            let second = cached.distance(s, t);
            let plain = uncached.distance(s, t);
            assert_eq!(first, plain, "({s},{t})");
            assert_eq!(second, plain, "({s},{t}) cached readback");
        }
    }
    let stats = cached.stats();
    assert!(stats.cache_hits >= (n as u64 * n as u64) / 2);
    assert_eq!(uncached.stats().cache_hits, 0);
}

#[test]
fn daemon_serves_a_saved_index_over_tcp_with_exact_answers() {
    for &model in models() {
        daemon_serves_over_tcp_with(model);
    }
}

fn daemon_serves_over_tcp_with(model: ServeModel) {
    let g = test_graph();
    let truth = ground_truth(&g);
    let built = OracleBuilder::new(Method::H2h).build(&g);
    let path = scratch(&format!("tcp-h2h-{model}"));
    built.save(&path).expect("save");

    let shared = SharedOracle::open(&path).expect("open");
    let state = Arc::new(ServeState::new(shared, 4, 256));
    let server = serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), model).expect("bind");
    let addr = server.addr();

    let clients: Vec<_> = (0..4usize)
        .map(|c| {
            let truth = truth.clone();
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(addr).expect("connect");
                let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                let mut writer = std::io::BufWriter::new(stream);
                for i in 0..200usize {
                    let s = ((i * 3 + c * 11) % 64) as Vertex;
                    let t = ((i * 7 + c * 29) % 64) as Vertex;
                    write_request(&mut writer, &Request::Distance(s, t)).unwrap();
                    let Some(Response::Distance(d)) = read_response(&mut reader).unwrap() else {
                        panic!("expected a Distance response");
                    };
                    assert_eq!(d, truth[s as usize][t as usize], "({s},{t})");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client panicked");
    }

    // The served state identifies the backend and counted every query;
    // shutdown drains cleanly.
    {
        let stats = server.state().stats();
        assert_eq!(stats.method, Method::H2h);
        assert_eq!(stats.num_vertices, 64);
        assert_eq!(stats.distance_queries, 4 * 200);
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = std::io::BufWriter::new(stream);
        write_request(&mut writer, &Request::Shutdown).unwrap();
        assert_eq!(
            read_response(&mut reader).unwrap(),
            Some(Response::ShuttingDown)
        );
    }
    server.wait().expect("clean shutdown");
    std::fs::remove_file(&path).ok();
}

/// Opens `connections` TCP connections to `addr`. The first `active`
/// replay `pairs` `reps` times, each from its own staggered offset, while
/// the rest stay open and quiet. Returns how many answers came back and how
/// many of them disagree with `expected` (parallel to `pairs`).
fn replay_over_mostly_idle_connections(
    addr: std::net::SocketAddr,
    pairs: &[hc2l_roadnet::QueryPair],
    expected: &[Distance],
    connections: usize,
    active: usize,
    reps: usize,
) -> (u64, u64) {
    let mut sockets: Vec<std::net::TcpStream> = (0..connections)
        .map(|_| std::net::TcpStream::connect(addr).expect("connect"))
        .collect();
    let idle = sockets.split_off(active);
    let (answers, mismatches) = std::thread::scope(|scope| {
        let workers: Vec<_> = sockets
            .into_iter()
            .enumerate()
            .map(|(w, stream)| {
                scope.spawn(move || {
                    stream.set_nodelay(true).ok();
                    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                    let mut writer = std::io::BufWriter::new(stream);
                    let offset = w * pairs.len() / active;
                    let (mut answers, mut mismatches) = (0u64, 0u64);
                    for _ in 0..reps {
                        for i in 0..pairs.len() {
                            let k = (i + offset) % pairs.len();
                            let p = pairs[k];
                            write_request(&mut writer, &Request::Distance(p.source, p.target))
                                .unwrap();
                            let Some(Response::Distance(d)) = read_response(&mut reader).unwrap()
                            else {
                                panic!("expected a Distance response");
                            };
                            answers += 1;
                            mismatches += u64::from(d != expected[k]);
                        }
                    }
                    (answers, mismatches)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay client panicked"))
            .fold((0, 0), |(a, m), (da, dm)| (a + da, m + dm))
    });
    drop(idle);
    (answers, mismatches)
}

#[test]
fn daemon_holds_hundreds_of_mostly_idle_connections_with_exact_answers() {
    // The connection-scaling claim in miniature, for every backend: one
    // mmap-served index, 256 concurrent connections of which 8 replay a
    // Dijkstra-verified workload while 248 idle — every answer must be
    // bit-identical and the daemon must still drain cleanly afterwards.
    // (`hc2l-query --replay FILE --clients 8 --idle 248` runs the same gate
    // against a running daemon.)
    let g = test_graph();
    let truth = ground_truth(&g);
    let pairs = hc2l_roadnet::random_pairs(g.num_vertices(), 300, 13);
    let expected: Vec<Distance> = pairs
        .iter()
        .map(|p| truth[p.source as usize][p.target as usize])
        .collect();
    // The blocking fallback admits backlogged connections one worker-cap
    // grace period at a time, so hold a count it can actually accept.
    let connections = if ServeModel::platform_default() == ServeModel::Epoll {
        256
    } else {
        32
    };
    for method in Method::ALL {
        let built = OracleBuilder::new(method).build(&g);
        let path = scratch(&format!("scaling-{method}"));
        built.save(&path).expect("save");
        let shared = SharedOracle::open(&path).expect("open");
        let state = Arc::new(ServeState::new(shared, 4, 4096));
        let server = serve_with_model(
            Arc::clone(&state),
            ("127.0.0.1", 0),
            ServeModel::platform_default(),
        )
        .expect("bind");

        let (answers, mismatches) = replay_over_mostly_idle_connections(
            server.addr(),
            &pairs,
            &expected,
            connections,
            8,
            2,
        );
        assert_eq!(
            mismatches, 0,
            "{method}: served answers diverged from Dijkstra"
        );
        assert_eq!(answers, 8 * 2 * 300, "{method}");

        let start = std::time::Instant::now();
        server.shutdown().expect("clean shutdown");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "{method}: drain took {:?}",
            start.elapsed()
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn frames_split_at_every_offset_decode_identically_over_tcp() {
    // A valid Distance frame and a OneToMany frame, each delivered across
    // two `write` calls split at every possible offset (nodelay makes each
    // write its own segment): both connection models must decode them
    // exactly as whole-frame delivery — never erroring, never stalling.
    use std::io::Write as _;
    let g = test_graph();
    let oracle = OracleBuilder::new(Method::Hl).build(&g);
    let expected_d = oracle.distance(5, 60);
    let targets: Vec<Vertex> = (0..6).collect();
    let expected_row = oracle.one_to_many(9, &targets);
    for &model in models() {
        let state = Arc::new(ServeState::new(Oracle::clone(&oracle), 4, 0));
        let server = serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), model).expect("bind");
        let addr = server.addr();

        let mut frames = Vec::new();
        write_request(&mut frames, &Request::Distance(5, 60)).unwrap();
        let point_len = frames.len();
        write_request(
            &mut frames,
            &Request::OneToMany {
                source: 9,
                targets: targets.clone(),
            },
        )
        .unwrap();

        for split in 0..=frames.len() {
            let stream = std::net::TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            writer.write_all(&frames[..split]).unwrap();
            writer.flush().unwrap();
            // Let the server chew on the partial frame before the rest.
            std::thread::sleep(std::time::Duration::from_millis(1));
            writer.write_all(&frames[split..]).unwrap();
            writer.flush().unwrap();
            assert_eq!(
                read_response(&mut reader).unwrap(),
                Some(Response::Distance(expected_d)),
                "{model}, split at {split} (point frame is {point_len} bytes)"
            );
            assert_eq!(
                read_response(&mut reader).unwrap(),
                Some(Response::Distances(expected_row.clone())),
                "{model}, split at {split}"
            );
        }
        server.shutdown().expect("clean shutdown");
    }
}

#[test]
fn workload_files_replay_through_the_serve_state() {
    // The client-side replay contract: a workload file generated with
    // expected distances verifies cleanly against a served index.
    let g = test_graph();
    let truth = ground_truth(&g);
    let pairs = hc2l_roadnet::random_pairs(g.num_vertices(), 100, 5);
    let expected: Vec<Distance> = pairs
        .iter()
        .map(|p| truth[p.source as usize][p.target as usize])
        .collect();
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-replay.q");
    hc2l_roadnet::write_workload_file(&file, &pairs, Some(&expected)).unwrap();
    let loaded = hc2l_roadnet::read_workload_file(&file).unwrap();
    assert!(loaded.has_expected());

    let oracle = OracleBuilder::new(Method::Phl).build(&g);
    let state = ServeState::new(oracle, 1, 0);
    for (p, want) in loaded.pairs.iter().zip(&loaded.expected) {
        assert_eq!(state.distance(p.source, p.target), *want);
    }
    std::fs::remove_file(&file).ok();
}
