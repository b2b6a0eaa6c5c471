//! Chaos suite: fault injection across the persistence, serving and
//! update layers (PR 7).
//!
//! Every test here arms one or more feature-gated failpoints
//! ([`hc2l_graph::failpoints`], compiled in through this package's
//! dev-dependencies) and asserts the two invariants the robustness work
//! promises:
//!
//! * **bounded degradation** — a fault costs at most the faulted request
//!   or connection (a typed error, a reaped socket, a shed batch), never
//!   the daemon or another client's connection;
//! * **0 exactness mismatches** — every answer that *is* produced under
//!   injected panics, torn frames, slow-loris peers, mid-batch update
//!   faults and `SIGKILL`-during-save agrees bit-identically with
//!   single-threaded Dijkstra on the weights the server had published.
//!
//! The failpoint registry is process-global, so the whole suite serialises
//! on one mutex; a guard clears all failpoints on entry and exit (panic
//! included), so no test inherits another's armed faults.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use hc2l_graph::failpoints::{self, FailAction};
use hc2l_graph::{dijkstra, Distance, Graph, Vertex};
use hc2l_oracle::{DistanceOracle, Method, OracleBuilder, WeightUpdate};
use hc2l_roadnet::seeded_grid;
use hc2l_serve::{
    read_response, serve_with_model, write_request, Request, Response, ServeConfig, ServeModel,
    ServeState,
};

// ---------------------------------------------------------------------------
// Harness: serialisation, scratch space, wire client, exactness helpers.
// ---------------------------------------------------------------------------

/// Serialises the suite around the process-global failpoint registry and
/// clears it on both ends of every test, panic included.
struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn chaos_guard() -> ChaosGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panicking test poisons the lock; the next test still runs.
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    failpoints::clear_all();
    ChaosGuard(guard)
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        failpoints::clear_all();
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// The shared chaos graph: a 6x6 seeded grid — small enough for all-pairs
/// Dijkstra ground truth per test, gnarly enough to exercise real labels.
fn chaos_graph() -> Graph {
    seeded_grid(6, 6, 0xC4A05)
}

fn ground_truth(g: &Graph) -> Vec<Vec<Distance>> {
    (0..g.num_vertices() as Vertex)
        .map(|s| dijkstra(g, s))
        .collect()
}

/// One-shot wire exchange on a fresh connection.
fn ask(addr: std::net::SocketAddr, req: &Request) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    write_request(&mut stream, req)?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server hung up mid-response"))
}

/// A deterministic sample of (s, t) pairs covering the grid.
fn sample_pairs(n: usize) -> Vec<(Vertex, Vertex)> {
    (0..40)
        .map(|i| (((i * 7 + 3) % n) as Vertex, ((i * 13 + 5) % n) as Vertex))
        .collect()
}

/// Asserts a sample of wire answers against Dijkstra ground truth.
fn assert_exact(addr: std::net::SocketAddr, truth: &[Vec<Distance>], context: &str) {
    for (s, t) in sample_pairs(truth.len()) {
        match ask(addr, &Request::Distance(s, t)) {
            Ok(Response::Distance(d)) => assert_eq!(
                d, truth[s as usize][t as usize],
                "{context}: distance({s}, {t}) mismatch vs Dijkstra"
            ),
            other => panic!("{context}: distance({s}, {t}) got {other:?}"),
        }
    }
}

/// Builds an updatable serve state (owned oracle + graph) over the chaos
/// grid with the given method.
fn updatable_state(method: Method) -> (Arc<ServeState>, Vec<Vec<Distance>>) {
    let g = chaos_graph();
    let truth = ground_truth(&g);
    let oracle = OracleBuilder::new(method).threads(2).build(&g);
    (Arc::new(ServeState::with_updates(g, oracle, 4, 256)), truth)
}

/// A deterministic weight-update batch over existing grid edges.
fn chaos_batch(g: &Graph) -> Vec<WeightUpdate> {
    g.edges()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .take(12)
        .map(|(i, (u, v, w))| WeightUpdate::new(u, v, w + 5 + (i as u32 % 7)))
        .collect()
}

// ---------------------------------------------------------------------------
// Kill-during-save: SIGKILL at arbitrary points of the container write
// must never corrupt the index at the target path.
// ---------------------------------------------------------------------------

const CHILD_ENV: &str = "HC2L_CHAOS_SAVE_TARGET";

/// Child-process body for `kill_during_save_never_corrupts_the_index`:
/// a no-op test unless re-executed with [`CHILD_ENV`] set, in which case
/// it slows every container section write down with a failpoint delay and
/// re-saves the index in a tight loop until the parent SIGKILLs it.
#[test]
fn chaos_child_save_loop() {
    let Ok(target) = std::env::var(CHILD_ENV) else {
        return;
    };
    let built = OracleBuilder::new(Method::Hl)
        .threads(2)
        .build(&chaos_graph());
    // Widen the kill window: every section write sleeps, so a save spans
    // tens of milliseconds and the parent's kill lands mid-write.
    failpoints::configure("container.write.section", FailAction::DelayMs(6));
    println!("CHAOS_CHILD_READY");
    loop {
        built.save(std::path::Path::new(&target)).expect("save");
    }
}

#[test]
fn kill_during_save_never_corrupts_the_index() {
    let _guard = chaos_guard();
    let dir = scratch("kill-during-save");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create trial dir");
    let target = dir.join("index.hc2l");

    let g = chaos_graph();
    let truth = ground_truth(&g);
    let built = OracleBuilder::new(Method::Hl).threads(2).build(&g);
    built.save(&target).expect("initial save");

    let exe = std::env::current_exe().expect("test binary path");
    let mut interrupted_saves = 0usize;
    for trial in 0..4 {
        let mut child = std::process::Command::new(&exe)
            .args(["chaos_child_save_loop", "--exact", "--nocapture"])
            .env(CHILD_ENV, &target)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn save-loop child");
        // Wait for the child to finish building and enter its save loop,
        // then kill at a trial-staggered offset inside it.
        let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) if line.contains("CHAOS_CHILD_READY") => break,
                Some(Ok(_)) => continue,
                other => panic!("child never became ready: {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(9 + 17 * trial as u64));
        child.kill().expect("SIGKILL child");
        let _ = child.wait();

        // A SIGKILL mid-save leaves the orphaned temp behind (a completed
        // save consumes it via rename) — count how many trials actually
        // interrupted a write.
        let mut leftovers = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("read trial dir") {
            let name = entry.expect("dir entry").file_name();
            if name.to_string_lossy().contains(".tmp.") {
                leftovers.push(name);
            }
        }
        if !leftovers.is_empty() {
            interrupted_saves += 1;
            for name in leftovers {
                let _ = std::fs::remove_file(dir.join(name));
            }
        }

        // The crash-safety contract: whatever the kill interrupted, the
        // index at the target path loads and answers bit-identically.
        let loaded =
            OracleBuilder::load(&target).unwrap_or_else(|e| panic!("trial {trial}: load: {e}"));
        for s in 0..g.num_vertices() as Vertex {
            for t in 0..g.num_vertices() as Vertex {
                assert_eq!(
                    loaded.distance(s, t),
                    truth[s as usize][t as usize],
                    "trial {trial}: distance({s}, {t}) after kill-during-save"
                );
            }
        }
    }
    assert!(
        interrupted_saves > 0,
        "no trial killed the child mid-save; the kill offsets need retuning"
    );
}

#[test]
fn injected_save_failure_leaves_previous_index_loadable() {
    let _guard = chaos_guard();
    let target = scratch("io-error-save.hc2l");
    let g = chaos_graph();
    let truth = ground_truth(&g);
    let built = OracleBuilder::new(Method::Ch).threads(2).build(&g);
    built.save(&target).expect("initial save");

    // The second section write of the next save fails with an injected I/O
    // error: the save must report it and the target must stay untouched.
    failpoints::configure_window("container.write.section", FailAction::IoError, 1, 1);
    let err = built.save(&target).expect_err("injected save failure");
    assert!(
        err.to_string().contains("injected failure"),
        "typed injected error, got: {err}"
    );

    let loaded = OracleBuilder::load(&target).expect("old index still loads");
    for (s, t) in sample_pairs(g.num_vertices()) {
        assert_eq!(
            loaded.distance(s, t),
            truth[s as usize][t as usize],
            "distance({s}, {t}) after failed overwrite"
        );
    }
}

// ---------------------------------------------------------------------------
// Serving under injected faults.
// ---------------------------------------------------------------------------

#[test]
fn injected_request_panic_degrades_to_error_and_recovers() {
    let _guard = chaos_guard();
    let g = chaos_graph();
    let truth = ground_truth(&g);
    let oracle = OracleBuilder::new(Method::Hl).threads(2).build(&g);
    let state = Arc::new(ServeState::new(oracle, 4, 0));
    let server =
        serve_with_model(Arc::clone(&state), "127.0.0.1:0", ServeModel::Epoll).expect("serve");
    let addr = server.addr();

    // The third query panics; everything around it stays exact.
    failpoints::configure_window("serve.request", FailAction::Panic, 2, 1);
    let mut errors = 0;
    for (i, (s, t)) in sample_pairs(g.num_vertices()).into_iter().enumerate() {
        match ask(addr, &Request::Distance(s, t)) {
            Ok(Response::Distance(d)) => assert_eq!(
                d, truth[s as usize][t as usize],
                "query {i} mismatch around injected panic"
            ),
            Ok(Response::Error(msg)) => {
                assert!(msg.contains("panicked"), "unexpected error text: {msg}");
                errors += 1;
            }
            other => panic!("query {i} got {other:?}"),
        }
    }
    assert_eq!(errors, 1, "exactly the faulted request errored");
    let stats = state.stats();
    assert_eq!(stats.panics_caught, 1, "panic counted honestly");
    assert_exact(addr, &truth, "after injected panic");
    ask(addr, &Request::Shutdown).expect("shutdown");
    server.shutdown().expect("drain");
}

#[test]
fn torn_response_frame_fails_one_connection_not_the_daemon() {
    let _guard = chaos_guard();
    let g = chaos_graph();
    let truth = ground_truth(&g);
    let oracle = OracleBuilder::new(Method::Hl).threads(2).build(&g);
    let state = Arc::new(ServeState::new(oracle, 4, 0));
    let server =
        serve_with_model(Arc::clone(&state), "127.0.0.1:0", ServeModel::Epoll).expect("serve");
    let addr = server.addr();

    // The next response is cut off three bytes in: the client must see
    // a decode failure (truncated frame), not a wrong answer.
    failpoints::configure_window("serve.torn_response", FailAction::Torn(3), 0, 1);
    match ask(addr, &Request::Distance(0, 5)) {
        Err(_) => {}
        Ok(other) => panic!("torn frame decoded as {other:?}"),
    }
    // Only that connection died; the daemon keeps answering exactly.
    assert_exact(addr, &truth, "after torn frame");
    ask(addr, &Request::Shutdown).expect("shutdown");
    server.shutdown().expect("drain");
}

#[test]
fn slow_loris_is_reaped_while_healthy_clients_stay_exact() {
    let _guard = chaos_guard();
    let g = chaos_graph();
    let truth = ground_truth(&g);
    let oracle = OracleBuilder::new(Method::Hl).threads(2).build(&g);
    let config = ServeConfig {
        idle_timeout: Some(Duration::from_millis(800)),
        stall_timeout: Some(Duration::from_millis(250)),
        ..ServeConfig::default()
    };
    let state = Arc::new(ServeState::new(oracle, 4, 0).with_config(config));
    let server =
        serve_with_model(Arc::clone(&state), "127.0.0.1:0", ServeModel::Epoll).expect("serve");
    let addr = server.addr();

    // The loris sends a frame header promising 100 bytes, then stalls.
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    loris
        .write_all(&100u32.to_le_bytes())
        .expect("loris header");
    loris.flush().expect("loris flush");

    // Healthy traffic keeps flowing, bit-exact, while the loris ages out.
    let stats = {
        let mut rounds = 0;
        loop {
            assert_exact(addr, &truth, "alongside slow loris");
            rounds += 1;
            let s = state.stats();
            if s.connections_reaped >= 1 {
                break s;
            }
            assert!(rounds < 100, "loris never reaped: {s:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    assert!(stats.connections_accepted >= 2, "accepts counted");
    drop(loris);
    ask(addr, &Request::Shutdown).expect("shutdown");
    server.shutdown().expect("drain");
}

#[test]
fn midbatch_update_panic_keeps_queries_exact_and_disables_engine() {
    let _guard = chaos_guard();
    let (state, truth) = updatable_state(Method::Ch);
    let batch = chaos_batch(&chaos_graph());
    let server =
        serve_with_model(Arc::clone(&state), "127.0.0.1:0", ServeModel::Epoll).expect("serve");
    let addr = server.addr();

    failpoints::configure_window("serve.update.absorb", FailAction::Panic, 0, 1);
    match ask(addr, &Request::UpdateWeights(batch.clone())) {
        Ok(Response::Error(msg)) => assert!(
            msg.contains("mid-apply"),
            "unexpected mid-apply error text: {msg}"
        ),
        other => panic!("faulted update got {other:?}"),
    }
    // No partial application: queries answer exactly on the old weights.
    assert_exact(addr, &truth, "after mid-batch panic");
    let stats = state.stats();
    assert_eq!(stats.epoch, 0, "no generation was published");
    assert_eq!(stats.panics_caught, 1, "absorb panic counted");

    // The damaged engine refuses further batches with a typed error.
    match ask(addr, &Request::UpdateWeights(batch)) {
        Ok(Response::Error(msg)) => assert!(
            msg.contains("disabled"),
            "unexpected disabled-engine text: {msg}"
        ),
        other => panic!("post-fault update got {other:?}"),
    }
    assert_exact(addr, &truth, "engine disabled");
    ask(addr, &Request::Shutdown).expect("shutdown");
    server.shutdown().expect("drain");
}

#[test]
fn concurrent_update_batches_shed_exactly_one_with_overloaded() {
    let _guard = chaos_guard();
    let (state, _) = updatable_state(Method::Ch);
    let mut g = chaos_graph();
    let batch = chaos_batch(&g);
    // Both racing clients carry the same batch, so whichever one wins
    // the engine, the published weights are the same.
    hc2l_dynamic::apply_batch(&mut g, &batch);
    let new_truth = ground_truth(&g);
    let server =
        serve_with_model(Arc::clone(&state), "127.0.0.1:0", ServeModel::Epoll).expect("serve");
    let addr = server.addr();

    // Hold the absorb window open long enough for the second batch to
    // collide with the first.
    failpoints::configure_window("serve.update.absorb", FailAction::DelayMs(400), 0, 1);
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let batch = batch.clone();
                scope.spawn(move || ask(addr, &Request::UpdateWeights(batch)).expect("ask"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let updated = responses
        .iter()
        .filter(|r| matches!(r, Response::Updated(_)))
        .count();
    let shed = responses
        .iter()
        .filter(|r| matches!(r, Response::Overloaded(_)))
        .count();
    assert_eq!(
        (updated, shed),
        (1, 1),
        "expected one absorbed and one shed, got {responses:?}"
    );
    // The shed batch was never partially applied: retrying it verbatim
    // is safe, and queries answer on the winner's weights.
    assert_exact(addr, &new_truth, "after racing batches");
    let stats = state.stats();
    assert_eq!(stats.update_batches, 1, "one batch absorbed");
    assert!(stats.overload_rejections >= 1, "shed counted");
    ask(addr, &Request::Shutdown).expect("shutdown");
    server.shutdown().expect("drain");
}

#[test]
fn forced_recontract_abort_falls_back_to_rebuild_exactly() {
    let _guard = chaos_guard();
    let (state, _) = updatable_state(Method::Ch);
    let mut g = chaos_graph();
    let batch = chaos_batch(&g);
    hc2l_dynamic::apply_batch(&mut g, &batch);
    let new_truth = ground_truth(&g);
    let server =
        serve_with_model(Arc::clone(&state), "127.0.0.1:0", ServeModel::Epoll).expect("serve");
    let addr = server.addr();

    // The CH incremental path reports failure; the engine must fall
    // back to a full rebuild and stay exact.
    failpoints::configure_window("dynamic.recontract.abort", FailAction::Trigger, 0, 1);
    match ask(addr, &Request::UpdateWeights(batch)) {
        Ok(Response::Updated(outcome)) => {
            assert_eq!(
                outcome.strategy_tag,
                hc2l_dynamic::UpdateStrategy::Rebuild.tag(),
                "aborted recontraction must fall back to rebuild"
            );
            assert_eq!(outcome.epoch, 1, "new generation published");
        }
        other => panic!("update got {other:?}"),
    }
    assert_exact(addr, &new_truth, "after forced rebuild");
    ask(addr, &Request::Shutdown).expect("shutdown");
    server.shutdown().expect("drain");
}

#[test]
fn query_admission_sheds_under_injected_slow_requests() {
    let _guard = chaos_guard();
    let g = chaos_graph();
    let truth = ground_truth(&g);
    let oracle = OracleBuilder::new(Method::Hl).threads(2).build(&g);
    let config = ServeConfig {
        max_inflight: 1,
        ..ServeConfig::default()
    };
    let state = Arc::new(ServeState::new(oracle, 4, 0).with_config(config));
    let server =
        serve_with_model(Arc::clone(&state), "127.0.0.1:0", ServeModel::Epoll).expect("serve");
    let addr = server.addr();

    // Every admitted query executes slowly; with a 1-slot cap, a burst
    // of six concurrent clients must shed at least one.
    failpoints::configure("serve.request", FailAction::DelayMs(300));
    let pairs: Vec<(Vertex, Vertex)> = sample_pairs(g.num_vertices()).into_iter().take(6).collect();
    let responses: Vec<(Vertex, Vertex, Response)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| {
                scope.spawn(move || (s, t, ask(addr, &Request::Distance(s, t)).expect("ask")))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    failpoints::clear("serve.request");

    let mut shed = Vec::new();
    for (s, t, resp) in responses {
        match resp {
            // Bounded degradation: an answered query is exact...
            Response::Distance(d) => assert_eq!(
                d, truth[s as usize][t as usize],
                "admitted query ({s}, {t}) mismatch under overload"
            ),
            // ...and a shed one is typed, never a wrong answer.
            Response::Overloaded(msg) => {
                assert!(!msg.is_empty(), "shed reason is populated");
                shed.push((s, t));
            }
            other => panic!("overload burst got {other:?}"),
        }
    }
    assert!(!shed.is_empty(), "the 1-slot cap never shed");
    let stats = state.stats();
    assert!(
        stats.overload_rejections >= shed.len() as u64,
        "sheds counted honestly"
    );
    // Overloaded is retry-safe: the same frames answer exactly once the
    // injected slowness is gone.
    for (s, t) in shed {
        match ask(addr, &Request::Distance(s, t)) {
            Ok(Response::Distance(d)) => assert_eq!(
                d, truth[s as usize][t as usize],
                "verbatim retry of shed query ({s}, {t})"
            ),
            other => panic!("retry of ({s}, {t}) got {other:?}"),
        }
    }
    ask(addr, &Request::Shutdown).expect("shutdown");
    server.shutdown().expect("drain");
}
