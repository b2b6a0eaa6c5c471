//! The two workloads and the traced layer probe they share.
//!
//! * `embedded` — the library inside an application: one thread calls
//!   `ServeState::distance` directly on a Zipf-skewed pair stream, so the
//!   result cache serves most of the traffic (hit rate strictly between 0
//!   and 1) and the HC2L index the rest.
//! * `live` — the daemon's path under live traffic: a pipelined client
//!   sends Zipf-skewed `Distance` frames over loopback TCP to the epoll
//!   server while an open-loop feed sends `UpdateWeights` batches on a
//!   fixed schedule. Every absorbed batch
//!   publishes a new generation and invalidates the cache, and every answer
//!   is checked against the generations that could have produced it.
//!
//! Both workloads draw the same traffic from the same seed. End-to-end
//! numbers come from untraced runs. A traced run repeats the
//! same traffic, then sends a sample of the workload's own requests through
//! each layer one at a time (client encode, loopback transport, server
//! decode, execute, server encode, client decode, the bare index query, an
//! update batch) and records a span around every call.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hc2l_graph::{Distance, Graph};
use hc2l_obs::clock;
use hc2l_oracle::{DistanceOracle, Method, Oracle, OracleBuilder};
use hc2l_serve::{
    serve_with_model, write_request, write_response, FrameDecoder, Request, Response, ServeModel,
    ServeState, ServerHandle,
};

use crate::hist::{clock_overhead_ns, median, Windows};
use crate::inputs::{self, Query, Rng, Truth};
use crate::trace::Tracer;

/// Side of the square city network every workload serves: its index
/// (about 1.5 MB) stays within a core's L2, which keeps runs steady on a
/// shared host.
const MAP_SIDE: usize = 48;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Result-cache entries (the daemon's default).
const CACHE: usize = 1 << 16;
/// Server reactor threads.
const REACTORS: usize = 1;
/// Requests per chunk of the embedded loop, which reads the run's clock
/// once per chunk.
const CHUNK: usize = 4096;
/// One chunk in this many of the embedded loop times each of its requests
/// for latency; only the untimed chunks count towards throughput.
const EMBEDDED_SAMPLE: usize = 4;
/// Requests the `live` client sends before waiting for their answers.
const PIPELINE: usize = 16;
/// Width of the windows traffic metrics are taken over.
const WINDOW: Duration = Duration::from_millis(250);
/// Share of its windows, the fastest, that `embedded` reports. Its windows
/// all do the same work, and on a shared host they swing between a fast and
/// a slow level for seconds at a time as the neighbours' load changes, so
/// the median window flips between the levels from run to run. Neighbours
/// only ever slow a window down; the fastest tenth is the program's own
/// pace. `live` keeps every window: only some of its windows absorb an
/// update, and those must count.
const EMBEDDED_KEEP: f64 = 0.1;

// The traffic, the same for both workloads. Pairs come from the paper's
// distance-stratified query sets; the popularity skew, the pool size
// (chosen larger than `CACHE`, so that the hit rate stays below 1) and the
// update feed below are assumptions, not measured from a deployment.
/// Pairs per distance set Q1..Q10 in the pool the stream draws from.
const PAIRS_PER_BUCKET: usize = 1 << 14;
/// Zipf exponent of pair popularity.
const ZIPF_EXPONENT: f64 = 0.9;
/// Requests in the stream a client cycles through.
const STREAM_LEN: usize = 1 << 20;
/// The `live` feed sends a batch of `UPDATE_BATCH` re-weighted edges every
/// `UPDATE_PERIOD`.
const UPDATE_PERIOD: Duration = Duration::from_millis(500);
const UPDATE_BATCH: usize = 8;

/// One in this many timed requests also records a traffic span.
const TRAFFIC_SPAN_EVERY: u64 = 256;
/// Requests each stage of the layer probe sees.
const PROBE_REQUESTS: usize = 4000;
/// Update batches the probe absorbs on workloads without a live feed.
const PROBE_UPDATES: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Embedded,
    Live,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "embedded" => Some(Workload::Embedded),
            "live" => Some(Workload::Live),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One named measurement of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not per-request (update outcomes, server counters).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub tracer: Option<Tracer>,
    /// Median absorb time of the live feed's batches.
    update_absorb_ms: Option<f64>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What every workload sets up: the network, the index and the serving
/// state built over it.
struct System {
    graph: Graph,
    state: Arc<ServeState>,
    /// The index as built, kept for per-query work counts in traced runs.
    oracle: Oracle,
}

/// Builds the system `SETUPS` times and keeps the last; returns the
/// median set-up time and the median index-build time.
fn set_up(workload: Workload) -> (System, f64, f64) {
    let mut setup_times = Vec::new();
    let mut build_times = Vec::new();
    let mut system = None;
    for _ in 0..SETUPS {
        drop(system.take());
        let t0 = Instant::now();
        let graph = inputs::road_network(MAP_SIDE);
        let b0 = Instant::now();
        let oracle = OracleBuilder::new(Method::Hc2l).build(&graph);
        let build_s = b0.elapsed().as_secs_f64();
        let state = match workload {
            Workload::Live => {
                ServeState::with_updates(graph.clone(), oracle.clone(), REACTORS, CACHE)
            }
            _ => ServeState::new(oracle.clone(), REACTORS, CACHE),
        };
        setup_times.push(t0.elapsed().as_secs_f64());
        build_times.push(build_s);
        system = Some(System {
            graph,
            state: Arc::new(state),
            oracle,
        });
    }
    let system = system.expect("SETUPS > 0");
    (system, median(&setup_times), median(&build_times))
}

pub fn run(args: RunArgs) -> Outcome {
    let (system, setup_s, build_s) = set_up(args.workload);
    let mut rng = Rng::new(args.seed);
    let (sources, pool) = inputs::pair_pool(&system.graph, PAIRS_PER_BUCKET, &mut rng);
    eprintln!(
        "traffic: {} pairs from {} sources in the pool",
        pool.len(),
        sources.len()
    );
    let truth = Truth::new(&system.graph, sources);
    let stream = inputs::zipf_stream(&pool, ZIPF_EXPONENT, STREAM_LEN, &mut rng);
    let origin = Instant::now();
    // A server can serve one state once, so the `live` server also answers
    // the traced probe; the embedded workload starts one only for the
    // probe, keeping its measured traffic free of reactor threads.
    let mut server = (args.workload != Workload::Embedded).then(|| start_server(&system.state));
    let mut tracer = Tracer::new(origin);
    let mut outcome = match (args.workload, &server) {
        (Workload::Embedded, _) => embedded(&system.state, &stream, &truth, args, &mut tracer),
        (Workload::Live, Some(server)) => live(
            server.addr(),
            &system.graph,
            &stream,
            &truth,
            args,
            &mut tracer,
        ),
        (Workload::Live, None) => unreachable!("the live workload starts a server"),
    };

    let stats = system.state.stats();
    if stats.cache_hits + stats.cache_misses == 0 {
        outcome.problems.push("no request reached the cache".into());
    }
    eprintln!("cache hit rate {:.3}", stats.cache_hit_rate());
    if args.trace {
        let hit_rate = stats.cache_hit_rate();
        let probe_queries = inputs::zipf_stream(&pool, ZIPF_EXPONENT, PROBE_REQUESTS, &mut rng);
        // Answers now come from the last published generation.
        let truth = match system.state.epoch() {
            0 => truth,
            epochs => {
                let mut graph = system.graph.clone();
                for k in 1..=epochs {
                    let batch = inputs::update_batch(&system.graph, UPDATE_BATCH, args.seed, k);
                    inputs::apply(&mut graph, &batch);
                }
                Truth::new(&graph, truth.sources.clone())
            }
        };
        let addr = server
            .get_or_insert_with(|| start_server(&system.state))
            .addr();
        let layers = probe_layers(
            &system,
            addr,
            &probe_queries,
            &truth,
            args,
            &mut tracer,
            &mut outcome,
        );
        outcome.metrics = vec![
            metric("index_build_ms", build_s * 1e3, "ms"),
            metric("index_bytes", stats.index_bytes as f64, "bytes"),
            metric("index_query_ns", layers.index_query_ns, "ns"),
            metric("index_hubs_scanned", layers.hubs_scanned, "count"),
            metric("cache_hit_rate", hit_rate, "ratio"),
            metric("serve_execute_ns", layers.execute_ns, "ns"),
            metric("protocol_codec_ns", layers.codec_ns, "ns"),
            metric("transport_us", layers.transport_us, "us"),
            metric("update_absorb_ms", layers.update_absorb_ms, "ms"),
        ];
        outcome.tracer = Some(tracer);
    } else {
        outcome.metrics.push(metric("setup_s", setup_s, "s"));
    }
    if let Some(server) = server {
        if let Err(e) = server.shutdown() {
            outcome
                .problems
                .push(format!("server shutdown failed: {e}"));
        }
    }
    outcome
}

/// Throughput and per-request latency of a finished traffic phase: the
/// median over the fastest `keep` share of its `WINDOW`-wide windows, less
/// the clock overhead.
fn traffic_metrics(windows: &Windows, overhead_ns: f64, keep: f64) -> Vec<Metric> {
    let (qps, p50_ns, p99_ns) = windows.summary(overhead_ns, keep);
    vec![
        metric("throughput_qps", qps, "1/s"),
        metric("latency_p50_us", p50_ns / 1e3, "us"),
        metric("latency_p99_us", p99_ns / 1e3, "us"),
    ]
}

fn windows(start_ns: u64, args: RunArgs) -> Windows {
    let width_ns = WINDOW.as_nanos() as u64;
    Windows::new(
        start_ns,
        width_ns,
        (args.seconds * 1_000_000_000 / width_ns) as usize,
    )
}

/// Closed loop in process. Latency is timed with the TSC clock, the
/// cheapest the program has, around each request of every
/// `EMBEDDED_SAMPLE`-th chunk; throughput comes from the other chunks, so
/// the clock reads cost it nothing.
fn embedded(
    state: &ServeState,
    stream: &[Query],
    truth: &Truth,
    args: RunArgs,
    tracer: &mut Tracer,
) -> Outcome {
    let expected: Vec<Distance> = stream
        .iter()
        .map(|q| truth.get(q.source_idx, q.t))
        .collect();
    clock::calibrate();
    let overhead_ns = clock_overhead_ns(|| clock::ns_since(clock::now()));
    let start_ns = tracer.now();
    let deadline_ns = start_ns + args.seconds * 1_000_000_000;
    let mut win = windows(start_ns, args);
    let mut outcome = Outcome::default();
    'run: loop {
        let chunks = stream.chunks(CHUNK).zip(expected.chunks(CHUNK));
        for (i, (chunk, want)) in chunks.enumerate() {
            let c0 = tracer.now();
            if c0 >= deadline_ns {
                break 'run;
            }
            if !i.is_multiple_of(EMBEDDED_SAMPLE) {
                for (q, &w) in chunk.iter().zip(want) {
                    outcome.failed += (state.distance(q.s, q.t) != w) as u64;
                }
                outcome.attempted += chunk.len() as u64;
                let c1 = tracer.now();
                win.completed(c1, chunk.len() as u64, c1 - c0);
                continue;
            }
            for (q, &w) in chunk.iter().zip(want) {
                let traced = args.trace && outcome.attempted.is_multiple_of(TRAFFIC_SPAN_EVERY);
                let span_start = if traced { tracer.now() } else { 0 };
                let t0 = clock::now();
                let d = state.distance(q.s, q.t);
                let ns = clock::ns_since(t0);
                win.latency(c0, ns);
                if traced {
                    let end = span_start + ns;
                    tracer.record("request", 0, outcome.attempted, span_start, end);
                }
                outcome.failed += (d != w) as u64;
                outcome.attempted += 1;
            }
        }
    }
    outcome.metrics = traffic_metrics(&win, overhead_ns, EMBEDDED_KEEP);
    outcome
}

/// A blocking protocol client over one TCP connection.
struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::with_capacity(64),
            buf: vec![0; 64 << 10],
        })
    }

    /// Appends a request frame to the send buffer.
    fn encode(&mut self, req: &Request) -> std::io::Result<()> {
        write_request(&mut self.out, req)
    }

    /// Sends every buffered request frame.
    fn send(&mut self) -> std::io::Result<()> {
        self.stream.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    /// Reads until a whole response frame is buffered.
    fn await_frame(&mut self) -> std::io::Result<()> {
        while !self.decoder.has_complete_frame() {
            let got = self.stream.read(&mut self.buf)?;
            if got == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.decoder.feed(&self.buf[..got]);
        }
        Ok(())
    }

    fn decode(&mut self) -> std::io::Result<Response> {
        self.decoder
            .next_response()?
            .ok_or_else(|| std::io::ErrorKind::UnexpectedEof.into())
    }

    fn round_trip(&mut self) -> std::io::Result<()> {
        self.send()?;
        self.await_frame()
    }

    fn ask(&mut self, req: &Request) -> std::io::Result<Response> {
        self.encode(req)?;
        self.round_trip()?;
        self.decode()
    }
}

fn start_server(state: &Arc<ServeState>) -> ServerHandle {
    serve_with_model(Arc::clone(state), ("127.0.0.1", 0), ServeModel::Epoll)
        .expect("bind a loopback listener")
}

/// One answered query of the `live` client: its send and receive times on the
/// run's clock bracket the generations the answer may come from.
#[derive(Debug, Clone, Copy)]
struct Answer {
    sent_ns: u64,
    recv_ns: u64,
    query: Query,
    distance: Distance,
}

/// Closed loop over one connection: send a window of `PIPELINE` requests,
/// wait for their answers, repeat for the run's seconds. Answers are
/// returned for checking against per-generation truth afterwards.
fn client_loop(
    addr: SocketAddr,
    stream: &[Query],
    args: RunArgs,
    tracer: &mut Tracer,
) -> (Outcome, Vec<Answer>) {
    let mut outcome = Outcome::default();
    let mut answers = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            outcome
                .problems
                .push(format!("client connection failed: {e}"));
            return (outcome, answers);
        }
    };
    let overhead_ns = clock_overhead_ns(|| {
        let t0 = tracer.now();
        tracer.now() - t0
    });
    let start_ns = tracer.now();
    let deadline_ns = start_ns + args.seconds * 1_000_000_000;
    let mut win = windows(start_ns, args);
    'run: loop {
        for batch in stream.chunks(PIPELINE) {
            let sent_ns = tracer.now();
            if sent_ns >= deadline_ns {
                break 'run;
            }
            let sent = batch
                .iter()
                .try_for_each(|q| client.encode(&Request::Distance(q.s, q.t)))
                .and_then(|_| client.send());
            let mut recv_ns = sent_ns;
            for q in batch {
                outcome.attempted += 1;
                let reply = match &sent {
                    Ok(()) => client.await_frame().and_then(|_| client.decode()),
                    Err(e) => Err(e.kind().into()),
                };
                recv_ns = tracer.now();
                win.latency(recv_ns, recv_ns - sent_ns);
                if args.trace && outcome.attempted.is_multiple_of(TRAFFIC_SPAN_EVERY) {
                    tracer.record("request", 0, outcome.attempted, sent_ns, recv_ns);
                }
                match reply {
                    Ok(Response::Distance(d)) => answers.push(Answer {
                        sent_ns,
                        recv_ns,
                        query: *q,
                        distance: d,
                    }),
                    Ok(_) => outcome.failed += 1,
                    Err(_) => {
                        outcome.failed += 1;
                        break 'run;
                    }
                }
            }
            win.completed(recv_ns, batch.len() as u64, recv_ns - sent_ns);
        }
    }
    outcome.metrics = traffic_metrics(&win, overhead_ns, 1.0);
    (outcome, answers)
}

/// One absorbed update batch as the feed saw it, on the run's clock.
#[derive(Debug, Clone, Copy)]
struct Absorbed {
    sent_ns: u64,
    acked_ns: u64,
    absorb_us: u64,
}

fn live(
    addr: SocketAddr,
    original: &Graph,
    stream: &[Query],
    truth: &Truth,
    args: RunArgs,
    tracer: &mut Tracer,
) -> Outcome {
    let origin = tracer.origin();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let ((mut outcome, answers), feed) = std::thread::scope(|scope| {
        let feed =
            scope.spawn(move || update_feed(addr, original, args.seed, origin, start, deadline));
        let traffic = client_loop(addr, stream, args, tracer);
        (traffic, feed.join().expect("update feed panicked"))
    });
    let (absorbed, lateness_ms) = match feed {
        Ok((absorbed, lateness_ms, problems)) => {
            outcome.problems.extend(problems);
            (absorbed, lateness_ms)
        }
        Err(e) => {
            outcome.problems.push(format!("update feed failed: {e}"));
            (Vec::new(), 0.0)
        }
    };
    if absorbed.is_empty() {
        outcome.problems.push("no update batch was absorbed".into());
    }
    eprintln!(
        "live: {} batches absorbed, feed ran at most {lateness_ms:.1} ms late",
        absorbed.len()
    );
    outcome.failed += check_generations(original, truth, &absorbed, answers, args.seed);
    let absorb_ms: Vec<f64> = absorbed.iter().map(|a| a.absorb_us as f64 / 1e3).collect();
    outcome.update_absorb_ms = Some(median(&absorb_ms));
    outcome
}

type FeedResult = (Vec<Absorbed>, f64, Vec<String>);

/// Open loop: batch `k` is due at `start + k * UPDATE_PERIOD` whatever
/// the server's pace; lateness is how far behind schedule a send went out.
fn update_feed(
    addr: SocketAddr,
    original: &Graph,
    seed: u64,
    origin: Instant,
    start: Instant,
    deadline: Instant,
) -> std::io::Result<FeedResult> {
    let mut client = Client::connect(addr)?;
    let mut absorbed = Vec::new();
    let mut problems = Vec::new();
    let mut lateness_ms: f64 = 0.0;
    for k in 1u64.. {
        let due = start + UPDATE_PERIOD * k as u32;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        lateness_ms = lateness_ms.max((sent - due).as_secs_f64() * 1e3);
        let batch = inputs::update_batch(original, UPDATE_BATCH, seed, k);
        let reply = client.ask(&Request::UpdateWeights(batch))?;
        let acked = Instant::now();
        match reply {
            Response::Updated(o) if o.epoch == k && o.rejected == 0 => absorbed.push(Absorbed {
                sent_ns: (sent - origin).as_nanos() as u64,
                acked_ns: (acked - origin).as_nanos() as u64,
                absorb_us: o.micros.max(1),
            }),
            other => {
                problems.push(format!("update batch {k}: unexpected reply {other:?}"));
                break;
            }
        }
    }
    Ok((absorbed, lateness_ms, problems))
}

/// Checks every live answer against the generations that could have
/// served it: generation `e` (after `e` batches) is certainly visible to a
/// query sent after batch `e` was acknowledged, and possibly visible to one
/// answered after batch `e` was sent. Returns the answers no such
/// generation explains.
fn check_generations(
    original: &Graph,
    truth: &Truth,
    absorbed: &[Absorbed],
    answers: Vec<Answer>,
    seed: u64,
) -> u64 {
    // The oldest and newest generation an answer may come from. Answers
    // are in the order they were sent and received, so both only grow
    // along the list, and the answers a generation may explain are one
    // contiguous run.
    let oldest = |a: &Answer| absorbed.partition_point(|b| b.acked_ns <= a.sent_ns);
    let newest = |a: &Answer| {
        absorbed
            .partition_point(|b| b.sent_ns <= a.recv_ns)
            .max(oldest(a))
    };
    let mut explained = vec![false; answers.len()];
    let mut graph = original.clone();
    let mut gen_truth = truth.clone();
    for epoch in 0..=absorbed.len() {
        if epoch > 0 {
            inputs::apply(
                &mut graph,
                &inputs::update_batch(original, UPDATE_BATCH, seed, epoch as u64),
            );
            gen_truth = Truth::new(&graph, truth.sources.clone());
        }
        let first = answers.partition_point(|a| newest(a) < epoch);
        let end = answers.partition_point(|a| oldest(a) <= epoch);
        for (a, ok) in answers[first..end].iter().zip(&mut explained[first..end]) {
            *ok = *ok || a.distance == gen_truth.get(a.query.source_idx, a.query.t);
        }
    }
    explained.iter().filter(|&&ok| !ok).count() as u64
}

/// Per-layer numbers from the traced probe.
#[derive(Debug, Default)]
struct Layers {
    index_query_ns: f64,
    hubs_scanned: f64,
    execute_ns: f64,
    codec_ns: f64,
    transport_us: f64,
    update_absorb_ms: f64,
}

/// Sends the probe queries through each layer, one layer per pass so
/// each pass runs warm, with a span around every call: the client side of
/// a loopback request (encode, round trip, decode), the server's steps run
/// in process (decode, execute, encode) — which split the round trip into
/// server time and transport — and the bare index. Every answer is
/// checked.
fn probe_layers(
    system: &System,
    addr: SocketAddr,
    queries: &[Query],
    truth: &Truth,
    args: RunArgs,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Layers {
    let state = &system.state;
    let generation = state.oracle();
    let check = |reply: Option<Response>, q: &Query, outcome: &mut Outcome| {
        outcome.attempted += 1;
        let ok = matches!(reply, Some(Response::Distance(d)) if d == truth.get(q.source_idx, q.t));
        outcome.failed += !ok as u64;
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            outcome
                .problems
                .push(format!("probe connection failed: {e}"));
            return Layers::default();
        }
    };
    // Probe request ids sit above any traffic request id.
    let ids = (1u64 << 40)..;

    for (request, q) in ids.clone().zip(queries) {
        let req = Request::Distance(q.s, q.t);
        let root = tracer.reserve();
        let t0 = tracer.now();
        let encoded = client.encode(&req);
        let t1 = tracer.now();
        let sent = encoded.and_then(|_| client.round_trip());
        let t2 = tracer.now();
        let reply = sent.and_then(|_| client.decode());
        let t3 = tracer.now();
        tracer.record("client_encode", root, request, t0, t1);
        tracer.record("round_trip", root, request, t1, t2);
        tracer.record("client_decode", root, request, t2, t3);
        tracer.record_as(root, "client_request", 0, request, t0, t3);
        check(reply.ok(), q, outcome);
    }

    let (mut frame, mut encoded, mut batch) = (Vec::new(), Vec::new(), Vec::new());
    let mut decoder = FrameDecoder::new();
    for (request, q) in ids.clone().zip(queries) {
        frame.clear();
        let _ = write_request(&mut frame, &Request::Distance(q.s, q.t));
        let root = tracer.reserve();
        let t0 = tracer.now();
        decoder.feed(&frame);
        let decoded = decoder.next_request();
        let t1 = tracer.now();
        let resp = match decoded {
            Ok(Some(req)) => state.execute(&req, &mut batch),
            _ => Response::Error("probe frame failed to decode".into()),
        };
        let t2 = tracer.now();
        encoded.clear();
        let _ = write_response(&mut encoded, &resp);
        let t3 = tracer.now();
        tracer.record("server_decode", root, request, t0, t1);
        tracer.record("serve_execute", root, request, t1, t2);
        tracer.record("server_encode", root, request, t2, t3);
        tracer.record_as(root, "server_request", 0, request, t0, t3);
        check(Some(resp), q, outcome);
    }

    // The bare index: no cache, counters or histograms in front of it.
    for (request, q) in ids.zip(queries) {
        let t0 = tracer.now();
        let d = generation.distance(q.s, q.t);
        let t1 = tracer.now();
        tracer.record("index_query", 0, request, t0, t1);
        check(Some(Response::Distance(d)), q, outcome);
    }
    let hubs = queries
        .iter()
        .map(|q| system.oracle.distance_with_stats(q.s, q.t).1.hubs_scanned as f64)
        .sum::<f64>()
        / queries.len() as f64;

    // The live run already measured its feed's batches.
    let update_absorb_ms = match outcome.update_absorb_ms {
        Some(ms) => ms,
        None => probe_updates(system, args.seed, tracer, outcome),
    };

    let med = |name: &str| median(&tracer.self_times(name));
    let server_ns = med("server_decode") + med("serve_execute") + med("server_encode");
    Layers {
        index_query_ns: med("index_query"),
        hubs_scanned: hubs,
        execute_ns: med("serve_execute"),
        codec_ns: med("client_encode")
            + med("client_decode")
            + med("server_decode")
            + med("server_encode"),
        transport_us: (med("round_trip") - server_ns).max(1.0) / 1e3,
        update_absorb_ms,
    }
}

/// Absorbs a few feed batches on an updatable copy of the system and
/// checks the re-weighted index against Dijkstra. The figure is the
/// engine's own absorb time, as the live feed reports it; the span around
/// the whole call goes to the trace.
fn probe_updates(system: &System, seed: u64, tracer: &mut Tracer, outcome: &mut Outcome) -> f64 {
    let state = ServeState::with_updates(system.graph.clone(), system.oracle.clone(), 1, 0);
    let mut graph = system.graph.clone();
    let mut absorb_ms = Vec::new();
    for k in 1..=PROBE_UPDATES {
        let batch = inputs::update_batch(&system.graph, UPDATE_BATCH, seed, k);
        inputs::apply(&mut graph, &batch);
        let t0 = tracer.now();
        let result = state.try_apply_updates(&batch);
        let t1 = tracer.now();
        tracer.record("update_absorb", 0, k, t0, t1);
        match result {
            Ok(o) if o.rejected == 0 => absorb_ms.push(o.micros.max(1) as f64 / 1e3),
            other => outcome
                .problems
                .push(format!("probe update {k}: {other:?}")),
        }
    }
    let mut rng = Rng::new(seed ^ 0xABCD);
    let sources = inputs::pick_sources(&graph, 4, &mut rng);
    let truth = Truth::new(&graph, sources);
    let generation = state.oracle();
    for (si, &s) in truth.sources.iter().enumerate() {
        for _ in 0..64 {
            let t = rng.below(graph.num_vertices()) as u32;
            outcome.attempted += 1;
            outcome.failed += (generation.distance(s, t) != truth.get(si as u32, t)) as u64;
        }
    }
    median(&absorb_ms)
}
