//! `hc2l-query` — client for the `hc2l-serve` daemon.
//!
//! ```text
//! hc2l-query [--addr HOST:PORT | --addr-file FILE [--wait SECS]]
//!            [--retries N] [--deadline SECS] MODE
//!
//! resilience (all server modes):
//!   --retries N             retry budget per request (default 3):
//!                           `Overloaded` responses always retry — the
//!                           server shed the request before executing it —
//!                           with exponential backoff + jitter; connection
//!                           failures retry (reconnecting) only for
//!                           idempotent requests (--distance, --stats,
//!                           replay setup). Updates and shutdown fail fast:
//!                           the client cannot know whether they executed.
//!   --deadline SECS         overall wall-clock bound; when it passes, the
//!                           client stops (no further retries) and exits
//!                           non-zero with honest partial progress
//!
//! modes:
//!   --distance S T          one point-to-point query, prints the distance
//!   --replay FILE           replay a workload file (hc2l_roadnet format:
//!                           `source target [expected]` lines); gates
//!                           exactness when expected distances are present
//!     --reps N              replay the file N times (default 1)
//!     --batch N             group pairs by source and send one-to-many
//!                           requests of up to N targets (default: point
//!                           queries)
//!     --clients N           replay over N concurrent connections, each
//!                           running the full workload (default 1); the
//!                           printed q/s aggregates all clients
//!     --idle N              additionally hold N idle connections open for
//!                           the duration of the replay (default 0) — the
//!                           connection-scaling shape: many held
//!                           connections, few active ones
//!   --update U V W          re-weight edge (U, V) to W on the live daemon
//!   --update-file FILE      send a whole weight-update batch (hc2l_roadnet
//!                           update format: `u v new_weight` lines); both
//!                           print the strategy that absorbed the batch
//!                           (ch-customize / hc2l-relabel / rebuild),
//!                           applied/rejected counts and the new epoch
//!   --stats                 print server counters as a labeled table
//!                           (identity, traffic, cache, latency percentiles,
//!                           fault counters)
//!   --metrics               scrape the Prometheus text-exposition document
//!                           (the `Metrics` frame) to stdout — pipe it to a
//!                           file or a pushgateway
//!   --shutdown              stop the daemon
//!
//! workload generation (no server needed):
//!   --gen-grid RxC --out FILE [--count N] [--seed S] [--grid-seed S]
//!                           write a workload over the seeded reference
//!                           grid, with exact expected distances (Dijkstra)
//!     --apply-updates FILE  apply a weight-update batch to the grid first,
//!                           so the expected distances gate a daemon that
//!                           has absorbed the same batch
//!   --gen-grid RxC --gen-updates N --out FILE [--seed S] [--grid-seed S]
//!                           write a weight-update batch over the grid's
//!                           edges instead (mostly increases — live traffic)
//! ```
//!
//! Replay prints `replayed N queries in S s (QPS q/s), M mismatches` plus
//! per-client and aggregate request-latency percentiles (each client times
//! every frame round trip into a shared-histogram snapshot; the aggregate is
//! the merge). An `[INCOMPLETE]` replay still reports percentiles — over the
//! queries that did complete. It exits non-zero if any answer disagrees with
//! the file's expected
//! distance, if the server errors, or if nothing was replayed — which is
//! what the CI serve-smoke step gates on. A connection reset mid-replay is
//! reported honestly: the client prints how far each stream got and exits
//! non-zero instead of silently retrying (re-sent queries would double-count
//! throughput and mask the fault).

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::process::exit;
use std::time::{Duration, Instant};

use hc2l_graph::{dijkstra, Distance, INFINITY};
use hc2l_oracle::Method;
use hc2l_roadnet::{random_pairs, read_workload_file, seeded_grid, write_workload_file, QueryPair};
use hc2l_serve::{read_response, write_request, Request, Response};

#[derive(Default)]
struct Args {
    addr: Option<String>,
    addr_file: Option<String>,
    wait_secs: u64,
    distance: Option<(u32, u32)>,
    replay: Option<String>,
    reps: usize,
    batch: usize,
    clients: usize,
    idle: usize,
    stats: bool,
    metrics: bool,
    shutdown: bool,
    update: Option<hc2l_oracle::WeightUpdate>,
    update_file: Option<String>,
    gen_grid: Option<(usize, usize)>,
    gen_updates: usize,
    apply_updates: Option<String>,
    out: Option<String>,
    count: usize,
    seed: u64,
    grid_seed: u64,
    retries: usize,
    deadline_secs: u64,
}

fn usage() -> ! {
    eprintln!("see the module documentation at the top of query.rs for usage");
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        wait_secs: 30,
        reps: 1,
        clients: 1,
        count: 500,
        seed: 0xBEEF,
        grid_seed: 0xA11CE,
        retries: 3,
        ..Args::default()
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let read_value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("missing value for {}", argv[*i - 1]);
            exit(2);
        })
    };
    macro_rules! parse {
        ($i:expr, $what:literal) => {
            read_value($i).parse().unwrap_or_else(|_| {
                eprintln!(concat!("invalid ", $what));
                exit(2);
            })
        };
    }
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = Some(read_value(&mut i)),
            "--addr-file" => args.addr_file = Some(read_value(&mut i)),
            "--wait" => args.wait_secs = parse!(&mut i, "--wait"),
            "--distance" => {
                let s = parse!(&mut i, "--distance source");
                let t = parse!(&mut i, "--distance target");
                args.distance = Some((s, t));
            }
            "--replay" => args.replay = Some(read_value(&mut i)),
            "--reps" => args.reps = parse!(&mut i, "--reps"),
            "--batch" => args.batch = parse!(&mut i, "--batch"),
            "--clients" => args.clients = parse!(&mut i, "--clients"),
            "--idle" => args.idle = parse!(&mut i, "--idle"),
            "--stats" => args.stats = true,
            "--metrics" => args.metrics = true,
            "--shutdown" => args.shutdown = true,
            "--update" => {
                let u = parse!(&mut i, "--update endpoint");
                let v = parse!(&mut i, "--update endpoint");
                let w = parse!(&mut i, "--update weight");
                args.update = Some(hc2l_oracle::WeightUpdate::new(u, v, w));
            }
            "--update-file" => args.update_file = Some(read_value(&mut i)),
            "--gen-updates" => args.gen_updates = parse!(&mut i, "--gen-updates"),
            "--apply-updates" => args.apply_updates = Some(read_value(&mut i)),
            "--gen-grid" => {
                let v = read_value(&mut i);
                let (r, c) = v.split_once('x').unwrap_or_else(|| {
                    eprintln!("--gen-grid expects ROWSxCOLS, e.g. 16x16");
                    exit(2);
                });
                let rows = r.parse().unwrap_or(0);
                let cols = c.parse().unwrap_or(0);
                if rows == 0 || cols == 0 {
                    eprintln!("--gen-grid expects ROWSxCOLS, e.g. 16x16");
                    exit(2);
                }
                args.gen_grid = Some((rows, cols));
            }
            "--out" => args.out = Some(read_value(&mut i)),
            "--count" => args.count = parse!(&mut i, "--count"),
            "--seed" => args.seed = parse!(&mut i, "--seed"),
            "--grid-seed" => args.grid_seed = parse!(&mut i, "--grid-seed"),
            "--retries" => args.retries = parse!(&mut i, "--retries"),
            "--deadline" => args.deadline_secs = parse!(&mut i, "--deadline"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
        i += 1;
    }
    args
}

/// A connected session: framed requests over one TCP stream.
struct Session {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Session {
    fn try_connect(addr: &str) -> std::io::Result<Session> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Session {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn ask(&mut self, req: &Request) -> std::io::Result<Response> {
        write_request(&mut self.writer, req)?;
        match read_response(&mut self.reader)? {
            Some(resp) => Ok(resp),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server hung up",
            )),
        }
    }
}

/// Client-side resilience: a bounded retry budget with exponential backoff
/// and jitter, under an optional overall wall-clock `--deadline`.
struct RetryPolicy {
    retries: usize,
    deadline: Option<Instant>,
    /// xorshift64* state for backoff jitter (no rand dependency in bins).
    rng: u64,
}

impl RetryPolicy {
    fn new(args: &Args) -> RetryPolicy {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        RetryPolicy {
            retries: args.retries,
            deadline: (args.deadline_secs > 0)
                .then(|| Instant::now() + Duration::from_secs(args.deadline_secs)),
            rng: (std::process::id() as u64) << 32 | nanos | 1,
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Whether the overall `--deadline` has passed.
    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Sleeps before retry `attempt`: a uniform draw from [base/2, base]
    /// where base = 50ms * 2^attempt (capped at 3.2s) — the jitter spreads
    /// out clients that were all shed by the same overload spike. The sleep
    /// never overshoots the deadline; returns `false` when the deadline has
    /// already passed (do not retry).
    fn pause(&mut self, attempt: u32) -> bool {
        if self.past_deadline() {
            return false;
        }
        let base = 50u64 << attempt.min(6);
        let mut d = Duration::from_millis(base / 2 + self.next_rand() % (base / 2 + 1));
        if let Some(dl) = self.deadline {
            let left = dl.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            d = d.min(left);
        }
        std::thread::sleep(d);
        true
    }
}

/// Sends `req`, retrying within the policy budget: `Overloaded` responses
/// always retry (the server shed the request *before* executing it, so a
/// verbatim resend is safe); connection failures reconnect and retry only
/// for idempotent requests. Updates and shutdown fail fast on a connection
/// error — the client cannot know whether the server executed them.
/// Retries exhausted (or deadline passed) exits non-zero.
fn ask_resilient(
    addr: &str,
    policy: &mut RetryPolicy,
    session: &mut Option<Session>,
    req: &Request,
) -> Response {
    let idempotent = matches!(
        req,
        Request::Distance(..) | Request::OneToMany { .. } | Request::Stats | Request::Metrics
    );
    let mut attempt = 0u32;
    loop {
        if policy.past_deadline() {
            eprintln!("--deadline exceeded before the request completed");
            exit(1);
        }
        if session.is_none() {
            match Session::try_connect(addr) {
                Ok(s) => *session = Some(s),
                Err(e) => {
                    if attempt as usize >= policy.retries || !policy.pause(attempt) {
                        eprintln!(
                            "cannot connect to {addr} after {} attempt(s): {e}",
                            attempt + 1
                        );
                        exit(1);
                    }
                    attempt += 1;
                    continue;
                }
            }
        }
        match session.as_mut().expect("connected above").ask(req) {
            Ok(Response::Overloaded(msg)) => {
                if attempt as usize >= policy.retries || !policy.pause(attempt) {
                    eprintln!("server overloaded, retries exhausted: {msg}");
                    exit(1);
                }
                eprintln!("server overloaded ({msg}); backing off");
                attempt += 1;
            }
            Ok(resp) => return resp,
            Err(e) => {
                *session = None; // stream state unknown: reconnect if we retry
                if !idempotent {
                    eprintln!(
                        "connection failed mid-request: {e}; not retrying — the server \
                         may already have executed it"
                    );
                    exit(1);
                }
                if attempt as usize >= policy.retries || !policy.pause(attempt) {
                    eprintln!("request failed after {} attempt(s): {e}", attempt + 1);
                    exit(1);
                }
                attempt += 1;
            }
        }
    }
}

/// `--addr` verbatim, or poll `--addr-file` until the daemon writes it.
fn resolve_addr(args: &Args) -> String {
    if let Some(addr) = &args.addr {
        return addr.clone();
    }
    let Some(file) = &args.addr_file else {
        eprintln!("--addr HOST:PORT or --addr-file FILE is required");
        exit(2);
    };
    let deadline = Instant::now() + Duration::from_secs(args.wait_secs);
    loop {
        if let Ok(text) = std::fs::read_to_string(file) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        if Instant::now() >= deadline {
            eprintln!("timed out waiting for {file}");
            exit(1);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn generate_workload(args: &Args) {
    let (rows, cols) = args.gen_grid.expect("gen mode");
    let Some(out) = &args.out else {
        eprintln!("--gen-grid needs --out FILE");
        exit(2);
    };
    let mut g = seeded_grid(rows, cols, args.grid_seed);
    if args.gen_updates > 0 {
        let updates = hc2l_roadnet::random_weight_updates(&g, args.gen_updates, args.seed);
        hc2l_roadnet::write_update_file(std::path::Path::new(out), &updates).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            exit(1);
        });
        eprintln!(
            "wrote {} weight updates over the {rows}x{cols} grid (seed {:#x}) to {out}",
            updates.len(),
            args.grid_seed
        );
        return;
    }
    if let Some(file) = &args.apply_updates {
        let updates =
            hc2l_roadnet::read_update_file(std::path::Path::new(file)).unwrap_or_else(|e| {
                eprintln!("cannot read updates {file}: {e}");
                exit(1);
            });
        let (applied, rejected) = hc2l_oracle::apply_batch(&mut g, &updates);
        eprintln!("applied {applied} updates from {file} to the grid ({rejected} rejected)");
    }
    let pairs = random_pairs(g.num_vertices(), args.count.max(1), args.seed);
    // Exact expected distances, one Dijkstra per distinct source.
    let mut by_source: std::collections::HashMap<u32, Vec<Distance>> =
        std::collections::HashMap::new();
    let expected: Vec<Distance> = pairs
        .iter()
        .map(|p| {
            by_source
                .entry(p.source)
                .or_insert_with(|| dijkstra(&g, p.source))[p.target as usize]
        })
        .collect();
    write_workload_file(std::path::Path::new(out), &pairs, Some(&expected)).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    eprintln!(
        "wrote {} queries over the {rows}x{cols} grid (seed {:#x}) to {out}",
        pairs.len(),
        args.grid_seed
    );
}

/// Groups every pair with the same source, wherever it occurs in the
/// replay, into one-to-many batches of at most `batch` targets. Sources
/// keep the order of their first pair, and targets keep replay order
/// within a source.
fn batch_plan(pairs: &[QueryPair], batch: usize) -> Vec<(u32, Vec<u32>)> {
    let mut plan: Vec<(u32, Vec<u32>)> = Vec::new();
    let mut by_source: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    let mut order: Vec<u32> = Vec::new();
    for p in pairs {
        let entry = by_source.entry(p.source).or_insert_with(|| {
            order.push(p.source);
            Vec::new()
        });
        entry.push(p.target);
    }
    for s in order {
        let targets = &by_source[&s];
        for chunk in targets.chunks(batch.max(1)) {
            plan.push((s, chunk.to_vec()));
        }
    }
    plan
}

/// One replay client's outcome. When the replay stopped early, `queries`
/// is the honest partial progress and `aborted` names the reason.
struct ClientRun {
    queries: u64,
    mismatches: u64,
    aborted: Option<String>,
    /// Request-latency snapshot (one sample per completed frame round trip;
    /// a batched request is one sample). Populated even for an aborted run.
    latency: hc2l_obs::Snapshot,
}

/// Records one answered query, gating it against the expected distance.
/// `reported` caps mismatch diagnostics across all concurrent clients.
fn check_answer(
    run: &mut ClientRun,
    expected: &std::collections::HashMap<(u32, u32), Distance>,
    reported: &std::sync::atomic::AtomicU64,
    s: u32,
    t: u32,
    got: Distance,
) {
    run.queries += 1;
    if let Some(&want) = expected.get(&(s, t)) {
        if got != want {
            if reported.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < 10 {
                let render = |d: Distance| {
                    if d >= INFINITY {
                        "inf".to_string()
                    } else {
                        d.to_string()
                    }
                };
                eprintln!(
                    "MISMATCH ({s}, {t}): server says {}, workload expects {}",
                    render(got),
                    render(want)
                );
            }
            run.mismatches += 1;
        }
    }
}

/// Replays the plan once per rep over one connection. `Overloaded`
/// responses retry with backoff within the policy budget; a connection
/// failure mid-replay stops this client with honest partial progress —
/// resending queries over a fresh connection would double-count throughput
/// and mask the fault, so replay never silently reconnects.
fn run_replay_client(
    addr: &str,
    args: &Args,
    client_id: usize,
    plan: &[Request],
    expected: &std::collections::HashMap<(u32, u32), Distance>,
    reported: &std::sync::atomic::AtomicU64,
) -> ClientRun {
    let mut policy = RetryPolicy::new(args);
    // Decorrelate the jitter streams of concurrent clients.
    policy.rng ^= (client_id as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut run = ClientRun {
        queries: 0,
        mismatches: 0,
        aborted: None,
        latency: hc2l_obs::Snapshot::default(),
    };
    // Per-frame round-trip latency: the same histogram the server records
    // into, client-side. Only completed asks are timed — overload backoffs
    // and reconnect pauses are resilience, not latency.
    let hist = hc2l_obs::Histogram::new();
    let mut session = match Session::try_connect(addr) {
        Ok(s) => s,
        Err(e) => {
            run.aborted = Some(format!("cannot connect to {addr}: {e}"));
            return run;
        }
    };
    'replay: for _ in 0..args.reps.max(1) {
        for req in plan {
            if policy.past_deadline() {
                run.aborted = Some("--deadline exceeded".to_string());
                break 'replay;
            }
            let mut attempt = 0u32;
            let resp = loop {
                let t0 = hc2l_obs::clock::now();
                match session.ask(req) {
                    Ok(Response::Overloaded(msg)) => {
                        if attempt as usize >= policy.retries || !policy.pause(attempt) {
                            run.aborted =
                                Some(format!("server overloaded, retries exhausted: {msg}"));
                            break 'replay;
                        }
                        attempt += 1;
                    }
                    Ok(resp) => {
                        hist.record(hc2l_obs::clock::ns_since(t0));
                        break resp;
                    }
                    Err(e) => {
                        run.aborted = Some(format!("connection failed mid-replay: {e}"));
                        break 'replay;
                    }
                }
            };
            match (req, resp) {
                (Request::Distance(s, t), Response::Distance(d)) => {
                    check_answer(&mut run, expected, reported, *s, *t, d)
                }
                (Request::OneToMany { source, targets }, Response::Distances(ds))
                    if ds.len() == targets.len() =>
                {
                    for (&t, d) in targets.iter().zip(ds) {
                        check_answer(&mut run, expected, reported, *source, t, d);
                    }
                }
                (_, Response::Error(msg)) => {
                    run.aborted = Some(format!("server error: {msg}"));
                    break 'replay;
                }
                (_, other) => {
                    run.aborted = Some(format!("unexpected response {other:?}"));
                    break 'replay;
                }
            }
        }
    }
    run.latency = hist.snapshot();
    run
}

fn replay(args: &Args) {
    let file = args.replay.as_deref().expect("replay mode");
    let w = read_workload_file(std::path::Path::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot read workload {file}: {e}");
        exit(1);
    });
    if w.pairs.is_empty() {
        eprintln!("workload {file} holds no queries");
        exit(1);
    }
    let expected: std::collections::HashMap<(u32, u32), Distance> = if w.has_expected() {
        w.pairs
            .iter()
            .zip(&w.expected)
            .map(|(p, &d)| ((p.source, p.target), d))
            .collect()
    } else {
        Default::default()
    };

    // The grouping is pure in (pairs, batch): build the request values
    // once, outside the timed section, so the printed q/s measures the
    // server, not plan construction.
    let plan: Vec<Request> = if args.batch > 0 {
        batch_plan(&w.pairs, args.batch)
            .into_iter()
            .map(|(source, targets)| Request::OneToMany { source, targets })
            .collect()
    } else {
        w.pairs
            .iter()
            .map(|p| Request::Distance(p.source, p.target))
            .collect()
    };

    // Idle connections are held open for the whole replay — with
    // `--clients` this reproduces the deployed shape: a large connection
    // table, a few active members.
    let idle: Vec<TcpStream> = (0..args.idle)
        .map(|_| {
            let addr = resolve_addr(args);
            TcpStream::connect(&addr).unwrap_or_else(|e| {
                eprintln!("cannot open idle connection to {addr}: {e}");
                exit(1);
            })
        })
        .collect();

    let clients = args.clients.max(1);
    let reps = args.reps.max(1);
    // How many answers one client produces when nothing goes wrong — the
    // yardstick partial progress is reported against.
    let planned: u64 = plan
        .iter()
        .map(|r| match r {
            Request::OneToMany { targets, .. } => targets.len() as u64,
            _ => 1,
        })
        .sum::<u64>()
        * reps as u64;
    let addr = resolve_addr(args);
    let reported = std::sync::atomic::AtomicU64::new(0);
    // Pay the one-off TSC calibration before the timed section.
    hc2l_obs::clock::calibrate();
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let (addr, plan, expected, reported) = (&addr, &plan, &expected, &reported);
                scope.spawn(move || run_replay_client(addr, args, id, plan, expected, reported))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    drop(idle);
    let queries: u64 = runs.iter().map(|r| r.queries).sum();
    let mismatches: u64 = runs.iter().map(|r| r.mismatches).sum();
    let mut incomplete = false;
    for (id, run) in runs.iter().enumerate() {
        if let Some(reason) = &run.aborted {
            incomplete = true;
            eprintln!(
                "client {id}: stopped early after {} of {planned} queries: {reason}",
                run.queries
            );
        }
    }
    let qps = if seconds > 0.0 {
        queries as f64 / seconds
    } else {
        0.0
    };
    // Request-latency percentiles: one line per client, then the merged
    // aggregate. An aborted client still reports — over the requests that
    // completed before the fault.
    let mut aggregate = hc2l_obs::Snapshot::default();
    for (id, run) in runs.iter().enumerate() {
        aggregate.merge(&run.latency);
        if clients > 1 {
            println!(
                "client {id} latency: {}{}",
                run.latency.summary(),
                if run.aborted.is_some() {
                    " [INCOMPLETE]"
                } else {
                    ""
                }
            );
        }
    }
    println!("request latency: {}", aggregate.summary());
    println!(
        "replayed {queries} queries in {seconds:.3} s ({qps:.0} q/s) across {clients} \
         client{} (+{} idle), {mismatches} mismatches{}{}",
        if clients == 1 { "" } else { "s" },
        args.idle,
        if expected.is_empty() {
            " (no expected distances in file)"
        } else {
            ""
        },
        if incomplete {
            " [INCOMPLETE: partial progress only]"
        } else {
            ""
        }
    );
    if incomplete || mismatches > 0 || queries == 0 || qps <= 0.0 {
        exit(1);
    }
}

/// Sends one `UpdateWeights` batch and prints the outcome — which strategy
/// absorbed it, how much of it stuck, and the generation now being served.
/// `Overloaded` (another batch already absorbing) retries with backoff; a
/// connection failure fails fast (the batch may or may not have applied).
fn send_updates(
    addr: &str,
    policy: &mut RetryPolicy,
    session: &mut Option<Session>,
    updates: Vec<hc2l_oracle::WeightUpdate>,
) {
    let sent = updates.len();
    match ask_resilient(addr, policy, session, &Request::UpdateWeights(updates)) {
        Response::Updated(o) => {
            let strategy = hc2l_oracle::UpdateStrategy::from_tag(o.strategy_tag)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("unknown tag {}", o.strategy_tag));
            println!(
                "updated {} of {sent} edges via {strategy} in {} us ({} rejected), \
                 now serving epoch {}",
                o.applied, o.micros, o.rejected, o.epoch
            );
            if o.applied == 0 && sent > 0 {
                eprintln!("no update named an existing edge");
                exit(1);
            }
        }
        Response::Error(msg) => {
            eprintln!("server error: {msg}");
            exit(1);
        }
        other => {
            eprintln!("unexpected response {other:?}");
            exit(1);
        }
    }
}

/// Fetches the server counters (retrying transparently — Stats is
/// idempotent).
fn fetch_stats(
    addr: &str,
    policy: &mut RetryPolicy,
    session: &mut Option<Session>,
) -> hc2l_serve::ServerStats {
    match ask_resilient(addr, policy, session, &Request::Stats) {
        Response::Stats(s) => s,
        other => {
            eprintln!("unexpected response to Stats: {other:?}");
            exit(1);
        }
    }
}

/// Renders the server counters as a labeled table grouped into sections
/// (index identity, traffic, cache, latency percentiles, fault counters).
/// Separate from printing so the layout has a unit test.
fn format_stats(s: &hc2l_serve::ServerStats) -> String {
    let method = Method::from_tag(s.method_tag)
        .map(|m| m.to_string())
        .unwrap_or_else(|| format!("unknown tag {}", s.method_tag));
    let kernel = hc2l_graph::KernelKind::from_tag(s.kernel_tag)
        .map(|k| k.name().to_string())
        .unwrap_or_else(|| format!("unknown tag {}", s.kernel_tag));
    let mut out = String::new();
    let mut section = |title: &str, rows: &[(&str, String)]| {
        out.push_str(title);
        out.push('\n');
        for (k, v) in rows {
            out.push_str(&format!("  {k:<22} {v}\n"));
        }
    };
    section(
        "index",
        &[
            ("method", method),
            ("kernel", kernel),
            ("num_vertices", s.num_vertices.to_string()),
            ("index_bytes", s.index_bytes.to_string()),
            ("mapped", s.mapped.to_string()),
            ("epoch", s.epoch.to_string()),
        ],
    );
    section(
        "traffic",
        &[
            ("threads", s.threads.to_string()),
            ("distance_queries", s.distance_queries.to_string()),
            ("one_to_many_queries", s.one_to_many_queries.to_string()),
            ("one_to_many_targets", s.one_to_many_targets.to_string()),
            ("update_batches", s.update_batches.to_string()),
        ],
    );
    section(
        "cache",
        &[
            ("cache_hits", s.cache_hits.to_string()),
            ("cache_misses", s.cache_misses.to_string()),
            ("cache_hit_rate", format!("{:.4}", s.cache_hit_rate())),
            ("cache_len", s.cache_len.to_string()),
            ("cache_capacity", s.cache_capacity.to_string()),
        ],
    );
    let ns = hc2l_obs::histogram::fmt_ns;
    section(
        "latency",
        &[
            ("distance_p50", ns(s.distance_p50_ns)),
            ("distance_p90", ns(s.distance_p90_ns)),
            ("distance_p99", ns(s.distance_p99_ns)),
            ("distance_p99.9", ns(s.distance_p999_ns)),
            ("distance_max", ns(s.distance_max_ns)),
            ("one_to_many_p50", ns(s.one_to_many_p50_ns)),
            ("one_to_many_p99", ns(s.one_to_many_p99_ns)),
            ("update_p50", ns(s.update_p50_ns)),
            ("update_p99", ns(s.update_p99_ns)),
        ],
    );
    section(
        "faults",
        &[
            ("connections_accepted", s.connections_accepted.to_string()),
            ("connections_reaped", s.connections_reaped.to_string()),
            ("panics_caught", s.panics_caught.to_string()),
            ("overload_rejections", s.overload_rejections.to_string()),
            ("write_errors", s.write_errors.to_string()),
        ],
    );
    out
}

fn print_stats(s: &hc2l_serve::ServerStats) {
    print!("{}", format_stats(s));
}

fn main() {
    let args = parse_args();
    if args.gen_grid.is_some() {
        generate_workload(&args);
        return;
    }
    let modes = [
        args.distance.is_some(),
        args.replay.is_some(),
        args.stats,
        args.metrics,
        args.shutdown,
        args.update.is_some(),
        args.update_file.is_some(),
    ];
    if modes.iter().filter(|&&m| m).count() != 1 {
        eprintln!(
            "pick exactly one mode: --distance, --replay, --stats, --metrics, \
             --shutdown, --update or --update-file"
        );
        exit(2);
    }
    if args.replay.is_some() {
        replay(&args);
        return;
    }
    let addr = resolve_addr(&args);
    let mut policy = RetryPolicy::new(&args);
    let mut session: Option<Session> = None;
    if let Some((s, t)) = args.distance {
        match ask_resilient(&addr, &mut policy, &mut session, &Request::Distance(s, t)) {
            Response::Distance(d) if d >= INFINITY => println!("inf"),
            Response::Distance(d) => println!("{d}"),
            Response::Error(msg) => {
                eprintln!("server error: {msg}");
                exit(1);
            }
            other => {
                eprintln!("unexpected response {other:?}");
                exit(1);
            }
        }
    } else if let Some(update) = args.update {
        send_updates(&addr, &mut policy, &mut session, vec![update]);
    } else if let Some(file) = &args.update_file {
        let updates =
            hc2l_roadnet::read_update_file(std::path::Path::new(file)).unwrap_or_else(|e| {
                eprintln!("cannot read updates {file}: {e}");
                exit(1);
            });
        // Validate the whole batch client-side before any byte goes out:
        // a malformed batch (empty, out-of-range endpoint, duplicate edge)
        // must fail typed with no partial apply visible to queries.
        let n = fetch_stats(&addr, &mut policy, &mut session).num_vertices;
        if let Err(e) = hc2l_roadnet::validate_update_batch(&updates, n as usize) {
            eprintln!("invalid update batch in {file}: {e}; nothing was sent (no partial apply)");
            exit(1);
        }
        send_updates(&addr, &mut policy, &mut session, updates);
    } else if args.stats {
        let s = fetch_stats(&addr, &mut policy, &mut session);
        print_stats(&s);
    } else if args.metrics {
        match ask_resilient(&addr, &mut policy, &mut session, &Request::Metrics) {
            Response::Metrics(doc) => print!("{doc}"),
            other => {
                eprintln!("unexpected response to Metrics: {other:?}");
                exit(1);
            }
        }
    } else if args.shutdown {
        match ask_resilient(&addr, &mut policy, &mut session, &Request::Shutdown) {
            Response::ShuttingDown => eprintln!("server acknowledged shutdown"),
            other => {
                eprintln!("unexpected response {other:?}");
                exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_table_has_every_section_and_field() {
        let s = hc2l_serve::ServerStats {
            method_tag: Method::Hc2l.tag(),
            kernel_tag: hc2l_graph::KernelKind::Avx2.tag(),
            num_vertices: 1_000_000,
            index_bytes: 123_456_789,
            threads: 8,
            mapped: true,
            distance_queries: 42,
            one_to_many_queries: 3,
            one_to_many_targets: 300,
            cache_hits: 30,
            cache_misses: 12,
            cache_len: 12,
            cache_capacity: 65_536,
            update_batches: 2,
            epoch: 2,
            connections_accepted: 5,
            connections_reaped: 1,
            panics_caught: 0,
            overload_rejections: 7,
            write_errors: 0,
            distance_p50_ns: 85,
            distance_p90_ns: 120,
            distance_p99_ns: 950,
            distance_p999_ns: 12_300,
            distance_max_ns: 4_560_000,
            one_to_many_p50_ns: 5_000,
            one_to_many_p99_ns: 11_000,
            update_p50_ns: 2_000_000,
            update_p99_ns: 30_000_000,
        };
        let table = format_stats(&s);
        for header in ["index\n", "traffic\n", "cache\n", "latency\n", "faults\n"] {
            assert!(table.contains(header), "missing section {header:?}");
        }
        // Identity rows carry the kernel (PR 8) and method names.
        assert!(table.contains("  method                 HC2L\n"), "{table}");
        assert!(table.contains("  kernel                 avx2\n"), "{table}");
        // Latency rows render with adaptive units.
        assert!(table.contains("  distance_p50           85ns\n"), "{table}");
        assert!(
            table.contains("  distance_p99.9         12.3µs\n"),
            "{table}"
        );
        assert!(
            table.contains("  distance_max           4.56ms\n"),
            "{table}"
        );
        assert!(
            table.contains("  update_p99             30.00ms\n"),
            "{table}"
        );
        // Fault counters (PR 7) are all present.
        assert!(table.contains("  connections_reaped     1\n"), "{table}");
        assert!(table.contains("  panics_caught          0\n"), "{table}");
        assert!(table.contains("  overload_rejections    7\n"), "{table}");
        assert!(table.contains("  write_errors           0\n"), "{table}");
        assert!(
            table.contains("  cache_hit_rate         0.7143\n"),
            "{table}"
        );
        // Every non-header line is two-space indented and key-aligned.
        for line in table.lines() {
            assert!(
                !line.starts_with("  ") || line.len() > 25,
                "misaligned row: {line:?}"
            );
        }
    }
}
