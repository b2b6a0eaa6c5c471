//! `hc2l-serve` — the serve-only distance-query daemon.
//!
//! ```text
//! hc2l-serve --index paris.hc2l [--port 7171] [--threads N] [--cache N]
//!            [--addr-file FILE] [--idle-timeout SECS] [--stall-timeout SECS]
//!            [--drain-secs SECS] [--max-inflight N]
//! hc2l-serve --grid ROWSxCOLS [--grid-seed S] [--method hc2l|ch|...] [...]
//! ```
//!
//! Loads one saved index container (memory-mapped, with a heap read where
//! mapping is unavailable) and serves the binary wire protocol on
//! `127.0.0.1:PORT` until a client sends `Shutdown`. An epoll reactor
//! multiplexes any number of connections over `--threads` reactor threads
//! (default: the available parallelism, at most
//! `hc2l_serve::server::MAX_REACTORS` = 16; more is a usage error), and the
//! startup line prints the reactor count. epoll is Linux-only: elsewhere
//! the daemon reports that it cannot serve and exits with status 1.
//! `--port 0` picks an ephemeral port; `--addr-file` writes the resolved
//! `host:port` to a file once listening, which is how scripted callers
//! (CI) rendezvous.
//!
//! `--grid ROWSxCOLS` serves a seeded synthetic grid instead of a saved
//! container: the daemon builds a `--method` index (default `ch`) over the
//! grid (at most `u32::MAX` vertices) in-process and — because it then owns
//! the underlying graph — accepts live `UpdateWeights` frames (`hc2l-query
//! --update/--update-file`). A daemon started from `--index` serves a
//! static snapshot and answers update frames with a typed error.
//!
//! Overload and fault posture: `--idle-timeout` (default 300s) reaps
//! connections quiet at a frame boundary; `--stall-timeout` (default 30s)
//! is the per-request progress deadline — it reaps peers stuck mid-frame
//! or refusing to drain responses (slow loris); `0` disables either.
//! `--drain-secs` (default 3) bounds how long shutdown waits for
//! already-queued response bytes to flush. `--max-inflight N` (default 0 =
//! unlimited) sheds queries beyond N concurrently executing with a typed
//! `Overloaded` response the client retries with backoff. `--cache N`
//! (default 65536, 0 disables) sizes the result cache; values above
//! `hc2l_serve::cache::MAX_CAPACITY` (2^24 entries) are usage errors.
//!
//! Observability: every request is recorded into per-opcode latency
//! histograms (cache hit/miss split for distance) — scrape them, together
//! with every server counter, as Prometheus text with `hc2l-query
//! --metrics`. Driving and gating traffic is `hc2l-query`'s job
//! (`--replay FILE --clients N --idle M`); serving throughput is measured
//! by `sysbench`.

use std::process::exit;
use std::sync::Arc;

use hc2l_oracle::OracleBuilder;
use hc2l_serve::cache::MAX_CAPACITY;
use hc2l_serve::server::MAX_REACTORS;
use hc2l_serve::{serve_with_model, ServeConfig, ServeModel, ServeState};

struct Args {
    index: String,
    grid: Option<(usize, usize)>,
    grid_seed: u64,
    method: hc2l_oracle::Method,
    port: u16,
    threads: usize,
    cache: usize,
    addr_file: Option<String>,
    idle_timeout_secs: u64,
    stall_timeout_secs: u64,
    drain_secs: u64,
    max_inflight: usize,
}

impl Args {
    fn serve_config(&self) -> ServeConfig {
        let opt = |secs: u64| (secs > 0).then(|| std::time::Duration::from_secs(secs));
        ServeConfig {
            idle_timeout: opt(self.idle_timeout_secs),
            stall_timeout: opt(self.stall_timeout_secs),
            drain: std::time::Duration::from_secs(self.drain_secs),
            max_inflight: self.max_inflight,
        }
    }
}

fn usage() -> ! {
    eprintln!("see the module documentation at the top of serve.rs for usage");
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        index: String::new(),
        grid: None,
        // Matches hc2l-query's --grid-seed default, so generated workloads
        // and update batches line up with a `--grid` daemon out of the box.
        grid_seed: 0xA11CE,
        method: hc2l_oracle::Method::Ch,
        port: 7171,
        threads: std::thread::available_parallelism()
            .map_or(4, |p| p.get())
            .min(MAX_REACTORS),
        cache: 1 << 16,
        addr_file: None,
        idle_timeout_secs: 300,
        stall_timeout_secs: 30,
        drain_secs: 3,
        max_inflight: 0,
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
            "--index" => args.index = read_value(&mut i),
            "--grid" => {
                let spec = read_value(&mut i);
                // Vertex ids are u32: a product past u32::MAX would wrap.
                let parsed = spec.split_once('x').and_then(|(r, c)| {
                    Some((r.trim().parse().ok()?, c.trim().parse().ok()?)).filter(
                        |&(r, c): &(usize, usize)| {
                            r >= 2
                                && c >= 2
                                && r.checked_mul(c).is_some_and(|n| n <= u32::MAX as usize)
                        },
                    )
                });
                args.grid = Some(parsed.unwrap_or_else(|| {
                    eprintln!(
                        "invalid --grid {spec:?}: expected ROWSxCOLS, both >= 2, \
                         at most {} vertices",
                        u32::MAX
                    );
                    exit(2);
                }));
            }
            "--grid-seed" => args.grid_seed = parse!(&mut i, "--grid-seed"),
            "--method" => {
                args.method = read_value(&mut i).parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    exit(2);
                })
            }
            "--port" => args.port = parse!(&mut i, "--port"),
            "--threads" => {
                args.threads = parse!(&mut i, "--threads");
                if !(1..=MAX_REACTORS).contains(&args.threads) {
                    eprintln!(
                        "invalid --threads {}: must be 1 to {MAX_REACTORS}",
                        args.threads
                    );
                    exit(2);
                }
            }
            "--cache" => {
                args.cache = parse!(&mut i, "--cache");
                if args.cache > MAX_CAPACITY {
                    eprintln!(
                        "invalid --cache {}: at most {MAX_CAPACITY} entries",
                        args.cache
                    );
                    exit(2);
                }
            }
            "--addr-file" => args.addr_file = Some(read_value(&mut i)),
            "--idle-timeout" => args.idle_timeout_secs = parse!(&mut i, "--idle-timeout"),
            "--stall-timeout" => args.stall_timeout_secs = parse!(&mut i, "--stall-timeout"),
            "--drain-secs" => args.drain_secs = parse!(&mut i, "--drain-secs"),
            "--max-inflight" => args.max_inflight = parse!(&mut i, "--max-inflight"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
        i += 1;
    }
    if args.index.is_empty() == args.grid.is_none() {
        eprintln!("exactly one of --index FILE or --grid ROWSxCOLS is required");
        exit(2);
    }
    args
}

fn main() {
    let args = parse_args();
    let state = if let Some((rows, cols)) = args.grid {
        let g = hc2l_roadnet::seeded_grid(rows, cols, args.grid_seed);
        let n = g.num_vertices();
        let oracle = OracleBuilder::new(args.method).build(&g);
        eprintln!(
            "built {} index over a {rows}x{cols} seeded grid ({n} vertices); \
             live weight updates enabled",
            args.method
        );
        Arc::new(
            ServeState::with_updates(g, oracle, args.threads, args.cache)
                .with_config(args.serve_config()),
        )
    } else {
        let path = std::path::Path::new(&args.index);
        let oracle = OracleBuilder::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open index {}: {e}", path.display());
            exit(1);
        });
        eprintln!(
            "loaded {} index: {} vertices, {} bytes, {}; static snapshot, weight updates disabled",
            oracle.method(),
            oracle.num_vertices(),
            oracle.index_bytes(),
            if oracle.is_mapped() {
                "memory-mapped"
            } else {
                "heap-buffered"
            }
        );
        Arc::new(ServeState::new(oracle, args.threads, args.cache).with_config(args.serve_config()))
    };

    let server = serve_with_model(
        Arc::clone(&state),
        ("127.0.0.1", args.port),
        ServeModel::Epoll,
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot serve on 127.0.0.1:{}: {e}", args.port);
        exit(1);
    });
    let addr = server.addr();
    if let Some(file) = &args.addr_file {
        // Write-then-rename so a polling client never reads a partial file.
        let tmp = format!("{file}.tmp");
        std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|_| std::fs::rename(&tmp, file))
            .unwrap_or_else(|e| {
                eprintln!("cannot write --addr-file {file}: {e}");
                exit(1);
            });
    }
    eprintln!(
        "serving on {addr} with {} epoll reactor threads (cache: {} slots, kernel: {})",
        state.threads(),
        state.cache().stats().capacity,
        hc2l_graph::active_kernel()
    );
    if let Err(e) = server.wait() {
        eprintln!("serve loop failed: {e}");
        exit(1);
    }
    let stats = state.stats();
    eprintln!(
        "shut down cleanly: {} distance queries, {} one-to-many ({} targets), cache hit rate {:.4}",
        stats.distance_queries,
        stats.one_to_many_queries,
        stats.one_to_many_targets,
        stats.cache_hit_rate()
    );
}
