//! Command-line driver that regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p hc2l-bench --bin repro -- [FLAGS]
//!
//!   --table1 --table2 --table3 --table4 --table5   individual tables
//!   --figure6 --figure7 --ablation                 figures / ablation
//!   --all                                          everything (default)
//!   --json-out FILE                                machine-readable bench (see `json` module)
//!   --smoke                                        small/fast workloads for --json-out (CI)
//!   --save-index DIR                               keep the saved index containers in DIR
//!   --load-index DIR                               serve-only: load indexes from DIR, skip builds
//!   --scale tiny|small|medium                      dataset scale (default: small)
//!   --datasets N                                   how many suite datasets (default: 4)
//!   --queries N                                    queries per dataset (default: 2000)
//!   --threads N                                    HC2L build threads of the HC2Lp
//!                                                  construction column (default: all cores)
//! ```
//!
//! `--datasets`, `--queries` and `--threads` take positive integers; any
//! other value exits with status 2 and a message, like an unknown flag.
//!
//! `--json-out` runs the seeded reference workloads (64x64 grid + synthetic
//! city), verifies every backend against Dijkstra, and writes per-method
//! query ns/op, build seconds, load seconds, (exact on-disk) index bytes
//! (each saved container is also mmap-opened and gated to answer exactly
//! like the loaded index), and the live-update columns —
//! `update_ms_1/100/10000` (seeded mostly-increase traffic batches absorbed
//! into each index, re-gated against Dijkstra on the re-weighted graph), the
//! `update_strategy` that absorbed them and the `rebuild_ms` baseline they
//! race — as JSON; it exits non-zero on any divergence, which is what
//! the CI smoke-bench steps rely on. Each row records the active min-plus
//! **`kernel`** (`scalar`/`avx2`, forceable via `HC2L_KERNEL`), the
//! observability columns — `query_p50_ns`/`query_p99_ns` tail latency from
//! an individually-timed pass and a `build_phases` object (per-stage build
//! nanoseconds from `hc2l_obs::phase`) — and
//! a per-method before/after `query_ns_per_op` report against the most
//! recent committed `BENCH_PR<N>.json` in the working directory goes to
//! stderr. Every run exercises the
//! index-container save→load round trip (into a scratch directory, created
//! on demand, next to the JSON file unless `--save-index` names one);
//! `--load-index DIR` instead *serves* prebuilt indexes from DIR without
//! constructing anything — the build-once/load-many deployment path.
//!
//! Output goes to stdout; redirect it into `EXPERIMENTS.md` fences to refresh
//! the recorded results.

use hc2l_bench::figures::{figure6, figure7};
use hc2l_bench::json::{
    previous_bench_file, render_delta, render_json, run_json_bench, smoke_workloads,
    standard_workloads, IndexPersistence,
};
use hc2l_bench::tables::{
    ablation_tail_pruning, run_comparison, table1, table2, table3, table5, SuiteOptions,
};
use hc2l_roadnet::{SuiteScale, WeightMode};

#[derive(Debug, Clone)]
struct Args {
    table1: bool,
    table2: bool,
    table3: bool,
    table4: bool,
    table5: bool,
    figure6: bool,
    figure7: bool,
    ablation: bool,
    json_out: Option<String>,
    smoke: bool,
    save_index: Option<String>,
    load_index: Option<String>,
    opts: SuiteOptions,
}

fn parse_args() -> Args {
    let mut args = Args {
        table1: false,
        table2: false,
        table3: false,
        table4: false,
        table5: false,
        figure6: false,
        figure7: false,
        ablation: false,
        json_out: None,
        smoke: false,
        save_index: None,
        load_index: None,
        opts: SuiteOptions::default(),
    };
    let mut any = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let read_value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("missing value for {}", argv[*i - 1]);
            std::process::exit(2);
        })
    };
    let read_count = |i: &mut usize| -> usize {
        let v = read_value(i);
        match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("{} expects a positive integer, got '{v}'", argv[*i - 1]);
                std::process::exit(2);
            }
        }
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--table1" => {
                args.table1 = true;
                any = true;
            }
            "--table2" => {
                args.table2 = true;
                any = true;
            }
            "--table3" => {
                args.table3 = true;
                any = true;
            }
            "--table4" => {
                args.table4 = true;
                any = true;
            }
            "--table5" => {
                args.table5 = true;
                any = true;
            }
            "--figure6" => {
                args.figure6 = true;
                any = true;
            }
            "--figure7" => {
                args.figure7 = true;
                any = true;
            }
            "--ablation" => {
                args.ablation = true;
                any = true;
            }
            "--all" => {
                any = false;
                i += 1;
                continue;
            }
            "--json-out" => {
                args.json_out = Some(read_value(&mut i));
                any = true;
            }
            "--smoke" => {
                args.smoke = true;
            }
            "--save-index" => {
                args.save_index = Some(read_value(&mut i));
            }
            "--load-index" => {
                args.load_index = Some(read_value(&mut i));
            }
            "--scale" => {
                let v = read_value(&mut i);
                args.opts.scale = match v.as_str() {
                    "tiny" => SuiteScale::Tiny,
                    "small" => SuiteScale::Small,
                    "medium" => SuiteScale::Medium,
                    other => {
                        eprintln!("unknown scale {other}");
                        std::process::exit(2);
                    }
                };
            }
            "--datasets" => args.opts.num_datasets = read_count(&mut i),
            "--queries" => args.opts.queries = read_count(&mut i),
            "--threads" => args.opts.threads = read_count(&mut i),
            "--help" | "-h" => {
                println!("see the module documentation at the top of repro.rs for usage");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if !any {
        args.table1 = true;
        args.table2 = true;
        args.table3 = true;
        args.table4 = true;
        args.table5 = true;
        args.figure6 = true;
        args.figure7 = true;
        args.ablation = true;
    }
    args
}

fn main() {
    let args = parse_args();
    let opts = args.opts;

    if (args.smoke || args.save_index.is_some() || args.load_index.is_some())
        && args.json_out.is_none()
    {
        eprintln!(
            "--smoke / --save-index / --load-index only apply to the JSON bench; \
             pass --json-out FILE as well"
        );
        std::process::exit(2);
    }
    if args.save_index.is_some() && args.load_index.is_some() {
        eprintln!("--save-index and --load-index are mutually exclusive");
        std::process::exit(2);
    }

    if let Some(path) = &args.json_out {
        let workloads = if args.smoke {
            smoke_workloads(opts.queries.min(200))
        } else {
            standard_workloads(opts.queries)
        };
        let persist = if let Some(dir) = &args.load_index {
            IndexPersistence::LoadOnly { dir: dir.into() }
        } else if let Some(dir) = &args.save_index {
            IndexPersistence::RoundTrip {
                dir: dir.into(),
                keep: true,
            }
        } else {
            // Scratch round trip next to the JSON file, removed afterwards.
            IndexPersistence::RoundTrip {
                dir: format!("{path}.indexes").into(),
                keep: false,
            }
        };
        // The file this run writes is never its own baseline — without the
        // exclusion a re-emitted BENCH_PR<N>.json would be the highest-numbered
        // file on disk and the delta report would compare the run to itself.
        let prev_bench = previous_bench_file(
            std::path::Path::new("."),
            std::path::Path::new(path).file_name(),
        );
        match run_json_bench(&workloads, &persist) {
            Ok(rows) => {
                let json = render_json(&rows);
                std::fs::write(path, &json).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
                eprintln!("wrote {} rows to {path}", rows.len());
                // Before/after report against the latest committed
                // BENCH_PR<N>.json — stderr, so stdout stays pure JSON.
                if let Some(prev_path) = prev_bench {
                    if let Ok(previous) = std::fs::read_to_string(&prev_path) {
                        eprint!(
                            "{}",
                            render_delta(&prev_path.display().to_string(), &previous, &rows)
                        );
                    }
                }
                print!("{json}");
            }
            Err(msg) => {
                eprintln!("EXACTNESS FAILURE: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!(
        "# HC2L reproduction — scale {:?}, {} datasets, {} queries/dataset, {} threads\n",
        opts.scale, opts.num_datasets, opts.queries, opts.threads
    );

    if args.table1 {
        println!("{}", table1(&opts, WeightMode::Distance).render());
    }

    let need_distance_run = args.table2 || args.table3 || args.table5;
    let distance_results = if need_distance_run {
        Some(run_comparison(WeightMode::Distance, &opts))
    } else {
        None
    };
    if args.table2 {
        println!(
            "{}",
            table2(distance_results.as_ref().unwrap(), WeightMode::Distance).render()
        );
    }
    if args.table3 {
        println!("{}", table3(distance_results.as_ref().unwrap()).render());
    }
    if args.table5 {
        println!("{}", table5(distance_results.as_ref().unwrap()).render());
    }
    if args.table4 {
        let results = run_comparison(WeightMode::TravelTime, &opts);
        println!("{}", table2(&results, WeightMode::TravelTime).render());
    }
    if args.figure6 {
        let per_bucket = (opts.queries / 10).max(20);
        for t in figure6(&opts, WeightMode::Distance, per_bucket) {
            println!("{}", t.render());
        }
    }
    if args.figure7 {
        println!("{}", figure7(&opts, WeightMode::Distance).render());
    }
    if args.ablation {
        println!(
            "{}",
            ablation_tail_pruning(&opts, WeightMode::Distance).render()
        );
    }
}
