//! Machine-readable benchmark output (`repro --json-out FILE`).
//!
//! Runs every labelling backend (plus CH) on a fixed set of *seeded*
//! synthetic workloads and emits one JSON document with per-method query
//! ns/op, build seconds, **load seconds** and index bytes, so the perf
//! trajectory of the repository can be tracked file-over-file across PRs
//! (`BENCH_PR2.json` is the first committed point, `BENCH_PR3.json` adds the
//! persistence column).
//!
//! Since the persistence PR the runner also exercises the index-container
//! round trip: each built index is saved to disk, reloaded (timed — this is
//! the "build once / load many" number a serve-only deployment cares
//! about), checked for agreement with the built index on the whole query
//! workload, and the *loaded* index is what the query timings run on — so a
//! format regression that changed any answer, byte size or query latency is
//! caught here. `--load-index DIR` skips construction entirely and serves
//! from previously saved files.
//!
//! The runner doubles as a correctness smoke test: every method's answers
//! are checked against Dijkstra on the full query workload, and any mismatch
//! aborts the process with a non-zero exit code — CI runs it on a small grid
//! for exactly this reason.
//!
//! Serving numbers (throughput, latency, cache hit rate, connections) are
//! not here: `sysbench` measures the serving system, and this runner only
//! mmap-opens each saved container (`SharedOracle::open`) to gate that it
//! answers the whole pair set exactly like the loaded index.
//!
//! Since the dynamic-updates PR each row also carries **`update_ms_1`**,
//! **`update_ms_100`** and **`update_ms_10000`** — wall-clock milliseconds
//! to absorb a seeded live-traffic batch (mostly weight increases) of that
//! size into a clone of the built index (the updatable-daemon scenario; in
//! `--load-index` mode the loaded clone is used and backends whose
//! incremental path needs unpersisted construction state honestly fall
//! back to `rebuild`) — plus **`update_strategy`** (how
//! the small batch was absorbed: `ch-customize`, `hc2l-relabel` or
//! `rebuild`) and **`rebuild_ms`**, the from-scratch build on the
//! re-weighted graph the incremental paths are racing. Every updated index
//! is re-gated against Dijkstra on the re-weighted graph before its timing
//! is accepted (`BENCH_PR6.json` is the first committed point with these
//! columns).
//!
//! Since the SIMD-kernels PR each row also carries **`kernel`** — the
//! min-plus kernel the timings ran under (`scalar` or `avx2`; see
//! `hc2l_graph::kernels`). All kernels return bit-identical answers, so the
//! column exists to make latency comparisons between bench files honest: a
//! file produced under `HC2L_KERNEL=scalar` is not comparable to an `avx2`
//! one (`BENCH_PR8.json` is the first committed point with this column).
//!
//! Since the observability PR each row also carries **`query_p50_ns`** /
//! **`query_p99_ns`** (tail latency from an *individually*-timed pass over
//! the same exactness-gated pairs — see the comment at the measurement for
//! why these are not comparable to the batch-amortised `query_ns_per_op`),
//! **`build_phases`** (a `{phase: nanos}` object drained from
//! `hc2l_obs::phase` around the build; empty in `--load-index` mode)
//! (`BENCH_PR9.json` is the first committed point with these columns).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hc2l_graph::{dijkstra, Distance, Graph, Vertex};
use hc2l_oracle::{DistanceOracle, Method, Oracle};
use hc2l_roadnet::{random_pairs, QueryPair, RoadNetworkConfig, WeightMode};

use crate::measure::{measure_build, measure_one_to_many};

/// One benchmark workload: a seeded graph plus a seeded query set.
pub struct JsonWorkload {
    /// Workload name as it appears in the JSON output.
    pub name: String,
    /// The graph under test.
    pub graph: Graph,
    /// Point-to-point query pairs.
    pub pairs: Vec<QueryPair>,
    /// How many timed repetitions of the pair set to run.
    pub reps: usize,
}

/// How the JSON bench exercises index persistence.
pub enum IndexPersistence {
    /// Build, save into `dir`, reload (timed), verify the loaded index
    /// agrees with the built one on the whole workload, and time queries on
    /// the loaded index. With `keep: false` the files are removed at the
    /// end (`repro --save-index DIR` sets `keep: true`).
    RoundTrip {
        /// Directory the container files are written to (created if absent).
        dir: PathBuf,
        /// Whether to leave the files on disk after the run.
        keep: bool,
    },
    /// Serve-only mode (`repro --load-index DIR`): load each method's index
    /// from a previous `--save-index` run instead of building.
    /// `build_seconds` is reported as 0.
    LoadOnly {
        /// Directory holding the previously saved container files.
        dir: PathBuf,
    },
}

impl IndexPersistence {
    /// The container file a given workload + method pair maps to.
    pub fn index_path(dir: &Path, workload: &str, method: Method) -> PathBuf {
        dir.join(format!(
            "{workload}-{}.hc2l",
            method.name().to_ascii_lowercase()
        ))
    }
}

/// The seeded reference grid (now shared with the serve-smoke workload
/// generator; re-exported here for the bench callers that predate the move).
pub use hc2l_roadnet::seeded_grid;

/// The standard workload set: the seeded 64x64 grid plus a synthetic city.
pub fn standard_workloads(queries: usize) -> Vec<JsonWorkload> {
    let grid = seeded_grid(64, 64, 0xA11CE);
    let city = RoadNetworkConfig::city(48, 48, 7)
        .generate()
        .graph(WeightMode::Distance);
    vec![
        JsonWorkload {
            pairs: random_pairs(grid.num_vertices(), queries, 0xBEEF),
            name: "grid-64x64".to_string(),
            graph: grid,
            reps: 25,
        },
        JsonWorkload {
            pairs: random_pairs(city.num_vertices(), queries, 0xBEEF),
            name: "city-48x48".to_string(),
            graph: city,
            reps: 25,
        },
    ]
}

/// A small, fast workload set for CI smoke runs.
pub fn smoke_workloads(queries: usize) -> Vec<JsonWorkload> {
    let grid = seeded_grid(16, 16, 0xA11CE);
    vec![JsonWorkload {
        pairs: random_pairs(grid.num_vertices(), queries, 0xBEEF),
        name: "grid-16x16".to_string(),
        graph: grid,
        reps: 10,
    }]
}

/// Per-method measurements on one workload.
pub struct JsonRow {
    /// Workload name.
    pub workload: String,
    /// Method display name.
    pub method: &'static str,
    /// Active min-plus kernel the timings ran under
    /// (`hc2l_graph::active_kernel().name()`): `scalar` or `avx2`.
    /// Forceable via `HC2L_KERNEL`; all kernels are bit-identical, so this
    /// column only explains latency differences between bench files.
    pub kernel: &'static str,
    /// Vertices / edges of the workload graph.
    pub num_vertices: usize,
    /// Edges of the workload graph.
    pub num_edges: usize,
    /// Wall-clock build seconds (0 in `--load-index` mode).
    pub build_seconds: f64,
    /// Wall-clock seconds to load the saved index container back from disk
    /// — the serve-restart cost that replaces `build_seconds` in a
    /// build-once/load-many deployment.
    pub load_seconds: f64,
    /// Mean point-to-point query latency in nanoseconds.
    pub query_ns_per_op: f64,
    /// Median single-query latency from the individually-timed pass. Each
    /// query pays its own clock-read pair here (~30ns on the reference
    /// host), so the tail columns sit above the batch-amortised
    /// `query_ns_per_op` by construction — compare them to each other
    /// across bench files, not to the mean column.
    pub query_p50_ns: u64,
    /// 99th-percentile single-query latency from the same pass.
    pub query_p99_ns: u64,
    /// Per-phase build nanoseconds drained from `hc2l_obs::phase` around
    /// the construction call (`contract`, `cut_partition`, `labelling`,
    /// `freeze`, ... — whatever the backend emits, in emission order).
    /// Phases are CPU-time-like (summed across build workers) and empty in
    /// `--load-index` mode, where nothing is built.
    pub build_phases: Vec<(&'static str, u64)>,
    /// Mean amortised one-to-many latency per target in nanoseconds.
    pub one_to_many_ns_per_target: f64,
    /// Total index footprint in bytes (the exact container-file size).
    pub index_bytes: usize,
    /// Number of distinct point-to-point queries timed per repetition.
    pub num_queries: usize,
    /// Milliseconds to absorb a 1-update live-traffic batch (exactness
    /// re-gated against Dijkstra on the re-weighted graph).
    pub update_ms_1: f64,
    /// Milliseconds to absorb a 100-update batch.
    pub update_ms_100: f64,
    /// Milliseconds to absorb a 10,000-update batch.
    pub update_ms_10000: f64,
    /// How the 1-update batch was absorbed (`UpdateStrategy::name`):
    /// `ch-customize` and `hc2l-relabel` are incremental, `rebuild` is the
    /// fallback every other backend takes.
    pub update_strategy: &'static str,
    /// Milliseconds for a from-scratch build on the re-weighted graph — the
    /// baseline the incremental update paths must beat on small batches.
    pub rebuild_ms: f64,
}

/// Runs every method on every workload, verifying exactness against Dijkstra
/// and exercising the save/load round trip per [`IndexPersistence`].
///
/// Returns the measurement rows, or an error message describing the first
/// divergence (or persistence failure) found.
pub fn run_json_bench(
    workloads: &[JsonWorkload],
    persist: &IndexPersistence,
) -> Result<Vec<JsonRow>, String> {
    // The tail-percentile pass records into a histogram via the TSC clock;
    // calibrating up front keeps the ~4ms one-shot spin out of the first
    // recorded sample.
    hc2l_obs::clock::calibrate();
    let dir = match persist {
        IndexPersistence::RoundTrip { dir, .. } | IndexPersistence::LoadOnly { dir } => dir,
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut written: Vec<PathBuf> = Vec::new();
    let result = run_persisted(workloads, persist, dir, &mut written);
    // Scratch files are removed whether the run succeeded or aborted on a
    // divergence — a failing gate must not leak container files.
    if let IndexPersistence::RoundTrip { keep: false, .. } = persist {
        for path in &written {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_dir(dir);
    }
    result
}

fn run_persisted(
    workloads: &[JsonWorkload],
    persist: &IndexPersistence,
    dir: &Path,
    written: &mut Vec<PathBuf>,
) -> Result<Vec<JsonRow>, String> {
    let mut rows = Vec::new();
    for w in workloads {
        // Reference answers, one Dijkstra per distinct source.
        let mut reference: HashMap<Vertex, Vec<Distance>> = HashMap::new();
        for p in &w.pairs {
            reference
                .entry(p.source)
                .or_insert_with(|| dijkstra(&w.graph, p.source));
        }

        for method in Method::ALL {
            let path = IndexPersistence::index_path(dir, &w.name, method);

            // Obtain the oracle: build + save + reload, or load only. The
            // built oracle is kept around (RoundTrip mode) because the
            // live-update timings run on it — see below. The phase table is
            // drained immediately before the build (discarding spans from
            // earlier methods' update/rebuild timings in this process) and
            // immediately after, so `build_phases` covers exactly this
            // construction call.
            let (oracle, built, build_seconds, load_seconds, build_phases) = match persist {
                IndexPersistence::RoundTrip { .. } => {
                    hc2l_obs::phase::drain();
                    let build = measure_build(method, &w.graph, 1);
                    let build_phases = hc2l_obs::phase::drain();
                    build
                        .oracle
                        .save(&path)
                        .map_err(|e| format!("saving {} failed: {e}", path.display()))?;
                    written.push(path.clone());
                    let start = Instant::now();
                    let loaded = Oracle::load(&path)
                        .map_err(|e| format!("loading {} failed: {e}", path.display()))?;
                    let load_seconds = start.elapsed().as_secs_f64();
                    // The container round trip must be lossless: diff the
                    // loaded index against the built one on the whole
                    // workload, and the reported size against the file.
                    for p in &w.pairs {
                        let (a, b) = (
                            build.oracle.distance(p.source, p.target),
                            loaded.distance(p.source, p.target),
                        );
                        if a != b {
                            return Err(format!(
                                "{} on {}: loaded index answers ({}, {}) with {} but the built index says {}",
                                loaded.name(), w.name, p.source, p.target, b, a
                            ));
                        }
                    }
                    let file_len = std::fs::metadata(&path)
                        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
                        .len() as usize;
                    if file_len != loaded.index_bytes() {
                        return Err(format!(
                            "{} on {}: index_bytes reports {} but {} is {} bytes",
                            loaded.name(),
                            w.name,
                            loaded.index_bytes(),
                            path.display(),
                            file_len
                        ));
                    }
                    (
                        loaded,
                        Some(build.oracle),
                        build.build_seconds,
                        load_seconds,
                        build_phases,
                    )
                }
                IndexPersistence::LoadOnly { .. } => {
                    let start = Instant::now();
                    let loaded = Oracle::load(&path)
                        .map_err(|e| format!("loading {} failed: {e}", path.display()))?;
                    (loaded, None, 0.0, start.elapsed().as_secs_f64(), Vec::new())
                }
            };

            // Exactness gate: the whole pair set must match Dijkstra.
            for p in &w.pairs {
                let got = oracle.distance(p.source, p.target);
                let want = reference[&p.source][p.target as usize];
                if got != want {
                    return Err(format!(
                        "{} on {}: query ({}, {}) returned {} but Dijkstra says {}",
                        oracle.name(),
                        w.name,
                        p.source,
                        p.target,
                        got,
                        want
                    ));
                }
            }

            // Point-to-point timing: one warmup pass, then `reps` timed
            // passes. The reported latency is the *fastest pass's* mean —
            // each pass already averages over the whole pair set, and
            // taking the minimum across passes filters scheduler /
            // frequency interference that a mean over all passes would
            // smear into the number (on small shared runners the
            // difference is double-digit percent).
            let mut checksum: u128 = 0;
            for p in &w.pairs {
                checksum = checksum.wrapping_add(oracle.distance(p.source, p.target) as u128);
            }
            let mut best_pass = f64::INFINITY;
            for _ in 0..w.reps {
                let start = Instant::now();
                for p in &w.pairs {
                    checksum = checksum.wrapping_add(oracle.distance(p.source, p.target) as u128);
                }
                best_pass = best_pass.min(start.elapsed().as_secs_f64());
            }
            std::hint::black_box(checksum);
            let query_ns = best_pass * 1e9 / w.pairs.len() as f64;

            // Tail percentiles: the same exactness-gated pairs, timed
            // *individually* into a latency histogram over all `reps`
            // passes. Every query pays its own clock-read pair here (~30ns
            // on the reference host), which the batch-amortised mean above
            // does not — so p50 sits above `query_ns_per_op` by
            // construction and the columns are only comparable to
            // themselves across bench files. No best-of filter either:
            // percentiles are exactly the place where the slow outliers
            // belong in the number instead of being filtered out.
            let tail = hc2l_obs::Histogram::new();
            for _ in 0..w.reps {
                for p in &w.pairs {
                    let t0 = hc2l_obs::clock::now();
                    checksum = checksum.wrapping_add(oracle.distance(p.source, p.target) as u128);
                    tail.record(hc2l_obs::clock::ns_since(t0));
                }
            }
            std::hint::black_box(checksum);
            let tail = tail.snapshot();

            // One-to-many timing: batched rows from a few sources, through
            // the buffer-reusing measurement helper.
            let targets: Vec<Vertex> = w.pairs.iter().map(|p| p.target).collect();
            let sources: Vec<Vertex> = w.pairs.iter().take(16).map(|p| p.source).collect();
            let otm_ns = measure_one_to_many(&oracle, &sources, &targets, w.reps);

            // Mmap-open agreement gate: the daemon's load path (zero-copy
            // views of the saved container) must answer the whole pair set
            // exactly like the decoded index.
            let shared = hc2l_oracle::SharedOracle::open(&path)
                .map_err(|e| format!("mmap-opening {} failed: {e}", path.display()))?;
            for p in &w.pairs {
                let (a, b) = (
                    shared.distance(p.source, p.target),
                    oracle.distance(p.source, p.target),
                );
                if a != b {
                    return Err(format!(
                        "{} on {}: mmap-opened index answers ({}, {}) with {a} but the loaded index says {b}",
                        oracle.name(), w.name, p.source, p.target,
                    ));
                }
            }

            // Live-update timings: seeded traffic batches (mostly weight
            // increases over existing edges) absorbed by a clone of the
            // *built* index — the daemon's updatable mode (`--grid`) owns a
            // built oracle, and HC2L's incremental relabel needs the
            // construction-time hierarchy, which is not persisted. In
            // `--load-index` mode only the loaded clone exists, so
            // hierarchy-less backends honestly fall back to `rebuild`
            // there. Each updated clone is re-gated against Dijkstra on the
            // re-weighted graph on a sample of the workload pairs — an
            // inexact incremental path aborts the bench exactly like an
            // inexact query path would.
            let update_base = built.as_ref().unwrap_or(&oracle);
            let updates = hc2l_roadnet::random_weight_updates(&w.graph, 10_000, 0x7AFF1C);
            let mut update_ms = [0.0f64; 3];
            let mut update_strategy = "";
            for (slot, count) in [1usize, 100, 10_000].into_iter().enumerate() {
                // The generator samples distinct edges, so a batch caps at
                // the graph's edge count.
                let count = count.min(updates.len());
                let mut g = w.graph.clone();
                let mut o = update_base.clone();
                let report = o.apply_updates(&mut g, &updates[..count]);
                update_ms[slot] = report.micros as f64 / 1000.0;
                if slot == 0 {
                    update_strategy = report.strategy.name();
                }
                let mut after: HashMap<Vertex, Vec<Distance>> = HashMap::new();
                for p in w.pairs.iter().take(40) {
                    let want = after
                        .entry(p.source)
                        .or_insert_with(|| dijkstra(&g, p.source))[p.target as usize];
                    let got = o.distance(p.source, p.target);
                    if got != want {
                        return Err(format!(
                            "{} on {}: after a {count}-update batch ({}), query ({}, {}) \
                             returned {got} but Dijkstra on the re-weighted graph says {want}",
                            oracle.name(),
                            w.name,
                            report.strategy.name(),
                            p.source,
                            p.target,
                        ));
                    }
                }
            }
            // The incremental paths race a from-scratch build on the same
            // re-weighted graph (the 100-update metric).
            let rebuild_ms = {
                let mut g = w.graph.clone();
                hc2l_oracle::apply_batch(&mut g, &updates[..100.min(updates.len())]);
                measure_build(method, &g, 1).build_seconds * 1000.0
            };

            rows.push(JsonRow {
                workload: w.name.clone(),
                method: oracle.name(),
                kernel: hc2l_graph::active_kernel().name(),
                num_vertices: w.graph.num_vertices(),
                num_edges: w.graph.num_edges(),
                build_seconds,
                load_seconds,
                query_ns_per_op: query_ns,
                query_p50_ns: tail.p50(),
                query_p99_ns: tail.p99(),
                build_phases,
                one_to_many_ns_per_target: otm_ns,
                index_bytes: oracle.index_bytes(),
                num_queries: w.pairs.len(),
                update_ms_1: update_ms[0],
                update_ms_100: update_ms[1],
                update_ms_10000: update_ms[2],
                update_strategy,
                rebuild_ms,
            });
        }
    }
    Ok(rows)
}

/// Renders the rows as a stable, pretty-printed JSON document.
///
/// Serialisation is hand-rolled because the workspace builds offline against
/// a marker-only serde stand-in (see `vendor/README.md`).
pub fn render_json(rows: &[JsonRow]) -> String {
    let mut out = String::from("{\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        // Nested object with data-driven keys, so it is assembled outside
        // the fixed format string. It stays last on the row line: the
        // line-oriented field extractors below stop at the first `,`/`}`
        // after a key, which inner braces earlier in the line would break.
        let phases = r
            .build_phases
            .iter()
            .map(|(name, ns)| format!("\"{name}\": {ns}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            concat!(
                "    {{\"workload\": \"{}\", \"method\": \"{}\", ",
                "\"kernel\": \"{}\", ",
                "\"num_vertices\": {}, \"num_edges\": {}, ",
                "\"build_seconds\": {:.6}, \"load_seconds\": {:.6}, ",
                "\"query_ns_per_op\": {:.1}, ",
                "\"query_p50_ns\": {}, \"query_p99_ns\": {}, ",
                "\"one_to_many_ns_per_target\": {:.1}, ",
                "\"index_bytes\": {}, \"num_queries\": {}, ",
                "\"update_ms_1\": {:.3}, \"update_ms_100\": {:.3}, ",
                "\"update_ms_10000\": {:.3}, \"update_strategy\": \"{}\", ",
                "\"rebuild_ms\": {:.3}, ",
                "\"build_phases\": {{{}}}}}{}\n"
            ),
            r.workload,
            r.method,
            r.kernel,
            r.num_vertices,
            r.num_edges,
            r.build_seconds,
            r.load_seconds,
            r.query_ns_per_op,
            r.query_p50_ns,
            r.query_p99_ns,
            r.one_to_many_ns_per_target,
            r.index_bytes,
            r.num_queries,
            r.update_ms_1,
            r.update_ms_100,
            r.update_ms_10000,
            r.update_strategy,
            r.rebuild_ms,
            phases,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts a quoted string field from one rendered JSON row line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts a numeric field from one rendered JSON row line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The most recent committed bench file (`BENCH_PR<N>.json` with the highest
/// `N`) in `dir` — the baseline `repro --json-out` diffs fresh rows against.
///
/// `exclude` names the file the current run is about to (over)write; it is
/// skipped so a re-run never diffs against its own previous output instead of
/// the last committed baseline.
pub fn previous_bench_file(dir: &Path, exclude: Option<&std::ffi::OsStr>) -> Option<PathBuf> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let entry = entry.ok()?;
        let name = entry.file_name();
        if Some(name.as_os_str()) == exclude {
            continue;
        }
        let name = name.to_string_lossy();
        let Some(n) = name
            .strip_prefix("BENCH_PR")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(m, _)| n > *m) {
            best = Some((n, entry.path()));
        }
    }
    best.map(|(_, path)| path)
}

/// Renders a per-method before/after `query_ns_per_op` comparison between a
/// previously committed bench document (`previous`, the raw JSON text) and
/// freshly measured rows.
///
/// The parser leans on the line-per-row shape [`render_json`] emits; rows
/// the previous file does not have (new workloads/methods) are reported as
/// such rather than skipped. Pre-kernel-column files compare fine — the
/// kernel annotation is only printed when both sides carry one and they
/// differ (a latency delta across different kernels says nothing about a
/// regression).
pub fn render_delta(previous_name: &str, previous: &str, rows: &[JsonRow]) -> String {
    let mut prev: HashMap<(String, String), (f64, Option<String>)> = HashMap::new();
    for line in previous.lines() {
        let (Some(w), Some(m), Some(q)) = (
            str_field(line, "workload"),
            str_field(line, "method"),
            num_field(line, "query_ns_per_op"),
        ) else {
            continue;
        };
        prev.insert((w, m), (q, str_field(line, "kernel")));
    }
    let mut out = format!("query_ns_per_op vs {previous_name}:\n");
    for r in rows {
        match prev.get(&(r.workload.clone(), r.method.to_string())) {
            Some((before, prev_kernel)) => {
                let pct = (r.query_ns_per_op - before) / before * 100.0;
                out.push_str(&format!(
                    "  {}/{}: {before:.1} -> {:.1} ns/op ({pct:+.1}%)",
                    r.workload, r.method, r.query_ns_per_op
                ));
                match prev_kernel {
                    Some(k) if k != r.kernel => {
                        out.push_str(&format!(" [kernel {k} -> {}]", r.kernel))
                    }
                    _ => {}
                }
                out.push('\n');
            }
            None => out.push_str(&format!("  {}/{}: no previous row\n", r.workload, r.method)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hc2l-json-bench-{tag}-{}", std::process::id()))
    }

    #[test]
    fn smoke_bench_round_trips_and_renders() {
        let workloads = smoke_workloads(50);
        let persist = IndexPersistence::RoundTrip {
            dir: scratch_dir("roundtrip"),
            keep: false,
        };
        let rows = run_json_bench(&workloads, &persist).expect("smoke bench must be exact");
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.load_seconds > 0.0, "{} missing load time", r.method);
            assert!(r.index_bytes > 0);
            assert!(r.update_ms_1 > 0.0, "{} missing update timing", r.method);
            assert!(r.rebuild_ms > 0.0, "{} missing rebuild timing", r.method);
            // Tail columns come from a real histogram pass: ordered and
            // non-zero (every query costs at least a few nanoseconds).
            assert!(r.query_p50_ns > 0, "{} missing p50", r.method);
            assert!(
                r.query_p99_ns >= r.query_p50_ns,
                "{} p99 {} below p50 {}",
                r.method,
                r.query_p99_ns,
                r.query_p50_ns
            );
            // RoundTrip mode built the index, so at least one phase span
            // must have fired (every backend emits at least "build").
            assert!(
                !r.build_phases.is_empty(),
                "{} build produced no phase spans",
                r.method
            );
            assert!(r.build_phases.iter().all(|(_, ns)| *ns > 0));
            // CH absorbs batches by re-customizing over its fixed order —
            // that must be measurably faster than building from scratch on
            // small batches, which is the whole point of the dynamic layer.
            if r.method == "CH" {
                assert_eq!(r.update_strategy, "ch-customize");
                assert!(
                    r.update_ms_1 < r.rebuild_ms,
                    "CH incremental update ({} ms) is not faster than a rebuild ({} ms)",
                    r.update_ms_1,
                    r.rebuild_ms
                );
            }
        }
        let json = render_json(&rows);
        assert!(json.contains("\"grid-16x16\""));
        assert!(json.contains(&format!(
            "\"kernel\": \"{}\"",
            hc2l_graph::active_kernel().name()
        )));
        assert!(json.contains("\"query_ns_per_op\""));
        assert!(json.contains("\"query_p50_ns\""));
        assert!(json.contains("\"query_p99_ns\""));
        assert!(json.contains("\"build_phases\": {\""));
        // HC2L's instrumented stages appear by name inside the object.
        assert!(json.contains("\"cut_partition\":"));
        assert!(json.contains("\"labelling\":"));
        assert!(json.contains("\"load_seconds\""));
        // The serving columns (throughput, cache hit rate and the
        // connection count) are sysbench's; no key names a connection.
        for key in ["queries_per_second", "cache_hit_rate", "connections"] {
            assert!(!json.contains(key), "{key} is a serving column");
        }
        assert!(json.contains("\"update_ms_1\""));
        assert!(json.contains("\"update_ms_100\""));
        assert!(json.contains("\"update_ms_10000\""));
        assert!(json.contains("\"update_strategy\": \"ch-customize\""));
        assert!(json.contains("\"rebuild_ms\""));
        assert!(json.ends_with("}\n"));
        // Every method appears exactly once per workload.
        assert_eq!(rows.len(), workloads.len() * Method::ALL.len());
        for name in ["HC2L", "H2H", "PHL", "HL", "CH"] {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
        }
    }

    #[test]
    fn save_then_load_only_serves_identically() {
        let workloads = smoke_workloads(30);
        let dir = scratch_dir("loadonly");
        let saved = run_json_bench(
            &workloads,
            &IndexPersistence::RoundTrip {
                dir: dir.clone(),
                keep: true,
            },
        )
        .expect("save run must succeed");
        // Serve-only: no construction, same exactness gate.
        let loaded = run_json_bench(&workloads, &IndexPersistence::LoadOnly { dir: dir.clone() })
            .expect("load-only run must succeed");
        assert_eq!(saved.len(), loaded.len());
        for (s, l) in saved.iter().zip(loaded.iter()) {
            assert_eq!(s.method, l.method);
            assert_eq!(s.index_bytes, l.index_bytes);
            assert_eq!(l.build_seconds, 0.0);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_only_reports_a_missing_container() {
        let workloads = smoke_workloads(10);
        let dir = scratch_dir("missing");
        assert!(!dir.exists());
        let Err(err) = run_json_bench(&workloads, &IndexPersistence::LoadOnly { dir: dir.clone() })
        else {
            panic!("load-only run over an empty directory must fail");
        };
        let first = IndexPersistence::index_path(&dir, &workloads[0].name, Method::ALL[0]);
        assert!(err.starts_with("loading "), "{err}");
        assert!(err.contains(&first.display().to_string()), "{err}");
    }

    #[test]
    fn load_only_refuses_a_corrupted_container() {
        let workloads = smoke_workloads(10);
        let dir = scratch_dir("corrupt");
        run_json_bench(
            &workloads,
            &IndexPersistence::RoundTrip {
                dir: dir.clone(),
                keep: true,
            },
        )
        .expect("save run must succeed");
        // Flip one byte past the header: the container checksum must catch
        // it before any backend decodes the sections.
        let path = IndexPersistence::index_path(&dir, &workloads[0].name, Method::ALL[0]);
        let mut bytes = std::fs::read(&path).expect("saved container is readable");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("container is writable");
        let Err(err) = run_json_bench(&workloads, &IndexPersistence::LoadOnly { dir: dir.clone() })
        else {
            panic!("a corrupted container must not load");
        };
        assert!(err.starts_with("loading "), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_index_creates_missing_nested_directories() {
        // `repro --save-index DIR` must create DIR (and parents) rather
        // than erroring when it does not exist yet.
        let workloads = smoke_workloads(10);
        let root = scratch_dir("mkdir");
        let nested = root.join("deeply/nested/indexes");
        assert!(!nested.exists());
        let rows = run_json_bench(
            &workloads,
            &IndexPersistence::RoundTrip {
                dir: nested.clone(),
                keep: true,
            },
        )
        .expect("bench must create the missing directory chain");
        assert!(nested.is_dir());
        for r in &rows {
            let path = IndexPersistence::index_path(
                &nested,
                &r.workload,
                r.method.parse().expect("method name round-trips"),
            );
            assert!(path.is_file(), "{} missing", path.display());
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn previous_bench_file_picks_highest_pr_number() {
        let dir = scratch_dir("prevfile");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(previous_bench_file(&dir, None), None);
        for name in ["BENCH_PR2.json", "BENCH_PR10.json", "BENCH_PR9.json"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        // Not lexicographic: PR10 beats PR9. Non-matching names are ignored.
        std::fs::write(dir.join("BENCH_PRX.json"), "{}").unwrap();
        std::fs::write(dir.join("notes.json"), "{}").unwrap();
        assert_eq!(
            previous_bench_file(&dir, None),
            Some(dir.join("BENCH_PR10.json"))
        );
        // The file a run is about to overwrite is not its own baseline.
        assert_eq!(
            previous_bench_file(&dir, Some(std::ffi::OsStr::new("BENCH_PR10.json"))),
            Some(dir.join("BENCH_PR9.json"))
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn delta_report_compares_against_previous_rows() {
        let row = |workload: &str, method: &'static str, ns: f64| JsonRow {
            workload: workload.to_string(),
            method,
            kernel: "avx2",
            num_vertices: 0,
            num_edges: 0,
            build_seconds: 0.0,
            load_seconds: 0.0,
            query_ns_per_op: ns,
            query_p50_ns: 0,
            query_p99_ns: 0,
            build_phases: Vec::new(),
            one_to_many_ns_per_target: 0.0,
            index_bytes: 0,
            num_queries: 0,
            update_ms_1: 0.0,
            update_ms_100: 0.0,
            update_ms_10000: 0.0,
            update_strategy: "rebuild",
            rebuild_ms: 0.0,
        };
        // A pre-kernel-column row and a kernel-carrying one, as committed
        // bench files render them.
        let previous = concat!(
            "{\n  \"results\": [\n",
            "    {\"workload\": \"grid\", \"method\": \"HC2L\", \"query_ns_per_op\": 40.0},\n",
            "    {\"workload\": \"grid\", \"method\": \"HL\", \"kernel\": \"scalar\", ",
            "\"query_ns_per_op\": 20.0}\n",
            "  ]\n}\n"
        );
        let rows = [
            row("grid", "HC2L", 30.0),
            row("grid", "HL", 22.0),
            row("city", "HC2L", 10.0),
        ];
        let report = render_delta("BENCH_PR7.json", previous, &rows);
        assert!(report.contains("vs BENCH_PR7.json"));
        assert!(report.contains("grid/HC2L: 40.0 -> 30.0 ns/op (-25.0%)"));
        // Kernel annotation only where the previous file recorded one.
        assert!(report.contains("grid/HL: 20.0 -> 22.0 ns/op (+10.0%) [kernel scalar -> avx2]"));
        assert!(!report.contains("HC2L: 40.0 -> 30.0 ns/op (-25.0%) [kernel"));
        assert!(report.contains("city/HC2L: no previous row"));
    }

    #[test]
    fn seeded_grid_is_deterministic() {
        let a = seeded_grid(8, 8, 3);
        let b = seeded_grid(8, 8, 3);
        assert_eq!(a.num_edges(), b.num_edges());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }
}
