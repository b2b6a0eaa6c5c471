//! Umbrella crate for the HC2L reproduction workspace.
//!
//! The workspace reproduces *Hierarchical Cut Labelling — Scaling Up
//! Distance Queries on Road Networks* (Farhan et al., SIGMOD 2023): the
//! HC2L index itself plus the baselines the paper evaluates against (H2H,
//! PHL, HL and Contraction Hierarchies), synthetic road-network generators,
//! and a benchmark harness regenerating the paper's tables and figures.
//!
//! # Quick start: the unified oracle API
//!
//! Every backend is built and queried through the [`DistanceOracle`] trait,
//! which the [`Oracle`] enum implements; [`OracleBuilder`] selects the
//! method at runtime:
//!
//! ```
//! use hc2l_repro::{DistanceOracle, Method, OracleBuilder};
//! use hc2l_repro::hc2l_graph::toy::paper_figure1;
//!
//! let g = paper_figure1();
//!
//! // Build any of the five methods the same way ...
//! let oracle = OracleBuilder::new(Method::Hc2l).beta(0.2).build(&g);
//!
//! // ... and query it: point-to-point, with instrumentation, or batched.
//! assert_eq!(oracle.distance(13, 14), 3); // the paper's Example 4.20
//! let (d, stats) = oracle.distance_with_stats(2, 9);
//! assert!(d > 0 && stats.hubs_scanned > 0);
//! let row = oracle.one_to_many(0, &[3, 7, 15]);
//! assert_eq!(row.len(), 3);
//!
//! // Identical call sites for every backend:
//! for method in Method::ALL {
//!     let oracle = OracleBuilder::new(method).threads(2).build(&g);
//!     assert_eq!(oracle.distance(13, 14), 3, "{} disagrees", oracle.name());
//! }
//! ```
//!
//! # Storage: frozen flat label arenas
//!
//! Every labelling backend answers queries from a *frozen flat arena*
//! (`hc2l_graph::flat_labels`) rather than nested per-vertex vectors.
//! Construction builds whatever nested scratch it likes, then a one-shot
//! `freeze()` converts it into one global distance arena with per-vertex CSR
//! offsets (plus per-level sub-offsets for HC2L, whose hub identities stay
//! implicit in the cut ordering — position `i` of a level's array refers to
//! the `i`-th ranked cut vertex, so only 8 bytes per entry are stored). A
//! query therefore touches one or two contiguous slices and reduces them
//! with branch-free min-kernels (`min_plus_scan`, `min_plus_merge`); all
//! size totals are O(1) reads fixed at freeze time.
//!
//! The scan has AVX2 and NEON forms picked at runtime; HL's merge-join is
//! one scalar loop on every host. On travel-time city maps (200k uniform
//! pairs, 2-vCPU x86-64 guest, median ns per HL query) the plain scalar
//! merge beat both the AVX2 blocked merge and per-block cut bounds:
//!
//! | HL query path | 48×48 | 128×128 | 256×256 |
//! |---|---|---|---|
//! | bounds + AVX2 merge | 245.0 | 518.6 | 1130.9 |
//! | bounds + scalar merge | 217.3 | 489.2 | 1213.2 |
//! | AVX2 merge | 199.6 | 455.9 | 1079.0 |
//! | scalar merge | 170.4 | 401.0 | 988.2 |
//!
//! # Persist & reload: sectioned index containers
//!
//! Construction and serving are separate phases: an index is built once and
//! queried many times, so every backend splits its *queryable* state into a
//! `Frozen*` view (generic over ownership — owned `Vec` arenas after a
//! build, borrowed zero-copy slices of a loaded file) and persists it
//! through the sectioned container format of `hc2l_graph::container`
//! (magic/version header, per-section table of contents with 64-byte
//! alignment, checksum). [`Oracle::save`] writes the file —
//! `index_bytes()` reports its exact size — and [`Oracle::load`] (also
//! reached as [`OracleBuilder::load`]) restores any method in milliseconds,
//! dispatching on the method tag stored in the header. These, with
//! [`SharedOracle::open`] for serving, are the only typed ways to write and
//! read an index file:
//!
//! ```
//! use hc2l_repro::{DistanceOracle, Method, OracleBuilder};
//! use hc2l_repro::hc2l_graph::toy::paper_figure1;
//!
//! let g = paper_figure1();
//! let oracle = OracleBuilder::new(Method::H2h).build(&g);
//! let path = std::env::temp_dir().join(format!("hc2l-doc-{}.hc2l", std::process::id()));
//! oracle.save(&path).unwrap();
//! let served = OracleBuilder::load(&path).unwrap();   // serve-only restart
//! assert_eq!(served.method(), Method::H2h);
//! assert_eq!(served.distance(13, 14), oracle.distance(13, 14));
//! assert_eq!(oracle.index_bytes(), std::fs::metadata(&path).unwrap().len() as usize);
//! std::fs::remove_file(&path).ok();
//! ```
//!
//! Corrupt or truncated files surface as typed `PersistError`s (bad magic,
//! unsupported version, checksum mismatch, …), never panics.
//!
//! # Serve: one mmap-opened index, many concurrent workers
//!
//! The third phase after build and load is *serving*. [`OracleBuilder::open`]
//! memory-maps a container file and returns a [`SharedOracle`] — a
//! `Send + Sync` handle whose queries run on zero-copy views straight out of
//! the mapping, so one physical copy of the index serves every thread (and,
//! via the page cache, every process) on the host:
//!
//! ```
//! use std::sync::Arc;
//! use hc2l_repro::hc2l_graph::toy::paper_figure1;
//! use hc2l_repro::{DistanceOracle, Method, OracleBuilder};
//!
//! let g = paper_figure1();
//! let oracle = OracleBuilder::new(Method::Hl).build(&g);
//! let path = std::env::temp_dir().join(format!("hc2l-serve-doc-{}.hc2l", std::process::id()));
//! oracle.save(&path).unwrap();
//!
//! let shared = Arc::new(OracleBuilder::open(&path).unwrap());   // mmap, zero-copy
//! let workers: Vec<_> = (0..4)
//!     .map(|i| {
//!         let o = Arc::clone(&shared);
//!         std::thread::spawn(move || o.distance(i, 15 - i))
//!     })
//!     .collect();
//! for (i, w) in workers.into_iter().enumerate() {
//!     assert_eq!(w.join().unwrap(), oracle.distance(i as u32, 15 - i as u32));
//! }
//! std::fs::remove_file(&path).ok();
//! ```
//!
//! The [`hc2l_serve`] crate turns this into a deployable daemon: a
//! lock-free result cache, a length-prefixed TCP wire protocol
//! (`Distance` / batched `OneToMany` / `UpdateWeights` / `Metrics` /
//! `Shutdown`) with both a blocking and an incremental frame decoder, an
//! event-driven epoll reactor behind one execution path (N reactor threads
//! multiplexing hundreds of mostly-idle non-blocking connections with write
//! backpressure; Linux-only), the `hc2l-serve` daemon and the `hc2l-query`
//! client (point queries, workload-file replay over `--clients N`
//! concurrent connections plus `--idle M` quiet ones with exactness gating,
//! workload generation). See `examples/serve_demo.rs` for the full build →
//! save → mmap-open → serve walkthrough and `crates/serve/src/bin/README.md`
//! for the daemon's flags.
//!
//! # Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`hc2l_graph`] | graph substrate, Dijkstra baselines, flat label arenas, shared [`QueryStats`] |
//! | [`hc2l_cut`] | balanced vertex cuts + the balanced tree hierarchy (Section 4.1) |
//! | [`hc2l`] | the HC2L index (Sections 4.2–4.4) |
//! | [`hc2l_ch`] / [`hc2l_h2h`] / [`hc2l_hl`] / [`hc2l_phl`] | the baselines |
//! | [`hc2l_oracle`] | the unified [`DistanceOracle`] API over all of the above |
//! | [`hc2l_roadnet`] | synthetic road networks, DIMACS parsing, query workloads |
//! | [`hc2l_serve`] | concurrent query serving: epoll/threads daemon, wire protocol, result cache, replay client |

pub use hc2l;
pub use hc2l_ch;
pub use hc2l_cut;
pub use hc2l_graph;
pub use hc2l_h2h;
pub use hc2l_hl;
pub use hc2l_oracle;
pub use hc2l_phl;
pub use hc2l_roadnet;
pub use hc2l_serve;

// The unified oracle API, flattened for convenience: most users only need
// these five names plus a graph source.
pub use hc2l_oracle::{DistanceOracle, Method, Oracle, OracleBuilder, OracleConfig};

/// Re-export of the zero-copy serving handle (`OracleBuilder::open`).
pub use hc2l_oracle::SharedOracle;

/// Re-export of the shared per-query instrumentation record.
pub use hc2l_graph::QueryStats;

/// Re-exports of the persistence layer: the error types `save`/`load`
/// return and the trait through which each backend writes and reads its
/// container sections.
pub use hc2l_graph::{DecodeError, PersistError, PersistentIndex};
