//! Unified distance-oracle API over every backend in the HC2L workspace.
//!
//! The workspace implements five exact distance oracles — HC2L (built with
//! one thread or several), Contraction Hierarchies, H2H, Hub Labelling and
//! Pruned Highway Labelling — whose native crates historically exposed
//! divergent construction and query signatures. This crate is the single
//! spine the rest of the system (benchmarks, examples, future serving /
//! persistence / sharding layers) plugs into:
//!
//! * [`DistanceOracle`] — the query contract callers program against:
//!   `build(graph, &OracleConfig)`, `distance`, `distance_with_stats`
//!   (returning the shared [`QueryStats`]), batched [`one_to_many`],
//!   `index_bytes` and `name`, plus reporting extensions used by the
//!   paper-table generators.
//! * [`Method`] — runtime identification of the five backends.
//! * [`Oracle`] — an enum holding any built backend and the trait's one
//!   implementor: it calls each backend's own API directly, so
//!   heterogeneous collections and runtime method selection need no trait
//!   objects. [`Oracle::save`] / [`Oracle::load`] (and
//!   [`SharedOracle::open`] for serving) are the typed ways to write and
//!   read an index file.
//! * [`OracleBuilder`] / [`OracleConfig`] — fluent construction:
//!
//! ```
//! use hc2l_oracle::{DistanceOracle, Method, OracleBuilder};
//! use hc2l_graph::toy::paper_figure1;
//! use hc2l_graph::dijkstra_distance;
//!
//! let g = paper_figure1();
//! let oracle = OracleBuilder::new(Method::Hc2l).beta(0.2).build(&g);
//! assert_eq!(oracle.distance(13, 14), 3); // Example 4.20
//! assert_eq!(oracle.distance(13, 14), dijkstra_distance(&g, 13, 14));
//! let to_all: Vec<_> = oracle.one_to_many(0, &[3, 7, 15]);
//! assert_eq!(to_all.len(), 3);
//! ```
//!
//! [`one_to_many`]: DistanceOracle::one_to_many
//! [`QueryStats`]: hc2l_graph::QueryStats

pub mod builder;
pub mod method;
pub mod oracle;
pub mod traits;
pub mod view;

pub use builder::{OracleBuilder, OracleConfig};
pub use method::Method;
pub use oracle::Oracle;
pub use traits::DistanceOracle;
pub use view::{FrozenView, SharedOracle};

/// Re-export of the shared per-query instrumentation record.
pub use hc2l_graph::QueryStats;

/// Re-exports of the dynamic-update batch API, so serving and benchmark
/// layers depend on one crate for both querying and updating.
pub use hc2l_dynamic::{apply_batch, UpdateReport, UpdateStrategy, WeightUpdate};
