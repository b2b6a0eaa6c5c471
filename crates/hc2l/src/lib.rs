//! Hierarchical Cut 2-Hop Labelling (HC2L).
//!
//! This crate implements the paper's primary contribution: a distance oracle
//! for road networks that
//!
//! 1. builds a **balanced tree hierarchy** by recursively bisecting the graph
//!    with small balanced vertex cuts (Section 4.1, provided by the
//!    `hc2l-cut` crate),
//! 2. constructs a **hierarchical cut 2-hop labelling**: every vertex stores,
//!    for each ancestor cut in the hierarchy, an array of distances to that
//!    cut's vertices, shortened by **tail pruning** (Section 4.2), and
//! 3. answers a distance query `(s, t)` by locating the lowest common
//!    ancestor of the two vertices' tree nodes with a constant-time bitstring
//!    operation and scanning a *single* pair of distance arrays (Section 4.3).
//!
//! Construction can optionally run multi-threaded (`HC2Lp` in the paper);
//! see [`Hc2lConfig::threads`].
//!
//! # Quick start
//!
//! ```
//! use hc2l::{Hc2lConfig, Hc2lIndex};
//! use hc2l_graph::toy::paper_figure1;
//! use hc2l_graph::dijkstra_distance;
//!
//! let g = paper_figure1();
//! let index = Hc2lIndex::build(&g, Hc2lConfig::default());
//! // Query (14, 15) from Example 4.20 (0-based ids 13 and 14):
//! assert_eq!(index.query(13, 14), 3);
//! // Every query matches Dijkstra.
//! for s in 0..16 {
//!     for t in 0..16 {
//!         assert_eq!(index.query(s, t), dijkstra_distance(&g, s, t));
//!     }
//! }
//! ```

pub mod builder;
pub mod config;
pub mod frozen;
pub mod index;
pub mod label;
pub mod node_build;
pub mod parallel;
pub mod prune;
pub mod stats;

pub use config::Hc2lConfig;
pub use frozen::{FrozenContraction, FrozenHc2l, FrozenHc2lRef};
pub use index::Hc2lIndex;
pub use label::{LabelSet, LevelLabelsBuilder};
pub use stats::IndexStats;

/// Re-export of the workspace-wide per-query instrumentation record, which
/// [`Hc2lIndex::query_with_stats`] returns alongside the distance.
pub use hc2l_graph::QueryStats;
