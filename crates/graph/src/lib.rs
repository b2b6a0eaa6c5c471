//! Graph substrate for the HC2L reproduction.
//!
//! This crate provides the weighted, undirected graph representation used by
//! every labelling method in the workspace, together with the classical
//! building blocks the paper relies on:
//!
//! * [`Graph`] / [`GraphBuilder`] — adjacency-list representation with
//!   deterministic edge ordering, suitable for incremental construction and
//!   for deriving subgraphs during hierarchy construction.
//! * [`mod@dijkstra`] — full, point-to-point and masked Dijkstra, plus the
//!   bidirectional search baseline from the paper's related-work section.
//!   [`masked_dijkstra`] is the one search the construction runs inside a
//!   partition (HC2L's partitioning and shortcuts, PHL's path decomposition).
//! * [`pathutil`] — the double-sweep diameter bound and the greedy
//!   shortest-path decomposition behind the PHL baseline.
//! * [`components`] — connected components, needed both by the balanced
//!   partitioning step (Algorithm 1) and by the synthetic network generators.
//! * [`contraction`] — repeated degree-one contraction with the
//!   root/parent bookkeeping described in Section 4.2 of the paper.
//! * [`subgraph`] — induced subgraphs with id remapping, used when the
//!   hierarchy recursion descends into partitions.
//! * [`querystats`] — the shared per-query instrumentation record every
//!   distance oracle in the workspace reports from `query_with_stats`.
//! * [`flat_labels`] — the frozen flat label arenas every labelling backend
//!   queries from (global distance/hub arenas with CSR offsets, built by a
//!   one-shot `freeze()` after construction). The arenas are generic over a
//!   [`Store`] parameter, so the same query kernels run on owned `Vec`
//!   arenas or on borrowed slices of a loaded index file.
//! * [`kernels`] — the min-reduction query kernels. [`min_plus_scan`] and
//!   [`min_plus_gather`] come in scalar and AVX2 flavours behind a
//!   one-time runtime dispatch ([`KernelKind`], `HC2L_KERNEL` override);
//!   every flavour is bit-identical, only speed differs. [`min_plus_merge`]
//!   is one scalar loop: the SIMD merge-joins and HL's cut bounds were
//!   slower than it on city maps of 2k–65k vertices (see the table in
//!   [`kernels`]).
//! * [`container`] — the sectioned on-disk index format (magic/version
//!   header, per-section table of contents with 64-byte alignment,
//!   checksum) and the [`PersistentIndex`] trait every backend implements
//!   for save/load; see its module docs for the exact byte layout and the
//!   versioning policy. It is the only on-disk form of any index or arena.
//! * [`failpoints`] — feature-gated fault-injection hooks (injected I/O
//!   errors, panics, delays, torn writes) shared by every crate in the
//!   serving stack; inlined no-ops unless the `failpoints` feature is on.
//!
//! Distances are accumulated in `u64` ([`Distance`]) while individual edge
//! weights are `u32` ([`Weight`]); road-network weights fit comfortably and
//! the wider accumulator removes any overflow concern on long paths.

pub mod builder;
pub mod components;
pub mod container;
pub mod contraction;
pub mod dijkstra;
pub mod failpoints;
pub mod flat_labels;
pub mod graph;
pub mod kernels;
pub mod pathutil;
pub mod querystats;
pub mod subgraph;
pub mod toy;
pub mod types;

pub use builder::GraphBuilder;
pub use components::{connected_components, ComponentLabels};
pub use container::{
    Container, ContainerWriter, DecodeError, MetaReader, MetaWriter, PersistError, PersistentIndex,
    SectionSpec,
};
pub use contraction::{contract_degree_one, ContractedVertex, DegreeOneContraction};
pub use dijkstra::{bidirectional_dijkstra, dijkstra, dijkstra_distance, masked_dijkstra};
pub use flat_labels::{
    Borrowed, FlatCsr, FlatCsrRef, FlatEntryLabels, FlatEntryLabelsRef, FlatLevelLabels,
    FlatLevelLabelsRef, LevelLabelsBuilder, Owned, Store,
};
pub use graph::{Edge, Graph};
pub use kernels::{
    active_kernel, available_kernels, detect_kernel, force_kernel, min_plus_gather, min_plus_merge,
    min_plus_scan, KernelKind,
};
pub use querystats::QueryStats;
pub use subgraph::{InducedSubgraph, VertexSet};
pub use types::{dist_add, is_finite, Distance, Vertex, Weight, INFINITY};
