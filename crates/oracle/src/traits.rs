//! The [`DistanceOracle`] trait: one construction-and-query interface for
//! every backend in the workspace.

use std::path::Path;

use hc2l_dynamic::{UpdateReport, WeightUpdate};
use hc2l_graph::{Distance, Graph, PersistError, QueryStats, Vertex};

use crate::builder::OracleConfig;
use crate::method::Method;

/// An exact shortest-path distance oracle over a weighted undirected graph.
///
/// The [`Oracle`](crate::Oracle) enum implements this trait over all five
/// workspace backends, so callers can be generic over the oracle
/// (`fn f(o: &impl DistanceOracle)`) and select the method at runtime via
/// [`OracleBuilder`](crate::OracleBuilder).
///
/// Semantics shared by every implementation:
///
/// * distances are **exact** (equal to Dijkstra's) and symmetric;
/// * `distance(v, v) == 0` for every vertex;
/// * disconnected pairs return [`hc2l_graph::INFINITY`].
pub trait DistanceOracle: Send + Sync {
    /// Builds the oracle for a graph. Backends read the parts of
    /// [`OracleConfig`] that apply to them (e.g. the HC2L β / threading
    /// knobs) and ignore the rest.
    fn build(g: &Graph, config: &OracleConfig) -> Self
    where
        Self: Sized;

    /// Display name of the method ("HC2L", "H2H", ...).
    fn name(&self) -> &'static str;

    /// The [`Method`] this oracle answers for — the machine-readable
    /// counterpart of [`DistanceOracle::name`], so callers can branch on
    /// capabilities (or rebuild with the same method) without string
    /// comparisons.
    fn method(&self) -> Method;

    /// Absorbs a batch of edge re-weightings: applies it to `graph` (the
    /// graph this oracle currently answers for) and brings the index back
    /// in sync with the new metric, incrementally where the backend can
    /// (CH customization, the HC2L fixed-hierarchy relabel) and by a
    /// rebuild otherwise. Updates naming a missing edge, a self loop or an
    /// out-of-range vertex are counted in [`UpdateReport::rejected`] and
    /// skipped; the rest of the batch still applies. Either way the oracle
    /// answers exactly for the re-weighted graph afterwards.
    ///
    /// A loaded index absorbs a batch exactly like the built one it was
    /// saved from: the same strategy, and the same bytes afterwards. A graph
    /// whose vertex count differs from the index's is absorbed by a
    /// rebuild on that graph. A rebuild reuses the index's own
    /// configuration. A loaded HC2L index has no stored thread count, so it
    /// rebuilds with the default one.
    fn apply_updates(&mut self, graph: &mut Graph, updates: &[WeightUpdate]) -> UpdateReport;

    /// Exact shortest-path distance between two vertices.
    fn distance(&self, s: Vertex, t: Vertex) -> Distance;

    /// Like [`DistanceOracle::distance`], additionally reporting the shared
    /// per-query instrumentation record.
    fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats);

    /// Batched one-to-many query: distances from `s` to every vertex in
    /// `targets`, in order, with per-source work (label lookups,
    /// contraction root resolution) amortised over the batch.
    fn one_to_many(&self, s: Vertex, targets: &[Vertex]) -> Vec<Distance>;

    /// Buffer-reusing variant of [`DistanceOracle::one_to_many`]: clears
    /// `out` and fills it with the distances from `s` to every vertex in
    /// `targets`, in order.
    ///
    /// Batch callers (benchmark loops, POI/dispatch services) call this in a
    /// loop with one long-lived buffer so steady-state batched querying does
    /// no per-batch allocation.
    fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>);

    /// Saves the built index to a sectioned container file
    /// (`hc2l_graph::container`); reload it with
    /// [`OracleBuilder::load`](crate::OracleBuilder::load) — milliseconds
    /// instead of re-running construction.
    fn save(&self, path: &Path) -> Result<(), PersistError>;

    /// Total index footprint in bytes: the **exact size of the container
    /// file** that [`DistanceOracle::save`] writes (header, section table
    /// and 64-byte-aligned sections), derived from the same serialisation
    /// path — so bench output and the paper's index-size tables agree with
    /// what lands on disk.
    fn index_bytes(&self) -> usize;

    /// Bytes of distance-label storage (Table 2's "Labelling Size"; the
    /// upward-graph size for search-based CH).
    fn label_bytes(&self) -> usize;

    /// Bytes of auxiliary LCA structures (Table 3's "LCA Storage"; 0 when
    /// the method has none).
    fn lca_bytes(&self) -> usize;

    /// Height of the method's tree hierarchy (Table 5), when it has one.
    fn tree_height(&self) -> Option<u32>;

    /// Maximum cut size / bag width (Table 5), when applicable.
    fn max_width(&self) -> Option<usize>;
}
