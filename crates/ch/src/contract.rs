//! Contraction and hierarchy construction.
//!
//! Construction works on a mutable `DynamicGraph` scratch; the queryable
//! state — the upward adjacency plus the vertex ranks — is frozen into the
//! flat [`FrozenCh`] view at the end, which is also exactly what the index
//! container persists (see [`PersistentIndex`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use hc2l_graph::container::{
    method_tag, Container, ContainerWriter, DecodeError, MetaReader, MetaWriter, PersistentIndex,
};
use hc2l_graph::flat_labels::{Borrowed, Owned, Store};
use hc2l_graph::{Distance, FlatEntryLabels, Graph, Vertex, INFINITY};

use crate::order::NodeOrdering;

/// An edge of the upward graph: `to` is more important than the edge's
/// source; `weight` may be a shortcut weight (sum of several original edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpwardEdge {
    /// Head vertex (higher rank than the tail).
    pub to: Vertex,
    /// Edge or shortcut weight.
    pub weight: Distance,
}

/// The frozen, queryable state of a contraction hierarchy: the upward
/// adjacency as a [`FlatEntryLabels`] arena (target column, weight column,
/// per-vertex CSR offsets).
///
/// Generic over the [`Store`]: the owned instantiation is what
/// [`ContractionHierarchy::build`] produces; the borrowed one
/// ([`FrozenChRef`]) views the sections of a loaded index container without
/// copying, and the bidirectional upward search runs on either unchanged.
pub struct FrozenCh<S: Store = Owned> {
    upward: FlatEntryLabels<S>,
}

/// A [`FrozenCh`] borrowing its arenas from a loaded container.
pub type FrozenChRef<'a> = FrozenCh<Borrowed<'a>>;

/// Container section tags of the CH backend.
mod sec {
    /// Scalar metadata ([`MetaWriter`] blob).
    pub const META: u32 = 0;
    /// Upward-edge target column (`u32`).
    pub const UP_TARGETS: u32 = 1;
    /// Upward-edge weight column (`u64`).
    pub const UP_WEIGHTS: u32 = 2;
    /// Per-vertex CSR offsets into the columns (`u32`).
    pub const UP_OFFSETS: u32 = 3;
    /// Contraction rank of each vertex (`u32`).
    pub const RANK: u32 = 4;
}

impl<S: Store> FrozenCh<S> {
    /// Wraps a frozen upward arena.
    pub fn new(upward: FlatEntryLabels<S>) -> Self {
        FrozenCh { upward }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.upward.num_vertices()
    }

    /// Targets of vertex `v`'s upward edges (sorted ascending).
    #[inline]
    pub fn upward_targets(&self, v: Vertex) -> &[Vertex] {
        self.upward.hubs(v)
    }

    /// Weights of vertex `v`'s upward edges, parallel to
    /// [`FrozenCh::upward_targets`].
    #[inline]
    pub fn upward_weights(&self, v: Vertex) -> &[Distance] {
        self.upward.dists(v)
    }

    /// Number of upward edges of vertex `v`.
    #[inline]
    pub fn upward_degree(&self, v: Vertex) -> usize {
        self.upward.len_of(v)
    }

    /// Vertex `v`'s upward edges as [`UpwardEdge`] values.
    pub fn upward_edges(&self, v: Vertex) -> impl Iterator<Item = UpwardEdge> + '_ {
        self.upward_targets(v)
            .iter()
            .zip(self.upward_weights(v))
            .map(|(&to, &weight)| UpwardEdge { to, weight })
    }

    /// Total number of upward edges (original + shortcuts).
    #[inline]
    pub fn num_upward_edges(&self) -> usize {
        self.upward.total_entries()
    }

    /// In-memory footprint of the upward arena in bytes.
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.upward.memory_bytes()
    }

    /// The underlying arena.
    pub fn arena(&self) -> &FlatEntryLabels<S> {
        &self.upward
    }
}

impl<'a> FrozenCh<Borrowed<'a>> {
    /// Zero-copy view of the upward graph stored in a loaded container
    /// (little-endian hosts; see `Container::section_pods`).
    pub fn from_container(c: &'a Container) -> Result<Self, DecodeError> {
        let targets = c.section_pods::<u32>(sec::UP_TARGETS)?;
        let weights = c.section_pods::<u64>(sec::UP_WEIGHTS)?;
        let offsets = c.section_pods::<u32>(sec::UP_OFFSETS)?;
        let frozen = FrozenCh::new(FlatEntryLabels::from_parts(targets, weights, offsets)?);
        validate_upward(&frozen, c.section_pods::<u32>(sec::RANK)?)?;
        Ok(frozen)
    }
}

/// Validates the upward-graph invariants the bidirectional search relies on
/// (per-vertex targets strictly sorted, every edge pointing to a strictly
/// higher rank) so that a crafted container fails with a typed error
/// instead of silently returning non-shortest distances.
fn validate_upward<S: Store>(frozen: &FrozenCh<S>, rank: &[u32]) -> Result<(), DecodeError> {
    if rank.len() != frozen.num_vertices() {
        return Err(DecodeError::Malformed(
            "rank array does not cover every vertex",
        ));
    }
    for v in 0..frozen.num_vertices() as Vertex {
        let targets = frozen.upward_targets(v);
        if targets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DecodeError::Malformed("upward targets not strictly sorted"));
        }
        for &t in targets {
            if t as usize >= rank.len() || rank[t as usize] <= rank[v as usize] {
                return Err(DecodeError::Malformed(
                    "upward edge does not point to a higher rank",
                ));
            }
        }
    }
    Ok(())
}

impl<S: Store> std::fmt::Debug for FrozenCh<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenCh")
            .field("upward", &self.upward)
            .finish()
    }
}

impl<S: Store> Clone for FrozenCh<S>
where
    FlatEntryLabels<S>: Clone,
{
    fn clone(&self) -> Self {
        FrozenCh {
            upward: self.upward.clone(),
        }
    }
}

/// A built contraction hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContractionHierarchy {
    /// The contraction order.
    pub ordering: NodeOrdering,
    /// The frozen upward graph queries run on.
    frozen: FrozenCh,
    /// Number of shortcut edges inserted during contraction.
    pub num_shortcuts: usize,
    /// Wall-clock construction time in seconds.
    pub construction_seconds: f64,
}

/// [`ContractionHierarchy::recontract`] gave up: replaying the stored
/// order on the new metric ran past one of its budgets, so finishing
/// would have been slower than a rebuild. The hierarchy is left exactly
/// as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecontractAborted {
    /// Shortcut fill-in exploded: more shortcut edges were added than a
    /// small multiple of the original upward-graph size.
    FillIn {
        /// Shortcut edges added before giving up.
        added: usize,
        /// The fill-in budget that was exceeded.
        budget: usize,
    },
    /// Witness-search work exploded: the searches settled more vertices
    /// than a multiple of what replaying the original metric could cost.
    /// Fill-in alone misses this — the shortcut *count* can stay modest
    /// while the searches that prune them get quadratically more
    /// expensive (every pair of a densified vertex's neighbours runs a
    /// search, and scarce witnesses push each search to its settle cap).
    Work {
        /// Vertices the witness searches settled before giving up.
        settled: usize,
        /// The settle budget that was exceeded.
        budget: usize,
    },
    /// A single vertex's contraction-time degree blew up: the pending
    /// vertex alone would cost more neighbour-pair witness searches than
    /// the pair budget allows. Checked *before* paying that quadratic
    /// cost, unlike the [`RecontractAborted::Work`] check which settles
    /// up after each vertex.
    Pairs {
        /// Neighbour pairs examined (including the pending vertex's).
        pairs: usize,
        /// The pair budget that was exceeded.
        budget: usize,
    },
}

impl std::fmt::Display for RecontractAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecontractAborted::FillIn { added, budget } => write!(
                f,
                "re-contraction aborted: {added} shortcuts added exceeds the fill-in budget \
                 of {budget} (the stored order does not suit the new metric; rebuild instead)"
            ),
            RecontractAborted::Work { settled, budget } => write!(
                f,
                "re-contraction aborted: witness searches settled {settled} vertices, \
                 exceeding the work budget of {budget} (the stored order does not suit \
                 the new metric; rebuild instead)"
            ),
            RecontractAborted::Pairs { pairs, budget } => write!(
                f,
                "re-contraction aborted: {pairs} neighbour pairs to examine exceeds the \
                 pair budget of {budget} (the stored order does not suit the new metric; \
                 rebuild instead)"
            ),
        }
    }
}

impl std::error::Error for RecontractAborted {}

/// Working adjacency during contraction: a weighted dynamic graph with
/// deletion by masking.
struct DynamicGraph {
    adj: Vec<Vec<(Vertex, Distance)>>,
    contracted: Vec<bool>,
}

impl DynamicGraph {
    fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut adj = vec![Vec::new(); n];
        for v in 0..n as Vertex {
            for e in g.neighbors(v) {
                adj[v as usize].push((e.to, e.weight as Distance));
            }
        }
        DynamicGraph {
            adj,
            contracted: vec![false; n],
        }
    }

    fn neighbors(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Distance)> + '_ {
        self.adj[v as usize]
            .iter()
            .copied()
            .filter(|&(u, _)| !self.contracted[u as usize])
    }

    fn degree(&self, v: Vertex) -> usize {
        self.neighbors(v).count()
    }

    /// Adds or relaxes an undirected edge.
    fn add_edge(&mut self, u: Vertex, v: Vertex, w: Distance) -> bool {
        let mut added = false;
        if let Some(e) = self.adj[u as usize].iter_mut().find(|(x, _)| *x == v) {
            if w < e.1 {
                e.1 = w;
            }
        } else {
            self.adj[u as usize].push((v, w));
            added = true;
        }
        if let Some(e) = self.adj[v as usize].iter_mut().find(|(x, _)| *x == u) {
            if w < e.1 {
                e.1 = w;
            }
        } else {
            self.adj[v as usize].push((u, w));
        }
        added
    }

    /// Local witness search: is there a path from `s` to `t` of length at
    /// most `limit` that avoids `excluded` (and contracted vertices)? The
    /// search gives up (returns `false`) after `max_settled` settled vertices,
    /// which errs on the side of inserting an unnecessary shortcut — safe for
    /// correctness.
    fn witness_exists(
        &self,
        s: Vertex,
        t: Vertex,
        excluded: Vertex,
        limit: Distance,
        max_settled: usize,
        work: &mut usize,
    ) -> bool {
        let mut dist: std::collections::HashMap<Vertex, Distance> =
            std::collections::HashMap::new();
        let mut heap: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
        dist.insert(s, 0);
        heap.push(Reverse((0, s)));
        let mut settled = 0usize;
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > *dist.get(&v).unwrap_or(&INFINITY) {
                continue;
            }
            if v == t {
                *work += settled;
                return d <= limit;
            }
            if d > limit {
                *work += settled;
                return false;
            }
            settled += 1;
            if settled > max_settled {
                *work += settled;
                return false;
            }
            for (u, w) in self.neighbors(v) {
                if u == excluded {
                    continue;
                }
                let nd = d + w;
                if nd < *dist.get(&u).unwrap_or(&INFINITY) && nd <= limit {
                    dist.insert(u, nd);
                    heap.push(Reverse((nd, u)));
                }
            }
        }
        *work += settled;
        false
    }

    /// Shortcuts required to contract `v` right now: pairs of uncontracted
    /// neighbours whose shortest interconnection runs through `v`. Adds the
    /// number of vertices the witness searches settled to `work` — the
    /// direct measure of contraction cost the re-contraction work budget is
    /// denominated in.
    fn required_shortcuts(
        &self,
        v: Vertex,
        max_settled: usize,
        work: &mut usize,
    ) -> Vec<(Vertex, Vertex, Distance)> {
        let neighbors: Vec<(Vertex, Distance)> = self.neighbors(v).collect();
        let mut shortcuts = Vec::new();
        for i in 0..neighbors.len() {
            for j in (i + 1)..neighbors.len() {
                let (a, wa) = neighbors[i];
                let (b, wb) = neighbors[j];
                let through = wa + wb;
                if !self.witness_exists(a, b, v, through, max_settled, work) {
                    shortcuts.push((a, b, through));
                }
            }
        }
        shortcuts
    }
}

impl ContractionHierarchy {
    /// Builds a contraction hierarchy with the lazy edge-difference ordering.
    pub fn build(g: &Graph) -> Self {
        let start = std::time::Instant::now();
        let n = g.num_vertices();
        let mut dyn_graph = DynamicGraph::new(g);
        let mut rank = vec![0u32; n];
        let mut contracted_neighbors = vec![0u32; n];
        // Witness searches are capped; larger caps give slightly fewer
        // shortcuts at higher construction cost.
        let max_settled = 60;

        let priority = |dg: &DynamicGraph, contracted_neighbors: &[u32], v: Vertex| -> i64 {
            let shortcuts = dg.required_shortcuts(v, max_settled, &mut 0).len() as i64;
            let degree = dg.degree(v) as i64;
            2 * (shortcuts - degree) + contracted_neighbors[v as usize] as i64
        };

        let mut queue: BinaryHeap<Reverse<(i64, Vertex)>> = (0..n as Vertex)
            .map(|v| Reverse((priority(&dyn_graph, &contracted_neighbors, v), v)))
            .collect();

        let mut next_rank = 0u32;
        while let Some(Reverse((prio, v))) = queue.pop() {
            if dyn_graph.contracted[v as usize] {
                continue;
            }
            // Lazy update: recompute and re-queue if stale and worse than the
            // new queue head.
            let fresh = priority(&dyn_graph, &contracted_neighbors, v);
            if fresh > prio {
                if let Some(Reverse((head, _))) = queue.peek() {
                    if fresh > *head {
                        queue.push(Reverse((fresh, v)));
                        continue;
                    }
                }
            }
            // Contract v.
            let shortcuts = dyn_graph.required_shortcuts(v, max_settled, &mut 0);
            dyn_graph.contracted[v as usize] = true;
            rank[v as usize] = next_rank;
            next_rank += 1;
            for &(a, b, w) in &shortcuts {
                dyn_graph.add_edge(a, b, w);
            }
            for (u, _) in dyn_graph.adj[v as usize].clone() {
                if !dyn_graph.contracted[u as usize] {
                    contracted_neighbors[u as usize] += 1;
                }
            }
        }

        // Assemble the upward graph: for every (possibly shortcut) edge in the
        // final dynamic graph, keep the direction towards the higher rank.
        // `dyn_graph.adj` accumulated all shortcuts that were ever added.
        let ordering = NodeOrdering::from_ranks(rank);
        let (frozen, num_shortcuts) = assemble_upward(g, &ordering, &dyn_graph);

        ContractionHierarchy {
            ordering,
            frozen,
            num_shortcuts,
            construction_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Re-derives the whole upward graph from the (re-weighted) graph `g` by
    /// contracting every vertex in the *stored* order — the incremental
    /// metric-update path (`hc2l_dynamic::customize_ch` wraps this). `g`
    /// must have the topology the hierarchy was built on, with arbitrarily
    /// changed weights.
    ///
    /// A full [`ContractionHierarchy::build`] spends most of its time
    /// *choosing* the order: every priority evaluation (one per vertex up
    /// front, plus every lazy re-prioritisation) runs the same witness
    /// searches a contraction does. Replaying a fixed order runs only the
    /// contraction-time searches — several times fewer — while still
    /// running them against the **new** metric, so the pruned upward graph
    /// is exact for `g` by the same witness argument as a fresh build, and
    /// stays witness-small (a closure-based customization would bloat the
    /// upward graph and slow every subsequent query).
    ///
    /// The stored order is only *good* for metrics close to the one it was
    /// chosen for. A drastic re-weighting (say, most edges changed by large
    /// factors) can densify the replay: witness searches fail where the
    /// order expected them to succeed, extra shortcuts raise degrees, and
    /// each further contraction gets quadratically more expensive. To keep
    /// the incremental path strictly cheaper than a rebuild, the replay
    /// carries two budgets and returns [`RecontractAborted`] the moment
    /// either is exceeded, leaving the hierarchy **unchanged** so the
    /// caller can rebuild (that is what `hc2l_dynamic` does):
    ///
    /// * a **fill-in** budget — a small multiple of the original upward
    ///   size — bounding how many shortcut edges the replay may add, and
    /// * a **work** budget bounding the number of neighbour pairs examined
    ///   (each pair costs one capped witness search). The baseline is what
    ///   replaying the *original* metric costs, which is derivable from the
    ///   stored hierarchy alone: a vertex's adjacency is complete before it
    ///   contracts, and its uncontracted neighbours at that moment are
    ///   exactly its higher-ranked ones — so its contraction-time degree
    ///   *is* its upward degree, and the baseline is Σ C(upward_deg(v), 2).
    ///   The work budget catches metrics where fill-in stays modest but the
    ///   searches pruning it get quadratically more expensive.
    pub fn recontract(&mut self, g: &Graph) -> Result<(), RecontractAborted> {
        let n = self.ordering.rank.len();
        assert_eq!(
            n,
            g.num_vertices(),
            "update graph has a different vertex count than the hierarchy"
        );
        let mut dyn_graph = DynamicGraph::new(g);
        let max_settled = 60;
        // A healthy replay adds about as many shortcuts as the original
        // build did; the budgets only trip on pathological densification,
        // where finishing the replay would cost far more than a rebuild.
        let fill_budget = 2 * self.frozen.num_upward_edges() + 256;
        // Pair baseline: a vertex's contraction-time degree is its upward
        // degree (see the doc comment), so replaying the original metric
        // examines exactly Σ C(upward_deg(v), 2) neighbour pairs.
        let baseline_pairs: usize = (0..n as Vertex)
            .map(|v| {
                let d = self.frozen.upward_degree(v);
                d * d.saturating_sub(1) / 2
            })
            .sum();
        let pair_budget = 4 * baseline_pairs + 4 * n + 1024;
        // Settle budget: healthy witness searches terminate early (a witness
        // is found, or the radius bound kicks in) and average ~12 settled
        // vertices per baseline pair on the bench networks; searches on a
        // metric the order does not suit run to the `max_settled` cap *and*
        // multiply in number as degrees densify. 32 per baseline pair is
        // ~2.5x a healthy replay's work — aborting there plus rebuilding is
        // still far cheaper than finishing a pathological replay.
        let work_budget = 32 * baseline_pairs + 8 * n + 4096;
        let mut added = 0usize;
        let mut pairs = 0usize;
        let mut settled = 0usize;
        for &v in &self.ordering.by_rank {
            let d = dyn_graph.degree(v);
            pairs += d * d.saturating_sub(1) / 2;
            if pairs > pair_budget {
                return Err(RecontractAborted::Pairs {
                    pairs,
                    budget: pair_budget,
                });
            }
            let shortcuts = dyn_graph.required_shortcuts(v, max_settled, &mut settled);
            dyn_graph.contracted[v as usize] = true;
            for &(a, b, w) in &shortcuts {
                if dyn_graph.add_edge(a, b, w) {
                    added += 1;
                }
            }
            if added > fill_budget {
                return Err(RecontractAborted::FillIn {
                    added,
                    budget: fill_budget,
                });
            }
            if settled > work_budget {
                return Err(RecontractAborted::Work {
                    settled,
                    budget: work_budget,
                });
            }
        }
        let (frozen, num_shortcuts) = assemble_upward(g, &self.ordering, &dyn_graph);
        self.frozen = frozen;
        self.num_shortcuts = num_shortcuts;
        Ok(())
    }

    /// The frozen upward graph.
    pub fn frozen(&self) -> &FrozenCh {
        &self.frozen
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.frozen.num_vertices()
    }

    /// Targets of vertex `v`'s upward edges (sorted ascending).
    #[inline]
    pub fn upward_targets(&self, v: Vertex) -> &[Vertex] {
        self.frozen.upward_targets(v)
    }

    /// Weights of vertex `v`'s upward edges.
    #[inline]
    pub fn upward_weights(&self, v: Vertex) -> &[Distance] {
        self.frozen.upward_weights(v)
    }

    /// Vertex `v`'s upward edges as [`UpwardEdge`] values.
    pub fn upward_edges(&self, v: Vertex) -> impl Iterator<Item = UpwardEdge> + '_ {
        self.frozen.upward_edges(v)
    }

    /// Total number of upward edges (original + shortcuts).
    pub fn num_upward_edges(&self) -> usize {
        self.frozen.num_upward_edges()
    }

    /// Memory footprint of the queryable state (upward arena + ranks).
    pub fn memory_bytes(&self) -> usize {
        self.frozen.memory_bytes() + self.ordering.rank.len() * 4
    }
}

/// Turns the fully contracted [`DynamicGraph`] into the frozen upward graph:
/// for every (possibly shortcut) edge accumulated in `dyn_graph.adj`, keep
/// the direction towards the higher rank, dedup parallel edges to the
/// minimum weight, and count edges absent from (or re-weighted relative to)
/// the base graph as shortcuts. Shared by [`ContractionHierarchy::build`]
/// and [`ContractionHierarchy::recontract`].
fn assemble_upward(
    g: &Graph,
    ordering: &NodeOrdering,
    dyn_graph: &DynamicGraph,
) -> (FrozenCh, usize) {
    let n = ordering.rank.len();
    let mut upward: Vec<Vec<(Vertex, Distance)>> = vec![Vec::new(); n];
    let mut num_shortcuts = 0usize;
    for v in 0..n as Vertex {
        for &(u, w) in &dyn_graph.adj[v as usize] {
            if ordering.is_higher(u, v) {
                upward[v as usize].push((u, w));
                if g.edge_weight(v, u).map(|ow| ow as Distance) != Some(w) {
                    num_shortcuts += 1;
                }
            }
        }
    }
    for list in &mut upward {
        list.sort_by_key(|e| e.0);
        list.dedup_by(|a, b| {
            if a.0 == b.0 {
                // Keep the smaller weight (dedup removes `a` when true, so
                // fold it into `b` first).
                b.1 = b.1.min(a.1);
                true
            } else {
                false
            }
        });
    }
    (
        FrozenCh::new(FlatEntryLabels::freeze_pairs(&upward)),
        num_shortcuts,
    )
}

impl PersistentIndex for ContractionHierarchy {
    const METHOD_TAG: u32 = method_tag::CH;

    fn write_sections(&self, w: &mut ContainerWriter) {
        let mut meta = MetaWriter::new();
        meta.u64(self.num_shortcuts as u64)
            .f64(self.construction_seconds);
        w.push_section(sec::META, meta.finish());
        let (targets, weights, offsets) = self.frozen.upward.parts();
        w.push_pods(sec::UP_TARGETS, targets);
        w.push_pods(sec::UP_WEIGHTS, weights);
        w.push_pods(sec::UP_OFFSETS, offsets);
        w.push_pods(sec::RANK, &self.ordering.rank);
    }

    fn read_sections(c: &Container) -> Result<Self, DecodeError> {
        let mut meta = MetaReader::new(c.section(sec::META)?);
        let num_shortcuts = meta.usize()?;
        let construction_seconds = meta.f64()?;
        meta.finish()?;

        let upward = FlatEntryLabels::from_parts(
            c.read_pod_vec::<u32>(sec::UP_TARGETS)?,
            c.read_pod_vec::<u64>(sec::UP_WEIGHTS)?,
            c.read_pod_vec::<u32>(sec::UP_OFFSETS)?,
        )?;
        let rank = c.read_pod_vec::<u32>(sec::RANK)?;
        if rank.len() != upward.num_vertices() {
            return Err(DecodeError::Malformed(
                "rank array does not cover every vertex",
            ));
        }
        // The ranks must be a permutation of 0..n for the ordering (and the
        // upward-edge invariant) to make sense.
        let mut seen = vec![false; rank.len()];
        for &r in &rank {
            match seen.get_mut(r as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => return Err(DecodeError::Malformed("ranks are not a permutation")),
            }
        }
        let frozen = FrozenCh::new(upward);
        validate_upward(&frozen, &rank)?;
        Ok(ContractionHierarchy {
            ordering: NodeOrdering::from_ranks(rank),
            frozen,
            num_shortcuts,
            construction_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::toy::{grid_graph, paper_figure1, path_graph};

    #[test]
    fn all_ranks_are_distinct() {
        let g = paper_figure1();
        let ch = ContractionHierarchy::build(&g);
        let mut ranks = ch.ordering.rank.clone();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn upward_edges_point_to_higher_ranks() {
        let g = grid_graph(5, 5);
        let ch = ContractionHierarchy::build(&g);
        for v in 0..25u32 {
            for e in ch.upward_edges(v) {
                assert!(ch.ordering.is_higher(e.to, v));
            }
        }
    }

    #[test]
    fn path_graph_needs_few_shortcuts() {
        let g = path_graph(32, 1);
        let ch = ContractionHierarchy::build(&g);
        // A path has treewidth 1; the number of shortcuts should stay small
        // (well below the quadratic worst case).
        assert!(
            ch.num_shortcuts <= 64,
            "too many shortcuts: {}",
            ch.num_shortcuts
        );
    }

    #[test]
    fn every_vertex_except_top_has_an_upward_edge() {
        let g = paper_figure1();
        let ch = ContractionHierarchy::build(&g);
        let top = ch.ordering.by_rank[15];
        for v in 0..16u32 {
            if v != top {
                assert!(
                    ch.frozen().upward_degree(v) > 0,
                    "vertex {v} has no upward edge"
                );
            }
        }
    }

    #[test]
    fn container_round_trip_preserves_the_upward_graph() {
        let g = grid_graph(4, 5);
        let ch = ContractionHierarchy::build(&g);
        let mut w = ContainerWriter::new(ContractionHierarchy::METHOD_TAG);
        ch.write_sections(&mut w);
        let c = Container::from_bytes(&w.finish()).unwrap();
        let back = ContractionHierarchy::read_sections(&c).unwrap();
        assert_eq!(back.ordering.rank, ch.ordering.rank);
        assert_eq!(back.num_shortcuts, ch.num_shortcuts);
        for v in 0..20u32 {
            assert_eq!(back.upward_targets(v), ch.upward_targets(v));
            assert_eq!(back.upward_weights(v), ch.upward_weights(v));
        }
        // Zero-copy borrowed view serves the same adjacency.
        let view = FrozenCh::from_container(&c).unwrap();
        for v in 0..20u32 {
            assert_eq!(view.upward_targets(v), ch.upward_targets(v));
        }
    }

    #[test]
    fn crafted_upward_graphs_are_rejected_on_load() {
        // Reversed ranks turn every upward edge downward, and swapped
        // targets break the sorted adjacency: both loaders refuse either
        // instead of answering with non-shortest distances.
        let g = grid_graph(4, 5);
        let ch = ContractionHierarchy::build(&g);
        let (targets, weights, offsets) = ch.frozen.upward.parts();
        let rank = &ch.ordering.rank;
        let reversed: Vec<u32> = rank.iter().map(|&r| 19 - r).collect();
        let v = (0..20u32)
            .find(|&v| ch.upward_targets(v).len() >= 2)
            .unwrap() as usize;
        let mut unsorted = targets.to_vec();
        unsorted.swap(offsets[v] as usize, offsets[v] as usize + 1);
        for (targets, rank, why) in [
            (
                targets.to_vec(),
                &reversed[..],
                "upward edge does not point to a higher rank",
            ),
            (unsorted, &rank[..], "upward targets not strictly sorted"),
        ] {
            let mut w = ContainerWriter::new(ContractionHierarchy::METHOD_TAG);
            let mut meta = MetaWriter::new();
            meta.u64(ch.num_shortcuts as u64).f64(0.0);
            w.push_section(sec::META, meta.finish());
            w.push_pods(sec::UP_TARGETS, &targets);
            w.push_pods(sec::UP_WEIGHTS, weights);
            w.push_pods(sec::UP_OFFSETS, offsets);
            w.push_pods(sec::RANK, rank);
            let c = Container::from_bytes(&w.finish()).unwrap();
            let want = Some(DecodeError::Malformed(why));
            assert_eq!(ContractionHierarchy::read_sections(&c).err(), want);
            assert_eq!(FrozenCh::from_container(&c).err(), want);
        }
    }
}
