//! The frozen, queryable state of an HC2L index.
//!
//! [`Hc2lIndex::build`](crate::Hc2lIndex::build) conflates two phases the
//! paper treats separately: *construction* (recursive bisection, label
//! generation — scratch-heavy, run once) and *querying* (LCA bit-operation +
//! one arena scan — run billions of times). This module owns the second
//! phase: [`FrozenHc2l`] holds exactly the arrays a query touches, generic
//! over the [`Store`] so the identical kernels run on owned `Vec` arenas
//! (after a build) or on borrowed zero-copy views of a loaded index
//! container.
//!
//! The frozen state is four pieces:
//!
//! * the [`FlatLevelLabels`] arena over *core* vertex ids,
//! * one packed [`NodeId`] bitstring per core vertex (the 8-byte LCA
//!   bookkeeping of Table 3),
//! * the original-id → core-id mapping, and
//! * the flattened degree-one contraction bookkeeping
//!   ([`FrozenContraction`]: root/parent/depth/distance columns instead of
//!   the build-time `Option<ContractedVertex>` vector).

use hc2l_cut::NodeId;
use hc2l_graph::container::DecodeError;
use hc2l_graph::flat_labels::{Borrowed, Owned, Store};
use hc2l_graph::{
    min_plus_scan, DegreeOneContraction, Distance, FlatLevelLabels, QueryStats, Vertex, INFINITY,
};

/// Sentinel in the `core_id` and contraction-root columns: "not a core
/// vertex" resp. "not contracted".
pub const NO_VERTEX: u32 = u32::MAX;

/// Flattened degree-one-contraction bookkeeping: four parallel per-vertex
/// columns (empty when contraction is disabled or removed nothing).
///
/// `root[v] == NO_VERTEX` marks a core vertex; contracted vertices carry
/// their pendant-tree root, the in-tree parent, the tree depth and the
/// distance to the root — everything the query-time tree walks need, and
/// nothing of the build-time core graph.
pub struct FrozenContraction<S: Store = Owned> {
    root: S::Slice<u32>,
    parent: S::Slice<u32>,
    depth: S::Slice<u32>,
    dist: S::Slice<Distance>,
    contracted_count: usize,
}

impl FrozenContraction<Owned> {
    /// No contraction: every vertex is a core vertex.
    pub fn empty() -> Self {
        FrozenContraction {
            root: Vec::new(),
            parent: Vec::new(),
            depth: Vec::new(),
            dist: Vec::new(),
            contracted_count: 0,
        }
    }

    /// Flattens the build-time contraction bookkeeping (dropping its core
    /// graph). Returns the empty state when nothing was contracted.
    pub fn from_degree_one(c: &DegreeOneContraction) -> Self {
        let n = c.contracted.len();
        if c.contracted.iter().all(|x| x.is_none()) {
            return FrozenContraction::empty();
        }
        let mut root = vec![NO_VERTEX; n];
        let mut parent = vec![NO_VERTEX; n];
        let mut depth = vec![0u32; n];
        let mut dist = vec![0u64; n];
        let mut contracted_count = 0usize;
        for (v, info) in c.contracted.iter().enumerate() {
            if let Some(info) = info {
                root[v] = info.root;
                parent[v] = info.parent;
                depth[v] = info.depth;
                dist[v] = info.dist_to_root;
                contracted_count += 1;
            }
        }
        FrozenContraction {
            root,
            parent,
            depth,
            dist,
            contracted_count,
        }
    }
}

impl<S: Store> FrozenContraction<S> {
    /// Assembles the columns, validating lengths and index ranges (`n` is
    /// the number of original vertices).
    pub fn from_parts(
        root: S::Slice<u32>,
        parent: S::Slice<u32>,
        depth: S::Slice<u32>,
        dist: S::Slice<Distance>,
        n: usize,
    ) -> Result<Self, DecodeError> {
        if root.is_empty() && parent.is_empty() && depth.is_empty() && dist.is_empty() {
            return Ok(FrozenContraction {
                root,
                parent,
                depth,
                dist,
                contracted_count: 0,
            });
        }
        if root.len() != n || parent.len() != n || depth.len() != n || dist.len() != n {
            return Err(DecodeError::Malformed(
                "contraction columns do not cover every vertex",
            ));
        }
        // Structural validation: every contracted vertex's parent chain must
        // be a well-founded pendant tree (depth strictly decreasing towards
        // the shared core root, distances non-increasing towards it). This
        // is what makes the `same_tree_distance` tree walks terminate and
        // its final subtraction non-negative even for hostile input — a
        // crafted file fails here with a typed error instead of hanging a
        // query thread.
        let mut contracted_count = 0usize;
        for v in 0..n {
            if root[v] == NO_VERTEX {
                continue;
            }
            contracted_count += 1;
            if root[v] as usize >= n || parent[v] as usize >= n {
                return Err(DecodeError::Malformed(
                    "contraction root/parent out of range",
                ));
            }
            if depth[v] == 0 {
                return Err(DecodeError::Malformed(
                    "contracted vertex claims depth zero",
                ));
            }
            let p = parent[v] as usize;
            if root[p] == NO_VERTEX {
                // Parent is a core vertex: it must be this vertex's tree
                // root, one hop up.
                if parent[v] != root[v] || depth[v] != 1 {
                    return Err(DecodeError::Malformed(
                        "contraction tree root link inconsistent",
                    ));
                }
            } else {
                // Parent is contracted too: same tree, one level shallower,
                // no farther from the root than this vertex.
                if root[p] != root[v] || depth[p] != depth[v] - 1 || dist[p] > dist[v] {
                    return Err(DecodeError::Malformed(
                        "contraction parent chain inconsistent",
                    ));
                }
            }
        }
        Ok(FrozenContraction {
            root,
            parent,
            depth,
            dist,
            contracted_count,
        })
    }

    /// `true` when no vertex was contracted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.contracted_count == 0
    }

    /// Number of contracted vertices.
    #[inline]
    pub fn contracted_count(&self) -> usize {
        self.contracted_count
    }

    /// `true` if `v` was removed by the contraction.
    #[inline]
    pub fn is_contracted(&self, v: Vertex) -> bool {
        !self.root.is_empty() && self.root[v as usize] != NO_VERTEX
    }

    /// The core vertex a query involving `v` routes through, and the
    /// distance from `v` to it (core vertices map to themselves at zero).
    #[inline]
    pub fn root_of(&self, v: Vertex) -> (Vertex, Distance) {
        if self.is_contracted(v) {
            (self.root[v as usize], self.dist[v as usize])
        } else {
            (v, 0)
        }
    }

    /// Distance between two vertices sharing a pendant-tree root, using only
    /// contraction-tree information (the caller checks the shared root via
    /// [`FrozenContraction::root_of`]).
    pub fn same_tree_distance(&self, v: Vertex, w: Vertex) -> Distance {
        if v == w {
            return 0;
        }
        let dist_from_root = |x: Vertex| -> Distance {
            if self.is_contracted(x) {
                self.dist[x as usize]
            } else {
                0
            }
        };
        let depth = |x: Vertex| -> u32 {
            if self.is_contracted(x) {
                self.depth[x as usize]
            } else {
                0
            }
        };
        let parent = |x: Vertex| -> Vertex {
            if self.is_contracted(x) {
                self.parent[x as usize]
            } else {
                x
            }
        };
        let dv = dist_from_root(v);
        let dw = dist_from_root(w);
        // Walk the deeper vertex up until both are at the same depth, then
        // walk both up until they meet; accumulate distances via the roots.
        let (mut a, mut b) = (v, w);
        while depth(a) > depth(b) {
            a = parent(a);
        }
        while depth(b) > depth(a) {
            b = parent(b);
        }
        while a != b {
            a = parent(a);
            b = parent(b);
        }
        // `a == b` is the LCA; its distance to the root is subtracted twice.
        dv + dw - 2 * dist_from_root(a)
    }

    /// The raw columns (root, parent, depth, dist).
    pub fn parts(&self) -> (&[u32], &[u32], &[u32], &[Distance]) {
        (&self.root, &self.parent, &self.depth, &self.dist)
    }

    /// Memory footprint of the flattened columns in bytes — what is
    /// actually held in memory and persisted (three `u32` columns plus one
    /// `u64` column over all vertices; zero when nothing was contracted).
    pub fn memory_bytes(&self) -> usize {
        self.root.len() * 4
            + self.parent.len() * 4
            + self.depth.len() * 4
            + self.dist.len() * std::mem::size_of::<Distance>()
    }
}

impl<S: Store> std::fmt::Debug for FrozenContraction<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenContraction")
            .field("contracted_count", &self.contracted_count)
            .finish()
    }
}

impl<S: Store> Clone for FrozenContraction<S>
where
    S::Slice<u32>: Clone,
    S::Slice<Distance>: Clone,
{
    fn clone(&self) -> Self {
        FrozenContraction {
            root: self.root.clone(),
            parent: self.parent.clone(),
            depth: self.depth.clone(),
            dist: self.dist.clone(),
            contracted_count: self.contracted_count,
        }
    }
}

/// The frozen, queryable state of an HC2L index (see the module docs).
pub struct FrozenHc2l<S: Store = Owned> {
    /// Label arena over compact core vertex ids.
    labels: FlatLevelLabels<S>,
    /// Packed hierarchy bitstring of each core vertex ([`NodeId::raw`]).
    bits: S::Slice<u64>,
    /// Original id → compact core id ([`NO_VERTEX`] for contracted
    /// vertices); length = number of original vertices.
    core_id: S::Slice<u32>,
    /// Flattened degree-one contraction bookkeeping.
    contraction: FrozenContraction<S>,
}

/// A [`FrozenHc2l`] borrowing its arenas from a loaded container.
pub type FrozenHc2lRef<'a> = FrozenHc2l<Borrowed<'a>>;

impl<S: Store> FrozenHc2l<S> {
    /// Assembles the frozen state, validating the cross-array invariants a
    /// query relies on.
    pub fn from_parts(
        labels: FlatLevelLabels<S>,
        bits: S::Slice<u64>,
        core_id: S::Slice<u32>,
        contraction: FrozenContraction<S>,
    ) -> Result<Self, DecodeError> {
        let n_core = labels.num_vertices();
        if bits.len() != n_core {
            return Err(DecodeError::Malformed(
                "bitstring array does not cover every core vertex",
            ));
        }
        // The original→core map must be a bijection between the non-sentinel
        // entries and 0..n_core — a duplicated compact id would alias two
        // distinct core roots onto one label and silently return d=0 for
        // far-apart vertices, so a crafted file fails here instead.
        let mut used = vec![false; n_core];
        let mut mapped = 0usize;
        for &c in core_id.iter() {
            if c == NO_VERTEX {
                continue;
            }
            match used.get_mut(c as usize) {
                Some(slot) if !*slot => {
                    *slot = true;
                    mapped += 1;
                }
                Some(_) => return Err(DecodeError::Malformed("core id mapped twice")),
                None => return Err(DecodeError::Malformed("core id out of range")),
            }
        }
        if mapped != n_core {
            return Err(DecodeError::Malformed(
                "core-id map does not cover every labelled vertex",
            ));
        }
        if !contraction.is_empty() && contraction.parts().0.len() != core_id.len() {
            return Err(DecodeError::Malformed(
                "contraction columns and core-id map differ in length",
            ));
        }
        Ok(FrozenHc2l {
            labels,
            bits,
            core_id,
            contraction,
        })
    }

    /// Number of original graph vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.core_id.len()
    }

    /// Number of core (labelled) vertices.
    #[inline]
    pub fn num_core_vertices(&self) -> usize {
        self.labels.num_vertices()
    }

    /// The label arena (over core vertex ids).
    pub fn labels(&self) -> &FlatLevelLabels<S> {
        &self.labels
    }

    /// The contraction bookkeeping.
    pub fn contraction(&self) -> &FrozenContraction<S> {
        &self.contraction
    }

    /// The hierarchy bitstring of a core vertex.
    #[inline]
    pub fn bits_of(&self, core: Vertex) -> NodeId {
        NodeId::from_raw(self.bits[core as usize])
    }

    /// The raw per-core-vertex bitstrings and the original→core id map.
    pub fn id_parts(&self) -> (&[u64], &[u32]) {
        (&self.bits, &self.core_id)
    }

    /// Bytes of per-vertex LCA bookkeeping (Table 3: one packed 64-bit
    /// bitstring per core vertex).
    #[inline]
    pub fn lca_storage_bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
    }

    /// Exact shortest-path distance between two original-id vertices.
    #[inline]
    pub fn query(&self, s: Vertex, t: Vertex) -> Distance {
        self.query_with_stats(s, t).0
    }

    /// Like [`FrozenHc2l::query`], additionally reporting the shared
    /// [`QueryStats`] record.
    pub fn query_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        if s == t {
            return (0, QueryStats::default());
        }
        let (rs, ds) = self.contraction.root_of(s);
        let (rt, dt) = self.contraction.root_of(t);
        if rs == rt {
            // Both live in (or at the root of) the same pendant tree.
            let d = if self.contraction.is_contracted(s) && self.contraction.is_contracted(t) {
                self.contraction.same_tree_distance(s, t)
            } else {
                ds + dt
            };
            return (d, QueryStats::default());
        }
        let (core_d, stats) = self.query_core_by_orig(rs, rt);
        if core_d >= INFINITY {
            (INFINITY, stats)
        } else {
            (ds + core_d + dt, stats)
        }
    }

    /// Batched one-to-many query into a caller-provided buffer: distances
    /// from `s` to every vertex in `targets`.
    ///
    /// Amortises the per-query bookkeeping over the batch — the source's
    /// contraction root and core id are resolved once instead of per target
    /// — which is the access pattern of the POI-search and dispatch
    /// workloads from the paper's introduction.
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        out.clear();
        let (rs, ds) = self.contraction.root_of(s);
        let source_core = self.core_of(rs);
        out.extend(targets.iter().map(|&t| {
            if s == t {
                return 0;
            }
            let (rt, dt) = self.contraction.root_of(t);
            if rs == rt {
                return if self.contraction.is_contracted(s) && self.contraction.is_contracted(t) {
                    self.contraction.same_tree_distance(s, t)
                } else {
                    ds + dt
                };
            }
            let core_d = match (source_core, self.core_of(rt)) {
                (Some(cs), Some(ct)) => self.query_core(cs, ct).0,
                _ => INFINITY,
            };
            if core_d >= INFINITY {
                INFINITY
            } else {
                ds + core_d + dt
            }
        }));
    }

    /// The compact core id of an original vertex, if it has one.
    #[inline]
    fn core_of(&self, v: Vertex) -> Option<Vertex> {
        let c = self.core_id[v as usize];
        (c != NO_VERTEX).then_some(c)
    }

    /// Query between two core vertices given by their *original* ids.
    fn query_core_by_orig(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        let (Some(cs), Some(ct)) = (self.core_of(s), self.core_of(t)) else {
            // Only possible if contraction is disabled mid-way; treat as
            // disconnected to stay safe.
            return (INFINITY, QueryStats::default());
        };
        self.query_core(cs, ct)
    }

    /// Query between two core vertices given by their *compact core* ids.
    ///
    /// One LCA bit-operation, two contiguous arena slices, one vectorised
    /// min-reduction over the whole common prefix (`hc2l_graph::kernels`) —
    /// the hot path carries no per-entry branch, no pointer chase and no
    /// side table: the paper's query, exactly.
    pub fn query_core(&self, cs: Vertex, ct: Vertex) -> (Distance, QueryStats) {
        if cs == ct {
            return (0, QueryStats::default());
        }
        let level = self.bits_of(cs).lca_level(self.bits_of(ct)) as usize;
        let a = self.labels.level_array(cs, level);
        let b = self.labels.level_array(ct, level);
        let common = a.len().min(b.len());
        (
            min_plus_scan(a, b),
            QueryStats::at_level(level as u32, common),
        )
    }
}

impl<S: Store> std::fmt::Debug for FrozenHc2l<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenHc2l")
            .field("num_vertices", &self.num_vertices())
            .field("core_vertices", &self.num_core_vertices())
            .field("total_entries", &self.labels.total_entries())
            .finish()
    }
}

impl<S: Store> Clone for FrozenHc2l<S>
where
    FlatLevelLabels<S>: Clone,
    S::Slice<u64>: Clone,
    S::Slice<u32>: Clone,
    FrozenContraction<S>: Clone,
{
    fn clone(&self) -> Self {
        FrozenHc2l {
            labels: self.labels.clone(),
            bits: self.bits.clone(),
            core_id: self.core_id.clone(),
            contraction: self.contraction.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::contract_degree_one;
    use hc2l_graph::toy::grid_graph;
    use hc2l_graph::GraphBuilder;

    #[test]
    fn frozen_contraction_matches_build_time_bookkeeping() {
        let mut b = GraphBuilder::new(0);
        for (u, v, w) in grid_graph(3, 3).edges() {
            b.add_edge(u, v, w);
        }
        // Pendant path 4-9-10-11.
        b.add_edge(4, 9, 2);
        b.add_edge(9, 10, 3);
        b.add_edge(10, 11, 1);
        let g = b.build();
        let c = contract_degree_one(&g);
        let f = FrozenContraction::from_degree_one(&c);
        assert_eq!(
            f.contracted_count(),
            c.contracted.iter().filter(|x| x.is_some()).count()
        );
        for v in 0..g.num_vertices() as Vertex {
            assert_eq!(f.is_contracted(v), c.is_contracted(v));
            assert_eq!(f.root_of(v), c.root_of(v));
        }
        assert_eq!(f.same_tree_distance(9, 11), c.same_tree_distance(9, 11));
        assert_eq!(f.same_tree_distance(10, 10), 0);
    }

    #[test]
    fn empty_contraction_maps_every_vertex_to_itself() {
        let f = FrozenContraction::empty();
        assert!(f.is_empty());
        assert!(!f.is_contracted(3));
        assert_eq!(f.root_of(3), (3, 0));
    }

    #[test]
    fn crafted_contraction_columns_are_rejected_not_walked() {
        // Each case is a checksum-valid shape that would hang or underflow
        // the `same_tree_distance` tree walks; `from_parts` must refuse it
        // with a typed error instead.
        type Cols = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u64>);
        let cases: [(&str, Cols); 4] = [
            (
                // Self-parent cycle at equal depth: the LCA walk would spin.
                "self-parent",
                (
                    vec![2, 2, NO_VERTEX],
                    vec![0, 1, NO_VERTEX],
                    vec![1, 1, 0],
                    vec![1, 1, 0],
                ),
            ),
            (
                // Contracted vertex claiming depth zero.
                "zero-depth",
                (
                    vec![1, NO_VERTEX, NO_VERTEX],
                    vec![1, NO_VERTEX, NO_VERTEX],
                    vec![0, 0, 0],
                    vec![1, 0, 0],
                ),
            ),
            (
                // Parent chain whose distance grows towards the root: the
                // final `dv + dw - 2 * d(lca)` would underflow.
                "dist-increases",
                (
                    vec![2, 2, NO_VERTEX],
                    vec![1, 2, NO_VERTEX],
                    vec![2, 1, 0],
                    vec![1, 9, 0],
                ),
            ),
            (
                // Depth-one vertex whose core parent is not its root.
                "root-link",
                (
                    vec![2, NO_VERTEX, NO_VERTEX],
                    vec![1, NO_VERTEX, NO_VERTEX],
                    vec![1, 0, 0],
                    vec![1, 0, 0],
                ),
            ),
        ];
        for (name, (root, parent, depth, dist)) in cases {
            let r = FrozenContraction::<hc2l_graph::flat_labels::Owned>::from_parts(
                root, parent, depth, dist, 3,
            );
            assert!(
                matches!(r, Err(DecodeError::Malformed(_))),
                "case {name} was accepted"
            );
        }
        // Cross-check: the walks referenced above are exactly the ones a
        // genuine contraction passes through unchanged.
        let g = crate::Hc2lIndex::build(
            &hc2l_graph::toy::path_graph(6, 2),
            crate::Hc2lConfig::default(),
        );
        assert!(g.frozen().contraction().contracted_count() > 0);
    }
}
