//! The H2H index: per-vertex distance and position arrays plus the RMQ-based
//! LCA structure (Equation 3 of the paper).
//!
//! Post-build, the queryable state lives entirely in the [`FrozenH2h`] view:
//! the ancestor-distance and bag-position arrays in two frozen [`FlatCsr`]
//! arenas, the node depths and tree roots, and the flattened LCA structure.
//! [`H2hIndex`] holds exactly what its container holds, so a built index and
//! a loaded one are the same value; the tree decomposition is construction
//! scratch, dropped once the arrays are derived.

use serde::{Deserialize, Serialize};

use hc2l_graph::container::{
    method_tag, Container, ContainerWriter, DecodeError, MetaReader, MetaWriter, PersistentIndex,
};
use hc2l_graph::flat_labels::{Borrowed, Owned, Store};
use hc2l_graph::{Distance, FlatCsr, Graph, QueryStats, Vertex, INFINITY};

use crate::lca::LcaStructure;
use crate::tree_decomp::TreeDecomposition;

/// Size statistics of an H2H index.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct H2hStats {
    /// Total number of ancestor-distance entries.
    pub total_entries: usize,
    /// Mean distance-array length (tree height dominates this).
    pub avg_label_size: f64,
    /// Bytes of distance + position arrays (Table 2's labelling size).
    pub label_bytes: usize,
    /// Bytes of the Euler-tour/RMQ LCA structure (Table 3's LCA storage).
    pub lca_bytes: usize,
    /// Height of the tree decomposition (Table 5).
    pub tree_height: u32,
    /// Maximum bag size / width (Table 5).
    pub max_bag_size: usize,
}

/// Container section tags of the H2H backend.
mod sec {
    /// Scalar metadata blob.
    pub const META: u32 = 0;
    /// Ancestor-distance arena (`u64`).
    pub const DIST_VALUES: u32 = 1;
    /// Ancestor-distance CSR offsets (`u32`).
    pub const DIST_OFFSETS: u32 = 2;
    /// Bag-position arena (`u32`).
    pub const POS_VALUES: u32 = 3;
    /// Bag-position CSR offsets (`u32`).
    pub const POS_OFFSETS: u32 = 4;
    /// Tree-node depth of each vertex (`u32`).
    pub const DEPTH: u32 = 5;
    /// Tree root of each vertex (`u32`).
    pub const ROOT_OF: u32 = 6;
    /// LCA Euler tour (`u32`).
    pub const EULER: u32 = 7;
    /// LCA Euler-tour depths (`u32`).
    pub const EULER_DEPTH: u32 = 8;
    /// LCA first occurrences (`u32`).
    pub const FIRST: u32 = 9;
    /// LCA sparse table (`u32`).
    pub const TABLE: u32 = 10;
    /// LCA sparse-table row index (`u32`).
    pub const ROW_STARTS: u32 = 11;
}

/// The frozen, queryable state of an H2H index, generic over the [`Store`]:
/// owned after a build, borrowed (zero-copy) over a loaded container's
/// sections. Equation 3 runs on either instantiation unchanged.
pub struct FrozenH2h<S: Store = Owned> {
    /// Frozen arena of per-vertex ancestor distances: row `v` holds the
    /// distances from `v` to its ancestors at depths `0..=depth(v)` (the
    /// last entry is `d(v, v) = 0`).
    dist: FlatCsr<Distance, S>,
    /// Frozen arena of per-vertex bag positions: row `v` holds the depths of
    /// the members of `X(v)` (including `v` itself) in `v`'s ancestor array.
    pos: FlatCsr<u32, S>,
    /// Tree-node depth of each vertex (reported in query stats).
    depth: S::Slice<u32>,
    /// Root of each vertex's tree (to detect cross-component queries).
    root_of: S::Slice<Vertex>,
    /// LCA structure over the decomposition forest.
    lca: LcaStructure<S>,
}

/// A [`FrozenH2h`] borrowing its arenas from a loaded container.
pub type FrozenH2hRef<'a> = FrozenH2h<Borrowed<'a>>;

impl<S: Store> FrozenH2h<S> {
    /// Assembles the frozen state, validating that every per-vertex array
    /// covers the same vertex count and that the cross-array invariants the
    /// query path indexes by actually hold (so a loaded file fails here
    /// with a typed error instead of panicking mid-query).
    pub fn from_parts(
        dist: FlatCsr<Distance, S>,
        pos: FlatCsr<u32, S>,
        depth: S::Slice<u32>,
        root_of: S::Slice<Vertex>,
        lca: LcaStructure<S>,
    ) -> Result<Self, DecodeError> {
        let n = dist.num_rows();
        if pos.num_rows() != n || depth.len() != n || root_of.len() != n {
            return Err(DecodeError::Malformed(
                "H2H per-vertex arrays differ in length",
            ));
        }
        // Every vertex belongs to the decomposition forest, so the LCA
        // structure must cover all n vertices and place each of them on the
        // tour — this is what makes the `lca()` result in a same-root query
        // always `Some`.
        let first = lca.parts().2;
        if first.len() != n {
            return Err(DecodeError::Malformed(
                "LCA structure does not cover every vertex",
            ));
        }
        if first.contains(&u32::MAX) {
            return Err(DecodeError::Malformed(
                "vertex missing from the LCA Euler tour",
            ));
        }
        for v in 0..n {
            // A vertex's ancestor array has one entry per depth on its root
            // path, and its bag positions index into that array.
            if dist.row_len(v) != depth[v] as usize + 1 {
                return Err(DecodeError::Malformed(
                    "ancestor-distance row length does not match the depth",
                ));
            }
            if pos.row(v).iter().any(|&p| p > depth[v]) {
                return Err(DecodeError::Malformed(
                    "bag position exceeds the node depth",
                ));
            }
        }
        Ok(FrozenH2h {
            dist,
            pos,
            depth,
            root_of,
            lca,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.dist.num_rows()
    }

    /// The ancestor-distance array of vertex `v`.
    #[inline]
    pub fn ancestor_dists(&self, v: Vertex) -> &[Distance] {
        self.dist.row(v as usize)
    }

    /// The bag-position array of vertex `v`.
    #[inline]
    pub fn bag_positions(&self, v: Vertex) -> &[u32] {
        self.pos.row(v as usize)
    }

    /// The LCA structure.
    pub fn lca(&self) -> &LcaStructure<S> {
        &self.lca
    }

    /// Exact distance query (Equation 3).
    #[inline]
    pub fn query(&self, s: Vertex, t: Vertex) -> Distance {
        self.query_with_stats(s, t).0
    }

    /// Exact distance query reporting how many positions were scanned (the
    /// H2H "hub size" of Table 3) in the shared [`QueryStats`] record.
    pub fn query_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        if s == t {
            return (0, QueryStats::default());
        }
        if self.root_of[s as usize] != self.root_of[t as usize] {
            return (INFINITY, QueryStats::default());
        }
        let q = self
            .lca
            .lca(s, t)
            .expect("vertices in the same component must share a tree");
        let positions = self.pos.row(q as usize);
        let best = bag_scan(
            positions,
            self.dist.row(s as usize),
            self.dist.row(t as usize),
        );
        (
            best,
            QueryStats::at_level(self.depth[q as usize], positions.len()),
        )
    }

    /// Batched one-to-many query into a caller-provided buffer, resolving
    /// the source's tree root and distance row once.
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        let root_s = self.root_of[s as usize];
        let ds = self.dist.row(s as usize);
        out.clear();
        out.extend(targets.iter().map(|&t| {
            if s == t {
                return 0;
            }
            if self.root_of[t as usize] != root_s {
                return INFINITY;
            }
            let q = self
                .lca
                .lca(s, t)
                .expect("vertices in the same component must share a tree");
            bag_scan(self.pos.row(q as usize), ds, self.dist.row(t as usize))
        }));
    }
}

impl<'a> FrozenH2h<Borrowed<'a>> {
    /// Zero-copy view of the index stored in a loaded container
    /// (little-endian hosts; see `Container::section_pods`).
    pub fn from_container(c: &'a Container) -> Result<Self, DecodeError> {
        let dist = FlatCsr::from_parts(
            c.section_pods::<u64>(sec::DIST_VALUES)?,
            c.section_pods::<u32>(sec::DIST_OFFSETS)?,
        )?;
        let pos = FlatCsr::from_parts(
            c.section_pods::<u32>(sec::POS_VALUES)?,
            c.section_pods::<u32>(sec::POS_OFFSETS)?,
        )?;
        let lca = LcaStructure::from_parts(
            c.section_pods::<u32>(sec::EULER)?,
            c.section_pods::<u32>(sec::EULER_DEPTH)?,
            c.section_pods::<u32>(sec::FIRST)?,
            c.section_pods::<u32>(sec::TABLE)?,
            c.section_pods::<u32>(sec::ROW_STARTS)?,
        )?;
        FrozenH2h::from_parts(
            dist,
            pos,
            c.section_pods::<u32>(sec::DEPTH)?,
            c.section_pods::<u32>(sec::ROOT_OF)?,
            lca,
        )
    }
}

impl<S: Store> std::fmt::Debug for FrozenH2h<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenH2h")
            .field("num_vertices", &self.num_vertices())
            .field("total_entries", &self.dist.total_values())
            .finish()
    }
}

impl<S: Store> Clone for FrozenH2h<S>
where
    FlatCsr<Distance, S>: Clone,
    FlatCsr<u32, S>: Clone,
    S::Slice<u32>: Clone,
    LcaStructure<S>: Clone,
{
    fn clone(&self) -> Self {
        FrozenH2h {
            dist: self.dist.clone(),
            pos: self.pos.clone(),
            depth: self.depth.clone(),
            root_of: self.root_of.clone(),
            lca: self.lca.clone(),
        }
    }
}

/// The Hierarchical 2-Hop index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct H2hIndex {
    /// The frozen queryable state.
    frozen: FrozenH2h,
    /// Height of the tree decomposition (persisted; Table 5).
    tree_height: u32,
    /// Maximum bag size (persisted; Table 5).
    max_bag_size: usize,
}

impl H2hIndex {
    /// Builds the index for a weighted undirected graph.
    pub fn build(g: &Graph) -> Self {
        let n = g.num_vertices();
        let decomposition = TreeDecomposition::build(g);
        let lca = LcaStructure::build(decomposition.children_csr(), &decomposition.roots, n);

        // Process vertices parents-first (breadth-first from the roots).
        let mut order: Vec<Vertex> = Vec::with_capacity(n);
        let mut queue: std::collections::VecDeque<Vertex> =
            decomposition.roots.iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &c in decomposition.children(v) {
                queue.push_back(c);
            }
        }

        // Construction scratch: the dynamic program reads previously
        // computed ancestor arrays at random, so nested rows are convenient
        // here; both arenas are frozen once at the end.
        let mut dist: Vec<Vec<Distance>> = vec![Vec::new(); n];
        let mut pos: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut root_of: Vec<Vertex> = vec![0; n];

        for &v in &order {
            let depth_v = decomposition.depth[v as usize] as usize;
            let parent = decomposition.parent[v as usize];
            root_of[v as usize] = match parent {
                None => v,
                Some(p) => root_of[p as usize],
            };
            let mut d = vec![INFINITY; depth_v + 1];
            d[depth_v] = 0;
            // d(v, a_i) = min over bag members x of w(v, x) + d(x, a_i); both
            // x and a_i lie on v's root path, so d(x, a_i) is available in the
            // already-computed array of the deeper of the two.
            for i in 0..depth_v {
                let mut best = INFINITY;
                for &(x, wx) in decomposition.bag(v) {
                    let depth_x = decomposition.depth[x as usize] as usize;
                    let via = if depth_x >= i {
                        // a_i is an ancestor of x (or x itself).
                        wx.saturating_add(dist[x as usize][i])
                    } else {
                        // x is a strict ancestor of a_i.
                        wx.saturating_add(dist_of_ancestor(&dist, &decomposition, v, i, depth_x))
                    };
                    if via < best {
                        best = via;
                    }
                }
                d[i] = best;
            }
            dist[v as usize] = d;
            // Position array: depths of bag members plus v itself.
            let mut p: Vec<u32> = decomposition
                .bag(v)
                .iter()
                .map(|&(x, _)| decomposition.depth[x as usize])
                .collect();
            p.push(depth_v as u32);
            p.sort_unstable();
            p.dedup();
            pos[v as usize] = p;
        }

        H2hIndex {
            tree_height: decomposition.height,
            max_bag_size: decomposition.max_bag_size,
            frozen: FrozenH2h {
                dist: FlatCsr::freeze(&dist),
                pos: FlatCsr::freeze(&pos),
                depth: decomposition.depth,
                root_of,
                lca,
            },
        }
    }

    /// The frozen queryable state.
    pub fn frozen(&self) -> &FrozenH2h {
        &self.frozen
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.frozen.num_vertices()
    }

    /// The ancestor-distance array of vertex `v` (one entry per depth on its
    /// root path, `d(v, v) = 0` last).
    #[inline]
    pub fn ancestor_dists(&self, v: Vertex) -> &[Distance] {
        self.frozen.ancestor_dists(v)
    }

    /// The bag-position array of vertex `v`.
    #[inline]
    pub fn bag_positions(&self, v: Vertex) -> &[u32] {
        self.frozen.bag_positions(v)
    }

    /// Exact distance query (Equation 3).
    #[inline]
    pub fn query(&self, s: Vertex, t: Vertex) -> Distance {
        self.frozen.query(s, t)
    }

    /// Exact distance query with scan statistics (see
    /// [`FrozenH2h::query_with_stats`]).
    pub fn query_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        self.frozen.query_with_stats(s, t)
    }

    /// Batched one-to-many query into a caller-provided buffer.
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        self.frozen.one_to_many_into(s, targets, out)
    }

    /// Size statistics (Tables 2, 3 and 5; O(1), totals are fixed by the
    /// freeze step).
    pub fn stats(&self) -> H2hStats {
        let total_entries = self.frozen.dist.total_values();
        H2hStats {
            total_entries,
            avg_label_size: if self.frozen.dist.num_rows() == 0 {
                0.0
            } else {
                total_entries as f64 / self.frozen.dist.num_rows() as f64
            },
            label_bytes: total_entries * std::mem::size_of::<Distance>()
                + self.frozen.pos.total_values() * 4,
            lca_bytes: self.frozen.lca.memory_bytes(),
            tree_height: self.tree_height,
            max_bag_size: self.max_bag_size,
        }
    }
}

impl PersistentIndex for H2hIndex {
    const METHOD_TAG: u32 = method_tag::H2H;

    fn write_sections(&self, w: &mut ContainerWriter) {
        let mut meta = MetaWriter::new();
        meta.u64(self.tree_height as u64)
            .u64(self.max_bag_size as u64)
            .retired(1); // held the build time
        w.push_section(sec::META, meta.finish());
        let (dist_values, dist_offsets) = self.frozen.dist.parts();
        w.push_pods(sec::DIST_VALUES, dist_values);
        w.push_pods(sec::DIST_OFFSETS, dist_offsets);
        let (pos_values, pos_offsets) = self.frozen.pos.parts();
        w.push_pods(sec::POS_VALUES, pos_values);
        w.push_pods(sec::POS_OFFSETS, pos_offsets);
        w.push_pods(sec::DEPTH, &self.frozen.depth);
        w.push_pods(sec::ROOT_OF, &self.frozen.root_of);
        let (euler, euler_depth, first, table, row_starts) = self.frozen.lca.parts();
        w.push_pods(sec::EULER, euler);
        w.push_pods(sec::EULER_DEPTH, euler_depth);
        w.push_pods(sec::FIRST, first);
        w.push_pods(sec::TABLE, table);
        w.push_pods(sec::ROW_STARTS, row_starts);
    }

    fn read_sections(c: &Container) -> Result<Self, DecodeError> {
        let mut meta = MetaReader::new(c.section(sec::META)?);
        let tree_height = u32::try_from(meta.u64()?)
            .map_err(|_| DecodeError::Malformed("tree height overflow"))?;
        let max_bag_size = meta.usize()?;
        meta.skip(1)?;
        meta.finish()?;

        let dist = FlatCsr::from_parts(
            c.read_pod_vec::<u64>(sec::DIST_VALUES)?,
            c.read_pod_vec::<u32>(sec::DIST_OFFSETS)?,
        )?;
        let pos = FlatCsr::from_parts(
            c.read_pod_vec::<u32>(sec::POS_VALUES)?,
            c.read_pod_vec::<u32>(sec::POS_OFFSETS)?,
        )?;
        let lca = LcaStructure::from_parts(
            c.read_pod_vec::<u32>(sec::EULER)?,
            c.read_pod_vec::<u32>(sec::EULER_DEPTH)?,
            c.read_pod_vec::<u32>(sec::FIRST)?,
            c.read_pod_vec::<u32>(sec::TABLE)?,
            c.read_pod_vec::<u32>(sec::ROW_STARTS)?,
        )?;
        let frozen = FrozenH2h::from_parts(
            dist,
            pos,
            c.read_pod_vec::<u32>(sec::DEPTH)?,
            c.read_pod_vec::<u32>(sec::ROOT_OF)?,
            lca,
        )?;
        Ok(H2hIndex {
            frozen,
            tree_height,
            max_bag_size,
        })
    }
}

/// Branch-free bag scan of Equation 3: gathers `ds[p] + dt[p]` for every
/// position in the LCA's bag and keeps the minimum. Dispatches to the
/// active gather kernel (`hc2l_graph::kernels`).
#[inline]
fn bag_scan(positions: &[u32], ds: &[Distance], dt: &[Distance]) -> Distance {
    hc2l_graph::min_plus_gather(positions, ds, dt)
}

/// Distance from `v`'s ancestor chain: `d(a_i, a_j)` where both indices refer
/// to depths on `v`'s root path and `j < i` (so `a_j` is the ancestor).
/// Looking it up means walking to the ancestor at depth `i` and reading its
/// array at position `j`.
fn dist_of_ancestor(
    dist: &[Vec<Distance>],
    td: &TreeDecomposition,
    v: Vertex,
    i: usize,
    j: usize,
) -> Distance {
    // Find the ancestor of v at depth i.
    let mut cur = v;
    while td.depth[cur as usize] as usize > i {
        cur = td.parent[cur as usize].expect("depth bookkeeping inconsistent");
    }
    dist[cur as usize][j]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::dijkstra;
    use hc2l_graph::toy::{grid_graph, paper_figure1, path_graph};
    use hc2l_graph::GraphBuilder;

    fn assert_all_pairs(g: &hc2l_graph::Graph) {
        let index = H2hIndex::build(g);
        for s in 0..g.num_vertices() as Vertex {
            let d = dijkstra(g, s);
            for t in 0..g.num_vertices() as Vertex {
                assert_eq!(
                    index.query(s, t),
                    d[t as usize],
                    "H2H query ({s},{t}) wrong"
                );
            }
        }
    }

    #[test]
    fn paper_example_all_pairs() {
        assert_all_pairs(&paper_figure1());
    }

    #[test]
    fn grid_all_pairs() {
        assert_all_pairs(&grid_graph(6, 6));
    }

    #[test]
    fn path_and_weighted_graphs() {
        assert_all_pairs(&path_graph(15, 2));
        let mut b = GraphBuilder::new(0);
        for (u, v, _) in grid_graph(5, 5).edges() {
            b.add_edge(u, v, 1 + (u * 13 + v * 3) % 17);
        }
        assert_all_pairs(&b.build());
    }

    #[test]
    fn disconnected_components_return_infinity() {
        let mut b = GraphBuilder::new(12);
        for (u, v, w) in grid_graph(2, 3).edges() {
            b.add_edge(u, v, w);
            b.add_edge(u + 6, v + 6, w);
        }
        let g = b.build();
        let index = H2hIndex::build(&g);
        assert_all_pairs(&g);
        assert_eq!(index.query(0, 11), INFINITY);
    }

    #[test]
    fn distance_arrays_cover_all_ancestors_exactly() {
        let g = paper_figure1();
        let index = H2hIndex::build(&g);
        let td = TreeDecomposition::build(&g);
        for v in 0..16u32 {
            let path = td.root_path(v);
            assert_eq!(index.ancestor_dists(v).len(), path.len());
            let d = dijkstra(&g, v);
            for (i, &a) in path.iter().enumerate() {
                assert_eq!(
                    index.ancestor_dists(v)[i],
                    d[a as usize],
                    "d({v}, {a}) wrong"
                );
            }
        }
    }

    #[test]
    fn stats_reflect_tree_shape() {
        let g = grid_graph(6, 6);
        let index = H2hIndex::build(&g);
        let s = index.stats();
        assert!(s.tree_height >= 6);
        assert!(s.max_bag_size >= 6);
        assert!(s.avg_label_size > 2.0);
        assert!(s.label_bytes > 0 && s.lca_bytes > 0);
        // H2H labels are markedly larger than the graph itself — the drawback
        // the paper highlights.
        assert!(s.total_entries >= 36);
    }

    #[test]
    fn query_scans_at_most_one_bag() {
        let g = grid_graph(5, 5);
        let index = H2hIndex::build(&g);
        for &(s, t) in &[(0u32, 24u32), (3, 20), (7, 18)] {
            let (_, stats) = index.query_with_stats(s, t);
            assert!(stats.hubs_scanned <= index.stats().max_bag_size);
            assert!(stats.hubs_scanned >= 1);
            assert!(stats.lca_level.is_some());
        }
    }

    #[test]
    fn one_to_many_matches_pointwise_queries() {
        let mut b = GraphBuilder::new(12);
        for (u, v, w) in grid_graph(2, 3).edges() {
            b.add_edge(u, v, w);
            b.add_edge(u + 6, v + 6, w);
        }
        let g = b.build();
        let index = H2hIndex::build(&g);
        let targets: Vec<Vertex> = (0..12).collect();
        let mut buf = Vec::new();
        for s in 0..12u32 {
            // `buf` still holds the previous source's row: reuse must
            // overwrite it, not append to it.
            let mut batch = Vec::new();
            index.one_to_many_into(s, &targets, &mut batch);
            index.one_to_many_into(s, &targets, &mut buf);
            assert_eq!(batch, buf);
            for (t, &d) in targets.iter().zip(batch.iter()) {
                assert_eq!(d, index.query(s, *t));
            }
        }
    }

    #[test]
    fn crafted_cross_array_inconsistencies_are_rejected_at_load() {
        // Serialise a valid index, then corrupt one structural invariant at
        // a time (re-writing a fresh container so the checksum stays valid)
        // and check read_sections refuses instead of panicking at query
        // time.
        let g = grid_graph(3, 3);
        let index = H2hIndex::build(&g);

        let rewrite = |mutate: &dyn Fn(&mut Vec<u32>, u32)| -> Result<H2hIndex, DecodeError> {
            let mut w = ContainerWriter::new(H2hIndex::METHOD_TAG);
            index.write_sections(&mut w);
            let c = Container::from_bytes(&w.finish()).unwrap();
            // Re-assemble with one mutated u32 section.
            let mut w2 = ContainerWriter::new(H2hIndex::METHOD_TAG);
            for spec in c.specs() {
                if spec.tag == sec::FIRST {
                    let mut vals = c.read_pod_vec::<u32>(spec.tag).unwrap();
                    mutate(&mut vals, spec.tag);
                    w2.push_pods(spec.tag, &vals);
                } else {
                    w2.push_section(spec.tag, c.section(spec.tag).unwrap().to_vec());
                }
            }
            let c2 = Container::from_bytes(&w2.finish()).unwrap();
            H2hIndex::read_sections(&c2)
        };

        // A vertex missing from the Euler tour.
        let r = rewrite(&|vals, _| vals[0] = u32::MAX);
        assert!(matches!(r, Err(DecodeError::Malformed(_))));
        // A first array that no longer covers every vertex.
        let r = rewrite(&|vals, _| {
            vals.pop();
        });
        assert!(matches!(r, Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn container_round_trip_and_borrowed_view_agree() {
        let g = grid_graph(4, 4);
        let index = H2hIndex::build(&g);
        let mut w = ContainerWriter::new(H2hIndex::METHOD_TAG);
        index.write_sections(&mut w);
        let c = Container::from_bytes(&w.finish()).unwrap();
        let back = H2hIndex::read_sections(&c).unwrap();
        assert_eq!(back.stats().tree_height, index.stats().tree_height);
        assert_eq!(back.stats().max_bag_size, index.stats().max_bag_size);
        let view = FrozenH2h::from_container(&c).unwrap();
        for s in 0..16u32 {
            for t in 0..16u32 {
                assert_eq!(back.query(s, t), index.query(s, t));
                assert_eq!(view.query(s, t), index.query(s, t));
            }
        }
    }
}
