//! The queryable HC2L index.
//!
//! [`Hc2lIndex`] couples the frozen queryable state ([`FrozenHc2l`]) with
//! its construction configuration and the hierarchy's summary statistics.
//! Its container stores the frozen state, the output-affecting part of the
//! configuration and the summary, so the file is a pure function of the
//! graph and those settings: no build time, and no scheduling-only setting
//! (`threads`, `parallel_grain`). The balanced tree hierarchy is kept only
//! as the per-vertex bitstrings inside the frozen state: they give queries
//! their LCA levels and the relabelling update walk its tree, so a built
//! and a loaded index hold the same state. Every query delegates to the
//! frozen view, so a loaded index answers bit-identically to a freshly
//! built one and relabels identically too.

use serde::{Deserialize, Serialize};

use hc2l_cut::HierarchyStats;
use hc2l_graph::container::{
    method_tag, Container, ContainerWriter, DecodeError, MetaReader, MetaWriter, PersistentIndex,
};
use hc2l_graph::{contract_degree_one, Distance, Graph, InducedSubgraph, QueryStats, Vertex};

use crate::builder::build_hierarchy_and_labels;
use crate::config::Hc2lConfig;
use crate::frozen::{FrozenContraction, FrozenHc2l, NO_VERTEX};
use crate::label::LabelSet;
use crate::stats::IndexStats;

/// Container section tags of the HC2L backend (sequential and parallel
/// builds produce one index layout).
mod sec {
    /// Scalar metadata blob: the output-affecting config, four retired
    /// zero slots (they held `threads`, `parallel_grain`, the build seconds
    /// and the build's thread count), then the hierarchy summary.
    pub const META: u32 = 0;
    /// Label distance arena (`u64`).
    pub const LABEL_DISTS: u32 = 1;
    /// Label per-level offset table (`u32`).
    pub const LABEL_OFFSETS: u32 = 2;
    /// Label per-vertex index (`u32`).
    pub const LABEL_INDEX: u32 = 3;
    /// Packed hierarchy bitstrings of the core vertices (`u64`).
    pub const BITS: u32 = 4;
    /// Original id → core id map (`u32`).
    pub const CORE_ID: u32 = 5;
    /// Contraction root column (`u32`).
    pub const CONT_ROOT: u32 = 6;
    /// Contraction parent column (`u32`).
    pub const CONT_PARENT: u32 = 7;
    /// Contraction depth column (`u32`).
    pub const CONT_DEPTH: u32 = 8;
    /// Contraction distance-to-root column (`u64`).
    pub const CONT_DIST: u32 = 9;
    // Tags 10 (`LABEL_BOUNDS`, per-block minima of every level array) and
    // 11 (`LABEL_BOUND_OFFSETS`) are legacy: present in files written before
    // HC2L dropped its cut bounds, ignored on read. Never reuse them.
}

/// Hierarchical Cut 2-Hop Labelling index over a road network.
///
/// Build it once with [`Hc2lIndex::build`], then answer any number of exact
/// distance queries with [`Hc2lIndex::query`] — or persist it with
/// `hc2l_oracle::Oracle::save` and reload it in milliseconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hc2lIndex {
    config: Hc2lConfig,
    /// The frozen queryable state (labels, bitstrings, id maps, contraction
    /// columns) — everything a query touches, nothing it does not.
    frozen: FrozenHc2l,
    /// Summary statistics of the hierarchy, fixed at build time and
    /// persisted (Tables 3 and 5 stay available on loaded indexes).
    hier_stats: HierarchyStats,
}

impl Hc2lIndex {
    /// Builds the index for a weighted undirected graph.
    pub fn build(g: &Graph, config: Hc2lConfig) -> Self {
        config.validate();
        let n = g.num_vertices();

        // Step 1: degree-one contraction (Section 4.2).
        let (contraction, core_vertices) = hc2l_obs::phase::time("contract", || {
            if config.contract_degree_one {
                let c = contract_degree_one(g);
                let core: Vec<Vertex> = (0..n as Vertex).filter(|&v| !c.is_contracted(v)).collect();
                (Some(c), core)
            } else {
                (None, (0..n as Vertex).collect())
            }
        });

        // Step 2: compact the core and build hierarchy + labels over it.
        let core_graph_source = contraction.as_ref().map(|c| &c.core).unwrap_or(g);
        let core_sub = InducedSubgraph::new(core_graph_source, &core_vertices);
        let mut core_id = vec![NO_VERTEX; n];
        for (compact, &orig) in core_sub.local_to_parent.iter().enumerate() {
            core_id[orig as usize] = compact as Vertex;
        }
        let (hierarchy, labels) = build_hierarchy_and_labels(&core_sub.graph, &config);

        // Step 3: freeze the queryable state — the label arena is already
        // flat; the per-core-vertex bitstrings are all that is kept of the
        // hierarchy, and the contraction bookkeeping is flattened (dropping
        // its core-graph copy).
        let frozen = hc2l_obs::phase::time("freeze", || {
            let bits: Vec<u64> = (0..core_sub.graph.num_vertices() as Vertex)
                .map(|cv| hierarchy.bits_of(cv).raw())
                .collect();
            let frozen_contraction = match &contraction {
                Some(c) => FrozenContraction::from_degree_one(c),
                None => FrozenContraction::empty(),
            };
            FrozenHc2l::from_parts(labels, bits, core_id, frozen_contraction)
                .expect("freshly frozen state must validate")
        });

        Hc2lIndex {
            config,
            frozen,
            hier_stats: hierarchy.stats(),
        }
    }

    /// Number of vertices of the indexed graph.
    pub fn num_vertices(&self) -> usize {
        self.frozen.num_vertices()
    }

    /// The construction configuration. A loaded index carries the
    /// persisted output-affecting fields and the default `threads` and
    /// `parallel_grain`, which its container does not store.
    pub fn config(&self) -> &Hc2lConfig {
        &self.config
    }

    /// The frozen queryable state.
    pub fn frozen(&self) -> &FrozenHc2l {
        &self.frozen
    }

    /// Replaces the label arena in place, keeping the bitstrings (the tree
    /// hierarchy), id maps and contraction columns. This is the
    /// installation point of the dynamic-update path (`hc2l-dynamic`),
    /// built and loaded indexes alike: a weight-update batch keeps the tree
    /// hierarchy fixed and patches only the distance arrays, so everything
    /// else of the frozen state is reused verbatim. The
    /// replacement is re-validated by `FrozenHc2l::from_parts`, so an
    /// updater that produced labels for the wrong vertex count fails loudly
    /// instead of answering garbage.
    pub fn replace_labels(&mut self, labels: LabelSet) {
        let (bits, core_id) = self.frozen.id_parts();
        self.frozen = FrozenHc2l::from_parts(
            labels,
            bits.to_vec(),
            core_id.to_vec(),
            self.frozen.contraction().clone(),
        )
        .expect("replacement labels violate the frozen-state invariants");
    }

    /// The label set (over core vertex ids).
    pub fn labels(&self) -> &LabelSet {
        self.frozen.labels()
    }

    /// Exact shortest-path distance between two vertices;
    /// [`hc2l_graph::INFINITY`] when they are disconnected.
    #[inline]
    pub fn query(&self, s: Vertex, t: Vertex) -> Distance {
        self.frozen.query(s, t)
    }

    /// Like [`Hc2lIndex::query`], additionally reporting how many hub entries
    /// were scanned (the shared [`QueryStats`] record).
    pub fn query_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        self.frozen.query_with_stats(s, t)
    }

    /// Batched one-to-many query into a caller-provided buffer (see
    /// [`FrozenHc2l::one_to_many_into`]).
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        self.frozen.one_to_many_into(s, targets, out)
    }

    /// Index size and shape statistics (Tables 2, 3 and 5).
    pub fn stats(&self) -> IndexStats {
        let n = self.frozen.num_vertices();
        let contracted = self.frozen.contraction().contracted_count();
        let label_bytes = self.frozen.labels().memory_bytes();
        let lca_bytes = self.frozen.lca_storage_bytes();
        // The flattened columns' real footprint (held in memory *and*
        // persisted), not a per-contracted-vertex estimate.
        let contraction_bytes = self.frozen.contraction().memory_bytes();
        IndexStats {
            num_vertices: n,
            core_vertices: self.frozen.num_core_vertices(),
            contraction_ratio: if n == 0 {
                0.0
            } else {
                contracted as f64 / n as f64
            },
            label_bytes,
            lca_bytes,
            contraction_bytes,
            total_bytes: label_bytes + lca_bytes + contraction_bytes,
            avg_label_entries: self.frozen.labels().avg_entries(),
            hierarchy: self.hier_stats,
        }
    }
}

impl PersistentIndex for Hc2lIndex {
    const METHOD_TAG: u32 = method_tag::HC2L;

    fn write_sections(&self, w: &mut ContainerWriter) {
        let mut meta = MetaWriter::new();
        meta.f64(self.config.beta)
            .u64(self.config.leaf_threshold as u64)
            .bool(self.config.tail_pruning)
            .bool(self.config.contract_degree_one)
            .retired(4)
            .u64(self.hier_stats.num_nodes as u64)
            .u64(self.hier_stats.internal_nodes as u64)
            .u64(self.hier_stats.leaves as u64)
            .u64(self.hier_stats.height as u64)
            .u64(self.hier_stats.max_cut_size as u64)
            .f64(self.hier_stats.avg_cut_size)
            .u64(self.hier_stats.lca_storage_bytes as u64);
        w.push_section(sec::META, meta.finish());

        let (dists, level_offsets, level_index) = self.frozen.labels().parts();
        w.push_pods(sec::LABEL_DISTS, dists);
        w.push_pods(sec::LABEL_OFFSETS, level_offsets);
        w.push_pods(sec::LABEL_INDEX, level_index);
        let (bits, core_id) = self.frozen.id_parts();
        w.push_pods(sec::BITS, bits);
        w.push_pods(sec::CORE_ID, core_id);
        let (root, parent, depth, dist) = self.frozen.contraction().parts();
        w.push_pods(sec::CONT_ROOT, root);
        w.push_pods(sec::CONT_PARENT, parent);
        w.push_pods(sec::CONT_DEPTH, depth);
        w.push_pods(sec::CONT_DIST, dist);
    }

    fn read_sections(c: &Container) -> Result<Self, DecodeError> {
        let mut meta = MetaReader::new(c.section(sec::META)?);
        let config = Hc2lConfig {
            beta: meta.f64()?,
            leaf_threshold: meta.usize()?,
            tail_pruning: meta.bool()?,
            contract_degree_one: meta.bool()?,
            ..Hc2lConfig::default()
        };
        meta.skip(4)?;
        let hier_stats = HierarchyStats {
            num_nodes: meta.usize()?,
            internal_nodes: meta.usize()?,
            leaves: meta.usize()?,
            height: u32::try_from(meta.u64()?)
                .map_err(|_| DecodeError::Malformed("hierarchy height overflow"))?,
            max_cut_size: meta.usize()?,
            avg_cut_size: meta.f64()?,
            lca_storage_bytes: meta.usize()?,
        };
        meta.finish()?;

        let labels = LabelSet::from_parts(
            c.read_pod_vec::<u64>(sec::LABEL_DISTS)?,
            c.read_pod_vec::<u32>(sec::LABEL_OFFSETS)?,
            c.read_pod_vec::<u32>(sec::LABEL_INDEX)?,
        )?;
        let core_id = c.read_pod_vec::<u32>(sec::CORE_ID)?;
        let contraction = FrozenContraction::from_parts(
            c.read_pod_vec::<u32>(sec::CONT_ROOT)?,
            c.read_pod_vec::<u32>(sec::CONT_PARENT)?,
            c.read_pod_vec::<u32>(sec::CONT_DEPTH)?,
            c.read_pod_vec::<u64>(sec::CONT_DIST)?,
            core_id.len(),
        )?;
        let frozen = FrozenHc2l::from_parts(
            labels,
            c.read_pod_vec::<u64>(sec::BITS)?,
            core_id,
            contraction,
        )?;
        Ok(Hc2lIndex {
            config,
            frozen,
            hier_stats,
        })
    }
}

impl<'a> FrozenHc2l<hc2l_graph::flat_labels::Borrowed<'a>> {
    /// Zero-copy view of an HC2L index stored in a loaded container
    /// (little-endian hosts; see `Container::section_pods`).
    pub fn from_container(c: &'a Container) -> Result<Self, DecodeError> {
        let labels = hc2l_graph::FlatLevelLabels::from_parts(
            c.section_pods::<u64>(sec::LABEL_DISTS)?,
            c.section_pods::<u32>(sec::LABEL_OFFSETS)?,
            c.section_pods::<u32>(sec::LABEL_INDEX)?,
        )?;
        let core_id = c.section_pods::<u32>(sec::CORE_ID)?;
        let contraction = FrozenContraction::from_parts(
            c.section_pods::<u32>(sec::CONT_ROOT)?,
            c.section_pods::<u32>(sec::CONT_PARENT)?,
            c.section_pods::<u32>(sec::CONT_DEPTH)?,
            c.section_pods::<u64>(sec::CONT_DIST)?,
            core_id.len(),
        )?;
        FrozenHc2l::from_parts(
            labels,
            c.section_pods::<u64>(sec::BITS)?,
            core_id,
            contraction,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::toy::{grid_graph, paper_figure1, path_graph, star_graph};
    use hc2l_graph::{dijkstra, GraphBuilder, INFINITY};

    fn assert_all_pairs_exact(g: &Graph, index: &Hc2lIndex) {
        for s in 0..g.num_vertices() as Vertex {
            let dist = dijkstra(g, s);
            for t in 0..g.num_vertices() as Vertex {
                assert_eq!(
                    index.query(s, t),
                    dist[t as usize],
                    "query ({s}, {t}) diverges from Dijkstra"
                );
            }
        }
    }

    #[test]
    fn paper_example_all_pairs() {
        let g = paper_figure1();
        let index = Hc2lIndex::build(&g, Hc2lConfig::default());
        assert_all_pairs_exact(&g, &index);
    }

    #[test]
    fn paper_example_without_contraction_or_pruning() {
        let g = paper_figure1();
        for cfg in [
            Hc2lConfig::default().without_contraction(),
            Hc2lConfig::default().without_tail_pruning(),
            Hc2lConfig::default()
                .without_contraction()
                .without_tail_pruning(),
        ] {
            let index = Hc2lIndex::build(&g, cfg);
            assert_all_pairs_exact(&g, &index);
        }
    }

    #[test]
    fn grid_all_pairs() {
        let g = grid_graph(7, 9);
        let index = Hc2lIndex::build(&g, Hc2lConfig::default());
        assert_all_pairs_exact(&g, &index);
    }

    #[test]
    fn weighted_grid_with_varied_betas() {
        let mut b = GraphBuilder::new(0);
        let g0 = grid_graph(6, 6);
        for (u, v, _) in g0.edges() {
            b.add_edge(u, v, 1 + ((u * 7 + v * 13) % 9));
        }
        let g = b.build();
        for beta in [0.15, 0.2, 0.3, 0.45] {
            let index = Hc2lIndex::build(&g, Hc2lConfig::with_beta(beta));
            assert_all_pairs_exact(&g, &index);
        }
    }

    #[test]
    fn pendant_trees_and_contraction() {
        // A grid with trees hanging off it exercises the contraction paths.
        let mut b = GraphBuilder::new(0);
        let g0 = grid_graph(4, 4);
        for (u, v, w) in g0.edges() {
            b.add_edge(u, v, w);
        }
        // Pendant path off vertex 5 and a star off vertex 10.
        b.add_edge(5, 16, 2);
        b.add_edge(16, 17, 3);
        b.add_edge(17, 18, 1);
        b.add_edge(10, 19, 4);
        b.add_edge(19, 20, 1);
        b.add_edge(19, 21, 2);
        let g = b.build();
        let index = Hc2lIndex::build(&g, Hc2lConfig::default());
        assert!(index.stats().contraction_ratio > 0.0);
        assert_all_pairs_exact(&g, &index);
    }

    #[test]
    fn pure_tree_graphs() {
        for g in [path_graph(12, 3), star_graph(9, 2)] {
            let index = Hc2lIndex::build(&g, Hc2lConfig::default());
            assert_all_pairs_exact(&g, &index);
        }
    }

    #[test]
    fn disconnected_graph_returns_infinity_across_components() {
        let mut b = GraphBuilder::new(12);
        let g0 = grid_graph(2, 3);
        for (u, v, w) in g0.edges() {
            b.add_edge(u, v, w);
            b.add_edge(u + 6, v + 6, w);
        }
        let g = b.build();
        let index = Hc2lIndex::build(&g, Hc2lConfig::default());
        assert_all_pairs_exact(&g, &index);
        assert_eq!(index.query(0, 7), INFINITY);
    }

    #[test]
    fn parallel_build_answers_identically() {
        let g = grid_graph(9, 9);
        let seq = Hc2lIndex::build(&g, Hc2lConfig::default());
        let par = Hc2lIndex::build(
            &g,
            Hc2lConfig {
                threads: 4,
                parallel_grain: 16,
                ..Default::default()
            },
        );
        for s in (0..81u32).step_by(5) {
            for t in (0..81u32).step_by(7) {
                assert_eq!(seq.query(s, t), par.query(s, t));
            }
        }
        assert_eq!(seq.stats().label_bytes, par.stats().label_bytes);
    }

    #[test]
    fn one_to_many_matches_pointwise_queries() {
        let mut b = GraphBuilder::new(0);
        for (u, v, w) in grid_graph(5, 5).edges() {
            b.add_edge(u, v, w);
        }
        // Pendant chain so contracted sources and targets are exercised too.
        b.add_edge(7, 25, 2);
        b.add_edge(25, 26, 3);
        let g = b.build();
        let n = g.num_vertices() as Vertex;
        let targets: Vec<Vertex> = (0..n).collect();
        for cfg in [
            Hc2lConfig::default(),
            Hc2lConfig::default().without_contraction(),
        ] {
            let index = Hc2lIndex::build(&g, cfg);
            let mut batch = Vec::new();
            for s in 0..n {
                index.one_to_many_into(s, &targets, &mut batch);
                for (t, &d) in targets.iter().zip(batch.iter()) {
                    assert_eq!(d, index.query(s, *t), "one_to_many({s}, {t}) diverges");
                }
            }
        }
    }

    #[test]
    fn query_stats_report_small_hub_counts() {
        let g = grid_graph(10, 10);
        let index = Hc2lIndex::build(&g, Hc2lConfig::default());
        let (_, stats) = index.query_with_stats(0, 99);
        assert!(stats.hubs_scanned > 0);
        // The scanned hubs are bounded by the largest cut in the hierarchy.
        assert!(stats.hubs_scanned <= index.stats().hierarchy.max_cut_size);
    }

    #[test]
    fn stats_are_consistent() {
        let g = paper_figure1();
        let index = Hc2lIndex::build(&g, Hc2lConfig::default());
        let s = index.stats();
        assert_eq!(s.num_vertices, 16);
        assert_eq!(s.core_vertices, 16);
        assert_eq!(
            s.total_bytes,
            s.label_bytes + s.lca_bytes + s.contraction_bytes
        );
        assert!(s.avg_label_entries > 0.0);
        assert!(s.hierarchy.height >= 1);
    }

    #[test]
    fn self_queries_are_zero_for_every_vertex_kind() {
        let mut b = GraphBuilder::new(0);
        for (u, v, w) in grid_graph(3, 3).edges() {
            b.add_edge(u, v, w);
        }
        b.add_edge(4, 9, 5); // pendant vertex
        let g = b.build();
        let index = Hc2lIndex::build(&g, Hc2lConfig::default());
        for v in 0..10u32 {
            assert_eq!(index.query(v, v), 0);
        }
    }

    #[test]
    fn container_round_trip_preserves_queries_and_stats() {
        let mut b = GraphBuilder::new(0);
        for (u, v, w) in grid_graph(5, 5).edges() {
            b.add_edge(u, v, w);
        }
        b.add_edge(7, 25, 2);
        b.add_edge(25, 26, 3);
        let g = b.build();
        let index = Hc2lIndex::build(&g, Hc2lConfig::default());
        let mut w = ContainerWriter::new(Hc2lIndex::METHOD_TAG);
        index.write_sections(&mut w);
        let c = Container::from_bytes(&w.finish()).unwrap();
        let back = Hc2lIndex::read_sections(&c).unwrap();
        assert_eq!(
            back.stats().hierarchy.height,
            index.stats().hierarchy.height
        );
        assert_eq!(back.stats().label_bytes, index.stats().label_bytes);
        assert!((back.config().beta - index.config().beta).abs() < 1e-12);
        let n = g.num_vertices() as Vertex;
        for s in 0..n {
            for t in 0..n {
                assert_eq!(back.query(s, t), index.query(s, t));
            }
        }
    }
}
