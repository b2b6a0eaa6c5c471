//! Distance queries over hub labels (Equation 1 of the paper).
//!
//! The merge-join is implemented once on the [`FrozenHubLabels`] view, so it
//! runs identically on an owned, freshly built index and on a borrowed
//! zero-copy view of a loaded index container.

use hc2l_graph::flat_labels::Store;
use hc2l_graph::{min_plus_merge, Distance, QueryStats, Vertex};

use crate::build::{FrozenHubLabels, HubLabelIndex};

impl<S: Store> FrozenHubLabels<S> {
    /// Exact distance query: one branch-free merge-join over the two frozen
    /// hub/distance column pairs.
    #[inline]
    pub fn query(&self, s: Vertex, t: Vertex) -> Distance {
        if s == t {
            return 0;
        }
        min_plus_merge(
            self.label_hubs(s),
            self.label_dists(s),
            self.label_hubs(t),
            self.label_dists(t),
        )
    }

    /// Exact distance query with scan statistics. Hub labellings always scan
    /// both labels in full (this is precisely the drawback HC2L's hierarchy
    /// avoids), so `hubs_scanned` is the sum of both label lengths.
    pub fn query_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        let distance = self.query(s, t);
        let scanned = if s == t {
            0
        } else {
            self.label_len(s) + self.label_len(t)
        };
        (distance, QueryStats::scanned(scanned))
    }

    /// Batched one-to-many query into a caller-provided buffer: distances
    /// from `s` to every vertex in `targets`, resolving the source label
    /// slices once for the whole batch.
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        let hubs_s = self.label_hubs(s);
        let dists_s = self.label_dists(s);
        out.clear();
        out.extend(targets.iter().map(|&t| {
            if s == t {
                0
            } else {
                min_plus_merge(hubs_s, dists_s, self.label_hubs(t), self.label_dists(t))
            }
        }));
    }
}

impl HubLabelIndex {
    /// Exact distance query (see [`FrozenHubLabels::query`]).
    #[inline]
    pub fn query(&self, s: Vertex, t: Vertex) -> Distance {
        self.frozen().query(s, t)
    }

    /// Exact distance query with scan statistics (see
    /// [`FrozenHubLabels::query_with_stats`]).
    pub fn query_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        self.frozen().query_with_stats(s, t)
    }

    /// Batched one-to-many query into a caller-provided buffer.
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        self.frozen().one_to_many_into(s, targets, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::container::{Container, ContainerWriter};
    use hc2l_graph::dijkstra;
    use hc2l_graph::toy::{grid_graph, paper_figure1};
    use hc2l_graph::{GraphBuilder, PersistentIndex, INFINITY};

    fn assert_all_pairs(g: &hc2l_graph::Graph) {
        let index = HubLabelIndex::build(g);
        for s in 0..g.num_vertices() as Vertex {
            let d = dijkstra(g, s);
            for t in 0..g.num_vertices() as Vertex {
                assert_eq!(index.query(s, t), d[t as usize], "HL query ({s},{t}) wrong");
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
    fn weighted_graph_all_pairs() {
        let mut b = GraphBuilder::new(0);
        for (u, v, _) in grid_graph(5, 6).edges() {
            b.add_edge(u, v, 1 + (u * 5 + v * 3) % 13);
        }
        assert_all_pairs(&b.build());
    }

    #[test]
    fn disconnected_graph() {
        let g = GraphBuilder::from_edges(6, &[(0, 1, 2), (1, 2, 3), (3, 4, 1), (4, 5, 1)]);
        let index = HubLabelIndex::build(&g);
        assert_eq!(index.query(0, 2), 5);
        assert_eq!(index.query(3, 5), 2);
        assert_eq!(index.query(0, 5), INFINITY);
    }

    #[test]
    fn query_stats_scan_full_labels() {
        let g = paper_figure1();
        let index = HubLabelIndex::build(&g);
        let (_, stats) = index.query_with_stats(2, 9);
        assert_eq!(stats.hubs_scanned, index.label_len(2) + index.label_len(9));
        assert!(stats.hubs_scanned > 2);
        assert_eq!(stats.lca_level, None);
        assert_eq!(index.query_with_stats(4, 4).1.hubs_scanned, 0);
    }

    #[test]
    fn one_to_many_matches_pointwise_queries() {
        let g = grid_graph(4, 5);
        let index = HubLabelIndex::build(&g);
        let targets: Vec<Vertex> = (0..20).collect();
        let mut buf = Vec::new();
        for s in 0..20u32 {
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
    fn borrowed_view_one_to_many_matches_the_built_index() {
        // The batched merge-join runs on a zero-copy view of a saved index
        // exactly as on the owned one, repeated and self targets included.
        let g = grid_graph(4, 5);
        let index = HubLabelIndex::build(&g);
        let mut w = ContainerWriter::new(HubLabelIndex::METHOD_TAG);
        index.write_sections(&mut w);
        let c = Container::from_bytes(&w.finish()).unwrap();
        let view = FrozenHubLabels::from_container(&c).unwrap();
        let targets: Vec<Vertex> = (0..20).chain([7, 7, 0, 19]).collect();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for s in 0..20u32 {
            index.one_to_many_into(s, &targets, &mut want);
            view.one_to_many_into(s, &targets, &mut got);
            assert_eq!(got, want, "source {s}");
            assert_eq!(got[s as usize], 0);
        }
    }
}
