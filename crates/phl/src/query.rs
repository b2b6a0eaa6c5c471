//! Distance queries over highway labels (Equation 2 of the paper).
//!
//! The merge-join is implemented once on the [`FrozenPhlLabels`] view, so it
//! runs identically on an owned, freshly built index and on a borrowed
//! zero-copy view of a loaded index container.

use hc2l_graph::flat_labels::Store;
use hc2l_graph::{Distance, QueryStats, Vertex};

use crate::build::{query_labels, FrozenPhlLabels, PhlIndex};

impl<S: Store> FrozenPhlLabels<S> {
    /// Exact distance query: one merge-join sweep over the two frozen
    /// packed-entry labels.
    #[inline]
    pub fn query(&self, s: Vertex, t: Vertex) -> Distance {
        if s == t {
            return 0;
        }
        query_labels(self.label(s), self.label(t))
    }

    /// Exact distance query with scan statistics. PHL, like HL, always scans
    /// both labels in full, so `hubs_scanned` is the sum of both label
    /// lengths.
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
        let label_s = self.label(s);
        out.clear();
        out.extend(targets.iter().map(|&t| {
            if s == t {
                0
            } else {
                query_labels(label_s, self.label(t))
            }
        }));
    }
}

impl PhlIndex {
    /// Exact distance query (see [`FrozenPhlLabels::query`]).
    #[inline]
    pub fn query(&self, s: Vertex, t: Vertex) -> Distance {
        self.frozen().query(s, t)
    }

    /// Exact distance query with scan statistics (see
    /// [`FrozenPhlLabels::query_with_stats`]).
    pub fn query_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        self.frozen().query_with_stats(s, t)
    }

    /// Batched one-to-many query into a caller-provided buffer.
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        self.frozen().one_to_many_into(s, targets, out)
    }

    /// Batched one-to-many query: allocating variant of
    /// [`PhlIndex::one_to_many_into`].
    pub fn one_to_many(&self, s: Vertex, targets: &[Vertex]) -> Vec<Distance> {
        let mut out = Vec::new();
        self.one_to_many_into(s, targets, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::container::{Container, ContainerWriter};
    use hc2l_graph::dijkstra;
    use hc2l_graph::toy::{grid_graph, paper_figure1, path_graph};
    use hc2l_graph::{GraphBuilder, PersistentIndex, INFINITY};

    fn assert_all_pairs(g: &hc2l_graph::Graph) {
        let index = PhlIndex::build(g);
        for s in 0..g.num_vertices() as Vertex {
            let d = dijkstra(g, s);
            for t in 0..g.num_vertices() as Vertex {
                assert_eq!(
                    index.query(s, t),
                    d[t as usize],
                    "PHL query ({s},{t}) wrong"
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
        assert_all_pairs(&path_graph(17, 4));
        let mut b = GraphBuilder::new(0);
        for (u, v, _) in grid_graph(5, 5).edges() {
            b.add_edge(u, v, 1 + (u * 11 + v * 5) % 7);
        }
        assert_all_pairs(&b.build());
    }

    #[test]
    fn disconnected_graph() {
        let g = GraphBuilder::from_edges(6, &[(0, 1, 2), (1, 2, 3), (3, 4, 4)]);
        let index = PhlIndex::build(&g);
        assert_eq!(index.query(0, 2), 5);
        assert_eq!(index.query(3, 4), 4);
        assert_eq!(index.query(0, 4), INFINITY);
        assert_eq!(index.query(5, 0), INFINITY);
    }

    #[test]
    fn query_stats_scan_full_labels() {
        let g = paper_figure1();
        let index = PhlIndex::build(&g);
        let (_, stats) = index.query_with_stats(2, 9);
        assert_eq!(stats.hubs_scanned, index.label_len(2) + index.label_len(9));
        assert_eq!(index.query_with_stats(3, 3).1.hubs_scanned, 0);
    }

    #[test]
    fn one_to_many_matches_pointwise_queries() {
        let g = grid_graph(4, 4);
        let index = PhlIndex::build(&g);
        let targets: Vec<Vertex> = (0..16).collect();
        let mut buf = Vec::new();
        for s in 0..16u32 {
            let batch = index.one_to_many(s, &targets);
            index.one_to_many_into(s, &targets, &mut buf);
            assert_eq!(batch, buf);
            for (t, &d) in targets.iter().zip(batch.iter()) {
                assert_eq!(d, index.query(s, *t));
            }
        }
    }

    #[test]
    fn borrowed_view_one_to_many_matches_the_built_index() {
        // The batched label sweep runs on a zero-copy view of a saved index
        // exactly as on the owned one, repeated and self targets included.
        let g = grid_graph(4, 4);
        let index = PhlIndex::build(&g);
        let mut w = ContainerWriter::new(PhlIndex::METHOD_TAG);
        index.write_sections(&mut w);
        let c = Container::from_bytes(&w.finish()).unwrap();
        let view = FrozenPhlLabels::from_container(&c).unwrap();
        let targets: Vec<Vertex> = (0..16).chain([5, 5, 0, 15]).collect();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for s in 0..16u32 {
            index.one_to_many_into(s, &targets, &mut want);
            view.one_to_many_into(s, &targets, &mut got);
            assert_eq!(got, want, "source {s}");
            assert_eq!(got[s as usize], 0);
        }
    }

    #[test]
    fn byte_codec_round_trips_the_frozen_arena() {
        let g = grid_graph(4, 4);
        let index = PhlIndex::build(&g);
        let bytes = index.labels_to_bytes();
        let back = PhlIndex::labels_from_bytes(&bytes).expect("codec must round-trip");
        assert_eq!(&back, index.labels());
        assert!(PhlIndex::labels_from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }
}
