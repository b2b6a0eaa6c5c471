//! Incremental construction of [`Graph`] values.

use crate::graph::{Edge, Graph};
use crate::types::{Vertex, Weight};

/// Builder that collects undirected edges and produces a [`Graph`].
///
/// Duplicate edges are collapsed to the minimum weight and self-loops are
/// dropped, matching how the DIMACS road networks are cleaned up by the
/// original implementations.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(Vertex, Vertex, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices (`0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices the final graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Grows the vertex set so that `v` is a valid vertex.
    pub fn ensure_vertex(&mut self, v: Vertex) {
        if (v as usize) >= self.num_vertices {
            self.num_vertices = v as usize + 1;
        }
    }

    /// Records an undirected edge. Self-loops are ignored. Edge weights are
    /// always at least 1, so that Dijkstra's positive-weight assumption
    /// holds: a weight of 0 is stored as 1, as
    /// [`Graph::set_edge_weight`] does.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex, w: Weight) {
        if u == v {
            return;
        }
        self.ensure_vertex(u);
        self.ensure_vertex(v);
        let w = w.max(1);
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Builds the graph, deduplicating parallel edges (keeping the minimum
    /// weight) and sorting adjacency lists for deterministic iteration.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        let mut g = Graph::with_vertices(self.num_vertices);
        let mut last: Option<(Vertex, Vertex)> = None;
        for (u, v, w) in self.edges {
            if last == Some((u, v)) {
                // Parallel edge: the sorted order guarantees the first copy
                // had the smallest weight for identical endpoints only if we
                // also relax here.
                if let Some(existing) = g.adj[u as usize].iter_mut().find(|e| e.to == v) {
                    if w < existing.weight {
                        existing.weight = w;
                        if let Some(r) = g.adj[v as usize].iter_mut().find(|e| e.to == u) {
                            r.weight = w;
                        }
                    }
                }
                continue;
            }
            g.adj[u as usize].push(Edge { to: v, weight: w });
            g.adj[v as usize].push(Edge { to: u, weight: w });
            g.num_edges += 1;
            last = Some((u, v));
        }
        g.sort_adjacency();
        g
    }

    /// Convenience constructor: builds a graph directly from an edge list.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex, Weight)]) -> Graph {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 0, 3);
        b.add_edge(0, 1, 7);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3));
    }

    #[test]
    fn ignores_self_loops_and_clamps_zero_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 0, 4);
        b.add_edge(0, 1, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(1));
    }

    #[test]
    fn grows_vertex_set_on_demand() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 2, 9);
        let g = b.build();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.edge_weight(5, 2), Some(9));
    }

    #[test]
    fn from_edges_round_trip() {
        let g = GraphBuilder::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(2, 3), Some(3));
    }
}
