//! Adjacency-list graph representation.
//!
//! [`Graph`] is the work-horse representation used during index
//! construction: it supports cheap induced subgraphs, vertex masking and
//! shortcut insertion, all of which the hierarchy construction needs.

use serde::{Deserialize, Serialize};

use crate::types::{Distance, Vertex, Weight};

/// A single (directed half of an) undirected edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Head of the edge.
    pub to: Vertex,
    /// Positive weight.
    pub weight: Weight,
}

/// Weighted undirected graph stored as adjacency lists.
///
/// Parallel edges are collapsed to the minimum weight by [`crate::GraphBuilder`];
/// self-loops are rejected. The vertex set is always `0..n`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    pub(crate) adj: Vec<Vec<Edge>>,
    pub(crate) num_edges: usize,
}

impl Graph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `true` when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbours of `v` with weights.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Edge] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj[v as usize].len()
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.num_vertices() as Vertex
    }

    /// Iterator over every undirected edge exactly once (`u < v`).
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex, Weight)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, edges)| {
            edges
                .iter()
                .filter(move |e| (u as Vertex) < e.to)
                .map(move |e| (u as Vertex, e.to, e.weight))
        })
    }

    /// Returns the weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: Vertex, v: Vertex) -> Option<Weight> {
        self.adj[u as usize]
            .iter()
            .find(|e| e.to == v)
            .map(|e| e.weight)
    }

    /// `true` when `(u, v)` is an edge.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Inserts an undirected edge, keeping the minimum weight if the edge
    /// already exists. Returns `true` if a new edge was created.
    ///
    /// This is used by the shortcut insertion step (Algorithm 3); regular
    /// construction should go through [`crate::GraphBuilder`].
    pub fn add_or_relax_edge(&mut self, u: Vertex, v: Vertex, w: Weight) -> bool {
        assert_ne!(u, v, "self loops are not allowed");
        let existing = self.adj[u as usize].iter_mut().find(|e| e.to == v);
        match existing {
            Some(e) => {
                if w < e.weight {
                    e.weight = w;
                    // Keep the reverse direction in sync.
                    if let Some(r) = self.adj[v as usize].iter_mut().find(|e| e.to == u) {
                        r.weight = w;
                    }
                }
                false
            }
            None => {
                self.adj[u as usize].push(Edge { to: v, weight: w });
                self.adj[v as usize].push(Edge { to: u, weight: w });
                self.num_edges += 1;
                true
            }
        }
    }

    /// Overwrites the weight of an existing undirected edge `(u, v)` in both
    /// adjacency directions, regardless of whether the new weight is larger
    /// or smaller than the old one. Returns `false` (and changes nothing)
    /// when the edge does not exist — dynamic-update batches use this to
    /// reject updates against phantom edges instead of inserting them.
    pub fn set_edge_weight(&mut self, u: Vertex, v: Vertex, w: Weight) -> bool {
        if u == v {
            return false;
        }
        let (un, vn) = (u as usize, v as usize);
        if un >= self.adj.len() || vn >= self.adj.len() {
            return false;
        }
        match self.adj[un].iter_mut().find(|e| e.to == v) {
            Some(e) => e.weight = w,
            None => return false,
        }
        if let Some(r) = self.adj[vn].iter_mut().find(|e| e.to == u) {
            r.weight = w;
        }
        true
    }

    /// Sum of all edge weights; handy for sanity checks in tests.
    pub fn total_weight(&self) -> Distance {
        self.edges().map(|(_, _, w)| w as Distance).sum()
    }

    /// Average vertex degree.
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_vertices() as f64
        }
    }

    /// Approximate in-memory footprint of the adjacency structure in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.adj.len() * std::mem::size_of::<Vec<Edge>>()
            + self
                .adj
                .iter()
                .map(|a| a.capacity() * std::mem::size_of::<Edge>())
                .sum::<usize>()
    }

    /// Sorts every adjacency list by neighbour id. Gives deterministic
    /// iteration order which the hierarchy construction relies on for
    /// reproducible output.
    pub fn sort_adjacency(&mut self) {
        for list in &mut self.adj {
            list.sort_by_key(|e| e.to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(0, 2, 4);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.edge_weight(0, 2), Some(4));
        assert_eq!(g.edge_weight(2, 0), Some(4));
        assert_eq!(g.edge_weight(1, 1), None);
    }

    #[test]
    fn edges_iterator_visits_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v, _) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn add_or_relax_keeps_minimum() {
        let mut g = triangle();
        assert!(!g.add_or_relax_edge(0, 2, 3));
        assert_eq!(g.edge_weight(0, 2), Some(3));
        assert_eq!(g.edge_weight(2, 0), Some(3));
        // A worse weight is ignored.
        assert!(!g.add_or_relax_edge(0, 2, 10));
        assert_eq!(g.edge_weight(0, 2), Some(3));
        // New edges bump the count.
        let before = g.num_edges();
        let mut g2 = Graph::with_vertices(4);
        assert!(g2.add_or_relax_edge(0, 3, 7));
        assert_eq!(g2.num_edges(), 1);
        assert_eq!(g.num_edges(), before);
    }

    #[test]
    fn set_edge_weight_overwrites_both_directions() {
        let mut g = triangle();
        // Raising a weight works (add_or_relax cannot do this).
        assert!(g.set_edge_weight(0, 1, 9));
        assert_eq!(g.edge_weight(0, 1), Some(9));
        assert_eq!(g.edge_weight(1, 0), Some(9));
        // Lowering works too and the edge count never changes.
        assert!(g.set_edge_weight(1, 0, 2));
        assert_eq!(g.edge_weight(0, 1), Some(2));
        assert_eq!(g.num_edges(), 3);
        // Missing edges, self loops and out-of-range ids are rejected.
        let mut g2 = Graph::with_vertices(4);
        g2.add_or_relax_edge(0, 1, 5);
        assert!(!g2.set_edge_weight(0, 2, 7));
        assert!(!g2.set_edge_weight(1, 1, 7));
        assert!(!g2.set_edge_weight(0, 99, 7));
        assert_eq!(g2.edge_weight(0, 1), Some(5));
    }

    #[test]
    fn degree_statistics() {
        let g = triangle();
        assert!((g.average_degree() - 2.0).abs() < 1e-9);
        assert_eq!(g.total_weight(), 7);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut g = Graph::with_vertices(2);
        g.add_or_relax_edge(1, 1, 3);
    }
}
