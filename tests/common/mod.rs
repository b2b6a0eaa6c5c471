//! Shared helpers for the integration tests: seeded random graph generation
//! replacing the external property-testing dependency. Every generator is
//! deterministic per seed, so failures reproduce exactly.

// Each integration-test binary compiles this module separately and most use
// only a subset of the generators.
#![allow(dead_code)]

use hc2l_graph::{Graph, GraphBuilder, Vertex};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random connected graph with `n` vertices: a random spanning tree
/// (guaranteeing connectivity) plus `extra` additional random edges, with
/// small random weights.
pub fn random_connected_graph(n: usize, extra: usize, seed: u64) -> Graph {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let p = rng.random_range(0..i);
        b.add_edge(p as Vertex, i as Vertex, rng.random_range(1..=20u32));
    }
    for _ in 0..extra {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            b.add_edge(u as Vertex, v as Vertex, rng.random_range(1..=20u32));
        }
    }
    b.build()
}

/// A random graph that may be disconnected (no spanning tree backbone).
pub fn random_sparse_graph(n: usize, edges: usize, seed: u64) -> Graph {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for _ in 0..edges {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            b.add_edge(u as Vertex, v as Vertex, rng.random_range(1..=9u32));
        }
    }
    b.build()
}

/// Deterministic sweep of `cases` seeded graphs: connected graphs of varying
/// size up to `max_n`, with a varying number of extra edges.
pub fn connected_graph_cases(cases: usize, max_n: usize, seed: u64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cases)
        .map(|_| {
            let n = rng.random_range(3..=max_n.max(3));
            let extra = rng.random_range(0..=2 * n);
            random_connected_graph(n, extra, rng.random())
        })
        .collect()
}

/// Deterministic sweep of `cases` seeded graphs that may be disconnected.
pub fn sparse_graph_cases(cases: usize, max_n: usize, seed: u64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cases)
        .map(|_| {
            let n = rng.random_range(4..=max_n.max(4));
            let edges = rng.random_range(0..=3 * n);
            random_sparse_graph(n, edges, rng.random())
        })
        .collect()
}

/// A `side`³ 3D grid with seeded random weights in `1..=20`. Its balanced
/// cuts are planes of about `side²` vertices, so HC2L's per-level labels
/// grow far longer than on any planar graph of the same size.
pub fn grid_3d_graph(side: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |x: usize, y: usize, z: usize| ((x * side + y) * side + z) as Vertex;
    let mut b = GraphBuilder::new(side * side * side);
    for x in 0..side {
        for y in 0..side {
            for z in 0..side {
                let v = id(x, y, z);
                if x + 1 < side {
                    b.add_edge(v, id(x + 1, y, z), rng.random_range(1..=20u32));
                }
                if y + 1 < side {
                    b.add_edge(v, id(x, y + 1, z), rng.random_range(1..=20u32));
                }
                if z + 1 < side {
                    b.add_edge(v, id(x, y, z + 1), rng.random_range(1..=20u32));
                }
            }
        }
    }
    b.build()
}
