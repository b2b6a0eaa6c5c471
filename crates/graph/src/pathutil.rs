//! Path utilities over the masked search: farthest-vertex double sweeps
//! (the dataset summary table's diameter column) and the greedy
//! shortest-path decomposition behind the PHL baseline.

use crate::dijkstra::{masked_dijkstra, masked_search};
use crate::graph::Graph;
use crate::types::{is_finite, Distance, Vertex};

/// Lower bound on the graph diameter via a double Dijkstra sweep.
pub fn diameter_double_sweep(g: &Graph, start: Vertex) -> Distance {
    let all = vec![true; g.num_vertices()];
    let (far, _) = farthest_vertex(g, start, &all);
    farthest_vertex(g, far, &all).1
}

/// Decomposes the graph greedily into vertex-disjoint shortest paths, longest
/// first. This is the "highway decomposition" substrate used by the PHL
/// baseline: repeatedly take the (approximately) longest shortest path among
/// the not-yet-covered vertices, record it, and remove its vertices.
///
/// Returns the list of paths (each a vertex sequence in original ids).
/// Every vertex belongs to exactly one path; isolated leftovers become
/// singleton paths.
pub fn greedy_path_decomposition(g: &Graph, min_len: usize) -> Vec<Vec<Vertex>> {
    let n = g.num_vertices();
    let mut covered = vec![false; n];
    let mut paths = Vec::new();
    loop {
        // Pick an uncovered vertex with maximal degree among uncovered
        // neighbours as the sweep seed.
        let seed = (0..n).find(|&v| !covered[v]);
        let Some(seed) = seed else { break };
        // Double sweep restricted to uncovered vertices.
        let mask: Vec<bool> = covered.iter().map(|&c| !c).collect();
        let sub_path = longest_path_from(g, seed as Vertex, &mask);
        if sub_path.len() < min_len.max(1) {
            // Too short to be worth a highway: emit singletons for the whole
            // remaining component of the seed to guarantee progress.
            for &v in &sub_path {
                covered[v as usize] = true;
                paths.push(vec![v]);
            }
            if sub_path.is_empty() {
                covered[seed] = true;
                paths.push(vec![seed as Vertex]);
            }
            continue;
        }
        for &v in &sub_path {
            covered[v as usize] = true;
        }
        paths.push(sub_path);
    }
    paths
}

/// Longest shortest path found by a double sweep from `seed`, restricted to
/// the vertices allowed by `mask`.
fn longest_path_from(g: &Graph, seed: Vertex, mask: &[bool]) -> Vec<Vertex> {
    let (a, _) = farthest_vertex(g, seed, mask);
    let (b, _) = farthest_vertex(g, a, mask);
    extract_path(g, a, b, mask).unwrap_or_else(|| vec![seed])
}

/// The vertex farthest from `source` among the masked vertices it reaches,
/// together with its distance (`(source, 0)` if it reaches none).
fn farthest_vertex(g: &Graph, source: Vertex, mask: &[bool]) -> (Vertex, Distance) {
    let dist = masked_dijkstra(g, source, mask);
    let mut best = (source, 0);
    for (v, &d) in dist.iter().enumerate() {
        if is_finite(d) && mask[v] && d > best.1 {
            best = (v as Vertex, d);
        }
    }
    best
}

/// A shortest path from `s` to `t` through masked vertices, both endpoints
/// included, or `None` if `t` is unreachable.
fn extract_path(g: &Graph, s: Vertex, t: Vertex, mask: &[bool]) -> Option<Vec<Vertex>> {
    let mut parent: Vec<Option<Vertex>> = vec![None; g.num_vertices()];
    let dist = masked_search(g, s, mask, |v, p| parent[v as usize] = Some(p));
    if !is_finite(dist[t as usize]) {
        return None;
    }
    let mut path = vec![t];
    let mut cur = t;
    while cur != s {
        cur = parent[cur as usize]?;
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::dijkstra::dijkstra_distance;
    use crate::toy::{grid_graph, paper_figure1, path_graph};

    /// Whether `path` is a walk of `g` whose weight is the shortest-path
    /// distance between its endpoints.
    fn is_shortest_path(g: &Graph, path: &[Vertex]) -> bool {
        let weight: Option<Distance> = path
            .windows(2)
            .map(|w| g.edge_weight(w[0], w[1]).map(Distance::from))
            .sum();
        weight == Some(dijkstra_distance(g, path[0], path[path.len() - 1]))
    }

    #[test]
    fn extract_path_is_shortest() {
        let g = paper_figure1();
        let all = vec![true; 16];
        let p = extract_path(&g, 2, 10, &all).unwrap();
        assert_eq!(p.first(), Some(&2));
        assert_eq!(p.last(), Some(&10));
        assert_eq!(dijkstra_distance(&g, 2, 10), 5);
        assert!(is_shortest_path(&g, &p));
    }

    #[test]
    fn extract_path_unreachable_is_none() {
        let g = GraphBuilder::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        assert!(extract_path(&g, 0, 3, &[true; 4]).is_none());
        // A masked-out vertex cuts the only route.
        let g = path_graph(4, 1);
        assert!(extract_path(&g, 0, 3, &[true, false, true, true]).is_none());
    }

    #[test]
    fn farthest_vertex_on_path_graph() {
        let g = path_graph(6, 2);
        let all = vec![true; 6];
        assert_eq!(farthest_vertex(&g, 0, &all), (5, 10));
        assert_eq!(farthest_vertex(&g, 2, &all).1, 6);
        assert_eq!(diameter_double_sweep(&g, 3), 10);
    }

    #[test]
    fn farthest_vertex_respects_mask() {
        let g = path_graph(6, 1);
        let mask = vec![true, true, true, true, false, false];
        let (v, d) = farthest_vertex(&g, 0, &mask);
        assert_eq!(v, 3);
        assert_eq!(d, 3);
    }

    #[test]
    fn diameter_of_grid() {
        let g = grid_graph(4, 5);
        assert_eq!(diameter_double_sweep(&g, 0), 7);
    }

    #[test]
    fn greedy_decomposition_covers_every_vertex_once() {
        let g = paper_figure1();
        let paths = greedy_path_decomposition(&g, 2);
        let mut seen = [false; 16];
        for p in &paths {
            // Consecutive vertices must be adjacent (it is a real path).
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]), "not a path: {p:?}");
            }
            for &v in p {
                assert!(!seen[v as usize], "vertex {v} appears twice");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // The first (longest) path is found on the full graph, so it must be a
        // shortest path of the original network.
        assert!(is_shortest_path(&g, &paths[0]));
    }

    #[test]
    fn diameter_stays_within_the_start_component() {
        // A 3-hop path of weight 9 and a separate heavy edge of weight 50.
        let g = GraphBuilder::from_edges(6, &[(0, 1, 3), (1, 2, 3), (2, 3, 3), (4, 5, 50)]);
        assert_eq!(diameter_double_sweep(&g, 1), 9);
        assert_eq!(diameter_double_sweep(&g, 5), 50);
    }

    #[test]
    fn greedy_decomposition_emits_singletons_below_min_len() {
        let g = path_graph(4, 1);
        let paths = greedy_path_decomposition(&g, 10);
        let mut vertices: Vec<Vertex> = paths.iter().flatten().copied().collect();
        vertices.sort_unstable();
        assert!(paths.iter().all(|p| p.len() == 1), "{paths:?}");
        assert_eq!(vertices, [0, 1, 2, 3]);
    }

    #[test]
    fn greedy_decomposition_on_disconnected_graph() {
        let g = GraphBuilder::from_edges(6, &[(0, 1, 1), (1, 2, 1), (3, 4, 1)]);
        let paths = greedy_path_decomposition(&g, 2);
        let covered: usize = paths.iter().map(|p| p.len()).sum();
        assert_eq!(covered, 6);
    }
}
