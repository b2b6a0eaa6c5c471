//! Dijkstra's algorithm: the full, point-to-point, masked and
//! bidirectional searches.
//!
//! These serve three purposes in the reproduction: (a) the search-based
//! baseline discussed in the paper's related work, (b) the ground-truth
//! oracle used throughout the test suites, and (c) the inner loop of every
//! label construction algorithm (HC2L shortcuts/labels, HL, PHL, H2H).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::Graph;
use crate::types::{dist_add, Distance, Vertex, INFINITY};

/// Plain single-source Dijkstra over the whole graph.
pub fn dijkstra(g: &Graph, source: Vertex) -> Vec<Distance> {
    let mut dist = vec![INFINITY; g.num_vertices()];
    let mut heap: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for e in g.neighbors(v) {
            let nd = dist_add(d, e.weight as Distance);
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                heap.push(Reverse((nd, e.to)));
            }
        }
    }
    dist
}

/// Point-to-point Dijkstra, terminating as soon as the target is settled.
pub fn dijkstra_distance(g: &Graph, source: Vertex, target: Vertex) -> Distance {
    if source == target {
        return 0;
    }
    let mut dist = vec![INFINITY; g.num_vertices()];
    let mut heap: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        if v == target {
            return d;
        }
        for e in g.neighbors(v) {
            let nd = dist_add(d, e.weight as Distance);
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                heap.push(Reverse((nd, e.to)));
            }
        }
    }
    dist[target as usize]
}

/// Dijkstra restricted to the vertices with `mask[v] == true`: the search
/// HC2L's construction runs inside the current partition (Algorithms 1–3)
/// and PHL's path decomposition runs over the uncovered vertices. Vertices
/// outside the mask, or every vertex when the source itself is masked out,
/// report `INFINITY`.
pub fn masked_dijkstra(g: &Graph, source: Vertex, mask: &[bool]) -> Vec<Distance> {
    masked_search(g, source, mask, |_, _| {})
}

/// The [`masked_dijkstra`] loop, reporting each improving relaxation as
/// `on_improve(vertex, predecessor)`; a vertex's last report names its
/// parent on the shortest-path tree.
pub(crate) fn masked_search(
    g: &Graph,
    source: Vertex,
    mask: &[bool],
    mut on_improve: impl FnMut(Vertex, Vertex),
) -> Vec<Distance> {
    let mut dist = vec![INFINITY; g.num_vertices()];
    if !mask[source as usize] {
        return dist;
    }
    let mut heap: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for e in g.neighbors(v) {
            if !mask[e.to as usize] {
                continue;
            }
            let nd = d + e.weight as Distance;
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                on_improve(e.to, v);
                heap.push(Reverse((nd, e.to)));
            }
        }
    }
    dist
}

/// Bidirectional Dijkstra (the classic speed-up discussed in the paper's
/// related-work section). Returns the exact shortest-path distance.
pub fn bidirectional_dijkstra(g: &Graph, source: Vertex, target: Vertex) -> Distance {
    if source == target {
        return 0;
    }
    let n = g.num_vertices();
    let mut dist_f = vec![INFINITY; n];
    let mut dist_b = vec![INFINITY; n];
    let mut settled_f = vec![false; n];
    let mut settled_b = vec![false; n];
    let mut heap_f: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
    let mut heap_b: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
    dist_f[source as usize] = 0;
    dist_b[target as usize] = 0;
    heap_f.push(Reverse((0, source)));
    heap_b.push(Reverse((0, target)));
    let mut best = INFINITY;

    loop {
        let top_f = heap_f.peek().map(|Reverse((d, _))| *d).unwrap_or(INFINITY);
        let top_b = heap_b.peek().map(|Reverse((d, _))| *d).unwrap_or(INFINITY);
        if dist_add(top_f, top_b) >= best {
            break;
        }
        // Expand the side with the smaller frontier key.
        let forward = top_f <= top_b;
        let (heap, dist, other_dist, settled) = if forward {
            (&mut heap_f, &mut dist_f, &dist_b, &mut settled_f)
        } else {
            (&mut heap_b, &mut dist_b, &dist_f, &mut settled_b)
        };
        let Some(Reverse((d, v))) = heap.pop() else {
            break;
        };
        if settled[v as usize] || d > dist[v as usize] {
            continue;
        }
        settled[v as usize] = true;
        let through = dist_add(d, other_dist[v as usize]);
        if through < best {
            best = through;
        }
        for e in g.neighbors(v) {
            let nd = dist_add(d, e.weight as Distance);
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                heap.push(Reverse((nd, e.to)));
                let cand = dist_add(nd, other_dist[e.to as usize]);
                if cand < best {
                    best = cand;
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::toy::paper_figure1 as paper_example;

    #[test]
    fn paper_example_distances() {
        let g = paper_example();
        let d = dijkstra(&g, 2); // vertex 3 in the paper
                                 // Example 3.4 queries the pair (3, 10); the hubs give 2 + 3 = 5.
        assert_eq!(d[9], 5);
        // Example 3.1: shortest path (3, 2, 16, 15, 6, 11) of length 5.
        assert_eq!(d[10], 5);
        let d1 = dijkstra(&g, 0); // vertex 1
        assert_eq!(d1[7], 2); // d(1, 8) = 2 (via vertex 12)
    }

    #[test]
    fn point_to_point_matches_full_search() {
        let g = paper_example();
        for s in 0..16 {
            let full = dijkstra(&g, s);
            for t in 0..16 {
                assert_eq!(dijkstra_distance(&g, s, t), full[t as usize]);
                assert_eq!(bidirectional_dijkstra(&g, s, t), full[t as usize]);
            }
        }
    }

    #[test]
    fn masked_search_reports_a_shortest_path_tree_inside_the_mask() {
        let g = paper_example();
        let mask: Vec<bool> = (0..16).map(|v| v % 5 != 3).collect();
        let mut parent = [None; 16];
        let dist = masked_search(&g, 0, &mask, |v, p| parent[v as usize] = Some(p));
        assert_eq!(dist, masked_dijkstra(&g, 0, &mask));
        for v in 1..16u32 {
            if dist[v as usize] == INFINITY {
                assert_eq!(parent[v as usize], None, "unreached {v} has a parent");
                continue;
            }
            let (mut cur, mut len) = (v, 0);
            while let Some(p) = parent[cur as usize] {
                assert!(mask[p as usize], "parent {p} lies outside the mask");
                len += g.edge_weight(p, cur).unwrap() as Distance;
                cur = p;
            }
            assert_eq!(cur, 0, "parent chain of {v} must reach the source");
            assert_eq!(len, dist[v as usize], "vertex {v}");
        }
    }

    #[test]
    fn unreachable_vertices_report_infinity() {
        let g = GraphBuilder::from_edges(4, &[(0, 1, 1)]);
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], INFINITY);
        assert_eq!(d[3], INFINITY);
        assert_eq!(bidirectional_dijkstra(&g, 0, 3), INFINITY);
        assert_eq!(dijkstra_distance(&g, 0, 2), INFINITY);
    }

    #[test]
    fn weighted_graph_prefers_cheaper_longer_path() {
        // 0 -10- 1, 0 -1- 2 -1- 3 -1- 1: the three-hop path is cheaper.
        let g = GraphBuilder::from_edges(4, &[(0, 1, 10), (0, 2, 1), (2, 3, 1), (3, 1, 1)]);
        assert_eq!(dijkstra_distance(&g, 0, 1), 3);
        assert_eq!(bidirectional_dijkstra(&g, 0, 1), 3);
    }
}
