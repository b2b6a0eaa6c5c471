//! Algorithm 3 — *Add Shortcuts*.
//!
//! After a balanced cut removes `V_cut` from the current graph, the induced
//! subgraph of a partition `P` may no longer preserve distances: shortest
//! paths between two vertices of `P` may have detoured through the cut
//! (Lemma 4.8). The fix is to add shortcut edges between *border vertices*
//! (vertices of `P` adjacent to the cut), weighted with their true distance,
//! but only where necessary: a shortcut is redundant when the induced
//! subgraph already matches the true distance, or when a third border vertex
//! lies on a shortest path between the two (Lemma 4.11).

use hc2l_graph::{dist_add, masked_dijkstra, Distance, Graph, Vertex, VertexSet, INFINITY};

/// A shortcut edge to be added to a partition's subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shortcut {
    /// First border vertex (parent-graph id).
    pub u: Vertex,
    /// Second border vertex (parent-graph id).
    pub v: Vertex,
    /// True shortest-path distance between them in the parent graph.
    pub weight: Distance,
}

/// Border vertices of partition `partition` with respect to `cut`: members of
/// the partition that have an edge into the cut.
pub fn border_vertices(g: &Graph, partition: &[Vertex], cut: &[Vertex]) -> Vec<Vertex> {
    let cut_set = VertexSet::from_slice(g.num_vertices(), cut);
    partition
        .iter()
        .copied()
        .filter(|&v| g.neighbors(v).iter().any(|e| cut_set.contains(e.to)))
        .collect()
}

/// Computes the non-redundant shortcuts for a partition (Algorithm 3).
///
/// * `g` — the parent graph the cut was computed on (already
///   distance-preserving for its own vertex set);
/// * `cut` — the removed vertex cut;
/// * `partition` — the partition's vertices;
/// * `cut_distances` — for each cut vertex (in the order of `cut`), the
///   distances from that cut vertex to every vertex of `g`; these are the
///   Dijkstra results the labelling step computes anyway ("distances to cut
///   vertices already known").
///
/// Returns the list of shortcuts to add to `G[partition]`.
pub fn add_shortcuts(
    g: &Graph,
    cut: &[Vertex],
    partition: &[Vertex],
    cut_distances: &[Vec<Distance>],
) -> Vec<Shortcut> {
    assert_eq!(
        cut.len(),
        cut_distances.len(),
        "one distance array per cut vertex"
    );
    let borders = border_vertices(g, partition, cut);
    if borders.len() < 2 {
        return Vec::new();
    }

    // Membership mask of the partition, for the restricted Dijkstra runs.
    let mut in_partition = vec![false; g.num_vertices()];
    for &v in partition {
        in_partition[v as usize] = true;
    }

    let b = borders.len();
    // d_sub[i][j]: distance between borders i and j inside G[P].
    let mut d_sub = vec![vec![INFINITY; b]; b];
    for (i, &bi) in borders.iter().enumerate() {
        let dist = masked_dijkstra(g, bi, &in_partition);
        for (j, &bj) in borders.iter().enumerate() {
            d_sub[i][j] = dist[bj as usize];
        }
    }

    // d_true[i][j]: true distance in the parent graph, which is the minimum
    // of the within-partition distance and the best detour through a cut
    // vertex (every path leaving the partition crosses the cut).
    let mut d_true = vec![vec![INFINITY; b]; b];
    for i in 0..b {
        for j in 0..b {
            let mut best = d_sub[i][j];
            for dist_c in cut_distances {
                let via = dist_add(dist_c[borders[i] as usize], dist_c[borders[j] as usize]);
                if via < best {
                    best = via;
                }
            }
            d_true[i][j] = best;
        }
    }

    // Lemma 4.11: emit a shortcut only when the subgraph distance is wrong
    // and no third border vertex already bridges the pair.
    let mut shortcuts = Vec::new();
    for i in 0..b {
        for j in (i + 1)..b {
            if d_true[i][j] >= d_sub[i][j] || d_true[i][j] >= INFINITY {
                continue;
            }
            let mut redundant = false;
            for k in 0..b {
                if k == i || k == j {
                    continue;
                }
                if dist_add(d_true[i][k], d_true[k][j]) == d_true[i][j] {
                    redundant = true;
                    break;
                }
            }
            if !redundant {
                shortcuts.push(Shortcut {
                    u: borders[i],
                    v: borders[j],
                    weight: d_true[i][j],
                });
            }
        }
    }
    shortcuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::dijkstra;
    use hc2l_graph::dijkstra_distance;
    use hc2l_graph::toy::{grid_graph, paper_figure1};
    use hc2l_graph::InducedSubgraph;

    fn cut_distance_arrays(g: &Graph, cut: &[Vertex]) -> Vec<Vec<Distance>> {
        cut.iter().map(|&c| dijkstra(g, c)).collect()
    }

    #[test]
    fn paper_example_shortcut_1_8() {
        let g = paper_figure1();
        // Cut {5, 12, 16} (1-based) and partition P_A = {1,2,3,7,8,9,14}.
        let cut: Vec<Vertex> = [5u32, 12, 16].iter().map(|v| v - 1).collect();
        let part_a: Vec<Vertex> = [1u32, 2, 3, 7, 8, 9, 14].iter().map(|v| v - 1).collect();
        let dists = cut_distance_arrays(&g, &cut);
        let shortcuts = add_shortcuts(&g, &cut, &part_a, &dists);
        // Example 4.10: exactly one shortcut, (1, 8) with weight 2.
        assert_eq!(shortcuts.len(), 1);
        let s = shortcuts[0];
        let pair = if s.u < s.v { (s.u, s.v) } else { (s.v, s.u) };
        assert_eq!(pair, (0, 7));
        assert_eq!(s.weight, 2);
    }

    #[test]
    fn paper_example_p_b_needs_no_shortcuts() {
        let g = paper_figure1();
        let cut: Vec<Vertex> = [5u32, 12, 16].iter().map(|v| v - 1).collect();
        let part_b: Vec<Vertex> = [4u32, 6, 10, 11, 13, 15].iter().map(|v| v - 1).collect();
        let dists = cut_distance_arrays(&g, &cut);
        let shortcuts = add_shortcuts(&g, &cut, &part_b, &dists);
        assert!(
            shortcuts.is_empty(),
            "P_B is distance-preserving (Example 4.6)"
        );
    }

    #[test]
    fn shortcut_enhanced_subgraph_preserves_distances() {
        let g = paper_figure1();
        let cut: Vec<Vertex> = [5u32, 12, 16].iter().map(|v| v - 1).collect();
        for part in [
            [1u32, 2, 3, 7, 8, 9, 14]
                .iter()
                .map(|v| v - 1)
                .collect::<Vec<_>>(),
            [4u32, 6, 10, 11, 13, 15]
                .iter()
                .map(|v| v - 1)
                .collect::<Vec<_>>(),
        ] {
            let dists = cut_distance_arrays(&g, &cut);
            let shortcuts = add_shortcuts(&g, &cut, &part, &dists);
            let mut sub = InducedSubgraph::new(&g, &part);
            for s in &shortcuts {
                sub.add_shortcut_parent_ids(s.u, s.v, s.weight as u32);
            }
            for (i, &p) in part.iter().enumerate() {
                for (j, &q) in part.iter().enumerate() {
                    assert_eq!(
                        dijkstra_distance(&sub.graph, i as Vertex, j as Vertex),
                        dijkstra_distance(&g, p, q),
                        "distance mismatch for pair ({p},{q})"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_partition_distance_preservation() {
        // Cut the middle column of a 5x5 grid and verify the shortcut-enhanced
        // halves preserve distances.
        let g = grid_graph(5, 5);
        let cut: Vec<Vertex> = (0..5).map(|r| (r * 5 + 2) as Vertex).collect();
        let left: Vec<Vertex> = (0..5)
            .flat_map(|r| (0..2).map(move |c| (r * 5 + c) as Vertex))
            .collect();
        let dists = cut_distance_arrays(&g, &cut);
        let shortcuts = add_shortcuts(&g, &cut, &left, &dists);
        let mut sub = InducedSubgraph::new(&g, &left);
        for s in &shortcuts {
            sub.add_shortcut_parent_ids(s.u, s.v, s.weight as u32);
        }
        for (i, &p) in left.iter().enumerate() {
            for (j, &q) in left.iter().enumerate() {
                assert_eq!(
                    dijkstra_distance(&sub.graph, i as Vertex, j as Vertex),
                    dijkstra_distance(&g, p, q)
                );
            }
        }
    }

    #[test]
    fn border_vertices_are_exactly_cut_neighbours() {
        let g = paper_figure1();
        let cut: Vec<Vertex> = [5u32, 12, 16].iter().map(|v| v - 1).collect();
        let part_a: Vec<Vertex> = [1u32, 2, 3, 7, 8, 9, 14].iter().map(|v| v - 1).collect();
        let mut borders = border_vertices(&g, &part_a, &cut);
        borders.sort_unstable();
        // Neighbours of {5, 12, 16} inside P_A: 9 (adj 5), 1 and 8 (adj 12), 2 (adj 16).
        assert_eq!(borders, vec![0, 1, 7, 8]);
    }

    #[test]
    fn no_shortcuts_for_single_border_vertex() {
        // A path cut in the middle: each side touches the cut at one vertex.
        let g = hc2l_graph::toy::path_graph(7, 1);
        let cut = vec![3u32];
        let part = vec![0u32, 1, 2];
        let dists = cut_distance_arrays(&g, &cut);
        assert!(add_shortcuts(&g, &cut, &part, &dists).is_empty());
    }

    #[test]
    fn redundant_shortcuts_are_skipped() {
        // Ring of 6 vertices; cut {0, 3} splits it into {1,2} and {4,5}.
        // Border pair (1,2) inside {1,2}: their true distance equals the
        // in-partition edge, so no shortcut may be emitted.
        let g = hc2l_graph::toy::cycle_graph(6, 1);
        let cut = vec![0u32, 3];
        let part = vec![1u32, 2];
        let dists = cut_distance_arrays(&g, &cut);
        assert!(add_shortcuts(&g, &cut, &part, &dists).is_empty());
    }
}
