//! Algorithm 1 — *Balanced Partition*.
//!
//! Given a (sub)graph and a balance parameter `β`, the algorithm chooses two
//! vertices `v_A`, `v_B` that are far apart, sorts all vertices by the
//! partition weight `pw(v) = d(v_A, v) - d(v_B, v)`, and peels off the `β·|V|`
//! vertices with the smallest/largest weights as the two initial partitions
//! `P'_A` / `P'_B`; everything in between is the *cut region* within which
//! Algorithm 2 later finds a minimum vertex cut.
//!
//! Two complications from the paper are handled faithfully:
//!
//! * **Disconnected inputs** — if the largest component already fits the
//!   balance bound the split is free (empty cut region); otherwise the
//!   recursion happens inside the largest component and all other components
//!   join the cut region (they can be attached to either side later).
//! * **Bottlenecks** — when the `β·|V|`-th vertex from both ends has the same
//!   partition weight, a single vertex funnels many shortest paths (the
//!   vertex 7 example in the paper). The bottleneck vertex closest to `v_A`
//!   within that equivalence class is removed temporarily, the partition is
//!   recomputed, and the bottleneck joins the cut region.

use hc2l_graph::{masked_dijkstra, Distance, Graph, Vertex, INFINITY};

/// Result of the balanced-partition step: two initial partitions and the cut
/// region separating them. The three sets are disjoint and together cover all
/// vertices the algorithm was invoked on.
#[derive(Debug, Clone, Default)]
pub struct BalancedPartition {
    /// Initial partition `P'_A` (small partition weights, near `v_A`).
    pub part_a: Vec<Vertex>,
    /// The cut region `C`.
    pub cut_region: Vec<Vertex>,
    /// Initial partition `P'_B` (large partition weights, near `v_B`).
    pub part_b: Vec<Vertex>,
}

impl BalancedPartition {
    /// Total number of vertices covered.
    pub fn total(&self) -> usize {
        self.part_a.len() + self.cut_region.len() + self.part_b.len()
    }
}

/// Runs Algorithm 1 on the whole graph.
pub fn balanced_partition(g: &Graph, beta: f64) -> BalancedPartition {
    let alive = vec![true; g.num_vertices()];
    balanced_partition_masked(g, &alive, beta, 0)
}

/// Number of bottleneck-removal recursions allowed before giving up and
/// accepting a larger cut region; in practice the paper observes at most one.
const MAX_BOTTLENECK_DEPTH: usize = 32;

/// Runs Algorithm 1 restricted to the vertices with `alive[v] == true`.
pub fn balanced_partition_masked(
    g: &Graph,
    alive: &[bool],
    beta: f64,
    depth: usize,
) -> BalancedPartition {
    assert!(beta > 0.0 && beta <= 0.5, "β must be in (0, 0.5]");
    let alive_vertices: Vec<Vertex> = (0..g.num_vertices() as Vertex)
        .filter(|&v| alive[v as usize])
        .collect();
    let n = alive_vertices.len();
    if n == 0 {
        return BalancedPartition::default();
    }
    if n == 1 {
        return BalancedPartition {
            part_a: alive_vertices,
            cut_region: Vec::new(),
            part_b: Vec::new(),
        };
    }

    // Lines 2-10: handle disconnected graphs.
    let components = masked_components(g, alive);
    if components.len() > 1 {
        let mut sizes: Vec<(usize, usize)> = components
            .iter()
            .enumerate()
            .map(|(i, c)| (c.len(), i))
            .collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let (largest_size, largest_idx) = sizes[0];
        if (largest_size as f64) > (1.0 - beta) * n as f64 {
            // Recurse inside the largest component; everything else joins the
            // cut region (line 7).
            let mut inner_alive = vec![false; g.num_vertices()];
            for &v in &components[largest_idx] {
                inner_alive[v as usize] = true;
            }
            let mut inner = balanced_partition_masked(g, &inner_alive, beta, depth);
            for (i, comp) in components.iter().enumerate() {
                if i != largest_idx {
                    inner.cut_region.extend_from_slice(comp);
                }
            }
            return inner;
        } else {
            // Lines 9-10: largest and second-largest components already form a
            // balanced split with an empty "cut" in between; the remaining
            // components become the cut region so the caller can distribute
            // them.
            let (_, second_idx) = sizes[1];
            let mut cut_region = Vec::new();
            for (i, comp) in components.iter().enumerate() {
                if i != largest_idx && i != second_idx {
                    cut_region.extend_from_slice(comp);
                }
            }
            return BalancedPartition {
                part_a: components[largest_idx].clone(),
                cut_region,
                part_b: components[second_idx].clone(),
            };
        }
    }

    // Lines 11-12: find two distant vertices with a double sweep.
    let start = alive_vertices[0];
    let dist_from_start = masked_dijkstra(g, start, alive);
    let v_a = argmax_finite(&dist_from_start, alive).unwrap_or(start);
    let dist_a = masked_dijkstra(g, v_a, alive);
    let v_b = argmax_finite(&dist_a, alive).unwrap_or(v_a);
    let dist_b = masked_dijkstra(g, v_b, alive);

    // Line 13: partition weights.
    let pw = |v: Vertex| -> i64 { dist_a[v as usize] as i64 - dist_b[v as usize] as i64 };
    let mut ordered = alive_vertices.clone();
    ordered.sort_by_key(|&v| (pw(v), v));

    // Lines 14-15: peel off β·|V| vertices from both ends.
    let take = ((beta * n as f64).floor() as usize).max(1).min(n / 2);
    let part_a_init: Vec<Vertex> = ordered[..take].to_vec();
    let part_b_init: Vec<Vertex> = ordered[n - take..].to_vec();

    // Lines 16-22: bottleneck handling.
    let w_a = part_a_init.iter().map(|&v| pw(v)).max().unwrap();
    let w_b = part_b_init.iter().map(|&v| pw(v)).min().unwrap();
    if w_a == w_b && depth < MAX_BOTTLENECK_DEPTH {
        // All of the middle collapsed into one equivalence class; remove the
        // bottleneck vertex (member of the class closest to v_A) and retry.
        let bottleneck = ordered
            .iter()
            .copied()
            .filter(|&v| pw(v) == w_a)
            .min_by_key(|&v| (dist_a[v as usize], v))
            .unwrap();
        let mut reduced = alive.to_vec();
        reduced[bottleneck as usize] = false;
        let mut result = balanced_partition_masked(g, &reduced, beta, depth + 1);
        result.cut_region.push(bottleneck);
        return result;
    }

    // Lines 23-25: extend both partitions to their full equivalence classes
    // so neither straddles a class boundary, then everything in between is
    // the cut region.
    let mut part_a = Vec::new();
    let mut part_b = Vec::new();
    let mut cut_region = Vec::new();
    for &v in &ordered {
        let w = pw(v);
        if w <= w_a {
            part_a.push(v);
        } else if w >= w_b {
            part_b.push(v);
        } else {
            cut_region.push(v);
        }
    }
    BalancedPartition {
        part_a,
        cut_region,
        part_b,
    }
}

fn argmax_finite(dist: &[Distance], alive: &[bool]) -> Option<Vertex> {
    let mut best: Option<(Distance, Vertex)> = None;
    for (v, &d) in dist.iter().enumerate() {
        if !alive[v] || d >= INFINITY {
            continue;
        }
        match best {
            None => best = Some((d, v as Vertex)),
            Some((bd, _)) if d > bd => best = Some((d, v as Vertex)),
            _ => {}
        }
    }
    best.map(|(_, v)| v)
}

/// Connected components of the vertices with `alive[v] == true`, as vertex
/// lists.
pub(crate) fn masked_components(g: &Graph, alive: &[bool]) -> Vec<Vec<Vertex>> {
    let cc = hc2l_graph::components::connected_components_masked(g, Some(alive));
    cc.groups()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::toy::{grid_graph, paper_figure1, path_graph};
    use hc2l_graph::GraphBuilder;

    fn assert_is_partition(bp: &BalancedPartition, n: usize, alive: Option<&[bool]>) {
        let mut seen = vec![false; n];
        for &v in bp
            .part_a
            .iter()
            .chain(bp.cut_region.iter())
            .chain(bp.part_b.iter())
        {
            assert!(!seen[v as usize], "vertex {v} assigned twice");
            seen[v as usize] = true;
        }
        for v in 0..n {
            let should = alive.is_none_or(|a| a[v]);
            assert_eq!(seen[v], should, "vertex {v} coverage mismatch");
        }
    }

    #[test]
    fn partitions_cover_all_vertices_and_respect_balance() {
        let g = grid_graph(8, 8);
        let beta = 0.25;
        let bp = balanced_partition(&g, beta);
        assert_is_partition(&bp, 64, None);
        assert!(bp.part_a.len() >= (beta * 64.0) as usize - 1);
        assert!(bp.part_b.len() >= (beta * 64.0) as usize - 1);
        assert!(!bp.cut_region.is_empty());
        // Initial partitions must not be adjacent except through the cut
        // region: no edge may connect part_a directly to part_b *unless* its
        // endpoints are boundary vertices C_A/C_B (which Algorithm 2 handles);
        // here we only check the sets are not wildly unbalanced.
        let larger = bp.part_a.len().max(bp.part_b.len());
        assert!(larger as f64 <= (1.0 - beta) * 64.0 + 1.0);
    }

    #[test]
    fn path_graph_splits_in_the_middle() {
        let g = path_graph(20, 1);
        let bp = balanced_partition(&g, 0.3);
        assert_is_partition(&bp, 20, None);
        // v_A and v_B are the two path endpoints, so P'_A must contain vertex
        // 0 or 19 and P'_B the other.
        let a_has_0 = bp.part_a.contains(&0);
        let b_has_0 = bp.part_b.contains(&0);
        assert!(a_has_0 ^ b_has_0);
        let a_has_19 = bp.part_a.contains(&19);
        let b_has_19 = bp.part_b.contains(&19);
        assert!(a_has_19 ^ b_has_19);
        assert_ne!(a_has_0, a_has_19);
    }

    #[test]
    fn paper_example_partition_is_consistent() {
        let g = paper_figure1();
        let bp = balanced_partition(&g, 0.3);
        assert_is_partition(&bp, 16, None);
        assert!(!bp.part_a.is_empty());
        assert!(!bp.part_b.is_empty());
    }

    #[test]
    fn disconnected_balanced_components_split_without_cut() {
        // Two similar-size components: the split is free.
        let g = GraphBuilder::from_edges(
            9,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (4, 5, 1),
                (5, 6, 1),
                (6, 7, 1),
                (7, 8, 1),
            ],
        );
        let bp = balanced_partition(&g, 0.3);
        assert_is_partition(&bp, 9, None);
        assert!(bp.cut_region.is_empty());
        let sizes = [bp.part_a.len(), bp.part_b.len()];
        assert!(sizes.contains(&4) && sizes.contains(&5));
    }

    #[test]
    fn disconnected_with_dominant_component_recurses_inside() {
        // A 5x5 grid plus two isolated vertices: the grid dominates, so the
        // partition must happen inside it and the isolated vertices join the
        // cut region.
        let grid = grid_graph(5, 5);
        let mut b = GraphBuilder::new(27);
        for (u, v, w) in grid.edges() {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let bp = balanced_partition(&g, 0.3);
        assert_is_partition(&bp, 27, None);
        assert!(bp.cut_region.contains(&25));
        assert!(bp.cut_region.contains(&26));
        assert!(!bp.part_a.is_empty() && !bp.part_b.is_empty());
    }

    #[test]
    fn bottleneck_is_moved_to_cut_region() {
        // Two stars joined by a single middle vertex: every vertex of the
        // right star has the same partition weight unless the bottleneck is
        // detected and removed.
        let mut b = GraphBuilder::new(11);
        for i in 1..5 {
            b.add_edge(0, i, 1);
        }
        b.add_edge(0, 5, 1);
        for i in 6..11 {
            b.add_edge(5, i, 1);
        }
        let g = b.build();
        let bp = balanced_partition(&g, 0.4);
        assert_is_partition(&bp, 11, None);
        // The articulation vertices 0/5 should not end up inside an initial
        // partition boundary in a way that splits an equivalence class; at
        // minimum the result must stay balanced.
        assert!(bp.part_a.len() <= 7 && bp.part_b.len() <= 7);
    }

    #[test]
    fn masked_invocation_only_touches_alive_vertices() {
        let g = grid_graph(6, 6);
        let mut alive = vec![true; 36];
        alive[..6].fill(false);
        let bp = balanced_partition_masked(&g, &alive, 0.3, 0);
        assert_is_partition(&bp, 36, Some(&alive));
    }

    #[test]
    fn single_vertex_graph() {
        let g = GraphBuilder::from_edges(1, &[]);
        let bp = balanced_partition(&g, 0.3);
        assert_eq!(bp.part_a, vec![0]);
        assert!(bp.part_b.is_empty());
    }

    #[test]
    #[should_panic]
    fn invalid_beta_rejected() {
        let g = path_graph(4, 1);
        balanced_partition(&g, 0.9);
    }
}
