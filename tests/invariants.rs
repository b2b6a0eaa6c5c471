//! Structural invariants the paper's correctness arguments rest on: balanced
//! cuts really separate and balance, shortcut insertion restores the
//! distance-preserving property, tail pruning never changes query results,
//! and the balanced tree hierarchy respects its definition. Each check runs
//! over a sweep of seeded random graphs from `tests/common`. The masked
//! Dijkstra every partition-local search runs on is checked against plain
//! Dijkstra on the induced subgraph, and PHL's highways against it.

mod common;

use hc2l::{Hc2lConfig, Hc2lIndex};
use hc2l_cut::{add_shortcuts, balanced_cut, CutConfig};
use hc2l_graph::components::connected_components_masked;
use hc2l_graph::pathutil::greedy_path_decomposition;
use hc2l_graph::toy::paper_figure1;
use hc2l_graph::{
    dijkstra, dijkstra_distance, masked_dijkstra, Distance, Graph, InducedSubgraph, Vertex,
    INFINITY,
};
use hc2l_roadnet::seeded_grid;

/// Algorithm 2's output is a partition whose cut really separates the two
/// sides.
#[test]
fn balanced_cut_separates_and_covers() {
    for (i, g) in common::connected_graph_cases(16, 60, 0x1A)
        .iter()
        .enumerate()
    {
        let beta = 0.15 + 0.05 * (i % 6) as f64;
        let bc = balanced_cut(g, CutConfig { beta });
        let n = g.num_vertices();
        // Disjoint cover.
        let mut seen = vec![false; n];
        for &v in bc
            .part_a
            .iter()
            .chain(bc.cut.iter())
            .chain(bc.part_b.iter())
        {
            assert!(!seen[v as usize], "vertex {v} appears twice");
            seen[v as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s), "partition misses a vertex");
        // Separation: no component of G \ cut contains vertices of both sides.
        if !bc.part_a.is_empty() && !bc.part_b.is_empty() {
            let mut mask = vec![true; n];
            for &c in &bc.cut {
                mask[c as usize] = false;
            }
            let cc = connected_components_masked(g, Some(&mask));
            let label_a = cc.label[bc.part_a[0] as usize];
            for &v in &bc.part_b {
                assert_ne!(cc.label[v as usize], label_a, "cut does not separate");
            }
        }
    }
}

/// Algorithm 3 restores the distance-preserving property (Definition 4.5)
/// inside each partition.
#[test]
fn shortcuts_restore_distance_preservation() {
    for g in common::connected_graph_cases(12, 40, 0x2B) {
        let bc = balanced_cut(&g, CutConfig::default());
        if bc.cut.is_empty() || bc.part_a.len() < 2 {
            continue;
        }
        let cut_distances: Vec<Vec<u64>> = bc.cut.iter().map(|&c| dijkstra(&g, c)).collect();
        for part in [&bc.part_a, &bc.part_b] {
            if part.len() < 2 {
                continue;
            }
            let shortcuts = add_shortcuts(&g, &bc.cut, part, &cut_distances);
            let mut sub = InducedSubgraph::new(&g, part);
            for s in &shortcuts {
                sub.add_shortcut_parent_ids(s.u, s.v, s.weight as u32);
            }
            for (i, &p) in part.iter().enumerate() {
                for (j, &q) in part.iter().enumerate().skip(i + 1) {
                    assert_eq!(
                        dijkstra_distance(&sub.graph, i as Vertex, j as Vertex),
                        dijkstra_distance(&g, p, q),
                        "pair ({p}, {q}) not preserved"
                    );
                }
            }
        }
    }
}

/// The built hierarchy satisfies Definition 4.1: every vertex is mapped to
/// exactly one node, subtrees respect the balance bound, and the height
/// stays logarithmic-ish.
#[test]
fn hierarchy_respects_definition() {
    for g in common::connected_graph_cases(12, 80, 0x3C) {
        let cfg = Hc2lConfig::default();
        let index = Hc2lIndex::build(&g, cfg.without_contraction());
        let h = index.hierarchy().expect("built index keeps its hierarchy");
        assert!(h.is_complete());
        assert_eq!(h.check_balance(cfg.beta), None);
        // Height bound: generously, a few times log_{1/(1-β)}(n) plus slack
        // for leaf nodes.
        let n = g.num_vertices() as f64;
        let bound = (n.ln() / (1.0 / (1.0 - cfg.beta)).ln()).ceil() + 8.0;
        assert!(
            (h.height() as f64) <= bound * 2.0,
            "height {} exceeds bound {}",
            h.height(),
            bound * 2.0
        );
    }
}

/// Tail pruning is purely a space optimisation: queries with and without it
/// return identical results (and the pruned index is never larger).
#[test]
fn tail_pruning_is_lossless() {
    for g in common::connected_graph_cases(10, 35, 0x4D) {
        let pruned = Hc2lIndex::build(&g, Hc2lConfig::default());
        let full = Hc2lIndex::build(&g, Hc2lConfig::default().without_tail_pruning());
        assert!(pruned.stats().label_bytes <= full.stats().label_bytes);
        let n = g.num_vertices() as Vertex;
        for s in 0..n {
            for t in 0..n {
                assert_eq!(pruned.query(s, t), full.query(s, t));
            }
        }
    }
}

/// The LCA cut of two vertices contains a hub realising their distance
/// (Definition 4.14, condition 2) whenever the two vertices are in
/// different subtrees.
#[test]
fn lca_cut_contains_a_realising_hub() {
    for g in common::connected_graph_cases(8, 40, 0x5E) {
        let index = Hc2lIndex::build(&g, Hc2lConfig::default().without_contraction());
        let h = index.hierarchy().expect("built index keeps its hierarchy");
        let n = g.num_vertices() as Vertex;
        for s in 0..n {
            let dist_s = dijkstra(&g, s);
            for t in 0..n {
                if s == t {
                    continue;
                }
                let cut = h.lca_cut(s, t);
                if cut.is_empty() {
                    continue;
                }
                let via_cut = cut
                    .iter()
                    .map(|&c| dist_s[c as usize].saturating_add(dijkstra_distance(&g, c, t)))
                    .min()
                    .unwrap();
                assert_eq!(
                    via_cut,
                    dijkstra_distance(&g, s, t),
                    "no hub in the LCA cut realises d({s}, {t})"
                );
            }
        }
    }
}

/// The partition-local search HC2L's partitioning and shortcuts and PHL's
/// path decomposition share, on the paper's Figure 1 graph and a seeded
/// grid.
fn masked_search_graphs() -> [(&'static str, Graph); 2] {
    [
        ("paper figure 1", paper_figure1()),
        ("seeded 7x9 grid", seeded_grid(7, 9, 0x5EED)),
    ]
}

/// With every vertex allowed, the masked search is plain Dijkstra.
#[test]
fn dijkstra_under_a_full_mask_is_plain_dijkstra() {
    for (name, g) in &masked_search_graphs() {
        let all = vec![true; g.num_vertices()];
        for s in 0..g.num_vertices() as Vertex {
            assert_eq!(
                masked_dijkstra(g, s, &all),
                dijkstra(g, s),
                "{name} source {s}"
            );
        }
    }
}

/// With a partial mask it is Dijkstra on the induced subgraph, ids mapped
/// back and `INFINITY` outside the mask.
#[test]
fn dijkstra_under_a_mask_is_dijkstra_on_the_induced_subgraph() {
    for (name, g) in &masked_search_graphs() {
        let n = g.num_vertices();
        // Drop every third vertex, which lengthens or cuts many routes.
        let mask: Vec<bool> = (0..n).map(|v| v % 3 != 1).collect();
        let kept: Vec<Vertex> = (0..n as Vertex).filter(|&v| mask[v as usize]).collect();
        let sub = InducedSubgraph::new(g, &kept);
        let mut detours = 0;
        for &s in &kept {
            let got = masked_dijkstra(g, s, &mask);
            let want = dijkstra(&sub.graph, sub.to_local(s).unwrap());
            let full = dijkstra(g, s);
            for v in 0..n as Vertex {
                let expected = sub.to_local(v).map_or(INFINITY, |l| want[l as usize]);
                assert_eq!(got[v as usize], expected, "{name} ({s}, {v})");
                detours += usize::from(mask[v as usize] && expected != full[v as usize]);
            }
        }
        assert!(detours > 0, "{name}: the mask changed no distance");
    }
}

/// A masked-out source reaches nothing, not even itself.
#[test]
fn dijkstra_from_a_masked_out_source_reaches_nothing() {
    for (name, g) in &masked_search_graphs() {
        let n = g.num_vertices();
        for s in 0..n as Vertex {
            let mut mask = vec![true; n];
            mask[s as usize] = false;
            let dist = masked_dijkstra(g, s, &mask);
            assert!(dist.iter().all(|&d| d == INFINITY), "{name} source {s}");
        }
    }
}

/// PHL's highways are shortest paths of the graph left when they were
/// chosen: each path's weight equals the masked distance between its ends
/// over the vertices no earlier path covers.
#[test]
fn greedy_highways_are_shortest_paths_of_the_uncovered_graph() {
    for (i, g) in common::sparse_graph_cases(12, 60, 0x4A).iter().enumerate() {
        let mut uncovered = vec![true; g.num_vertices()];
        for path in greedy_path_decomposition(g, 2) {
            let weight: Distance = path
                .windows(2)
                .map(|w| Distance::from(g.edge_weight(w[0], w[1]).expect("a real path")))
                .sum();
            let ends = (path[0], path[path.len() - 1]);
            let shortest = masked_dijkstra(g, ends.0, &uncovered)[ends.1 as usize];
            assert_eq!(weight, shortest, "case {i}: highway {path:?}");
            for &v in &path {
                uncovered[v as usize] = false;
            }
        }
        assert!(
            uncovered.iter().all(|&u| !u),
            "case {i}: uncovered vertices"
        );
    }
}
