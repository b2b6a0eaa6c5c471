//! Recursive construction of the balanced tree hierarchy and the HC2L
//! labelling (Sections 4.1 and 4.2).
//!
//! The recursion works on progressively smaller *shortcut-enhanced* subgraphs
//! with local vertex ids:
//!
//! 1. find a balanced vertex cut (Algorithms 1 and 2, `hc2l-cut`),
//! 2. rank the cut and compute the tail-pruned distance arrays for every
//!    vertex of the current subgraph (Algorithm 5, [`crate::node_build`]),
//! 3. add the non-redundant shortcuts to each partition (Algorithm 3) so the
//!    child subgraphs stay distance-preserving, and
//! 4. recurse into the two partitions; subgraphs at or below the leaf
//!    threshold label all their vertices directly, and so does a node whose
//!    cut would need a shortcut longer than a `u32` edge weight can hold.
//!
//! When [`Hc2lConfig::threads`] is greater than one, the two children of a
//! sufficiently large node are processed in parallel (fork-join), and the
//! per-cut-vertex searches inside each node run on a small worker pool — the
//! HC2Lp variant of Section 4.4.

use hc2l_cut::{add_shortcuts, balanced_cut, BalancedTreeHierarchy, CutConfig, Shortcut};
use hc2l_graph::{Distance, Graph, InducedSubgraph, Vertex};

use crate::config::Hc2lConfig;
use crate::label::{LabelSet, LevelLabelsBuilder};
use crate::node_build::label_node;
use crate::parallel::join;

/// Intermediate per-subtree result, merged into the final hierarchy and label
/// set after the (possibly parallel) recursion finishes.
struct SubtreeBuild {
    /// The node's cut in rank order, original vertex ids.
    cut: Vec<Vertex>,
    /// Child subtrees (left, right).
    children: [Option<Box<SubtreeBuild>>; 2],
    /// The distance arrays this node contributes: one per vertex of the
    /// node's subgraph (original id, array).
    arrays: Vec<(Vertex, Vec<Distance>)>,
    /// Number of vertices in this node's subgraph.
    subtree_size: usize,
}

/// Builds the hierarchy and labelling for (the core of) a graph.
///
/// The graph must use contiguous vertex ids `0..n`; isolated vertices are
/// allowed. Returns the hierarchy and the per-vertex labels, already frozen
/// into the flat query arena (construction scratch stays nested; the final
/// `freeze()` is the only conversion).
pub fn build_hierarchy_and_labels(
    g: &Graph,
    config: &Hc2lConfig,
) -> (BalancedTreeHierarchy, LabelSet) {
    config.validate();
    let n = g.num_vertices();
    let map: Vec<Vertex> = (0..n as Vertex).collect();
    let root_build = build_subtree(g.clone(), map, config);

    let mut hierarchy = BalancedTreeHierarchy::new(n);
    let mut labels = LevelLabelsBuilder::new(n);
    // The merge + arena freeze is the serial tail of construction.
    let frozen = hc2l_obs::phase::time("freeze", || {
        merge_subtree(&root_build, hierarchy.root(), &mut hierarchy, &mut labels);
        labels.freeze()
    });
    (hierarchy, frozen)
}

/// Depth-first merge of the intermediate tree into the flat data structures.
fn merge_subtree(
    build: &SubtreeBuild,
    node: u32,
    hierarchy: &mut BalancedTreeHierarchy,
    labels: &mut LevelLabelsBuilder,
) {
    hierarchy.assign_cut(node, build.cut.clone());
    for (v, array) in &build.arrays {
        labels.push_level(*v, array);
    }
    for (side, child) in build.children.iter().enumerate() {
        if let Some(child) = child {
            let child_idx = hierarchy.add_child(node, side == 1, child.subtree_size);
            merge_subtree(child, child_idx, hierarchy, labels);
        }
    }
}

/// Recursive worker: consumes the subgraph (local ids) and the mapping from
/// local to original ids.
fn build_subtree(sub: Graph, map: Vec<Vertex>, config: &Hc2lConfig) -> SubtreeBuild {
    let n = sub.num_vertices();
    if n == 0 {
        return SubtreeBuild {
            cut: Vec::new(),
            children: [None, None],
            arrays: Vec::new(),
            subtree_size: 0,
        };
    }

    // Decide whether to bisect further.
    let split = if n <= config.leaf_threshold {
        None
    } else {
        let bc = hc2l_obs::phase::time("cut_partition", || {
            balanced_cut(&sub, CutConfig { beta: config.beta })
        });
        let degenerate = bc.cut.len() == n
            || bc.part_a.len() == n
            || bc.part_b.len() == n
            || (bc.part_a.is_empty() && bc.part_b.is_empty());
        (!degenerate).then_some((bc.cut, bc.part_a, bc.part_b))
    };

    // Label this node's cut over the current (distance-preserving) subgraph.
    // Spawning worker threads only pays off when the per-search work is
    // substantial; small subgraphs are processed on the current thread.
    let node_threads = if n >= config.parallel_grain {
        config.threads
    } else {
        1
    };
    let label = |cut: &[Vertex]| {
        hc2l_obs::phase::time("labelling", || {
            label_node(&sub, cut, config.tail_pruning, node_threads)
        })
    };
    let all_vertices = || (0..n as Vertex).collect::<Vec<_>>();
    let (labelling, children) = match split {
        None => (label(&all_vertices()), [None, None]),
        Some((cut, part_a, part_b)) => {
            let labelling = label(&cut);
            // Shortcut insertion keeps each child distance-preserving — it
            // is part of the partitioning work, phase-wise.
            let shortcuts = |part: &[Vertex]| {
                hc2l_obs::phase::time("cut_partition", || {
                    add_shortcuts(&sub, &labelling.ordered_cut, part, &labelling.cut_distances)
                })
            };
            let parallel =
                config.threads > 1 && part_a.len().min(part_b.len()) >= config.parallel_grain;
            let (short_a, short_b) = join(parallel, || shortcuts(&part_a), || shortcuts(&part_b));
            if short_a
                .iter()
                .chain(&short_b)
                .all(|s| s.weight <= u32::MAX as Distance)
            {
                let build_child = |part: &[Vertex], shortcuts: &[Shortcut]| {
                    let mut child = InducedSubgraph::new(&sub, part);
                    for s in shortcuts {
                        child.add_shortcut_parent_ids(s.u, s.v, s.weight as u32);
                    }
                    let child_map: Vec<Vertex> = part.iter().map(|&v| map[v as usize]).collect();
                    Box::new(build_subtree(child.graph, child_map, config))
                };
                let (left, right) = join(
                    parallel,
                    || build_child(&part_a, &short_a),
                    || build_child(&part_b, &short_b),
                );
                (labelling, [Some(left), Some(right)])
            } else {
                // A shortcut past u32::MAX cannot be an edge weight, and a
                // clamped one would undercut the path it stands for. Stop
                // bisecting instead: every vertex joins the cut and is
                // labelled here, on a subgraph that still preserves
                // distances because every shortcut above it fit.
                (label(&all_vertices()), [None, None])
            }
        }
    };
    let mut arrays = Vec::with_capacity(n);
    for (local, array) in labelling.arrays.iter().enumerate() {
        arrays.push((map[local], array.clone()));
    }
    let cut_orig: Vec<Vertex> = labelling
        .ordered_cut
        .iter()
        .map(|&c| map[c as usize])
        .collect();

    SubtreeBuild {
        cut: cut_orig,
        children,
        arrays,
        subtree_size: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::toy::{grid_graph, paper_figure1};

    #[test]
    fn every_vertex_gets_assigned_and_labelled() {
        let g = paper_figure1();
        let (h, labels) = build_hierarchy_and_labels(&g, &Hc2lConfig::default());
        assert!(h.is_complete());
        for v in 0..16u32 {
            // A vertex mapped to level L has exactly L + 1 per-level arrays.
            assert_eq!(labels.num_levels(v) as u32, h.level_of(v) + 1);
        }
    }

    #[test]
    fn hierarchy_is_balanced() {
        let g = grid_graph(12, 12);
        let cfg = Hc2lConfig::default();
        let (h, _) = build_hierarchy_and_labels(&g, &cfg);
        assert!(h.is_complete());
        assert_eq!(
            h.check_balance(cfg.beta),
            None,
            "balance invariant violated"
        );
        // Height should be logarithmic-ish, far below n.
        assert!(
            h.height() <= 16,
            "height {} too large for a 144-vertex grid",
            h.height()
        );
    }

    #[test]
    fn leaf_threshold_controls_tree_size() {
        let g = grid_graph(8, 8);
        let small_leaves = build_hierarchy_and_labels(
            &g,
            &Hc2lConfig {
                leaf_threshold: 2,
                ..Default::default()
            },
        )
        .0;
        let big_leaves = build_hierarchy_and_labels(
            &g,
            &Hc2lConfig {
                leaf_threshold: 16,
                ..Default::default()
            },
        )
        .0;
        assert!(small_leaves.num_nodes() > big_leaves.num_nodes());
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let g = grid_graph(10, 10);
        let seq = build_hierarchy_and_labels(&g, &Hc2lConfig::default());
        let par = build_hierarchy_and_labels(
            &g,
            &Hc2lConfig {
                threads: 4,
                parallel_grain: 8,
                ..Default::default()
            },
        );
        // The trees are built with identical decisions, so the structures and
        // label sizes must agree exactly.
        assert_eq!(seq.0.num_nodes(), par.0.num_nodes());
        assert_eq!(seq.0.height(), par.0.height());
        assert_eq!(seq.1.total_entries(), par.1.total_entries());
        for v in 0..100u32 {
            assert_eq!(seq.0.bits_of(v), par.0.bits_of(v));
        }
    }

    #[test]
    fn tail_pruning_reduces_label_size() {
        let g = grid_graph(10, 10);
        let pruned = build_hierarchy_and_labels(&g, &Hc2lConfig::default()).1;
        let full = build_hierarchy_and_labels(&g, &Hc2lConfig::default().without_tail_pruning()).1;
        assert!(pruned.total_entries() <= full.total_entries());
        assert!(pruned.total_entries() > 0);
    }

    #[test]
    fn empty_graph_builds_trivially() {
        let g = Graph::with_vertices(0);
        let (h, labels) = build_hierarchy_and_labels(&g, &Hc2lConfig::default());
        assert_eq!(h.num_vertices(), 0);
        assert_eq!(labels.num_vertices(), 0);
    }

    #[test]
    fn disconnected_graph_is_supported() {
        // Two 4x4 grids with no connection.
        let grid = grid_graph(4, 4);
        let mut b = hc2l_graph::GraphBuilder::new(32);
        for (u, v, w) in grid.edges() {
            b.add_edge(u, v, w);
            b.add_edge(u + 16, v + 16, w);
        }
        let g = b.build();
        let (h, labels) = build_hierarchy_and_labels(&g, &Hc2lConfig::default());
        assert!(h.is_complete());
        assert_eq!(labels.num_vertices(), 32);
    }
}
