//! Incremental HC2L maintenance: relabel over a fixed tree hierarchy.
//!
//! In the Stable-Tree-Labelling spirit, a weight-update batch keeps the
//! balanced tree hierarchy (and with it the LCA bitstrings, the id maps and
//! the degree-one contraction) completely fixed and recomputes only the
//! distance arrays that can have changed. The updater re-runs the builder's
//! recursion over the *old* and the *re-weighted* core graph in lockstep,
//! driven by the stored tree instead of fresh balanced cuts:
//!
//! * at each node it rebuilds both children's shortcut-enhanced subgraphs
//!   (the old one reproduces the original build exactly, because
//!   `add_shortcuts` is a pure, order-independent function of the subgraph
//!   and the cut);
//! * a child whose old and new subgraph coincide as weighted graphs heads a
//!   **clean subtree**: every label array below it is copied verbatim from
//!   the old index, and the recursion stops;
//! * a dirty node re-runs the per-node labelling (`label_node`) on the new
//!   subgraph for *all* its subgraph vertices, so all arrays at one tree
//!   level come from one ranking — positional hub identity stays
//!   consistent between fresh and copied arrays.
//!
//! A single edge update dirties one root-to-leaf spine (the weight change
//! must reach a subgraph for its labels to change); the sibling subtrees
//! hanging off that spine are copied. The expensive parts of a full build —
//! the balanced cuts (max-flow) at every node and the labelling of every
//! clean node — are skipped entirely.
//!
//! **Why the walk polices the shortcut topology.** A node's stored cut
//! separates its two partitions *in the shortcut-enhanced subgraph the cut
//! was computed on*. The single-array query scan is exact only because of
//! that separation: every shortest path between the partitions crosses the
//! cut. A new metric can make `add_shortcuts` emit a border pair the
//! original build did not have — an excursion through an ancestor's cut
//! that only now became a shortest path — and such an edge may *cross* a
//! stored descendant cut, silently breaking the separation (the query
//! would overestimate). The walk therefore verifies, at every dirty node,
//! that the re-derived shortcut set stays within the built topology
//! (fewer edges can never un-separate a vertex cut) and reports
//! [`RelabelUnsupported::ShortcutTopologyChanged`] otherwise, exactly like
//! a customizable CH falls back when its fixed fill-in no longer covers
//! the metric. Labels are only swapped in after the whole walk succeeds,
//! so a bounced batch leaves the index untouched.
//!
//! The tree is read from the stored per-vertex bitstrings the query path
//! takes its LCA levels from, so a loaded index relabels like a built one:
//! a node's cut is the subgraph vertices whose bitstring *is* the node, a
//! child's part the vertices below `node.child(side)`, and a node whose cut
//! is its whole subgraph is a leaf.
//!
//! Preconditions (checked, reported as a typed error so callers can fall
//! back to a rebuild): the graph must contract to the core the index was
//! built on, and every updated edge must connect two *core* vertices — an
//! update under the degree-one contraction would change the contraction
//! columns themselves.

use hc2l::frozen::NO_VERTEX;
use hc2l::node_build::label_node;
use hc2l::{FrozenHc2l, Hc2lIndex, LevelLabelsBuilder};
use hc2l_cut::{add_shortcuts, NodeId};
use hc2l_graph::{contract_degree_one, dijkstra, Distance, Graph, InducedSubgraph, Vertex};

use crate::update::WeightUpdate;

/// Why the incremental HC2L path cannot absorb a batch; the caller should
/// rebuild instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelabelUnsupported {
    /// The graph's core (after the degree-one contraction) is not the one
    /// the index's core-id column records: the index was built for another
    /// graph.
    CoreMismatch,
    /// An update endpoint was removed by the degree-one contraction.
    ContractedEndpoint,
    /// An update names an edge the core graph does not have.
    MissingCoreEdge,
    /// The new metric needs a shortcut the original build's subgraphs do
    /// not contain; it could cross a stored cut, so the fixed hierarchy
    /// can no longer answer exactly.
    ShortcutTopologyChanged,
    /// The new metric needs a shortcut longer than a `u32` edge weight can
    /// hold; a fresh build stops bisecting above it instead.
    ShortcutOverflow,
}

impl std::fmt::Display for RelabelUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RelabelUnsupported::CoreMismatch => "graph core differs from the index's core-id map",
            RelabelUnsupported::ContractedEndpoint => {
                "update endpoint was contracted away (degree-one tree)"
            }
            RelabelUnsupported::MissingCoreEdge => "updated edge is not a core edge",
            RelabelUnsupported::ShortcutTopologyChanged => {
                "new metric requires shortcuts outside the built topology"
            }
            RelabelUnsupported::ShortcutOverflow => {
                "new metric requires a shortcut longer than u32::MAX"
            }
        })
    }
}

/// Patches the label arrays of `index` for a weight-update batch, keeping
/// the hierarchy fixed. `old_graph` must be the graph the index currently
/// answers for (*before* the batch); `updates` should contain only updates
/// that name existing edges of it (pre-filter with
/// [`crate::apply_batch`] on a scratch clone).
///
/// On success the index answers exactly for the re-weighted graph (gated in
/// this crate's tests). On [`RelabelUnsupported`] the index is untouched.
pub fn update_hc2l(
    index: &mut Hc2lIndex,
    old_graph: &Graph,
    updates: &[WeightUpdate],
) -> Result<(), RelabelUnsupported> {
    let config = *index.config();
    let n = old_graph.num_vertices();

    // Reconstruct the core subgraph exactly as `Hc2lIndex::build` does, so
    // local/core ids line up with the stored bitstrings and labels.
    let contraction = if config.contract_degree_one {
        Some(contract_degree_one(old_graph))
    } else {
        None
    };
    let core_vertices: Vec<Vertex> = match &contraction {
        Some(c) => (0..n as Vertex).filter(|&v| !c.is_contracted(v)).collect(),
        None => (0..n as Vertex).collect(),
    };

    // The stored core-id column is authoritative: the recomputed core must
    // be exactly the one it records, or the walk would index another
    // graph's labels.
    let frozen = index.frozen();
    let core_id = frozen.id_parts().1;
    let same_core = core_id.len() == n
        && core_vertices.len() == frozen.num_core_vertices()
        && (0..)
            .zip(&core_vertices)
            .all(|(c, &v)| core_id[v as usize] == c);
    if !same_core {
        return Err(RelabelUnsupported::CoreMismatch);
    }
    let core_graph_source = contraction.as_ref().map(|c| &c.core).unwrap_or(old_graph);
    let old_core = InducedSubgraph::new(core_graph_source, &core_vertices).graph;

    // Map the batch into core ids and bounce anything the incremental path
    // cannot express.
    let mut new_core = old_core.clone();
    for up in updates {
        let (cu, cv) = match (
            core_id.get(up.u as usize).copied(),
            core_id.get(up.v as usize).copied(),
        ) {
            (Some(cu), Some(cv)) => (cu, cv),
            _ => return Err(RelabelUnsupported::MissingCoreEdge),
        };
        if cu == NO_VERTEX || cv == NO_VERTEX {
            return Err(RelabelUnsupported::ContractedEndpoint);
        }
        if !new_core.set_edge_weight(cu, cv, up.new_weight) {
            return Err(RelabelUnsupported::MissingCoreEdge);
        }
    }

    let mut relabel = Relabel {
        old: frozen,
        tail_pruning: config.tail_pruning,
        labels: LevelLabelsBuilder::new(old_core.num_vertices()),
    };
    let map: Vec<Vertex> = (0..old_core.num_vertices() as Vertex).collect();
    relabel.recurse(NodeId::ROOT, old_core, new_core, map)?;
    let labels = relabel.labels.freeze();
    index.replace_labels(labels);
    Ok(())
}

/// State of the lockstep walk: the old frozen index (its bitstrings are the
/// fixed hierarchy, its label arena what the clean-copy path reads), and
/// the builder the new arena accumulates into.
struct Relabel<'a> {
    old: &'a FrozenHc2l,
    tail_pruning: bool,
    labels: LevelLabelsBuilder,
}

impl Relabel<'_> {
    /// Walks tree node `node`, whose subgraph under the old metric is
    /// `old_sub` and under the new metric is `new_sub` (identical topology
    /// and local-id space; `map` translates local ids to core ids).
    fn recurse(
        &mut self,
        node: NodeId,
        old_sub: Graph,
        new_sub: Graph,
        map: Vec<Vertex>,
    ) -> Result<(), RelabelUnsupported> {
        // A subtree whose shortcut-enhanced subgraph is untouched keeps
        // every one of its label arrays: copy and stop descending.
        if graphs_equal(&old_sub, &new_sub) {
            let old_labels = self.old.labels();
            for &core_v in &map {
                for level in node.level() as usize..old_labels.num_levels(core_v) {
                    self.labels
                        .push_level(core_v, old_labels.level_array(core_v, level));
                }
            }
            return Ok(());
        }

        // Dirty: re-label this node on the new metric. Its cut is the
        // vertices mapped to it; a leaf (including a degenerate-cut
        // pseudo-leaf) holds every vertex of its subgraph.
        let n = old_sub.num_vertices();
        let cut_local: Vec<Vertex> = (0..n as Vertex)
            .filter(|&l| self.old.bits_of(map[l as usize]) == node)
            .collect();
        let labelling = label_node(&new_sub, &cut_local, self.tail_pruning, 1);
        for (local, array) in labelling.arrays.iter().enumerate() {
            self.labels.push_level(map[local], array);
        }
        if cut_local.len() == n {
            return Ok(());
        }

        // The old children must reproduce the original build's subgraphs:
        // same subgraph, same cut set, and `add_shortcuts` is independent of
        // the cut order — plain per-cut-vertex Dijkstra distances feed it.
        let old_cut_dists: Vec<Vec<Distance>> =
            cut_local.iter().map(|&c| dijkstra(&old_sub, c)).collect();

        for child in [node.child(false), node.child(true)] {
            let part: Vec<Vertex> = (0..n as Vertex)
                .filter(|&l| child.is_ancestor_of(self.old.bits_of(map[l as usize])))
                .collect();
            if part.is_empty() {
                continue;
            }
            let (old_child, old_pairs) =
                child_subgraph(&old_sub, &cut_local, &part, &old_cut_dists)?;
            let (new_child, new_pairs) = child_subgraph(
                &new_sub,
                &labelling.ordered_cut,
                &part,
                &labelling.cut_distances,
            )?;
            // Every shortcut the new metric needs must already be an edge
            // of the built child (a base edge or an original shortcut);
            // otherwise it could cross a stored cut further down and the
            // single-array scan would stop being exact.
            for &(u, v) in &new_pairs {
                if !old_pairs.contains(&(u, v)) && old_sub.edge_weight(u, v).is_none() {
                    return Err(RelabelUnsupported::ShortcutTopologyChanged);
                }
            }
            let child_map: Vec<Vertex> = part.iter().map(|&l| map[l as usize]).collect();
            self.recurse(child, old_child, new_child, child_map)?;
        }
        Ok(())
    }
}

/// Rebuilds one child's shortcut-enhanced subgraph the way the builder
/// does, also returning the emitted shortcut pairs (parent-local ids,
/// normalised `u < v`) for the topology-stability check. A shortcut that
/// does not fit a `u32` edge weight bounces the batch, so the oracle
/// rebuilds, and the fresh build stops bisecting above it.
fn child_subgraph(
    sub: &Graph,
    cut: &[Vertex],
    part: &[Vertex],
    cut_distances: &[Vec<Distance>],
) -> Result<(Graph, std::collections::HashSet<(Vertex, Vertex)>), RelabelUnsupported> {
    let shortcuts = add_shortcuts(sub, cut, part, cut_distances);
    let mut child = InducedSubgraph::new(sub, part);
    let mut pairs = std::collections::HashSet::with_capacity(shortcuts.len());
    for s in &shortcuts {
        let weight = u32::try_from(s.weight).map_err(|_| RelabelUnsupported::ShortcutOverflow)?;
        child.add_shortcut_parent_ids(s.u, s.v, weight);
        pairs.insert((s.u.min(s.v), s.u.max(s.v)));
    }
    Ok((child.graph, pairs))
}

/// Weighted-graph equality as *edge sets* — the two graphs were built by
/// the same code path over the same vertex order, but shortcut insertion
/// order may differ, so adjacency lists are compared sorted.
fn graphs_equal(a: &Graph, b: &Graph) -> bool {
    if a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges() {
        return false;
    }
    let mut ea = Vec::new();
    let mut eb = Vec::new();
    for v in 0..a.num_vertices() as Vertex {
        ea.clear();
        eb.clear();
        ea.extend(a.neighbors(v).iter().map(|e| (e.to, e.weight)));
        eb.extend(b.neighbors(v).iter().map(|e| (e.to, e.weight)));
        if ea.len() != eb.len() {
            return false;
        }
        ea.sort_unstable();
        eb.sort_unstable();
        if ea != eb {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l::Hc2lConfig;
    use hc2l_graph::toy::{grid_graph, paper_figure1};
    use hc2l_graph::GraphBuilder;

    fn weighted_grid(rows: usize, cols: usize) -> Graph {
        let mut b = GraphBuilder::new(0);
        for (u, v, _) in grid_graph(rows, cols).edges() {
            b.add_edge(u, v, 1 + ((u * 7 + v * 13) % 9));
        }
        b.build()
    }

    fn assert_all_pairs_exact(g: &Graph, index: &Hc2lIndex) {
        for s in 0..g.num_vertices() as Vertex {
            let dist = dijkstra(g, s);
            for t in 0..g.num_vertices() as Vertex {
                assert_eq!(
                    index.query(s, t),
                    dist[t as usize],
                    "HC2L query ({s}, {t}) diverges after relabel"
                );
            }
        }
    }

    /// Applies a batch through the incremental path; when the walk bounces
    /// the batch (topology changed), rebuilds — the exact contract the
    /// oracle layer implements. Returns whether the incremental path ran.
    fn relabelled(
        g0: &Graph,
        updates: &[WeightUpdate],
        cfg: Hc2lConfig,
    ) -> (Graph, Hc2lIndex, bool) {
        let mut index = Hc2lIndex::build(g0, cfg);
        let mut g = g0.clone();
        let (applied, rejected) = crate::apply_batch(&mut g, updates);
        assert_eq!(rejected, 0);
        assert_eq!(applied, updates.len());
        match update_hc2l(&mut index, g0, updates) {
            Ok(()) => (g, index, true),
            Err(RelabelUnsupported::ShortcutTopologyChanged) => {
                let rebuilt = Hc2lIndex::build(&g, cfg);
                (g, rebuilt, false)
            }
            Err(e) => panic!("unexpected relabel error: {e}"),
        }
    }

    #[test]
    fn empty_batch_is_a_no_op_relabel() {
        let g = paper_figure1();
        let (g2, index, incremental) = relabelled(&g, &[], Hc2lConfig::default());
        assert!(incremental, "an empty batch must never bounce");
        assert_all_pairs_exact(&g2, &index);
    }

    #[test]
    fn single_increase_stays_exact() {
        let g = weighted_grid(6, 7);
        let (u, v, w) = g.edges().next().unwrap();
        let ups = [WeightUpdate::new(u, v, w * 10 + 3)];
        let (g2, index, incremental) = relabelled(&g, &ups, Hc2lConfig::default());
        assert!(incremental, "this increase stays within the built topology");
        assert_all_pairs_exact(&g2, &index);
    }

    #[test]
    fn mixed_batch_stays_exact_across_configs() {
        let g = weighted_grid(6, 6);
        let edges: Vec<_> = g.edges().collect();
        let ups: Vec<WeightUpdate> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 == 0)
            .map(|(i, &(u, v, w))| {
                // Mostly increases, a few recoveries — the live-traffic mix.
                let nw = if i % 8 == 0 { w * 6 + 2 } else { 1 };
                WeightUpdate::new(u, v, nw)
            })
            .collect();
        for cfg in [
            Hc2lConfig::default(),
            Hc2lConfig::default().without_tail_pruning(),
            Hc2lConfig::default().without_contraction(),
        ] {
            let (g2, index, _) = relabelled(&g, &ups, cfg);
            assert_all_pairs_exact(&g2, &index);
        }
    }

    #[test]
    fn repeated_batches_compose() {
        let g0 = weighted_grid(5, 6);
        let mut index = Hc2lIndex::build(&g0, Hc2lConfig::default());
        let mut g = g0.clone();
        for round in 0..3u32 {
            let edges: Vec<_> = g.edges().collect();
            let ups: Vec<WeightUpdate> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i as u32 + round).is_multiple_of(5))
                .map(|(i, &(u, v, _))| {
                    WeightUpdate::new(u, v, 1 + ((i as u32 * 13 + round * 7) % 40))
                })
                .collect();
            let old = g.clone();
            let (applied, _) = crate::apply_batch(&mut g, &ups);
            assert_eq!(applied, ups.len());
            match update_hc2l(&mut index, &old, &ups) {
                Ok(()) => {}
                Err(RelabelUnsupported::ShortcutTopologyChanged) => {
                    index = Hc2lIndex::build(&g, Hc2lConfig::default());
                }
                Err(e) => panic!("unexpected relabel error: {e}"),
            }
            assert_all_pairs_exact(&g, &index);
        }
    }

    #[test]
    fn topology_change_is_bounced_never_silently_wrong() {
        // A large single increase in the middle of a 6x6 grid re-routes
        // shortest paths around a stored cut; the walk must either absorb it
        // exactly or bounce it with the typed error, leaving the index
        // untouched — a silently wrong answer is the one forbidden outcome.
        let g = weighted_grid(6, 6);
        let edges: Vec<_> = g.edges().collect();
        let (u, v, w) = edges[edges.len() / 2];
        let ups = [WeightUpdate::new(u, v, w * 6 + 2)];
        let mut index = Hc2lIndex::build(&g, Hc2lConfig::default());
        let before = index.query(0, 35);
        let mut g2 = g.clone();
        crate::apply_batch(&mut g2, &ups);
        match update_hc2l(&mut index, &g, &ups) {
            Ok(()) => assert_all_pairs_exact(&g2, &index),
            Err(RelabelUnsupported::ShortcutTopologyChanged) => {
                assert_eq!(
                    index.query(0, 35),
                    before,
                    "bounced batch must not touch the index"
                );
            }
            Err(e) => panic!("unexpected relabel error: {e}"),
        }
    }

    #[test]
    fn rerouting_increase_bounces_with_the_index_untouched() {
        // On the 3x3 grid, each of these single increases changes which
        // shortcuts the stored hierarchy needs, so the walk must refuse the
        // batch with the typed error rather than relabel on a stale
        // topology.
        let g = weighted_grid(3, 3);
        let index0 = Hc2lIndex::build(&g, Hc2lConfig::default());
        let before = format!("{index0:?}");
        for (u, v, old, new) in [(0, 3, 4, 26), (3, 4, 2, 14), (3, 6, 1, 25)] {
            assert_eq!(g.edge_weight(u, v), Some(old));
            let mut index = index0.clone();
            assert_eq!(
                update_hc2l(&mut index, &g, &[WeightUpdate::new(u, v, new)]),
                Err(RelabelUnsupported::ShortcutTopologyChanged),
                "({u}, {v}) {old} -> {new}"
            );
            assert_eq!(
                format!("{index:?}"),
                before,
                "a bounced batch touched the index"
            );
            assert_all_pairs_exact(&g, &index);
        }
    }

    #[test]
    fn contracted_endpoint_is_reported_for_fallback() {
        // A pendant chain off a grid: its edges are contracted away.
        let mut b = GraphBuilder::new(0);
        for (u, v, w) in grid_graph(4, 4).edges() {
            b.add_edge(u, v, w);
        }
        b.add_edge(5, 16, 2);
        b.add_edge(16, 17, 3);
        let g = b.build();
        let mut index = Hc2lIndex::build(&g, Hc2lConfig::default());
        let before = index.query(0, 17);
        let err = update_hc2l(&mut index, &g, &[WeightUpdate::new(16, 17, 9)]);
        assert_eq!(err, Err(RelabelUnsupported::ContractedEndpoint));
        // The index is untouched on failure.
        assert_eq!(index.query(0, 17), before);
    }

    #[test]
    fn a_graph_with_another_core_is_reported_for_fallback() {
        // An index asked to relabel for a graph it was not built on must
        // bounce with the typed error, never index past its own columns.
        for (built_rows, graph_rows) in [(6, 7), (7, 6)] {
            let index0 = Hc2lIndex::build(&weighted_grid(built_rows, 7), Hc2lConfig::default());
            let g = weighted_grid(graph_rows, 7);
            let (u, v, w) = g.edges().next().unwrap();
            let mut index = index0.clone();
            assert_eq!(
                update_hc2l(&mut index, &g, &[WeightUpdate::new(u, v, w + 5)]),
                Err(RelabelUnsupported::CoreMismatch),
                "{built_rows}x7 index, {graph_rows}x7 graph"
            );
            assert_eq!(format!("{index:?}"), format!("{index0:?}"));
        }
    }

    #[test]
    fn relabel_is_faster_than_rebuild() {
        let g0 = weighted_grid(24, 24);
        let mut index = Hc2lIndex::build(&g0, Hc2lConfig::default());
        let (u, v, w) = g0.edges().next().unwrap();
        let ups = [WeightUpdate::new(u, v, w + 50)];
        let mut g = g0.clone();
        crate::apply_batch(&mut g, &ups);
        let t0 = std::time::Instant::now();
        update_hc2l(&mut index, &g0, &ups).expect("incremental path must apply");
        let incremental = t0.elapsed();
        let t1 = std::time::Instant::now();
        let rebuilt = Hc2lIndex::build(&g, Hc2lConfig::default());
        let rebuild = t1.elapsed();
        assert!(
            incremental < rebuild,
            "relabel ({incremental:?}) is not faster than a rebuild ({rebuild:?})"
        );
        let dist = dijkstra(&g, u);
        for t in (0..g.num_vertices() as Vertex).step_by(41) {
            assert_eq!(index.query(u, t), dist[t as usize]);
            assert_eq!(rebuilt.query(u, t), dist[t as usize]);
        }
    }

    #[test]
    fn overflowing_shortcut_bounces_with_the_index_untouched() {
        // Scaling every weight by 2^28 keeps every shortest path, so the
        // shortcut topology stays the same, but some shortcut now exceeds
        // u32::MAX. The walk must bounce the batch rather than insert a
        // clamped (too short) shortcut; the rebuild it falls back to stays
        // exact.
        let g = weighted_grid(6, 6);
        let ups: Vec<WeightUpdate> = g
            .edges()
            .map(|(u, v, w)| WeightUpdate::new(u, v, w << 28))
            .collect();
        let index0 = Hc2lIndex::build(&g, Hc2lConfig::default());
        let mut index = index0.clone();
        assert_eq!(
            update_hc2l(&mut index, &g, &ups),
            Err(RelabelUnsupported::ShortcutOverflow)
        );
        assert_eq!(
            format!("{index:?}"),
            format!("{index0:?}"),
            "a bounced batch touched the index"
        );
        let mut g2 = g.clone();
        crate::apply_batch(&mut g2, &ups);
        assert_all_pairs_exact(&g2, &Hc2lIndex::build(&g2, Hc2lConfig::default()));
    }
}
