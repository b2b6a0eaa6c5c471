//! The [`Oracle`] enum: any built backend behind one concrete type, and the
//! one place that dispatches build, query, update, size and persistence
//! calls to each backend's own API.

use std::path::Path;
use std::time::Instant;

use hc2l::Hc2lIndex;
use hc2l_ch::ContractionHierarchy;
use hc2l_graph::container::{Container, ContainerWriter, DecodeError};
use hc2l_graph::{Distance, Graph, PersistError, PersistentIndex, QueryStats, Vertex};
use hc2l_h2h::H2hIndex;
use hc2l_hl::HubLabelIndex;
use hc2l_phl::PhlIndex;

use hc2l_dynamic::{
    apply_batch, customize_ch, update_hc2l, UpdateReport, UpdateStrategy, WeightUpdate,
};

use crate::builder::OracleConfig;
use crate::method::Method;
use crate::traits::DistanceOracle;

/// A built distance oracle of any backend.
///
/// `Oracle` is the one implementor of [`DistanceOracle`]: each method
/// matches on the variant and calls the wrapped index's inherent API, so
/// experiment runners hold `Vec<Oracle>` (or build one from a CLI flag)
/// without trait objects or per-backend match arms at call sites.
#[derive(Debug, Clone)]
pub enum Oracle {
    /// Hierarchical Cut 2-Hop Labelling (sequential or parallel build).
    Hc2l(Hc2lIndex),
    /// Contraction Hierarchies.
    Ch(ContractionHierarchy),
    /// Hierarchical 2-Hop Index.
    H2h(H2hIndex),
    /// Hub Labelling.
    Hl(HubLabelIndex),
    /// Pruned Highway Labelling.
    Phl(PhlIndex),
}

/// Calls a method every backend has under the same name on whichever
/// backend the enum holds.
macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            Oracle::Hc2l($inner) => $body,
            Oracle::Ch($inner) => $body,
            Oracle::H2h($inner) => $body,
            Oracle::Hl($inner) => $body,
            Oracle::Phl($inner) => $body,
        }
    };
}

/// Splits a batch into updates that name a real edge of `graph` and the
/// rejected remainder, mirroring [`hc2l_dynamic::apply_batch`]'s rules.
fn partition_valid(graph: &Graph, updates: &[WeightUpdate]) -> (Vec<WeightUpdate>, usize) {
    let n = graph.num_vertices();
    let valid: Vec<WeightUpdate> = updates
        .iter()
        .filter(|up| {
            (up.u as usize) < n && (up.v as usize) < n && up.u != up.v && graph.has_edge(up.u, up.v)
        })
        .copied()
        .collect();
    let rejected = updates.len() - valid.len();
    (valid, rejected)
}

impl Oracle {
    /// The method this oracle was built with.
    pub fn method(&self) -> Method {
        match self {
            Oracle::Hc2l(_) => Method::Hc2l,
            Oracle::Ch(_) => Method::Ch,
            Oracle::H2h(_) => Method::H2h,
            Oracle::Hl(_) => Method::Hl,
            Oracle::Phl(_) => Method::Phl,
        }
    }

    /// Number of vertices of the indexed graph.
    pub fn num_vertices(&self) -> usize {
        delegate!(self, inner => inner.num_vertices())
    }

    /// Saves the oracle to a sectioned index-container file
    /// (`hc2l_graph::container`), stamping the method tag into the header.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        let mut w = ContainerWriter::new(self.method().tag());
        delegate!(self, inner => inner.write_sections(&mut w));
        w.write_to(path)
    }

    /// Loads an oracle from a container file, dispatching on the method tag
    /// stored in the header. Runs in milliseconds — no construction, just
    /// section decoding — and the loaded oracle answers bit-identically to
    /// the one that was saved.
    pub fn load(path: &Path) -> Result<Oracle, PersistError> {
        let c = Container::open(path)?;
        let method = Method::from_tag(c.method_tag()).ok_or(PersistError::Decode(
            DecodeError::UnknownMethod {
                tag: c.method_tag(),
            },
        ))?;
        Ok(match method {
            Method::Hc2l => Oracle::Hc2l(Hc2lIndex::read_sections(&c)?),
            Method::Ch => Oracle::Ch(ContractionHierarchy::read_sections(&c)?),
            Method::H2h => Oracle::H2h(H2hIndex::read_sections(&c)?),
            Method::Hl => Oracle::Hl(HubLabelIndex::read_sections(&c)?),
            Method::Phl => Oracle::Phl(PhlIndex::read_sections(&c)?),
        })
    }
}

impl DistanceOracle for Oracle {
    /// Builds the backend selected by `config.method`; HC2L reads
    /// `config.hc2l`, the baselines have no tunables.
    fn build(g: &Graph, config: &OracleConfig) -> Self {
        hc2l_obs::phase::time("build", || match config.method {
            Method::Hc2l => Oracle::Hc2l(Hc2lIndex::build(g, config.hc2l)),
            Method::Ch => Oracle::Ch(ContractionHierarchy::build(g)),
            Method::H2h => Oracle::H2h(H2hIndex::build(g)),
            Method::Hl => Oracle::Hl(HubLabelIndex::build(g)),
            Method::Phl => Oracle::Phl(PhlIndex::build(g)),
        })
    }

    fn name(&self) -> &'static str {
        self.method().name()
    }

    fn method(&self) -> Method {
        Oracle::method(self)
    }

    /// Absorbs the batch with the backend's incremental path where it has
    /// one; the report says which strategy actually absorbed it:
    ///
    /// * HC2L relabels over its fixed tree hierarchy, and rebuilds with the
    ///   index's own configuration when the walk bounces the batch (loaded
    ///   index, contracted endpoint, or a metric that needs new shortcut
    ///   topology);
    /// * CH re-contracts over its fixed contraction order, skipping all
    ///   ordering work; a batch that would densify the replay past its
    ///   fill-in or witness-search budget falls back to a rebuild;
    /// * H2H, HL and PHL rebuild from scratch on the re-weighted graph.
    fn apply_updates(&mut self, graph: &mut Graph, updates: &[WeightUpdate]) -> UpdateReport {
        let start = Instant::now();
        let (strategy, applied, rejected) = match self {
            Oracle::Hc2l(index) => {
                let (valid, rejected) = partition_valid(graph, updates);
                let relabelled = update_hc2l(index, graph, &valid).is_ok();
                let (applied, _) = apply_batch(graph, &valid);
                let strategy = if relabelled {
                    UpdateStrategy::Hc2lRelabel
                } else {
                    *index = Hc2lIndex::build(graph, *index.config());
                    UpdateStrategy::Rebuild
                };
                (strategy, applied, rejected)
            }
            Oracle::Ch(ch) => {
                let (applied, rejected) = apply_batch(graph, updates);
                let strategy = if customize_ch(ch, graph) {
                    UpdateStrategy::ChCustomize
                } else {
                    *ch = ContractionHierarchy::build(graph);
                    UpdateStrategy::Rebuild
                };
                (strategy, applied, rejected)
            }
            Oracle::H2h(_) | Oracle::Hl(_) | Oracle::Phl(_) => {
                let (applied, rejected) = apply_batch(graph, updates);
                *self = Oracle::build(graph, &OracleConfig::new(self.method()));
                (UpdateStrategy::Rebuild, applied, rejected)
            }
        };
        UpdateReport {
            strategy,
            applied,
            rejected,
            micros: start.elapsed().as_micros() as u64,
        }
    }

    fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        delegate!(self, inner => inner.query(s, t))
    }

    fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        delegate!(self, inner => inner.query_with_stats(s, t))
    }

    fn one_to_many(&self, s: Vertex, targets: &[Vertex]) -> Vec<Distance> {
        let mut out = Vec::new();
        self.one_to_many_into(s, targets, &mut out);
        out
    }

    /// The labelling backends amortise per-source work over the batch; CH
    /// has no batched kernel and runs one upward search per target.
    fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        match self {
            Oracle::Hc2l(index) => index.one_to_many_into(s, targets, out),
            Oracle::H2h(index) => index.one_to_many_into(s, targets, out),
            Oracle::Hl(index) => index.one_to_many_into(s, targets, out),
            Oracle::Phl(index) => index.one_to_many_into(s, targets, out),
            Oracle::Ch(ch) => {
                out.clear();
                out.extend(targets.iter().map(|&t| ch.query(s, t)));
            }
        }
    }

    fn save(&self, path: &Path) -> Result<(), PersistError> {
        Oracle::save(self, path)
    }

    fn index_bytes(&self) -> usize {
        delegate!(self, inner => PersistentIndex::serialized_bytes(inner))
    }

    fn label_bytes(&self) -> usize {
        match self {
            Oracle::Hc2l(index) => index.stats().label_bytes,
            Oracle::Ch(ch) => ch.memory_bytes(),
            Oracle::H2h(index) => index.stats().label_bytes,
            Oracle::Hl(index) => index.stats().memory_bytes,
            Oracle::Phl(index) => index.stats().memory_bytes,
        }
    }

    fn lca_bytes(&self) -> usize {
        match self {
            Oracle::Hc2l(index) => index.stats().lca_bytes,
            Oracle::H2h(index) => index.stats().lca_bytes,
            Oracle::Ch(_) | Oracle::Hl(_) | Oracle::Phl(_) => 0,
        }
    }

    fn tree_height(&self) -> Option<u32> {
        match self {
            Oracle::Hc2l(index) => Some(index.stats().hierarchy.height),
            Oracle::H2h(index) => Some(index.stats().tree_height),
            Oracle::Ch(_) | Oracle::Hl(_) | Oracle::Phl(_) => None,
        }
    }

    fn max_width(&self) -> Option<usize> {
        match self {
            Oracle::Hc2l(index) => Some(index.stats().hierarchy.max_cut_size),
            Oracle::H2h(index) => Some(index.stats().max_bag_size),
            Oracle::Ch(_) | Oracle::Hl(_) | Oracle::Phl(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OracleBuilder;
    use hc2l_dynamic::UpdateStrategy;
    use hc2l_graph::dijkstra_distance;
    use hc2l_graph::toy::paper_figure1;

    #[test]
    fn every_method_builds_and_answers_exactly() {
        let g = paper_figure1();
        for method in Method::ALL {
            let oracle = OracleBuilder::new(method).threads(2).build(&g);
            assert_eq!(oracle.method(), method);
            assert_eq!(oracle.name(), method.name());
            for &(s, t) in &[(0u32, 7u32), (2, 9), (13, 14), (5, 5), (3, 12)] {
                assert_eq!(
                    oracle.distance(s, t),
                    dijkstra_distance(&g, s, t),
                    "{} wrong on ({s},{t})",
                    oracle.name()
                );
            }
            assert!(
                oracle.index_bytes() > 0,
                "{} reports no bytes",
                oracle.name()
            );
        }
    }

    #[test]
    fn one_to_many_agrees_with_distance_for_every_method() {
        let g = paper_figure1();
        let targets: Vec<Vertex> = (0..16).collect();
        for method in Method::ALL {
            let oracle = OracleBuilder::new(method).threads(2).build(&g);
            for s in 0..16u32 {
                let batch = oracle.one_to_many(s, &targets);
                assert_eq!(batch.len(), targets.len());
                for (&t, &d) in targets.iter().zip(batch.iter()) {
                    assert_eq!(
                        d,
                        oracle.distance(s, t),
                        "{} one_to_many({s},{t})",
                        oracle.name()
                    );
                }
            }
        }
    }

    #[test]
    fn stats_surface_matches_method_capabilities() {
        let g = paper_figure1();
        let hc2l = OracleBuilder::new(Method::Hc2l).build(&g);
        assert!(hc2l.tree_height().is_some());
        assert!(hc2l.max_width().is_some());
        assert!(hc2l.lca_bytes() > 0);
        let hl = OracleBuilder::new(Method::Hl).build(&g);
        assert_eq!(hl.tree_height(), None);
        assert_eq!(hl.lca_bytes(), 0);
        let (d, stats) = hc2l.distance_with_stats(2, 9);
        assert_eq!(d, dijkstra_distance(&g, 2, 9));
        assert!(stats.hubs_scanned > 0);
    }

    #[test]
    fn apply_updates_keeps_every_method_exact() {
        use hc2l_dynamic::WeightUpdate;
        use hc2l_graph::dijkstra;

        let g0 = paper_figure1();
        let edges: Vec<_> = g0.edges().collect();
        let (u1, v1, w1) = edges[0];
        let (u2, v2, _) = edges[edges.len() - 1];
        let ups = [
            WeightUpdate::new(u1, v1, w1 * 4 + 3), // increase
            WeightUpdate::new(u2, v2, 1),          // decrease (or no-op)
            WeightUpdate::new(3, 3, 7),            // self loop: rejected
        ];
        for method in Method::ALL {
            let mut oracle = OracleBuilder::new(method).threads(2).build(&g0);
            let mut g = g0.clone();
            let report = oracle.apply_updates(&mut g, &ups);
            assert_eq!(report.applied, 2, "{method:?}");
            assert_eq!(report.rejected, 1, "{method:?}");
            match method {
                Method::Ch => assert_eq!(report.strategy, UpdateStrategy::ChCustomize),
                Method::Hc2l => assert_eq!(report.strategy, UpdateStrategy::Hc2lRelabel),
                _ => assert_eq!(report.strategy, UpdateStrategy::Rebuild, "{method:?}"),
            }
            // The graph carries the new weights and the oracle answers for
            // them exactly.
            assert_eq!(g.edge_weight(u1, v1), Some(w1 * 4 + 3));
            for s in 0..16u32 {
                let dist = dijkstra(&g, s);
                for t in 0..16u32 {
                    assert_eq!(
                        oracle.distance(s, t),
                        dist[t as usize],
                        "{method:?} wrong on ({s},{t}) after update"
                    );
                }
            }
        }
    }

    #[test]
    fn bounced_hc2l_relabel_falls_back_to_an_exact_rebuild() {
        use hc2l_dynamic::WeightUpdate;
        use hc2l_graph::toy::grid_graph;
        use hc2l_graph::{dijkstra, GraphBuilder};

        // The 3x3 grid of hc2l-dynamic's relabel tests, where raising edge
        // (0, 3) from 4 to 26 makes `update_hc2l` bounce the batch.
        let mut b = GraphBuilder::new(0);
        for (u, v, _) in grid_graph(3, 3).edges() {
            b.add_edge(u, v, 1 + ((u * 7 + v * 13) % 9));
        }
        let g0 = b.build();
        assert_eq!(g0.edge_weight(0, 3), Some(4));
        let mut oracle = OracleBuilder::new(Method::Hc2l).build(&g0);
        let mut g = g0.clone();
        let report = oracle.apply_updates(&mut g, &[WeightUpdate::new(0, 3, 26)]);
        assert_eq!(report.strategy, UpdateStrategy::Rebuild);
        assert_eq!((report.applied, report.rejected), (1, 0));
        for s in 0..9u32 {
            let dist = dijkstra(&g, s);
            for t in 0..9u32 {
                assert_eq!(oracle.distance(s, t), dist[t as usize], "({s},{t})");
            }
        }
    }

    #[test]
    fn loaded_hc2l_rebuilds_with_its_own_config() {
        use hc2l_dynamic::WeightUpdate;
        use hc2l_graph::dijkstra;
        use hc2l_graph::toy::grid_graph;

        // A loaded index has no hierarchy to relabel over, so the batch is
        // absorbed by a rebuild, which must keep the saved β.
        let g0 = grid_graph(6, 6);
        let built = OracleBuilder::new(Method::Hc2l).beta(0.3).build(&g0);
        let path = std::env::temp_dir().join(format!(
            "hc2l-oracle-loaded-rebuild-{}.hc2l",
            std::process::id()
        ));
        built.save(&path).unwrap();
        let mut oracle = Oracle::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut g = g0.clone();
        let (u, v, w) = g0.edges().next().unwrap();
        let report = oracle.apply_updates(&mut g, &[WeightUpdate::new(u, v, w + 5)]);
        assert_eq!(report.strategy, UpdateStrategy::Rebuild);
        assert_eq!((report.applied, report.rejected), (1, 0));
        let Oracle::Hc2l(index) = &oracle else {
            panic!("HC2L update produced {}", oracle.name());
        };
        assert_eq!(index.config().beta, 0.3);
        for s in 0..36u32 {
            let dist = dijkstra(&g, s);
            for t in 0..36u32 {
                assert_eq!(oracle.distance(s, t), dist[t as usize], "({s},{t})");
            }
        }
    }

    #[test]
    fn trait_method_accessor_matches_variant() {
        let g = paper_figure1();
        for method in Method::ALL {
            let oracle = OracleBuilder::new(method).threads(2).build(&g);
            assert_eq!(DistanceOracle::method(&oracle), method);
        }
    }

    #[test]
    fn repeated_update_batches_compose_through_the_oracle() {
        use hc2l_dynamic::WeightUpdate;
        use hc2l_graph::dijkstra;
        use hc2l_graph::toy::grid_graph;

        let g0 = grid_graph(6, 6);
        for method in [Method::Ch, Method::Hc2l] {
            let mut oracle = OracleBuilder::new(method).build(&g0);
            let mut g = g0.clone();
            for round in 1..4u32 {
                let ups: Vec<WeightUpdate> = g
                    .edges()
                    .enumerate()
                    .filter(|(i, _)| (*i as u32 + round).is_multiple_of(6))
                    .map(|(i, (u, v, _))| {
                        WeightUpdate::new(u, v, 1 + ((i as u32 + round * 11) % 20))
                    })
                    .collect();
                let report = oracle.apply_updates(&mut g, &ups);
                assert_eq!(report.rejected, 0);
                for s in (0..36u32).step_by(5) {
                    let dist = dijkstra(&g, s);
                    for t in 0..36u32 {
                        assert_eq!(
                            oracle.distance(s, t),
                            dist[t as usize],
                            "{method:?} round {round} wrong on ({s},{t})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_and_sequential_hc2l_produce_identical_indexes() {
        let g = paper_figure1();
        let seq = OracleBuilder::new(Method::Hc2l).build(&g);
        let par = OracleBuilder::new(Method::Hc2l).threads(4).build(&g);
        assert_eq!(par.method(), Method::Hc2l);
        assert_eq!(par.name(), "HC2L");
        assert_eq!(seq.label_bytes(), par.label_bytes());
        assert_eq!(seq.index_bytes(), par.index_bytes());
        for s in 0..16u32 {
            for t in 0..16u32 {
                assert_eq!(seq.distance(s, t), par.distance(s, t));
            }
        }
    }
}
