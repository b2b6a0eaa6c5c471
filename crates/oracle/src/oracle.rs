//! The [`Oracle`] enum: any built backend behind one concrete type.

use std::path::Path;

use hc2l::Hc2lIndex;
use hc2l_ch::ContractionHierarchy;
use hc2l_graph::container::{Container, ContainerWriter, DecodeError};
use hc2l_graph::{Distance, Graph, PersistError, PersistentIndex, QueryStats, Vertex};
use hc2l_h2h::H2hIndex;
use hc2l_hl::HubLabelIndex;
use hc2l_phl::PhlIndex;

use hc2l_dynamic::{UpdateReport, WeightUpdate};

use crate::builder::OracleConfig;
use crate::method::Method;
use crate::traits::DistanceOracle;

/// A built distance oracle of any backend.
///
/// `Oracle` implements [`DistanceOracle`] by delegating to the wrapped
/// index, so experiment runners hold `Vec<Oracle>` (or build one from a CLI
/// flag) without trait objects or per-backend match arms at call sites.
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

/// Delegates a method call to whichever backend the enum holds.
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
    /// Builds the backend selected by `config.method`.
    fn build(g: &Graph, config: &OracleConfig) -> Self {
        match config.method {
            Method::Hc2l => Oracle::Hc2l(DistanceOracle::build(g, config)),
            Method::Ch => Oracle::Ch(DistanceOracle::build(g, config)),
            Method::H2h => Oracle::H2h(DistanceOracle::build(g, config)),
            Method::Hl => Oracle::Hl(DistanceOracle::build(g, config)),
            Method::Phl => Oracle::Phl(DistanceOracle::build(g, config)),
        }
    }

    fn name(&self) -> &'static str {
        self.method().name()
    }

    fn method(&self) -> Method {
        Oracle::method(self)
    }

    /// Dispatches to the backend's incremental path (CH customization, the
    /// HC2L relabel) or the uniform rebuild fallback; the report says which
    /// strategy actually absorbed the batch.
    fn apply_updates(&mut self, graph: &mut Graph, updates: &[WeightUpdate]) -> UpdateReport {
        delegate!(self, inner => inner.apply_updates(graph, updates))
    }

    fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        delegate!(self, inner => inner.distance(s, t))
    }

    fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        delegate!(self, inner => inner.distance_with_stats(s, t))
    }

    fn one_to_many(&self, s: Vertex, targets: &[Vertex]) -> Vec<Distance> {
        delegate!(self, inner => inner.one_to_many(s, targets))
    }

    fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        delegate!(self, inner => inner.one_to_many_into(s, targets, out))
    }

    fn save(&self, path: &Path) -> Result<(), PersistError> {
        Oracle::save(self, path)
    }

    fn index_bytes(&self) -> usize {
        delegate!(self, inner => inner.index_bytes())
    }

    fn label_bytes(&self) -> usize {
        delegate!(self, inner => inner.label_bytes())
    }

    fn lca_bytes(&self) -> usize {
        delegate!(self, inner => inner.lca_bytes())
    }

    fn construction_seconds(&self) -> f64 {
        delegate!(self, inner => inner.construction_seconds())
    }

    fn tree_height(&self) -> Option<u32> {
        delegate!(self, inner => inner.tree_height())
    }

    fn max_width(&self) -> Option<usize> {
        delegate!(self, inner => inner.max_width())
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
            assert!(oracle.construction_seconds() >= 0.0);
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
                Method::Hc2l => assert!(
                    matches!(
                        report.strategy,
                        UpdateStrategy::Hc2lRelabel | UpdateStrategy::Rebuild
                    ),
                    "{method:?} reported {:?}",
                    report.strategy
                ),
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
        for s in 0..16u32 {
            for t in 0..16u32 {
                assert_eq!(seq.distance(s, t), par.distance(s, t));
            }
        }
    }
}
