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
    /// * HC2L, built or loaded, relabels over the fixed tree hierarchy its
    ///   stored bitstrings encode, and rebuilds with the index's own
    ///   configuration when the walk bounces the batch (contracted
    ///   endpoint, or a metric that needs new shortcut topology);
    /// * CH re-contracts over its fixed contraction order, skipping all
    ///   ordering work; a batch that would densify the replay past its
    ///   fill-in or witness-search budget falls back to a rebuild;
    /// * H2H, HL and PHL rebuild from scratch on the re-weighted graph.
    ///
    /// A graph whose vertex count differs from the index's is not the one
    /// the index answers for: every backend rebuilds on it.
    fn apply_updates(&mut self, graph: &mut Graph, updates: &[WeightUpdate]) -> UpdateReport {
        let start = Instant::now();
        let same_graph = graph.num_vertices() == self.num_vertices();
        let (incremental, applied, rejected) = match self {
            Oracle::Hc2l(index) if same_graph => {
                let (valid, rejected) = partition_valid(graph, updates);
                let relabelled = update_hc2l(index, graph, &valid).is_ok();
                let (applied, _) = apply_batch(graph, &valid);
                (
                    relabelled.then_some(UpdateStrategy::Hc2lRelabel),
                    applied,
                    rejected,
                )
            }
            Oracle::Ch(ch) if same_graph => {
                let (applied, rejected) = apply_batch(graph, updates);
                let customized = customize_ch(ch, graph);
                (
                    customized.then_some(UpdateStrategy::ChCustomize),
                    applied,
                    rejected,
                )
            }
            _ => {
                let (applied, rejected) = apply_batch(graph, updates);
                (None, applied, rejected)
            }
        };
        let strategy = incremental.unwrap_or_else(|| {
            let mut config = OracleConfig::new(self.method());
            if let Oracle::Hc2l(index) = self {
                config.hc2l = *index.config();
            }
            *self = Oracle::build(graph, &config);
            UpdateStrategy::Rebuild
        });
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

    /// The weighted grid of hc2l-dynamic's relabel tests.
    fn weighted_grid(rows: usize, cols: usize) -> Graph {
        let mut b = hc2l_graph::GraphBuilder::new(0);
        for (u, v, _) in hc2l_graph::toy::grid_graph(rows, cols).edges() {
            b.add_edge(u, v, 1 + ((u * 7 + v * 13) % 9));
        }
        b.build()
    }

    /// `oracle` after a save → load round trip through a scratch file.
    fn reloaded(oracle: &Oracle, tag: &str) -> Oracle {
        let path =
            std::env::temp_dir().join(format!("hc2l-oracle-{tag}-{}.hc2l", std::process::id()));
        oracle.save(&path).unwrap();
        let loaded = Oracle::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        loaded
    }

    fn assert_all_pairs_exact(oracle: &Oracle, g: &Graph, what: &str) {
        assert_eq!(oracle.num_vertices(), g.num_vertices(), "{what}");
        for s in 0..g.num_vertices() as Vertex {
            let dist = hc2l_graph::dijkstra(g, s);
            for t in 0..g.num_vertices() as Vertex {
                assert_eq!(oracle.distance(s, t), dist[t as usize], "{what} ({s},{t})");
            }
        }
    }

    #[test]
    fn bounced_hc2l_relabel_falls_back_to_an_exact_rebuild() {
        use hc2l_dynamic::WeightUpdate;

        // The 3x3 grid of hc2l-dynamic's relabel tests, where raising edge
        // (0, 3) from 4 to 26 makes `update_hc2l` bounce the batch.
        let g0 = weighted_grid(3, 3);
        assert_eq!(g0.edge_weight(0, 3), Some(4));
        let mut oracle = OracleBuilder::new(Method::Hc2l).build(&g0);
        let mut g = g0.clone();
        let report = oracle.apply_updates(&mut g, &[WeightUpdate::new(0, 3, 26)]);
        assert_eq!(report.strategy, UpdateStrategy::Rebuild);
        assert_eq!((report.applied, report.rejected), (1, 0));
        assert_all_pairs_exact(&oracle, &g, "bounced batch");
    }

    #[test]
    fn loaded_hc2l_relabels() {
        use hc2l_dynamic::WeightUpdate;

        // The stored bitstrings are the whole hierarchy the walk needs, so
        // a loaded index absorbs a batch without a rebuild.
        let g0 = weighted_grid(6, 7);
        let built = OracleBuilder::new(Method::Hc2l).build(&g0);
        let mut oracle = reloaded(&built, "loaded-relabel");
        let mut g = g0.clone();
        let (u, v, w) = g0.edges().next().unwrap();
        let report = oracle.apply_updates(&mut g, &[WeightUpdate::new(u, v, w * 10 + 3)]);
        assert_eq!(report.strategy, UpdateStrategy::Hc2lRelabel);
        assert_eq!((report.applied, report.rejected), (1, 0));
        assert_all_pairs_exact(&oracle, &g, "loaded relabel");
    }

    #[test]
    fn bounced_batch_on_a_loaded_hc2l_rebuilds_with_its_own_config() {
        use hc2l_dynamic::WeightUpdate;

        // A batch that bounces off the 3x3 grid's β = 0.3 hierarchy
        // (raising edge (7, 8) from 1 to 26), on a loaded index: the
        // rebuild it falls back to must keep the saved β.
        let g0 = weighted_grid(3, 3);
        assert_eq!(g0.edge_weight(7, 8), Some(1));
        let built = OracleBuilder::new(Method::Hc2l).beta(0.3).build(&g0);
        let mut oracle = reloaded(&built, "loaded-rebuild");
        let mut g = g0.clone();
        let report = oracle.apply_updates(&mut g, &[WeightUpdate::new(7, 8, 26)]);
        assert_eq!(report.strategy, UpdateStrategy::Rebuild);
        assert_eq!((report.applied, report.rejected), (1, 0));
        let Oracle::Hc2l(index) = &oracle else {
            panic!("HC2L update produced {}", oracle.name());
        };
        assert_eq!(index.config().beta, 0.3);
        assert_all_pairs_exact(&oracle, &g, "loaded rebuild");
    }

    #[test]
    fn a_graph_of_another_vertex_count_is_absorbed_by_a_rebuild() {
        use hc2l_dynamic::WeightUpdate;

        // An index built for one grid fed a batch on a grid with one row
        // more or fewer: no incremental path can patch it, so every
        // backend, built or loaded, rebuilds on the graph it is given.
        for (index_rows, graph_rows) in [(6, 7), (7, 6)] {
            let g0 = weighted_grid(index_rows, 7);
            for method in [Method::Ch, Method::Hc2l] {
                let built = OracleBuilder::new(method).build(&g0);
                let loaded = reloaded(&built, "mismatch");
                for (form, mut oracle) in [("built", built), ("loaded", loaded)] {
                    let what = format!("{method:?} {form} {index_rows}x7 on {graph_rows}x7");
                    let mut g = weighted_grid(graph_rows, 7);
                    let (u, v, w) = g.edges().next().unwrap();
                    let report = oracle.apply_updates(&mut g, &[WeightUpdate::new(u, v, w + 5)]);
                    assert_eq!(report.strategy, UpdateStrategy::Rebuild, "{what}");
                    assert_eq!((report.applied, report.rejected), (1, 0), "{what}");
                    assert_eq!(oracle.method(), method, "{what}");
                    assert_all_pairs_exact(&oracle, &g, &what);
                }
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
