//! [`DistanceOracle`] implementations for every backend index type.
//!
//! Besides construction and querying, every backend wires
//! [`DistanceOracle::save`] and [`DistanceOracle::index_bytes`] to its
//! `PersistentIndex` implementation, so `index_bytes` reports the exact
//! on-disk container size `save` produces.

use std::path::Path;

use hc2l::Hc2lIndex;
use hc2l_ch::ContractionHierarchy;
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

impl DistanceOracle for Hc2lIndex {
    fn build(g: &Graph, config: &OracleConfig) -> Self {
        hc2l_obs::phase::time("build", || Hc2lIndex::build(g, config.hc2l))
    }

    fn name(&self) -> &'static str {
        "HC2L"
    }

    fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        self.query(s, t)
    }

    fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        self.query_with_stats(s, t)
    }

    fn one_to_many(&self, s: Vertex, targets: &[Vertex]) -> Vec<Distance> {
        Hc2lIndex::one_to_many(self, s, targets)
    }

    fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        Hc2lIndex::one_to_many_into(self, s, targets, out)
    }

    fn method(&self) -> Method {
        Method::Hc2l
    }

    /// HC2L: relabel over the fixed tree hierarchy; falls back to a rebuild
    /// when the walk reports the batch as unsupported (loaded index,
    /// contracted endpoint, or a metric that needs new shortcut topology).
    fn apply_updates(&mut self, graph: &mut Graph, updates: &[WeightUpdate]) -> UpdateReport {
        let start = std::time::Instant::now();
        let (valid, rejected) = partition_valid(graph, updates);
        let relabelled = update_hc2l(self, graph, &valid).is_ok();
        let (applied, _) = apply_batch(graph, &valid);
        let strategy = if relabelled {
            UpdateStrategy::Hc2lRelabel
        } else {
            *self = Hc2lIndex::build(graph, *self.config());
            UpdateStrategy::Rebuild
        };
        UpdateReport {
            strategy,
            applied,
            rejected,
            micros: start.elapsed().as_micros() as u64,
        }
    }

    fn save(&self, path: &Path) -> Result<(), PersistError> {
        PersistentIndex::save_to(self, path)
    }

    fn label_bytes(&self) -> usize {
        self.stats().label_bytes
    }

    fn lca_bytes(&self) -> usize {
        self.stats().lca_bytes
    }

    fn index_bytes(&self) -> usize {
        PersistentIndex::serialized_bytes(self)
    }

    fn construction_seconds(&self) -> f64 {
        self.construction_stats().seconds
    }

    fn tree_height(&self) -> Option<u32> {
        Some(self.stats().hierarchy.height)
    }

    fn max_width(&self) -> Option<usize> {
        Some(self.stats().hierarchy.max_cut_size)
    }
}

impl DistanceOracle for ContractionHierarchy {
    fn build(g: &Graph, _config: &OracleConfig) -> Self {
        hc2l_obs::phase::time("build", || ContractionHierarchy::build(g))
    }

    fn name(&self) -> &'static str {
        "CH"
    }

    fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        self.query(s, t)
    }

    fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        self.query_with_stats(s, t)
    }

    fn method(&self) -> Method {
        Method::Ch
    }

    /// CH: re-contract over the fixed contraction order — all ordering
    /// work (the bulk of a build) is skipped. A drastic batch that would
    /// densify the replay past its fill-in or witness-search work budget
    /// falls back to a from-scratch rebuild, reported as such.
    fn apply_updates(&mut self, graph: &mut Graph, updates: &[WeightUpdate]) -> UpdateReport {
        let start = std::time::Instant::now();
        let (applied, rejected) = apply_batch(graph, updates);
        let strategy = if customize_ch(self, graph) {
            UpdateStrategy::ChCustomize
        } else {
            *self = ContractionHierarchy::build(graph);
            UpdateStrategy::Rebuild
        };
        UpdateReport {
            strategy,
            applied,
            rejected,
            micros: start.elapsed().as_micros() as u64,
        }
    }

    fn save(&self, path: &Path) -> Result<(), PersistError> {
        PersistentIndex::save_to(self, path)
    }

    fn label_bytes(&self) -> usize {
        self.memory_bytes()
    }

    fn index_bytes(&self) -> usize {
        PersistentIndex::serialized_bytes(self)
    }

    fn construction_seconds(&self) -> f64 {
        self.construction_seconds
    }
}

impl DistanceOracle for H2hIndex {
    fn build(g: &Graph, _config: &OracleConfig) -> Self {
        hc2l_obs::phase::time("build", || H2hIndex::build(g))
    }

    fn name(&self) -> &'static str {
        "H2H"
    }

    fn method(&self) -> Method {
        Method::H2h
    }

    fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        self.query(s, t)
    }

    fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        self.query_with_stats(s, t)
    }

    fn one_to_many(&self, s: Vertex, targets: &[Vertex]) -> Vec<Distance> {
        H2hIndex::one_to_many(self, s, targets)
    }

    fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        H2hIndex::one_to_many_into(self, s, targets, out)
    }

    fn save(&self, path: &Path) -> Result<(), PersistError> {
        PersistentIndex::save_to(self, path)
    }

    fn label_bytes(&self) -> usize {
        self.stats().label_bytes
    }

    fn lca_bytes(&self) -> usize {
        self.stats().lca_bytes
    }

    fn index_bytes(&self) -> usize {
        PersistentIndex::serialized_bytes(self)
    }

    fn construction_seconds(&self) -> f64 {
        self.construction_seconds
    }

    fn tree_height(&self) -> Option<u32> {
        Some(self.stats().tree_height)
    }

    fn max_width(&self) -> Option<usize> {
        Some(self.stats().max_bag_size)
    }
}

impl DistanceOracle for HubLabelIndex {
    fn build(g: &Graph, _config: &OracleConfig) -> Self {
        hc2l_obs::phase::time("build", || HubLabelIndex::build(g))
    }

    fn name(&self) -> &'static str {
        "HL"
    }

    fn method(&self) -> Method {
        Method::Hl
    }

    fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        self.query(s, t)
    }

    fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        self.query_with_stats(s, t)
    }

    fn one_to_many(&self, s: Vertex, targets: &[Vertex]) -> Vec<Distance> {
        HubLabelIndex::one_to_many(self, s, targets)
    }

    fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        HubLabelIndex::one_to_many_into(self, s, targets, out)
    }

    fn save(&self, path: &Path) -> Result<(), PersistError> {
        PersistentIndex::save_to(self, path)
    }

    fn label_bytes(&self) -> usize {
        self.stats().memory_bytes
    }

    fn index_bytes(&self) -> usize {
        PersistentIndex::serialized_bytes(self)
    }

    fn construction_seconds(&self) -> f64 {
        self.construction_seconds
    }
}

impl DistanceOracle for PhlIndex {
    fn build(g: &Graph, _config: &OracleConfig) -> Self {
        hc2l_obs::phase::time("build", || PhlIndex::build(g))
    }

    fn name(&self) -> &'static str {
        "PHL"
    }

    fn method(&self) -> Method {
        Method::Phl
    }

    fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        self.query(s, t)
    }

    fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        self.query_with_stats(s, t)
    }

    fn one_to_many(&self, s: Vertex, targets: &[Vertex]) -> Vec<Distance> {
        PhlIndex::one_to_many(self, s, targets)
    }

    fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        PhlIndex::one_to_many_into(self, s, targets, out)
    }

    fn save(&self, path: &Path) -> Result<(), PersistError> {
        PersistentIndex::save_to(self, path)
    }

    fn label_bytes(&self) -> usize {
        self.stats().memory_bytes
    }

    fn index_bytes(&self) -> usize {
        PersistentIndex::serialized_bytes(self)
    }

    fn construction_seconds(&self) -> f64 {
        self.construction_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::dijkstra_distance;
    use hc2l_graph::toy::paper_figure1;

    fn assert_exact<O: DistanceOracle>(g: &Graph, oracle: &O) {
        for s in 0..g.num_vertices() as Vertex {
            for t in 0..g.num_vertices() as Vertex {
                assert_eq!(
                    oracle.distance(s, t),
                    dijkstra_distance(g, s, t),
                    "{} wrong on ({s},{t})",
                    oracle.name()
                );
            }
        }
    }

    #[test]
    fn every_backend_type_is_exact_through_the_trait() {
        let g = paper_figure1();
        let config = OracleConfig::default();
        assert_exact(&g, &<Hc2lIndex as DistanceOracle>::build(&g, &config));
        assert_exact(
            &g,
            &<ContractionHierarchy as DistanceOracle>::build(&g, &config),
        );
        assert_exact(&g, &<H2hIndex as DistanceOracle>::build(&g, &config));
        assert_exact(&g, &<HubLabelIndex as DistanceOracle>::build(&g, &config));
        assert_exact(&g, &<PhlIndex as DistanceOracle>::build(&g, &config));
    }

    #[test]
    fn hc2l_name_ignores_thread_count() {
        let g = paper_figure1();
        let seq = <Hc2lIndex as DistanceOracle>::build(&g, &OracleConfig::default());
        let par_cfg = crate::OracleBuilder::new(Method::Hc2l).threads(4);
        let par = <Hc2lIndex as DistanceOracle>::build(&g, par_cfg.config());
        assert_eq!(par.config().threads, 4);
        assert_eq!(DistanceOracle::name(&par), "HC2L");
        assert_eq!(DistanceOracle::method(&par), Method::Hc2l);
        assert_exact(&g, &par);
        assert_eq!(
            PersistentIndex::serialized_bytes(&seq),
            PersistentIndex::serialized_bytes(&par)
        );
    }

    #[test]
    fn index_bytes_cover_labels_and_lca() {
        let g = paper_figure1();
        let config = OracleConfig::default();
        let hc2l = <Hc2lIndex as DistanceOracle>::build(&g, &config);
        assert!(hc2l.index_bytes() >= hc2l.label_bytes() + hc2l.lca_bytes());
        let ch = <ContractionHierarchy as DistanceOracle>::build(&g, &config);
        assert_eq!(ch.lca_bytes(), 0);
        // index_bytes is the exact container size: at least the queryable
        // arenas plus the fixed header.
        assert!(ch.index_bytes() >= DistanceOracle::label_bytes(&ch));
    }
}
