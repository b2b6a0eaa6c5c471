//! The unified-API contract suite: every [`Method`] is built over the
//! paper's Figure 1 network and a small synthetic city, exclusively through
//! the [`DistanceOracle`] interface, and must agree with Dijkstra on all
//! pairs — pointwise, with instrumentation, and through the batched
//! `one_to_many` entry point.

use hc2l_graph::toy::paper_figure1;
use hc2l_graph::{dijkstra, Graph, Vertex, INFINITY};
use hc2l_oracle::{DistanceOracle, Method, Oracle, OracleBuilder, OracleConfig};
use hc2l_roadnet::{RoadNetworkConfig, WeightMode};

fn small_city() -> Graph {
    RoadNetworkConfig::city(9, 9, 5)
        .generate()
        .graph(WeightMode::Distance)
}

fn assert_all_pairs_through_trait(g: &Graph, oracle: &impl DistanceOracle) {
    let n = g.num_vertices() as Vertex;
    let targets: Vec<Vertex> = (0..n).collect();
    for s in 0..n {
        let expected = dijkstra(g, s);
        let batch = oracle.one_to_many(s, &targets);
        assert_eq!(batch.len(), targets.len());
        for t in 0..n {
            let want = expected[t as usize];
            assert_eq!(
                oracle.distance(s, t),
                want,
                "{}: distance({s},{t})",
                oracle.name()
            );
            let (d, stats) = oracle.distance_with_stats(s, t);
            assert_eq!(d, want, "{}: distance_with_stats({s},{t})", oracle.name());
            if s != t && want < INFINITY {
                assert!(
                    stats.hubs_scanned > 0 || stats.lca_level.is_none(),
                    "{}: reachable query ({s},{t}) reported no work at a hierarchy level",
                    oracle.name()
                );
            }
            assert_eq!(
                batch[t as usize],
                want,
                "{}: one_to_many({s},{t})",
                oracle.name()
            );
        }
    }
}

#[test]
fn every_method_is_exact_on_the_paper_example() {
    let g = paper_figure1();
    for method in Method::ALL {
        let oracle = OracleBuilder::new(method).threads(2).build(&g);
        assert_eq!(oracle.method(), method);
        assert_all_pairs_through_trait(&g, &oracle);
    }
}

#[test]
fn every_method_is_exact_on_a_synthetic_city() {
    let g = small_city();
    for method in Method::ALL {
        let oracle = OracleBuilder::new(method).threads(2).build(&g);
        assert_all_pairs_through_trait(&g, &oracle);
    }
}

#[test]
fn oracle_enum_builds_from_a_config_value() {
    let g = paper_figure1();
    for method in Method::ALL {
        let config = OracleConfig::new(method);
        let oracle = Oracle::build(&g, &config);
        assert_eq!(oracle.method(), method);
        assert_eq!(oracle.name(), method.name());
        assert_eq!(oracle.distance(13, 14), 3); // Example 4.20
    }
}

#[test]
fn reporting_surface_is_populated_per_method() {
    let g = small_city();
    for method in Method::ALL {
        let oracle = OracleBuilder::new(method).threads(2).build(&g);
        assert!(
            oracle.index_bytes() > 0,
            "{}: no index bytes",
            oracle.name()
        );
        assert!(oracle.index_bytes() >= oracle.label_bytes() + oracle.lca_bytes());
        match method {
            Method::Hc2l | Method::H2h => {
                assert!(
                    oracle.tree_height().is_some(),
                    "{}: no height",
                    oracle.name()
                );
                assert!(oracle.max_width().is_some());
                assert!(oracle.lca_bytes() > 0);
            }
            Method::Phl | Method::Hl | Method::Ch => {
                assert_eq!(oracle.tree_height(), None);
                assert_eq!(oracle.lca_bytes(), 0);
            }
        }
    }
}

#[test]
fn hub_scan_counts_reproduce_the_papers_contrast() {
    // HC2L examines far fewer label entries per query than full-label-scan
    // methods — the paper's central claim, checked through the shared
    // QueryStats record alone.
    let g = small_city();
    let hc2l = OracleBuilder::new(Method::Hc2l).build(&g);
    let hl = OracleBuilder::new(Method::Hl).build(&g);
    let n = g.num_vertices() as Vertex;
    let mut hc2l_scans = 0usize;
    let mut hl_scans = 0usize;
    for s in (0..n).step_by(7) {
        for t in (0..n).step_by(5) {
            hc2l_scans += hc2l.distance_with_stats(s, t).1.hubs_scanned;
            hl_scans += hl.distance_with_stats(s, t).1.hubs_scanned;
        }
    }
    assert!(
        hc2l_scans < hl_scans,
        "HC2L scanned {hc2l_scans} entries, HL {hl_scans}"
    );
}

#[test]
fn oracles_collect_into_heterogeneous_vectors() {
    // The enum (not trait objects) is the intended composition surface: a
    // Vec<Oracle> mixing methods works with plain iteration.
    let g = paper_figure1();
    let oracles: Vec<Oracle> = Method::ALL
        .iter()
        .map(|&m| OracleBuilder::new(m).threads(2).build(&g))
        .collect();
    let names: Vec<&str> = oracles.iter().map(|o| o.name()).collect();
    assert_eq!(names, vec!["HC2L", "H2H", "PHL", "HL", "CH"]);
    for oracle in &oracles {
        assert_eq!(oracle.distance(0, 0), 0);
    }
}
