//! End-to-end integration tests: synthetic road networks through every
//! method, both edge-weight modes, the workload generators, and the DIMACS
//! round trip — the same pipeline the benchmark harness runs, at test size.
//! All oracle access goes through the unified [`DistanceOracle`] interface.

use hc2l::Hc2lConfig;
use hc2l_graph::{dijkstra_distance, Vertex};
use hc2l_oracle::{DistanceOracle, Method, Oracle, OracleBuilder};
use hc2l_roadnet::synthetic::{generate_multi_city, MultiCityConfig};
use hc2l_roadnet::{
    distance_buckets, parse_gr_str, random_pairs, standard_suite, write_gr, RoadNetworkConfig,
    SuiteScale, WeightMode,
};

#[test]
fn full_pipeline_on_synthetic_city_distance_weights() {
    let network = RoadNetworkConfig::city(14, 14, 5).generate();
    let g = network.graph(WeightMode::Distance);
    let pairs = random_pairs(g.num_vertices(), 300, 9);

    let oracles: Vec<_> = Method::ALL
        .iter()
        .map(|&m| OracleBuilder::new(m).threads(2).build(&g))
        .collect();
    for p in &pairs {
        let expected = dijkstra_distance(&g, p.source, p.target);
        for oracle in &oracles {
            assert_eq!(
                oracle.distance(p.source, p.target),
                expected,
                "{} wrong on ({}, {})",
                oracle.name(),
                p.source,
                p.target
            );
        }
    }
}

#[test]
fn travel_time_weights_change_distances_but_not_exactness() {
    let network = RoadNetworkConfig::city(12, 12, 8).generate();
    let g_dist = network.graph(WeightMode::Distance);
    let g_time = network.graph(WeightMode::TravelTime);
    let oracle_dist = OracleBuilder::new(Method::Hc2l).build(&g_dist);
    let oracle_time = OracleBuilder::new(Method::Hc2l).build(&g_time);

    let pairs = random_pairs(g_dist.num_vertices(), 200, 4);
    let mut any_different = false;
    for p in &pairs {
        assert_eq!(
            oracle_dist.distance(p.source, p.target),
            dijkstra_distance(&g_dist, p.source, p.target)
        );
        assert_eq!(
            oracle_time.distance(p.source, p.target),
            dijkstra_distance(&g_time, p.source, p.target)
        );
        if oracle_dist.distance(p.source, p.target) != oracle_time.distance(p.source, p.target) {
            any_different = true;
        }
    }
    assert!(
        any_different,
        "travel-time weights should produce different distances than metre weights"
    );
}

#[test]
fn multi_city_network_with_parallel_build() {
    let cfg = MultiCityConfig {
        cities: 3,
        city: RoadNetworkConfig::city(7, 7, 3),
        corridors_per_link: 1,
        corridor_hops: 5,
        seed: 12,
    };
    let network = generate_multi_city(&cfg);
    let g = network.graph(WeightMode::Distance);
    let seq = OracleBuilder::new(Method::Hc2l).build(&g);
    // `hc2l_config` replaces the thread count too, so `threads` comes last.
    let par = OracleBuilder::new(Method::Hc2l)
        .hc2l_config(Hc2lConfig {
            parallel_grain: 32,
            ..Default::default()
        })
        .threads(4)
        .build(&g);
    let Oracle::Hc2l(par_index) = &par else {
        panic!("Method::Hc2l built {}", par.name());
    };
    assert_eq!(par_index.config().threads, 4);
    let pairs = random_pairs(g.num_vertices(), 400, 77);
    for p in &pairs {
        let expected = dijkstra_distance(&g, p.source, p.target);
        assert_eq!(seq.distance(p.source, p.target), expected);
        assert_eq!(par.distance(p.source, p.target), expected);
    }
    // The multi-city topology keeps the top-level cut small (the corridors).
    assert!(seq.max_width().unwrap() <= g.num_vertices() / 4);
}

#[test]
fn suite_datasets_build_and_answer() {
    for spec in standard_suite(SuiteScale::Tiny).into_iter().take(3) {
        let g = spec.build().graph(WeightMode::Distance);
        let oracle = OracleBuilder::new(Method::Hc2l).build(&g);
        let pairs = random_pairs(g.num_vertices(), 150, 1);
        for p in &pairs {
            assert_eq!(
                oracle.distance(p.source, p.target),
                dijkstra_distance(&g, p.source, p.target),
                "dataset {}",
                spec.name
            );
        }
    }
}

#[test]
fn distance_bucket_workload_is_answered_consistently() {
    let network = RoadNetworkConfig::city(12, 12, 77).generate();
    let g = network.graph(WeightMode::Distance);
    let oracle = OracleBuilder::new(Method::Hc2l).build(&g);
    let buckets = distance_buckets(&g, 25, 1000, 5);
    assert!(buckets.total_queries() > 0);
    for (i, bucket) in buckets.buckets.iter().enumerate() {
        for p in bucket {
            let d = oracle.distance(p.source, p.target);
            assert!(
                d > buckets.bounds[i] && d <= buckets.bounds[i + 1],
                "bucket {i} contains a pair with distance {d} outside ({}, {}]",
                buckets.bounds[i],
                buckets.bounds[i + 1]
            );
        }
    }
}

#[test]
fn dimacs_round_trip_preserves_query_results() {
    let network = RoadNetworkConfig::city(9, 9, 13).generate();
    let g = network.graph(WeightMode::Distance);
    let mut buf = Vec::new();
    write_gr(&g, &mut buf).unwrap();
    let parsed = parse_gr_str(&String::from_utf8(buf).unwrap()).unwrap();
    let oracle_orig = OracleBuilder::new(Method::Hc2l).build(&g);
    let oracle_parsed = OracleBuilder::new(Method::Hc2l).build(&parsed);
    for s in (0..g.num_vertices() as Vertex).step_by(7) {
        for t in (0..g.num_vertices() as Vertex).step_by(5) {
            assert_eq!(oracle_orig.distance(s, t), oracle_parsed.distance(s, t));
        }
    }
}

#[test]
fn hc2l_beats_baselines_on_hub_scan_counts() {
    // The paper's central claim: HC2L examines far fewer label entries per
    // query than full-label-scan methods. Verify the ordering holds on a
    // synthetic city (timings are too noisy for CI, scan counts are not).
    let network = RoadNetworkConfig::city(20, 20, 2).generate();
    let g = network.graph(WeightMode::Distance);
    let hc2l = OracleBuilder::new(Method::Hc2l).build(&g);
    let hl = OracleBuilder::new(Method::Hl).build(&g);
    let phl = OracleBuilder::new(Method::Phl).build(&g);
    let pairs = random_pairs(g.num_vertices(), 500, 3);
    let mut hc2l_scans = 0usize;
    let mut hl_scans = 0usize;
    let mut phl_scans = 0usize;
    for p in &pairs {
        hc2l_scans += hc2l.distance_with_stats(p.source, p.target).1.hubs_scanned;
        hl_scans += hl.distance_with_stats(p.source, p.target).1.hubs_scanned;
        phl_scans += phl.distance_with_stats(p.source, p.target).1.hubs_scanned;
    }
    assert!(
        hc2l_scans < hl_scans,
        "HC2L scanned {hc2l_scans} entries, HL {hl_scans}"
    );
    assert!(
        hc2l_scans < phl_scans,
        "HC2L scanned {hc2l_scans} entries, PHL {phl_scans}"
    );
}

#[test]
fn index_statistics_are_reported_for_all_methods() {
    let network = RoadNetworkConfig::city(10, 10, 21).generate();
    let g = network.graph(WeightMode::Distance);
    let hc2l = OracleBuilder::new(Method::Hc2l).build(&g);
    let h2h = OracleBuilder::new(Method::H2h).build(&g);
    let hl = OracleBuilder::new(Method::Hl).build(&g);
    let phl = OracleBuilder::new(Method::Phl).build(&g);

    assert!(hc2l.label_bytes() > 0 && hc2l.lca_bytes() > 0);
    assert!(hc2l.tree_height().unwrap() > 0 && hc2l.max_width().unwrap() > 0);
    // HC2L's LCA bookkeeping (8 bytes/vertex) is far smaller than H2H's
    // Euler/RMQ structure — the Table 3 contrast.
    assert!(hc2l.lca_bytes() < h2h.lca_bytes());
    assert!(hl.label_bytes() > 0);
    assert!(phl.label_bytes() > 0);
    assert!(h2h.label_bytes() > 0);
}
