//! Side-by-side comparison of every backend behind the unified
//! [`DistanceOracle`] trait — a miniature, human-readable version of the
//! paper's Tables 2 and 3, plus bidirectional Dijkstra as the
//! no-preprocessing reference point.
//!
//! Every method goes through the same [`Method`] -> [`OracleBuilder`] ->
//! [`DistanceOracle`] path; there is no per-backend code in this example.
//!
//! Run with `cargo run --release --example compare_methods`.

use std::time::Instant;

use hc2l_graph::{bidirectional_dijkstra, Graph};
use hc2l_oracle::{DistanceOracle, Method, OracleBuilder};
use hc2l_roadnet::{random_pairs, QueryPair, RoadNetworkConfig, WeightMode};

fn time_queries(oracle: &impl DistanceOracle, pairs: &[QueryPair]) -> (f64, u128) {
    let start = Instant::now();
    let mut checksum = 0u128;
    for p in pairs {
        checksum = checksum.wrapping_add(oracle.distance(p.source, p.target) as u128);
    }
    (
        start.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64,
        checksum,
    )
}

fn row(name: &str, build_secs: f64, micros: f64, index_bytes: usize, extra: &str) {
    println!(
        "{name:<10} {:>12.2} s {:>12.3} µs {:>12.2} MB   {extra}",
        build_secs,
        micros,
        index_bytes as f64 / (1024.0 * 1024.0)
    );
}

fn main() {
    let network = RoadNetworkConfig::city(56, 56, 7).generate();
    let graph: Graph = network.graph(WeightMode::Distance);
    println!(
        "network: {} vertices, {} edges\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    let pairs = random_pairs(graph.num_vertices(), 50_000, 1);
    println!(
        "{:<10} {:>14} {:>15} {:>15}   notes",
        "method", "construction", "query", "index size"
    );

    let mut reference_checksum: Option<u128> = None;
    for method in Method::ALL {
        let t = Instant::now();
        let oracle = OracleBuilder::new(method).build(&graph);
        let build_secs = t.elapsed().as_secs_f64();
        // CH queries run a graph search, so time them on a smaller slice.
        let method_pairs = match method {
            Method::Ch => &pairs[..5_000.min(pairs.len())],
            _ => &pairs[..],
        };
        let (micros, checksum) = time_queries(&oracle, method_pairs);
        if method_pairs.len() == pairs.len() {
            match reference_checksum {
                None => reference_checksum = Some(checksum),
                Some(expected) => assert_eq!(
                    checksum,
                    expected,
                    "{} disagrees with the previous methods",
                    oracle.name()
                ),
            }
        }
        let extra = match (oracle.tree_height(), oracle.max_width()) {
            (Some(h), Some(w)) => format!(
                "height {h}, width {w}, LCA {:.1} KB",
                oracle.lca_bytes() as f64 / 1024.0
            ),
            _ => String::new(),
        };
        row(
            oracle.name(),
            build_secs,
            micros,
            oracle.index_bytes(),
            &extra,
        );
    }

    // Plain bidirectional Dijkstra for perspective.
    let dij_pairs = &pairs[..200.min(pairs.len())];
    let start = Instant::now();
    let mut checksum = 0u128;
    for p in dij_pairs {
        checksum =
            checksum.wrapping_add(bidirectional_dijkstra(&graph, p.source, p.target) as u128);
    }
    let micros = start.elapsed().as_secs_f64() * 1e6 / dij_pairs.len() as f64;
    std::hint::black_box(checksum);
    row("BiDijkstra", 0.0, micros, 0, "no preprocessing");
}
