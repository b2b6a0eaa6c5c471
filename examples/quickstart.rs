//! Quickstart: build a distance oracle over a synthetic city road network
//! through the unified [`OracleBuilder`] API and answer a few queries.
//!
//! The same three lines work for every backend — swap [`Method::Hc2l`] for
//! `Method::H2h`, `Method::Phl`, `Method::Hl` or `Method::Ch` and nothing
//! else changes (add `.threads(4)` to build HC2L with four threads):
//!
//! ```ignore
//! let oracle = OracleBuilder::new(Method::Hc2l).build(&graph);
//! let d = oracle.distance(s, t);
//! let row = oracle.one_to_many(s, &targets);
//! ```
//!
//! Run with `cargo run --release --example quickstart`.

use hc2l_repro::hc2l_graph::dijkstra_distance;
use hc2l_repro::hc2l_roadnet::{self, RoadNetworkConfig, WeightMode};
use hc2l_repro::{DistanceOracle, Method, OracleBuilder};

fn main() {
    // 1. Generate a synthetic road network (a 64x64 city, ~4k intersections).
    let network = RoadNetworkConfig::city(64, 64, 2024).generate();
    let graph = network.graph(WeightMode::Distance);
    println!(
        "road network: {} vertices, {} edges, average degree {:.2}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.average_degree()
    );

    // 2. Build the oracle. `Method::Hc2l` with builder defaults uses the
    //    paper's settings (β = 0.2, tail pruning and degree-one contraction
    //    enabled); `.beta(...)` / `.threads(n)` (the HC2L build thread
    //    count, sequential by default) tune the construction.
    let start = std::time::Instant::now();
    let oracle = OracleBuilder::new(Method::Hc2l).beta(0.2).build(&graph);
    println!("{} built in {:.2?}", oracle.name(), start.elapsed());
    println!(
        "index: {:.2} MB labels + {:.2} KB LCA bookkeeping",
        oracle.label_bytes() as f64 / (1024.0 * 1024.0),
        oracle.lca_bytes() as f64 / 1024.0
    );

    // 3. Query it. Results are exact: cross-check a few against Dijkstra.
    let pairs = [(0u32, 4095u32), (17, 2048), (100, 3333), (512, 640)];
    for (s, t) in pairs {
        let d = oracle.distance(s, t);
        assert_eq!(d, dijkstra_distance(&graph, s, t));
        println!("distance({s:>4}, {t:>4}) = {d:>6} m");
    }

    // 4. Batched access: one source against many targets amortises the
    //    per-source label lookup.
    let targets: Vec<u32> = (0..graph.num_vertices() as u32).step_by(64).collect();
    let row = oracle.one_to_many(0, &targets);
    println!(
        "one_to_many from vertex 0 to {} targets: first {:?}",
        targets.len(),
        &row[..4.min(row.len())]
    );

    // 5. Persist & reload: build once, serve many times. `save` writes a
    //    sectioned container file (its exact size is `index_bytes()`);
    //    `OracleBuilder::load` restores any method in milliseconds.
    let index_path =
        std::env::temp_dir().join(format!("quickstart-index-{}.hc2l", std::process::id()));
    oracle.save(&index_path).expect("saving the index");
    let start = std::time::Instant::now();
    let served = OracleBuilder::load(&index_path).expect("loading the index");
    println!(
        "index reloaded in {:.2?} ({} bytes on disk) — answers are bit-identical",
        start.elapsed(),
        served.index_bytes()
    );
    for (s, t) in pairs {
        assert_eq!(served.distance(s, t), oracle.distance(s, t));
    }
    std::fs::remove_file(&index_path).ok();

    // 6. Throughput check: a million random queries.
    let queries = hc2l_roadnet::random_pairs(graph.num_vertices(), 1_000_000, 7);
    let start = std::time::Instant::now();
    let mut checksum = 0u64;
    for q in &queries {
        checksum = checksum.wrapping_add(oracle.distance(q.source, q.target));
    }
    let elapsed = start.elapsed();
    println!(
        "1M random queries in {:.2?} ({:.3} µs/query, checksum {checksum})",
        elapsed,
        elapsed.as_secs_f64() * 1e6 / queries.len() as f64
    );
}
