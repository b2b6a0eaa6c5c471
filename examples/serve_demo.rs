//! Serve demo: the full build → save → mmap-open → serve lifecycle,
//! in-process.
//!
//! 1. build an index over a synthetic city and **save** it to a container
//!    file;
//! 2. **mmap-open** it (`OracleBuilder::open`) — zero-copy views, no decode
//!    of the label arenas into fresh heap memory;
//! 3. share it across 8 worker threads through the `hc2l-serve` layer
//!    (result cache + counters) and verify bit-identical answers.
//!
//! Serving throughput and latency are measured by `sysbench`, not here.
//!
//! The `hc2l-serve` / `hc2l-query` binaries wrap exactly these pieces in a
//! TCP daemon and client:
//!
//! ```text
//! hc2l-serve --index city.hc2l --threads 8 --port 7171
//! hc2l-query --addr 127.0.0.1:7171 --distance 0 42
//! ```
//!
//! Run with `cargo run --release --example serve_demo`.

use std::sync::Arc;

use hc2l_repro::hc2l_roadnet::{random_pairs, RoadNetworkConfig, WeightMode};
use hc2l_repro::hc2l_serve::ServeState;
use hc2l_repro::{DistanceOracle, Method, OracleBuilder};

fn main() {
    // 1. Build once, save once.
    let network = RoadNetworkConfig::city(48, 48, 2024).generate();
    let graph = network.graph(WeightMode::Distance);
    let oracle = OracleBuilder::new(Method::Hc2l).build(&graph);
    let path = std::env::temp_dir().join(format!("hc2l-serve-demo-{}.hc2l", std::process::id()));
    oracle.save(&path).expect("save index container");
    println!(
        "built {} over {} vertices, saved {} bytes to {}",
        oracle.name(),
        graph.num_vertices(),
        oracle.index_bytes(),
        path.display()
    );

    // 2. Serve-only restart: memory-map the container. Queries will run on
    //    zero-copy views of the mapping — nothing is decoded or copied.
    let start = std::time::Instant::now();
    let shared = OracleBuilder::open(&path).expect("mmap-open index container");
    println!(
        "mmap-opened {} in {:.2?} (mapped: {})",
        shared.method(),
        start.elapsed(),
        shared.is_mapped()
    );

    // 3. One shared state behind an Arc; 8 workers verify bit-identical
    //    answers against the built index.
    let state = Arc::new(ServeState::new(shared, 8, 1 << 16));
    let pairs = random_pairs(graph.num_vertices(), 1000, 0x5EED);
    let expected: Vec<u64> = pairs
        .iter()
        .map(|p| oracle.distance(p.source, p.target))
        .collect();
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let state = Arc::clone(&state);
            let pairs = pairs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for (p, want) in pairs.iter().zip(&expected) {
                    assert_eq!(state.distance(p.source, p.target), *want);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    println!(
        "8 workers x {} queries: all bit-identical to the built index",
        pairs.len()
    );

    let stats = state.stats();
    println!(
        "served {} point queries total; cache {}/{} entries",
        stats.distance_queries, stats.cache_len, stats.cache_capacity
    );
    std::fs::remove_file(&path).ok();
}
