//! k-nearest point-of-interest (POI) search — another workload from the
//! paper's introduction (POI recommendation): given a set of POIs (say,
//! charging stations) and a stream of user locations, return the k closest
//! POIs by road distance for each user.
//!
//! Each request is a single [`DistanceOracle::one_to_many`] call: the batched
//! API resolves the user's label once and streams the `|POIs|` exact
//! distances from it, which is the natural shape for this workload.
//!
//! Run with `cargo run --release --example poi_search`.

use std::time::Instant;

use hc2l_graph::{Distance, Vertex};
use hc2l_obs::{clock, Histogram};
use hc2l_oracle::{DistanceOracle, Method, OracleBuilder};
use hc2l_roadnet::{RoadNetworkConfig, WeightMode};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const NUM_POIS: usize = 300;
const NUM_REQUESTS: usize = 2000;
const K: usize = 5;

fn main() {
    let network = RoadNetworkConfig::city(80, 80, 31).generate();
    let graph = network.graph(WeightMode::Distance);
    println!(
        "city network: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let oracle = OracleBuilder::new(Method::Hc2l).build(&graph);
    println!(
        "{} index: {:.1} MB",
        oracle.name(),
        oracle.index_bytes() as f64 / (1024.0 * 1024.0)
    );

    let mut rng = StdRng::seed_from_u64(17);
    let n = graph.num_vertices() as Vertex;
    let pois: Vec<Vertex> = (0..NUM_POIS).map(|_| rng.random_range(0..n)).collect();
    let requests: Vec<Vertex> = (0..NUM_REQUESTS).map(|_| rng.random_range(0..n)).collect();

    // Per-request latency goes into the serving stack's shared histogram
    // (hc2l_obs) instead of a sorted Vec of samples: the same log-linear
    // buckets and percentile math as the daemon's metrics, and the same
    // `summary()` line `hc2l-query --replay` prints for request latency.
    clock::calibrate();
    let latency = Histogram::new();
    let start = Instant::now();
    let mut total_top_distance: Distance = 0;
    let mut example_output: Option<(Vertex, Vec<(Vertex, Distance)>)> = None;
    for (i, &user) in requests.iter().enumerate() {
        // Exact distance to every POI in one batched call, then keep the k
        // smallest. Each request is timed individually: a latency-sensitive
        // service cares about the per-request distribution, not just the
        // aggregate throughput.
        let t0 = clock::now();
        let distances = oracle.one_to_many(user, &pois);
        let mut candidates: Vec<(Vertex, Distance)> = pois.iter().copied().zip(distances).collect();
        candidates.sort_by_key(|&(_, d)| d);
        candidates.truncate(K);
        latency.record(clock::ns_since(t0));
        total_top_distance += candidates.first().map(|&(_, d)| d).unwrap_or(0);
        if i == 0 {
            example_output = Some((user, candidates.clone()));
        }
    }
    let elapsed = start.elapsed();
    let queries = NUM_REQUESTS * NUM_POIS;
    println!(
        "{NUM_REQUESTS} k-NN requests over {NUM_POIS} POIs = {queries} distance queries in {:.2?} ({:.3} µs/query)",
        elapsed,
        elapsed.as_secs_f64() * 1e6 / queries as f64
    );
    println!(
        "per-request latency (k-NN over {NUM_POIS} POIs): {}",
        latency.snapshot().summary()
    );
    println!(
        "mean distance to the nearest POI: {:.0} m",
        total_top_distance as f64 / NUM_REQUESTS as f64
    );
    if let Some((user, top)) = example_output {
        println!("example: user at vertex {user} -> nearest {K} POIs:");
        for (poi, d) in top {
            println!("  POI at vertex {poi:>5}: {d:>6} m");
        }
    }
}
