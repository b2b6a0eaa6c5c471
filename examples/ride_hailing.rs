//! Ride-hailing dispatch — the motivating workload from the paper's
//! introduction: match available cars to waiting customers, which requires
//! computing a dense block of car-to-customer shortest-path distances every
//! few seconds.
//!
//! The example builds an HC2L oracle with four threads once through the
//! unified [`OracleBuilder`] API, evaluates a 200 x 1000 car-customer
//! distance matrix (200k exact queries, one [`DistanceOracle::one_to_many`]
//! batch per car) and greedily assigns the nearest free car to each
//! customer. It also reports how long the same matrix would take with plain
//! bidirectional Dijkstra, to make the paper's latency argument concrete.
//!
//! Run with `cargo run --release --example ride_hailing`.

use std::time::Instant;

use hc2l_graph::{bidirectional_dijkstra, Distance, Vertex};
use hc2l_oracle::{DistanceOracle, Method, OracleBuilder};
use hc2l_roadnet::synthetic::{generate_multi_city, MultiCityConfig};
use hc2l_roadnet::{RoadNetworkConfig, WeightMode};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const NUM_CARS: usize = 200;
const NUM_CUSTOMERS: usize = 1000;

fn main() {
    // A metropolitan area: three connected city grids.
    let cfg = MultiCityConfig {
        cities: 3,
        city: RoadNetworkConfig::city(40, 40, 99),
        corridors_per_link: 2,
        corridor_hops: 10,
        seed: 99,
    };
    let network = generate_multi_city(&cfg);
    // Dispatching minimises travel time, not travel distance.
    let graph = network.graph(WeightMode::TravelTime);
    println!(
        "metro network: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let build_start = Instant::now();
    let oracle = OracleBuilder::new(Method::Hc2l).threads(4).build(&graph);
    println!(
        "{} index built in {:.2?} (parallel build)",
        oracle.name(),
        build_start.elapsed()
    );

    // Random fleet and customer positions.
    let mut rng = StdRng::seed_from_u64(5);
    let n = graph.num_vertices() as Vertex;
    let cars: Vec<Vertex> = (0..NUM_CARS).map(|_| rng.random_range(0..n)).collect();
    let customers: Vec<Vertex> = (0..NUM_CUSTOMERS).map(|_| rng.random_range(0..n)).collect();

    // Full car x customer distance matrix: one batched row per car.
    let start = Instant::now();
    let matrix: Vec<Vec<Distance>> = cars
        .iter()
        .map(|&car| oracle.one_to_many(car, &customers))
        .collect();
    let oracle_elapsed = start.elapsed();
    let total_queries = NUM_CARS * NUM_CUSTOMERS;
    println!(
        "{} exact distances via {} in {:.2?} ({:.3} µs/query)",
        total_queries,
        oracle.name(),
        oracle_elapsed,
        oracle_elapsed.as_secs_f64() * 1e6 / total_queries as f64
    );

    // Greedy dispatch: each customer (in arrival order) gets the nearest
    // still-free car.
    let mut car_taken = [false; NUM_CARS];
    let mut assigned = 0usize;
    let mut total_pickup_time: Distance = 0;
    for pi in 0..NUM_CUSTOMERS.min(NUM_CARS) {
        let mut best: Option<(usize, Distance)> = None;
        for (ci, row) in matrix.iter().enumerate() {
            if car_taken[ci] {
                continue;
            }
            let d = row[pi];
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((ci, d));
            }
        }
        if let Some((ci, d)) = best {
            car_taken[ci] = true;
            assigned += 1;
            total_pickup_time += d;
        }
    }
    println!(
        "greedy dispatch: {assigned} customers matched, mean pickup weight {:.0}",
        total_pickup_time as f64 / assigned as f64
    );

    // For scale: the same matrix block with bidirectional Dijkstra, sampled.
    let sample = 50usize;
    let start = Instant::now();
    for ci in 0..sample.min(NUM_CARS) {
        let _ = bidirectional_dijkstra(&graph, cars[ci], customers[ci]);
    }
    let dij = start.elapsed();
    let per_query = dij.as_secs_f64() / sample as f64;
    println!(
        "bidirectional Dijkstra needs {:.1} ms/query — the full matrix would take ~{:.0} s instead of {:.2?}",
        per_query * 1e3,
        per_query * total_queries as f64,
        oracle_elapsed
    );
}
