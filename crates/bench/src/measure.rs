//! Timing helpers.

use std::time::Instant;

use hc2l_graph::{Distance, Graph, Vertex};
use hc2l_oracle::{DistanceOracle, Method, Oracle, OracleBuilder};
use hc2l_roadnet::QueryPair;

/// Result of timing a batch of queries on one oracle.
#[derive(Debug, Clone, Copy)]
pub struct QueryMeasurement {
    /// Mean time per query in microseconds.
    pub avg_micros: f64,
    /// Number of queries measured.
    pub num_queries: usize,
    /// Sum of all returned distances — returned so the optimiser cannot drop
    /// the query calls, and useful as a cross-method consistency check.
    pub checksum: u128,
    /// Mean number of hub entries examined per query (sampled).
    pub avg_hubs: f64,
}

/// Result of building one index.
pub struct BuildMeasurement {
    /// The built oracle.
    pub oracle: Oracle,
    /// Wall-clock build time in seconds (measured here, around the whole
    /// build call).
    pub build_seconds: f64,
}

/// Builds the index for a method, timing the whole construction.
pub fn measure_build(method: Method, g: &Graph, threads: usize) -> BuildMeasurement {
    let start = Instant::now();
    let oracle = OracleBuilder::new(method).threads(threads).build(g);
    BuildMeasurement {
        oracle,
        build_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Times a batch of queries and samples the hub-scan counts.
pub fn measure_query_time(oracle: &impl DistanceOracle, pairs: &[QueryPair]) -> QueryMeasurement {
    assert!(!pairs.is_empty(), "cannot measure an empty workload");
    let start = Instant::now();
    let mut checksum: u128 = 0;
    for p in pairs {
        let d: Distance = oracle.distance(p.source, p.target);
        checksum = checksum.wrapping_add(d as u128);
    }
    let elapsed = start.elapsed();
    // Sample hub counts on a subset to keep the overhead bounded.
    let sample_every = (pairs.len() / 256).max(1);
    let mut hub_sum = 0usize;
    let mut hub_count = 0usize;
    for p in pairs.iter().step_by(sample_every) {
        hub_sum += oracle
            .distance_with_stats(p.source, p.target)
            .1
            .hubs_scanned;
        hub_count += 1;
    }
    QueryMeasurement {
        avg_micros: elapsed.as_secs_f64() * 1e6 / pairs.len() as f64,
        num_queries: pairs.len(),
        checksum,
        avg_hubs: if hub_count == 0 {
            0.0
        } else {
            hub_sum as f64 / hub_count as f64
        },
    }
}

/// Times batched one-to-many queries through
/// [`DistanceOracle::one_to_many_into`], reusing a single output buffer for
/// the whole run so per-batch allocation does not skew the query timings.
///
/// Returns the mean time per *target* in nanoseconds.
pub fn measure_one_to_many(
    oracle: &impl DistanceOracle,
    sources: &[Vertex],
    targets: &[Vertex],
    reps: usize,
) -> f64 {
    assert!(
        !sources.is_empty() && !targets.is_empty() && reps > 0,
        "cannot measure an empty one-to-many workload"
    );
    let mut out: Vec<Distance> = Vec::with_capacity(targets.len());
    // Warmup pass (also faults in the buffer at full capacity).
    for &s in sources {
        oracle.one_to_many_into(s, targets, &mut out);
        std::hint::black_box(&out);
    }
    let start = Instant::now();
    for _ in 0..reps {
        for &s in sources {
            oracle.one_to_many_into(s, targets, &mut out);
            std::hint::black_box(&out);
        }
    }
    start.elapsed().as_secs_f64() * 1e9 / (reps * sources.len() * targets.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::toy::paper_figure1;
    use hc2l_roadnet::random_pairs;

    #[test]
    fn measurement_checksums_match_across_methods() {
        let g = paper_figure1();
        let pairs = random_pairs(16, 200, 3);
        let hc2l = measure_build(Method::Hc2l, &g, 1);
        let hl = measure_build(Method::Hl, &g, 1);
        let m1 = measure_query_time(&hc2l.oracle, &pairs);
        let m2 = measure_query_time(&hl.oracle, &pairs);
        assert_eq!(m1.checksum, m2.checksum);
        assert_eq!(m1.num_queries, 200);
        assert!(m1.avg_micros >= 0.0);
        assert!(m1.avg_hubs > 0.0);
    }

    #[test]
    fn one_to_many_measurement_is_positive() {
        let g = paper_figure1();
        let b = measure_build(Method::Hc2l, &g, 1);
        let sources = [0u32, 3, 7];
        let targets: Vec<u32> = (0..16).collect();
        let ns = measure_one_to_many(&b.oracle, &sources, &targets, 2);
        assert!(ns > 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_workload_rejected() {
        let g = paper_figure1();
        let b = measure_build(Method::Hc2l, &g, 1);
        measure_query_time(&b.oracle, &[]);
    }
}
