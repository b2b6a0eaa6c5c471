//! Inputs: the road network, and the seeded query streams and update
//! batches run on it, plus the Dijkstra ground truth every answer is
//! checked against.

use std::collections::HashMap;

use hc2l_graph::{dijkstra, Distance, Graph, Vertex};
use hc2l_oracle::WeightUpdate;
use hc2l_roadnet::{distance_buckets, random_weight_updates, RoadNetworkConfig, WeightMode};

/// SplitMix64: tiny, seedable, and independent of any library RNG whose
/// stream could change under the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_4DA7_A5E7)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The served road network: a travel-time city of `side x side`
/// intersections, whose low average degree, highway grid and jitter stand
/// in for a real map. Like a deployment's map it is fixed; the workload
/// seed draws the traffic on it.
pub fn road_network(side: usize) -> Graph {
    RoadNetworkConfig::city(side, side, MAP_SEED)
        .generate()
        .graph(WeightMode::TravelTime)
}

const MAP_SEED: u64 = 2023;

/// Exact distances from a fixed set of query sources to every vertex.
#[derive(Debug, Clone)]
pub struct Truth {
    pub sources: Vec<Vertex>,
    n: usize,
    dist: Vec<Distance>,
}

impl Truth {
    pub fn new(g: &Graph, sources: Vec<Vertex>) -> Self {
        let n = g.num_vertices();
        let mut dist = Vec::with_capacity(sources.len() * n);
        for &s in &sources {
            dist.extend(dijkstra(g, s));
        }
        Truth { sources, n, dist }
    }

    pub fn get(&self, source_idx: u32, t: Vertex) -> Distance {
        self.dist[source_idx as usize * self.n + t as usize]
    }
}

/// `count` distinct-ish random query sources.
pub fn pick_sources(g: &Graph, count: usize, rng: &mut Rng) -> Vec<Vertex> {
    (0..count)
        .map(|_| rng.below(g.num_vertices()) as Vertex)
        .collect()
}

/// One query of a stream: the source's index into [`Truth::sources`] (so
/// the answer can be checked per generation) and the target.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub s: Vertex,
    pub t: Vertex,
    pub source_idx: u32,
}

/// The distinct pairs a Zipf stream draws from, and their distinct
/// sources: the paper's distance-stratified query sets Q1..Q10
/// (`hc2l_roadnet::distance_buckets`, up to `per_bucket` pairs each),
/// shuffled so that a pair's popularity rank does not depend on its
/// distance.
pub fn pair_pool(g: &Graph, per_bucket: usize, rng: &mut Rng) -> (Vec<Vertex>, Vec<Query>) {
    let sets = distance_buckets(g, per_bucket, L_MIN, rng.next_u64());
    let mut sources = Vec::new();
    let mut source_idx = HashMap::new();
    let mut pool: Vec<Query> = sets
        .buckets
        .iter()
        .flatten()
        .map(|p| Query {
            s: p.source,
            t: p.target,
            source_idx: *source_idx.entry(p.source).or_insert_with(|| {
                sources.push(p.source);
                sources.len() as u32 - 1
            }),
        })
        .collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    (sources, pool)
}

/// The paper's `l_min`, 1000 m: one local block of the city map.
const L_MIN: Distance = 1000;

/// `len` draws from `pool` with Zipf(`exponent`) popularity over its
/// entries: a few hot pairs, a long tail — repeated keys that a result
/// cache can serve.
pub fn zipf_stream(pool: &[Query], exponent: f64, len: usize, rng: &mut Rng) -> Vec<Query> {
    let mut cdf = Vec::with_capacity(pool.len());
    let mut total = 0.0;
    for rank in 1..=pool.len() {
        total += (rank as f64).powf(-exponent);
        cdf.push(total);
    }
    (0..len)
        .map(|_| {
            let x = rng.unit() * total;
            let rank = cdf.partition_point(|&c| c < x).min(pool.len() - 1);
            pool[rank]
        })
        .collect()
}

/// The `k`-th live-traffic update batch: `size` distinct edges re-weighted
/// relative to the *original* network, so weights stay bounded however
/// many batches a run absorbs.
pub fn update_batch(original: &Graph, size: usize, seed: u64, k: u64) -> Vec<WeightUpdate> {
    random_weight_updates(original, size, seed.wrapping_mul(1_000_003).wrapping_add(k))
}

/// Applies a batch to a graph copy, mirroring what the server absorbs.
pub fn apply(g: &mut Graph, batch: &[WeightUpdate]) {
    for up in batch {
        g.set_edge_weight(up.u, up.v, up.new_weight);
    }
}
