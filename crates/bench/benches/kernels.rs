//! Criterion micro-benchmark of the min-plus kernels (`hc2l_graph::kernels`)
//! in isolation at realistic label lengths: the scan and the gather under
//! every available kernel (scalar vs the detected SIMD kernel), and the
//! merge-join, which is scalar on every kernel.
//!
//! The whole-system effect of the kernels is tracked by `repro --json-out`
//! (the `kernel` column of `BENCH_PR*.json`); this bench isolates the inner
//! loops so a kernel regression is attributable without rebuilding indexes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use hc2l_graph::{
    available_kernels, detect_kernel, force_kernel, min_plus_gather, min_plus_merge, min_plus_scan,
    Distance, INFINITY,
};

/// Label lengths the scans run at: a typical HC2L cut-level width, a large
/// hub label, and a stress length well past the SIMD tails.
const LENGTHS: [usize; 3] = [32, 160, 512];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A distance column with the value profile labels have: small finite
/// distances with a sprinkling of `INFINITY` (unreachable cuts).
fn random_dists(rng: &mut Rng, len: usize) -> Vec<Distance> {
    (0..len)
        .map(|_| {
            if rng.next().is_multiple_of(16) {
                INFINITY
            } else {
                rng.next() % 10_000
            }
        })
        .collect()
}

/// A strictly increasing hub-id column, as `FrozenHubLabels` guarantees.
fn random_hubs(rng: &mut Rng, len: usize, overlap_stride: u64) -> Vec<u32> {
    let mut hubs = Vec::with_capacity(len);
    let mut h = 0u32;
    for _ in 0..len {
        h += 1 + (rng.next() % overlap_stride) as u32;
        hubs.push(h);
    }
    hubs
}

fn bench_kernels(c: &mut Criterion) {
    let mut rng = Rng(0x9E3779B97F4A7C15);
    let mut group = c.benchmark_group("kernels");
    group.sample_size(30);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));

    for &len in &LENGTHS {
        let a = random_dists(&mut rng, len);
        let b = random_dists(&mut rng, len);

        let ha = random_hubs(&mut rng, len, 3);
        let hb = random_hubs(&mut rng, len, 3);

        let positions: Vec<u32> = (0..len as u32).map(|i| (i * 7) % len as u32).collect();

        group.bench_function(BenchmarkId::new("merge/scalar", len), |bench| {
            bench.iter(|| {
                black_box(min_plus_merge(
                    black_box(&ha),
                    black_box(&a),
                    black_box(&hb),
                    black_box(&b),
                ))
            })
        });
        for kernel in available_kernels() {
            force_kernel(kernel);
            let id = |op: &str| BenchmarkId::new(format!("{op}/{kernel}"), len);
            group.bench_function(id("scan"), |bench| {
                bench.iter(|| black_box(min_plus_scan(black_box(&a), black_box(&b))))
            });
            group.bench_function(id("gather"), |bench| {
                bench.iter(|| {
                    black_box(min_plus_gather(
                        black_box(&positions),
                        black_box(&a),
                        black_box(&b),
                    ))
                })
            });
        }
        force_kernel(detect_kernel());
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
