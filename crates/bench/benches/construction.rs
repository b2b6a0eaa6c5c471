//! Criterion benchmark behind the construction-time columns of Tables 2/4:
//! index build time of HC2L (sequential and parallel) and the baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use hc2l_bench::oracle::{build_oracle, DistanceOracle, Method};
use hc2l_roadnet::{standard_suite, SuiteScale, WeightMode};

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(800));
    for spec in standard_suite(SuiteScale::Tiny).into_iter().take(2) {
        let g = spec.build().graph(WeightMode::Distance);
        for method in Method::LABELLING {
            group.bench_with_input(BenchmarkId::new(method.name(), &spec.name), &g, |b, g| {
                b.iter(|| black_box(build_oracle(method, g, 1).label_bytes()))
            });
        }
        group.bench_with_input(BenchmarkId::new("HC2Lp", &spec.name), &g, |b, g| {
            b.iter(|| black_box(build_oracle(Method::Hc2l, g, 4).label_bytes()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
