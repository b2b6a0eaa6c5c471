//! Per-opcode latency recording and the Prometheus metrics surface.
//!
//! One [`OpLatencies`] lives inside [`crate::ServeState`]: a lock-free
//! histogram per opcode (`Distance` split by cache hit/miss, `OneToMany`,
//! `UpdateWeights`), recorded at the `ServeState` entry points — the single
//! execution path the reactor and embedded callers funnel through, so both
//! measure identically. Recording is always on. Batches and
//! updates cost µs to ms, so every one is timed. A cached distance answer
//! costs ~20 ns, less than the two TSC reads that would time it, so each
//! thread times only its first distance request and then every 64th. The
//! other 63 pay one thread-local countdown and nothing else. A sampled
//! request pays two TSC reads plus a wait-free `record`, ~80 ns on a 2-vCPU
//! KVM guest, so the amortised cost is ~1 ns per request (an all-hit loop
//! there measures 18–23 ns per request, against 114–121 ns when every
//! request was timed). The `distance` series therefore counts samples;
//! exact request totals come from the cache's hit and miss counters, which
//! see every lookup. A sampled cache miss also records how many hubs its
//! index query scanned.
//!
//! `render` turns a counter snapshot plus the live histograms into the
//! Prometheus text exposition document answered to a `Metrics` frame
//! (scrape with `hc2l-query --metrics`) — the daemon's one read-out.

use hc2l_obs::prom;
use hc2l_obs::{Histogram, Snapshot};

use crate::server::ServerStats;

/// The serve-side histograms: latency per opcode (distance split by cache
/// outcome) plus hubs scanned per sampled index query. Shared freely:
/// recording is wait-free and snapshots are consistent-enough
/// point-in-time sums.
#[derive(Debug, Default)]
pub struct OpLatencies {
    pub distance_hit: Histogram,
    pub distance_miss: Histogram,
    pub one_to_many: Histogram,
    pub update_weights: Histogram,
    /// `QueryStats::hubs_scanned` of sampled cache misses (a count, not
    /// ns).
    pub hubs_scanned: Histogram,
}

impl OpLatencies {
    /// Hit and miss folded together: the whole-opcode distance view,
    /// rendered as the `{op="distance",cache="all"}` latency series.
    pub fn distance_merged(&self) -> Snapshot {
        let mut s = self.distance_hit.snapshot();
        s.merge(&self.distance_miss.snapshot());
        s
    }
}

/// Renders the full metrics document: identity and counter gauges from a
/// [`ServerStats`] snapshot, then one latency block per histogram series,
/// then the hubs-scanned gauges.
pub(crate) fn render(stats: &ServerStats, latency: &OpLatencies) -> String {
    let mut out = String::with_capacity(4096);

    prom::write_type(&mut out, "hc2l_index_info", "gauge");
    prom::write_sample(
        &mut out,
        "hc2l_index_info",
        &[
            ("method", stats.method.name()),
            ("kernel", stats.kernel.name()),
            ("mapped", if stats.mapped { "true" } else { "false" }),
        ],
        1,
    );

    let gauges: [(&str, u64); 6] = [
        ("hc2l_index_vertices", stats.num_vertices),
        ("hc2l_index_bytes", stats.index_bytes),
        ("hc2l_serve_threads", stats.threads as u64),
        ("hc2l_index_epoch", stats.epoch),
        ("hc2l_cache_entries", stats.cache_len),
        ("hc2l_cache_capacity", stats.cache_capacity),
    ];
    for (name, v) in gauges {
        prom::write_type(&mut out, name, "gauge");
        prom::write_sample(&mut out, name, &[], v);
    }

    prom::write_type(&mut out, "hc2l_requests_total", "counter");
    prom::write_sample(
        &mut out,
        "hc2l_requests_total",
        &[("op", "distance")],
        stats.distance_queries,
    );
    prom::write_sample(
        &mut out,
        "hc2l_requests_total",
        &[("op", "one_to_many")],
        stats.one_to_many_queries,
    );
    prom::write_sample(
        &mut out,
        "hc2l_requests_total",
        &[("op", "update_weights")],
        stats.update_batches,
    );

    let counters: [(&str, u64); 8] = [
        ("hc2l_one_to_many_targets_total", stats.one_to_many_targets),
        ("hc2l_cache_hits_total", stats.cache_hits),
        ("hc2l_cache_misses_total", stats.cache_misses),
        (
            "hc2l_connections_accepted_total",
            stats.connections_accepted,
        ),
        ("hc2l_connections_reaped_total", stats.connections_reaped),
        ("hc2l_panics_caught_total", stats.panics_caught),
        ("hc2l_overload_rejections_total", stats.overload_rejections),
        ("hc2l_write_errors_total", stats.write_errors),
    ];
    for (name, v) in counters {
        prom::write_type(&mut out, name, "counter");
        prom::write_sample(&mut out, name, &[], v);
    }

    // Whether polling before parking pays: the share of windows that found
    // work, and (times the window) what the parked ones cost.
    let windows = "hc2l_reactor_poll_windows_total";
    prom::write_type(&mut out, windows, "counter");
    prom::write_sample(
        &mut out,
        windows,
        &[("outcome", "work")],
        stats.poll_windows_work,
    );
    prom::write_sample(
        &mut out,
        windows,
        &[("outcome", "parked")],
        stats.poll_windows_parked,
    );

    let hit = latency.distance_hit.snapshot();
    let miss = latency.distance_miss.snapshot();
    let all = latency.distance_merged();
    let one_to_many = latency.one_to_many.snapshot();
    let updates = latency.update_weights.snapshot();
    let hit_labels: &[(&str, &str)] = &[("op", "distance"), ("cache", "hit")];
    let miss_labels: &[(&str, &str)] = &[("op", "distance"), ("cache", "miss")];
    let all_labels: &[(&str, &str)] = &[("op", "distance"), ("cache", "all")];
    let otm_labels: &[(&str, &str)] = &[("op", "one_to_many")];
    let upd_labels: &[(&str, &str)] = &[("op", "update_weights")];
    prom::write_latency_block(
        &mut out,
        "hc2l_latency",
        &[
            (hit_labels, &hit),
            (miss_labels, &miss),
            (all_labels, &all),
            (otm_labels, &one_to_many),
            (upd_labels, &updates),
        ],
    );

    let hubs = latency.hubs_scanned.snapshot();
    let hub_stats: [(&str, u64); 4] = [
        ("hc2l_index_hubs_scanned_count", hubs.count()),
        ("hc2l_index_hubs_scanned_p50", hubs.p50()),
        ("hc2l_index_hubs_scanned_p99", hubs.p99()),
        ("hc2l_index_hubs_scanned_max", hubs.max()),
    ];
    for (name, v) in hub_stats {
        prom::write_type(&mut out, name, "gauge");
        prom::write_sample(&mut out, name, &[], v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every counter distinct, so each rendered line below can only come
    /// from its own field.
    fn stats_fixture() -> ServerStats {
        ServerStats {
            method: hc2l_oracle::Method::Hc2l,
            kernel: hc2l_graph::KernelKind::Scalar,
            num_vertices: 256,
            index_bytes: 1 << 20,
            threads: 16,
            mapped: false,
            distance_queries: 10,
            one_to_many_queries: 2,
            one_to_many_targets: 64,
            cache_hits: 6,
            cache_misses: 4,
            cache_len: 5,
            cache_capacity: 1024,
            update_batches: 1,
            epoch: 7,
            connections_accepted: 3,
            connections_reaped: 8,
            panics_caught: 9,
            overload_rejections: 11,
            write_errors: 12,
            poll_windows_work: 13,
            poll_windows_parked: 14,
        }
    }

    #[test]
    fn render_emits_counters_and_latency_series() {
        let lat = OpLatencies::default();
        for v in [70u64, 80, 90, 5000] {
            lat.distance_hit.record(v);
        }
        lat.distance_miss.record(900);
        lat.hubs_scanned.record(11);
        let doc = render(&stats_fixture(), &lat);
        // Every field of `ServerStats` appears as its own sample line.
        for line in [
            "hc2l_index_info{method=\"HC2L\",kernel=\"scalar\",mapped=\"false\"} 1",
            "hc2l_index_vertices 256",
            "hc2l_index_bytes 1048576",
            "hc2l_serve_threads 16",
            "hc2l_index_epoch 7",
            "hc2l_cache_entries 5",
            "hc2l_cache_capacity 1024",
            "hc2l_requests_total{op=\"distance\"} 10",
            "hc2l_requests_total{op=\"one_to_many\"} 2",
            "hc2l_requests_total{op=\"update_weights\"} 1",
            "hc2l_one_to_many_targets_total 64",
            "hc2l_cache_hits_total 6",
            "hc2l_cache_misses_total 4",
            "hc2l_connections_accepted_total 3",
            "hc2l_connections_reaped_total 8",
            "hc2l_panics_caught_total 9",
            "hc2l_overload_rejections_total 11",
            "hc2l_write_errors_total 12",
            "hc2l_reactor_poll_windows_total{outcome=\"work\"} 13",
            "hc2l_reactor_poll_windows_total{outcome=\"parked\"} 14",
        ] {
            assert!(doc.lines().any(|l| l == line), "missing {line:?} in\n{doc}");
        }
        assert!(doc.contains("hc2l_latency_count{op=\"distance\",cache=\"hit\"} 4"));
        assert!(doc.contains("hc2l_latency_count{op=\"distance\",cache=\"miss\"} 1"));
        // The merged hit+miss series: all five samples, the miss's 900 ns
        // and the hit's 5000 ns tail included.
        assert!(doc.contains("hc2l_latency_count{op=\"distance\",cache=\"all\"} 5"));
        let all = lat.distance_merged();
        for (suffix, v) in [("p50_ns", all.p50()), ("max_ns", all.max())] {
            let line = format!("hc2l_latency_{suffix}{{op=\"distance\",cache=\"all\"}} {v}");
            assert!(doc.lines().any(|l| l == line), "missing {line:?}");
        }
        assert!(doc.contains("# TYPE hc2l_latency_p99_ns gauge"));
        assert!(doc.contains("hc2l_index_hubs_scanned_count 1"));
        assert!(doc.contains("hc2l_index_hubs_scanned_max 11"));
        // Every line is a comment or a sample ending in a number.
        for line in doc.lines() {
            assert!(
                line.starts_with("# TYPE ")
                    || line
                        .rsplit(' ')
                        .next()
                        .is_some_and(|v| v.parse::<u64>().is_ok()),
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn distance_merged_folds_hit_and_miss() {
        let lat = OpLatencies::default();
        lat.distance_hit.record(10);
        lat.distance_hit.record(20);
        lat.distance_miss.record(30_000);
        let merged = lat.distance_merged();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.min(), 10);
        assert_eq!(merged.max(), 30_000);
    }
}
