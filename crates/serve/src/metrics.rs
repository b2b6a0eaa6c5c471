//! Per-opcode latency recording and the Prometheus metrics surface.
//!
//! One [`OpLatencies`] lives inside [`crate::ServeState`]: a lock-free
//! histogram per opcode (`Distance` split by cache hit/miss, `OneToMany`,
//! `UpdateWeights`), recorded at the `ServeState` entry points — the single
//! execution path both connection models funnel through, so Threads and
//! Epoll daemons measure identically. Recording costs two TSC reads plus a
//! wait-free `record` (~45-50ns wall per request on the reference host —
//! dominated by the TSC reads; the cache probe between them is lock-free)
//! and can be switched off at runtime
//! ([`OpLatencies::set_recording`]) — the bench uses the toggle to *measure*
//! the overhead as `obs_overhead_pct` instead of assuming it.
//!
//! [`render`] turns a counter snapshot plus the live histograms into the
//! Prometheus text exposition document answered to a `Metrics` frame
//! (scrape with `hc2l-query --metrics`).

use std::sync::atomic::{AtomicBool, Ordering};

use hc2l_obs::prom;
use hc2l_obs::{clock, Histogram, Snapshot};

use crate::protocol::ServerStats;

/// The serve-side latency histograms, one per opcode (distance split by
/// cache outcome). Shared freely: recording is wait-free and snapshots are
/// consistent-enough point-in-time sums.
#[derive(Debug, Default)]
pub struct OpLatencies {
    /// When false, [`OpLatencies::start`] returns `None` and the hot path
    /// skips both clock reads. Default-off here; [`crate::ServeState`]
    /// enables it at construction.
    recording: AtomicBool,
    pub distance_hit: Histogram,
    pub distance_miss: Histogram,
    pub one_to_many: Histogram,
    pub update_weights: Histogram,
}

impl OpLatencies {
    /// A fresh set with recording enabled.
    pub fn enabled() -> Self {
        OpLatencies {
            recording: AtomicBool::new(true),
            ..Default::default()
        }
    }

    /// Starts a span: the raw timestamp to feed `record_*`, or `None` when
    /// recording is off (the caller falls back to its plain counter).
    #[inline]
    pub fn start(&self) -> Option<u64> {
        if self.recording.load(Ordering::Relaxed) {
            Some(clock::now())
        } else {
            None
        }
    }

    /// Runtime toggle, primarily for the bench's overhead A/B.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Hit and miss folded together: the whole-opcode distance view the
    /// `Stats` percentile fields report.
    pub fn distance_merged(&self) -> Snapshot {
        let mut s = self.distance_hit.snapshot();
        s.merge(&self.distance_miss.snapshot());
        s
    }
}

/// Renders the full metrics document: identity and counter gauges from a
/// [`ServerStats`] snapshot, then one latency block per histogram series.
pub(crate) fn render(stats: &ServerStats, latency: &OpLatencies) -> String {
    let mut out = String::with_capacity(4096);

    let method = hc2l_oracle::Method::from_tag(stats.method_tag)
        .map(|m| m.name())
        .unwrap_or("unknown");
    let kernel = hc2l_graph::KernelKind::from_tag(stats.kernel_tag)
        .map(|k| k.name())
        .unwrap_or("unknown");
    prom::write_type(&mut out, "hc2l_index_info", "gauge");
    prom::write_sample(
        &mut out,
        "hc2l_index_info",
        &[
            ("method", method),
            ("kernel", kernel),
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

    let hit = latency.distance_hit.snapshot();
    let miss = latency.distance_miss.snapshot();
    let one_to_many = latency.one_to_many.snapshot();
    let updates = latency.update_weights.snapshot();
    let hit_labels: &[(&str, &str)] = &[("op", "distance"), ("cache", "hit")];
    let miss_labels: &[(&str, &str)] = &[("op", "distance"), ("cache", "miss")];
    let otm_labels: &[(&str, &str)] = &[("op", "one_to_many")];
    let upd_labels: &[(&str, &str)] = &[("op", "update_weights")];
    prom::write_latency_block(
        &mut out,
        "hc2l_latency",
        &[
            (hit_labels, &hit),
            (miss_labels, &miss),
            (otm_labels, &one_to_many),
            (upd_labels, &updates),
        ],
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_fixture() -> ServerStats {
        ServerStats {
            method_tag: hc2l_oracle::Method::Hc2l.tag(),
            kernel_tag: hc2l_graph::KernelKind::Scalar.tag(),
            num_vertices: 256,
            index_bytes: 1 << 20,
            threads: 4,
            mapped: false,
            distance_queries: 10,
            one_to_many_queries: 2,
            one_to_many_targets: 64,
            cache_hits: 6,
            cache_misses: 4,
            cache_len: 4,
            cache_capacity: 1024,
            update_batches: 1,
            epoch: 1,
            connections_accepted: 3,
            connections_reaped: 0,
            panics_caught: 0,
            overload_rejections: 0,
            write_errors: 0,
            distance_p50_ns: 0,
            distance_p90_ns: 0,
            distance_p99_ns: 0,
            distance_p999_ns: 0,
            distance_max_ns: 0,
            one_to_many_p50_ns: 0,
            one_to_many_p99_ns: 0,
            update_p50_ns: 0,
            update_p99_ns: 0,
        }
    }

    #[test]
    fn render_emits_counters_and_latency_series() {
        let lat = OpLatencies::enabled();
        for v in [70u64, 80, 90, 5000] {
            lat.distance_hit.record(v);
        }
        lat.distance_miss.record(900);
        let doc = render(&stats_fixture(), &lat);
        assert!(
            doc.contains("hc2l_index_info{method=\"HC2L\",kernel=\"scalar\",mapped=\"false\"} 1")
        );
        assert!(doc.contains("hc2l_requests_total{op=\"distance\"} 10"));
        assert!(doc.contains("hc2l_cache_hits_total 6"));
        assert!(doc.contains("hc2l_latency_count{op=\"distance\",cache=\"hit\"} 4"));
        assert!(doc.contains("hc2l_latency_count{op=\"distance\",cache=\"miss\"} 1"));
        assert!(doc.contains("# TYPE hc2l_latency_p99_ns gauge"));
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
    fn recording_toggle_gates_spans() {
        let lat = OpLatencies::enabled();
        assert!(lat.recording());
        assert!(lat.start().is_some());
        lat.set_recording(false);
        assert!(lat.start().is_none());
        lat.set_recording(true);
        assert!(lat.start().is_some());
    }

    #[test]
    fn distance_merged_folds_hit_and_miss() {
        let lat = OpLatencies::enabled();
        lat.distance_hit.record(10);
        lat.distance_hit.record(20);
        lat.distance_miss.record(30_000);
        let merged = lat.distance_merged();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.min(), 10);
        assert_eq!(merged.max(), 30_000);
    }
}
