//! Per-window traffic figures and small statistics helpers.

use hc2l_obs::histogram::{HistogramCore, NUM_BUCKETS};
use hc2l_obs::Snapshot;

/// Traffic split into fixed windows of time: throughput and a latency
/// histogram per window. A run reports the median over (a share of) its
/// windows, so a transient stall on the host moves one window, not the
/// run's figure. Times are nanoseconds on the run's clock.
pub struct Windows {
    start_ns: u64,
    width_ns: u64,
    /// Requests counted towards throughput, and the time they took.
    ops: Vec<u64>,
    busy_ns: Vec<u64>,
    latency: Vec<HistogramCore>,
}

impl Windows {
    pub fn new(start_ns: u64, width_ns: u64, count: usize) -> Self {
        let count = count.max(1);
        Windows {
            start_ns,
            width_ns,
            ops: vec![0; count],
            busy_ns: vec![0; count],
            // One stripe: a single thread records into each window.
            latency: (0..count)
                .map(|_| HistogramCore::with_geometry(1, NUM_BUCKETS))
                .collect(),
        }
    }

    fn index(&self, at_ns: u64) -> usize {
        let i = (at_ns.saturating_sub(self.start_ns) / self.width_ns) as usize;
        i.min(self.ops.len() - 1)
    }

    /// Counts `n` requests that ended at `at_ns` and took `busy_ns` together.
    pub fn completed(&mut self, at_ns: u64, n: u64, busy_ns: u64) {
        let i = self.index(at_ns);
        self.ops[i] += n;
        self.busy_ns[i] += busy_ns;
    }

    /// Records the latency of one request completed at `at_ns`.
    pub fn latency(&mut self, at_ns: u64, ns: u64) {
        let i = self.index(at_ns);
        self.latency[i].record_on_stripe(0, ns);
    }

    /// Median over windows of (requests per second, p50 ns, p99 ns), with
    /// `overhead_ns` — the measured cost of the clock reads around each
    /// timed request — taken off the latencies. Subtracting a constant
    /// commutes with a quantile, so this equals subtracting it per sample.
    ///
    /// Only the `keep` share of windows with the highest throughput count
    /// (at least one; all of them at 1.0), and their latencies with them.
    pub fn summary(&self, overhead_ns: f64, keep: f64) -> (f64, f64, f64) {
        let qps_of = |i: usize| self.ops[i] as f64 * 1e9 / self.busy_ns[i] as f64;
        let mut kept: Vec<usize> = (0..self.ops.len())
            .filter(|&i| self.busy_ns[i] > 0)
            .collect();
        kept.sort_by(|&a, &b| qps_of(b).total_cmp(&qps_of(a)));
        kept.truncate(((kept.len() as f64 * keep).ceil() as usize).max(1));
        let qps: Vec<f64> = kept.iter().map(|&i| qps_of(i)).collect();
        let snapshots: Vec<Snapshot> = kept
            .iter()
            .map(|&i| self.latency[i].snapshot())
            .filter(|s| s.count() > 0)
            .collect();
        let quantile = |f: fn(&Snapshot) -> u64| {
            median(&snapshots.iter().map(|s| f(s) as f64).collect::<Vec<_>>()) - overhead_ns
        };
        (
            median(&qps),
            quantile(Snapshot::p50),
            quantile(Snapshot::p99),
        )
    }
}

/// The cost of an empty timed span on a clock: `pair` takes two readings
/// back to back and returns the time between them. The figure is the mean
/// of the middle half of many pairs, so a preempted pair does not count and
/// the figure keeps its fractional part.
pub fn clock_overhead_ns(pair: impl Fn() -> u64) -> f64 {
    let mut samples: Vec<u64> = (0..CALIBRATION_PAIRS).map(|_| pair()).collect();
    samples.sort_unstable();
    let middle = &samples[CALIBRATION_PAIRS / 4..CALIBRATION_PAIRS * 3 / 4];
    middle.iter().sum::<u64>() as f64 / middle.len() as f64
}

const CALIBRATION_PAIRS: usize = 100_000;

/// Median of a sample (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_takes_medians_over_windows_and_removes_overhead() {
        let mut w = Windows::new(0, 100, 3);
        // Window 0: 10 requests in 50 ns of busy time, latencies 10..=19.
        w.completed(50, 10, 50);
        for ns in 10..20 {
            w.latency(50, ns);
        }
        // Windows 1 and 2: one slower and one faster.
        w.completed(150, 10, 100);
        w.latency(150, 40);
        w.completed(250, 10, 25);
        w.latency(250, 5);
        let (qps, p50, p99) = w.summary(2.0, 1.0);
        assert_eq!(qps, 10.0 * 1e9 / 50.0);
        assert_eq!(p50, 14.0 - 2.0);
        assert_eq!(p99, 19.0 - 2.0);
    }

    #[test]
    fn summary_keeps_the_fastest_windows() {
        let mut w = Windows::new(0, 100, 4);
        // Busy times 100, 25, 50, 400 ns for 10 requests each; window i
        // also records one latency of 10 * (i + 1) ns.
        for (i, busy) in [100, 25, 50, 400].into_iter().enumerate() {
            let at = 100 * i as u64 + 50;
            w.completed(at, 10, busy);
            w.latency(at, 10 * (i as u64 + 1));
        }
        // Half of four windows: the 25 ns and 50 ns ones.
        let (qps, p50, _) = w.summary(0.0, 0.5);
        assert_eq!(qps, (10.0 * 1e9 / 25.0 + 10.0 * 1e9 / 50.0) / 2.0);
        assert_eq!(p50, (20.0 + 30.0) / 2.0);
        // Any share keeps at least the fastest window.
        let (qps, p50, _) = w.summary(0.0, 0.01);
        assert_eq!(qps, 10.0 * 1e9 / 25.0);
        assert_eq!(p50, 20.0);
    }

    #[test]
    fn clock_overhead_ignores_outliers() {
        let calls = std::cell::Cell::new(0u64);
        let overhead = clock_overhead_ns(|| {
            calls.set(calls.get() + 1);
            if calls.get().is_multiple_of(10) {
                1_000_000
            } else {
                20 + calls.get() % 2
            }
        });
        assert!((20.0..=21.0).contains(&overhead), "{overhead}");
    }
}
