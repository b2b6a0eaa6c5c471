//! A monotonic nanosecond clock cheap enough for per-request recording.
//!
//! `Instant::now()` costs ~30ns per call on the reference hardware (a
//! `clock_gettime` vDSO round trip); a cache-served distance query costs
//! ~70ns end to end, so timing every request with two `Instant` reads would
//! roughly double the hot path. On x86_64 this module reads the TSC directly
//! (~15–30 ns; 27 ns measured on a 2-vCPU KVM guest — and the workspace
//! already assumes invariant-TSC-era hardware for the SIMD kernels) and
//! converts ticks to nanoseconds with a rate calibrated once per process
//! against `Instant`. Other architectures fall back to
//! `Instant` arithmetic — correct, just not as cheap.
//!
//! Usage is a raw-tick pair, converted on the slow side of the measurement:
//!
//! ```
//! let t0 = hc2l_obs::clock::now();
//! // ... work ...
//! let ns = hc2l_obs::clock::ns_since(t0);
//! ```

use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide start instant for the `Instant` fallback.
pub(crate) fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn raw_ticks() -> u64 {
    // SAFETY: `rdtsc` is unconditionally available on x86_64 and touches no
    // memory; on any core young enough to run this workspace the TSC is
    // invariant (constant rate, never stops), which is what makes the
    // one-shot calibration valid.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn raw_ticks() -> u64 {
    process_start().elapsed().as_nanos() as u64
}

/// Nanoseconds per tick, calibrated once per process.
fn ns_per_tick() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(calibrate_rate)
}

/// Fixed-point tick→ns multiplier (`ns_per_tick * 2^32`), cached in a plain
/// atomic so the hot conversion is one relaxed load and one integer
/// multiply — no `OnceLock` acquire fence, no float unit. 0 means
/// "uncalibrated"; racing initialisers compute the same value.
#[inline]
fn tick_ns_mult() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static MULT: AtomicU64 = AtomicU64::new(0);
    let m = MULT.load(Ordering::Relaxed);
    if m != 0 {
        return m;
    }
    let m = ((ns_per_tick() * (1u64 << 32) as f64) as u64).max(1);
    MULT.store(m, Ordering::Relaxed);
    m
}

#[cfg(target_arch = "x86_64")]
fn calibrate_rate() -> f64 {
    // Spin for a few milliseconds against Instant. The window is long
    // enough that the ~30ns cost of the Instant reads themselves is noise
    // (<0.01%), short enough to be invisible at process start.
    let wall0 = Instant::now();
    let t0 = raw_ticks();
    let mut wall_ns;
    loop {
        wall_ns = wall0.elapsed().as_nanos() as u64;
        if wall_ns >= 4_000_000 {
            break;
        }
        std::hint::spin_loop();
    }
    let ticks = raw_ticks().wrapping_sub(t0);
    if ticks == 0 {
        // A TSC that does not advance (emulators, exotic hypervisors):
        // treat ticks as nanoseconds rather than divide by zero. The
        // recorded values are then meaningless but harmless.
        return 1.0;
    }
    wall_ns as f64 / ticks as f64
}

#[cfg(not(target_arch = "x86_64"))]
fn calibrate_rate() -> f64 {
    1.0 // the fallback tick *is* a nanosecond
}

/// Forces calibration now. Call once at server/bench startup so the first
/// recorded request does not absorb the ~4ms calibration spin.
pub fn calibrate() {
    let _ = tick_ns_mult();
    let _ = process_start();
}

/// An opaque timestamp in clock ticks. Only meaningful to [`ns_since`]
/// within the same process.
#[inline]
pub fn now() -> u64 {
    raw_ticks()
}

/// Nanoseconds elapsed since a timestamp taken with [`now`].
///
/// Clamps to 0 if the clock appears to have gone backwards (e.g. a vCPU
/// migration on a host without TSC synchronisation) — a histogram outlier
/// of 2^63 "nanoseconds" would poison max/percentile reports forever.
#[inline]
pub fn ns_since(start: u64) -> u64 {
    let delta = raw_ticks().wrapping_sub(start);
    if delta > (1 << 62) {
        return 0;
    }
    ((delta as u128 * tick_ns_mult() as u128) >> 32) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_is_measured_within_loose_bounds() {
        calibrate();
        let t0 = now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let ns = ns_since(t0);
        // Loose bounds: sleeps overshoot on loaded CI boxes, but a 20ms
        // sleep must never be measured below 10ms or above 5s.
        assert!(ns > 10_000_000, "20ms sleep measured as {ns}ns");
        assert!(ns < 5_000_000_000, "20ms sleep measured as {ns}ns");
    }

    #[test]
    fn timestamps_are_monotonic_enough() {
        calibrate();
        let mut prev = now();
        for _ in 0..10_000 {
            let t = now();
            // Same-core TSC reads are monotonic; the wrapping guard in
            // ns_since covers cross-core skew, but plain forward motion
            // must hold here.
            assert!(t >= prev || prev - t < (1 << 32));
            prev = t;
        }
    }

    #[test]
    fn back_to_back_measurement_is_small() {
        calibrate();
        let t0 = now();
        let ns = ns_since(t0);
        // Two adjacent reads must measure under 10µs even on a preempted
        // CI runner — this is the measurement-overhead floor.
        assert!(ns < 10_000, "empty span measured as {ns}ns");
    }
}
