//! Observability primitives for the HC2L reproduction.
//!
//! Four small, dependency-free building blocks, shared by every layer that
//! needs to *measure itself* rather than just compute:
//!
//! * [`histogram`] — a lock-free, `Send + Sync` log-linear latency histogram
//!   (HDR-style: fixed sub-1% relative-error buckets over the full `u64`
//!   range, striped atomic counts, mergeable [`histogram::Snapshot`]s with
//!   p50/p90/p99/p99.9/max). One percentile implementation for the whole
//!   workspace: the serving stack, the bench, the replay client and the
//!   examples all report through it.
//! * [`clock`] — the cheapest monotonic nanosecond clock the platform
//!   offers (`rdtsc` calibrated against [`std::time::Instant`] on x86_64,
//!   `Instant` elsewhere). A recorded hot path lives or dies on the cost of
//!   its two timestamps, so this is measured in single-digit nanoseconds.
//! * [`phase`] — named wall-time accumulators for build phases (cut
//!   partitioning, labelling, freeze, bounds). Construction code adds spans
//!   as it goes; the bench drains them into a `build_phases` report.
//! * [`prom`] — helpers for rendering the Prometheus text exposition
//!   format served by the daemon's `Metrics` frame.
//!
//! Everything here is hand-rolled on `std` only, matching the repository's
//! vendored-stubs constraint (no external crates).

pub mod clock;
pub mod histogram;
pub mod phase;
pub mod prom;

pub use histogram::{Histogram, HistogramCore, Snapshot};
