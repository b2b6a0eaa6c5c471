//! Deterministic concurrency model checking for the lock-free serving cores.
//!
//! The workspace's hottest paths are hand-rolled lock-free code: the serve
//! cache's seqlock table, the observability histogram's striped
//! counters, and the generation-swap epoch mirror that makes live weight
//! updates invisible to in-flight queries. Stress tests on a 1-core host are
//! the worst possible environment to shake interleaving bugs out of that
//! code, so this crate makes the interleavings *enumerable* instead of
//! probabilistic — a loom-style checker with zero external dependencies:
//!
//! * [`facade`] — an **atomics facade**: traits mirroring the
//!   `std::sync::atomic` API, with a zero-cost [`facade::StdAtomics`]
//!   instantiation for production builds. Lock-free modules are written
//!   generically over the facade once and run unchanged under both worlds.
//! * [`shim`] — the checker's instantiation ([`shim::CheckAtomics`]): shim
//!   atomics that report every ordering-relevant access to a cooperative
//!   scheduler before performing it.
//! * [`sched`] + [`model`] — the scheduler and exploration driver: every
//!   atomic access is a scheduling point; [`model`] re-runs a test closure
//!   under **exhaustive DFS** over thread interleavings (with a bounded
//!   preemption cap to keep 2–3-thread state spaces tractable) or
//!   **seeded-random sampling** when the space outgrows DFS. A failed
//!   assertion aborts exploration and replays the recorded access trace so
//!   the offending interleaving is readable, not just reproducible.
//!
//! # What the checker does and does not model
//!
//! Executions are explored under **sequentially consistent interleaving**
//! of atomic accesses: every load/store/RMW/fence is a point where any
//! runnable thread may be scheduled. This exhaustively covers atomicity
//! bugs — torn multi-word publications, check-then-act races, lost updates,
//! missed invalidation windows — which is the failure class the seqlock and
//! epoch-swap protocols are built to exclude. It does **not** simulate
//! weaker-than-SC hardware reorderings (store buffering et al.); the
//! [`xtask` lint's](../../xtask) `relaxed-publish` rule and the CI
//! ThreadSanitizer leg guard the memory-ordering annotations themselves.
//!
//! # Writing checkable lock-free code
//!
//! ```
//! use hc2l_check::facade::{Atomics, AtomicU64 as _, StdAtomics};
//! use std::sync::atomic::Ordering;
//!
//! struct Flag<A: Atomics = StdAtomics> {
//!     word: A::U64,
//! }
//!
//! impl<A: Atomics> Flag<A> {
//!     fn new() -> Self {
//!         Flag { word: A::U64::new(0) }
//!     }
//!     fn raise(&self) {
//!         self.word.store(1, Ordering::Release);
//!     }
//!     fn raised(&self) -> bool {
//!         self.word.load(Ordering::Acquire) == 1
//!     }
//! }
//!
//! // Production: Flag::<StdAtomics>::new() — monomorphises to plain
//! // std::sync::atomic, zero overhead. Under the checker:
//! hc2l_check::model(|| {
//!     let flag = std::sync::Arc::new(Flag::<hc2l_check::shim::CheckAtomics>::new());
//!     let f2 = std::sync::Arc::clone(&flag);
//!     let t = hc2l_check::thread::spawn(move || f2.raise());
//!     let _ = flag.raised(); // every interleaving with the writer explored
//!     t.join();
//! });
//! ```

pub mod facade;
mod model;
mod sched;
pub mod shim;
pub mod thread;

pub use model::{model, model_with, Mode, Options, Report};
