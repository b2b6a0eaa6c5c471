//! The serve layer's lock-free cores, written once over the
//! [`hc2l_check::facade`] atomics traits.
//!
//! Production code instantiates these with [`StdAtomics`] (the default type
//! parameter), which monomorphises to plain `std::sync::atomic` with zero
//! overhead. The model-check suite (`tests/model.rs`) instantiates the SAME
//! source with [`hc2l_check::shim::CheckAtomics`] and exhaustively explores
//! thread interleavings of the protocols below — so the code that ships is
//! the code that was checked, not a parallel "model" that can drift.
//!
//! Three protocols live here:
//!
//! * [`FrontCore`] — the direct-mapped seqlock table that is the whole
//!   query cache (`cache.rs` adds key packing, sizing and the per-thread
//!   stripe claim). Invariant: a probe never returns a torn
//!   `(key, epoch, value)` triple.
//! * [`Counters`] — the cache's hit/miss counter stripes: single-writer
//!   stripes bumped with a plain load and store, plus one shared stripe
//!   that keeps `fetch_add`. Invariant: no increment is lost, and a
//!   concurrent snapshot never reads more than the final total.
//! * [`EpochMirror`] — the atomic mirror of the current index generation
//!   that the serving layer reads before probing the cache (`server.rs`).
//!   Invariant: after a swap publishes epoch `n`, no reader that loaded
//!   `n` can hit a cache entry tagged with an earlier generation — the
//!   mirror must be published *before* the new generation is reachable, so
//!   the race goes the safe way (a fresh-epoch miss, never a stale hit).

use std::sync::atomic::Ordering;

use hc2l_check::facade::{AtomicU64 as _, Atomics, StdAtomics};

/// One seqlock slot: `seq` is odd while a writer owns the slot and bumps by
/// 2 per publish, so an unchanged even `seq` around the data loads proves
/// the triple was not torn. Aligned to its 32-byte size so no slot spans
/// two cache lines.
#[repr(align(32))]
struct Slot<A: Atomics> {
    seq: A::U64,
    key: A::U64,
    epoch: A::U64,
    value: A::U64,
}

/// A direct-mapped array of per-slot seqlocks over `(key, epoch, value)`
/// triples — the storage of the query cache.
///
/// Readers take no lock: a mid-write, overwritten, or mismatched slot reads
/// as a miss (`None`) and the caller recomputes. Writers claim a slot with
/// one CAS and are free to lose the race — every entry is a recomputable
/// answer, so a dropped fill costs time, never correctness. The payoff is a
/// hit path of five plain atomic loads with zero `lock`-prefixed
/// instructions.
pub struct FrontCore<A: Atomics = StdAtomics> {
    slots: Box<[Slot<A>]>,
    /// `64 - log2(slots.len())`, for fibonacci-hash slot selection.
    shift: u32,
}

impl<A: Atomics> FrontCore<A> {
    /// `num_slots` must be a power of two (direct mapping by high hash
    /// bits). Empty slots carry key `u64::MAX`, which callers must never
    /// use as a real key (the cache's packed vertex pairs cannot).
    pub fn new(num_slots: usize) -> Self {
        assert!(
            num_slots.is_power_of_two(),
            "FrontCore size must be a power of two, got {num_slots}"
        );
        FrontCore {
            slots: (0..num_slots)
                .map(|_| Slot {
                    seq: A::U64::new(0),
                    key: A::U64::new(u64::MAX),
                    epoch: A::U64::new(0),
                    value: A::U64::new(0),
                })
                .collect(),
            // Capped at 63 so the 1- and 2-slot tables model tests use
            // don't shift by the full word width; the mask in `slot_of`
            // keeps the index in range either way.
            shift: (64 - num_slots.trailing_zeros()).min(63),
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> &Slot<A> {
        let i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        &self.slots[i & (self.slots.len() - 1)]
    }

    /// Lock-free probe; a mid-write, torn, or mismatched slot is a miss.
    #[inline]
    pub fn probe(&self, key: u64, epoch: u64) -> Option<u64> {
        let s = self.slot_of(key);
        let s0 = s.seq.load(Ordering::Acquire);
        if s0 & 1 != 0 {
            return None;
        }
        let k = s.key.load(Ordering::Relaxed);
        let e = s.epoch.load(Ordering::Relaxed);
        let v = s.value.load(Ordering::Relaxed);
        // The acquire fence pins the three data loads before the seq
        // re-read; an unchanged even seq proves they were not torn.
        A::fence(Ordering::Acquire);
        if s.seq.load(Ordering::Relaxed) != s0 || k != key || e != epoch {
            return None;
        }
        Some(v)
    }

    /// Number of slots in the table.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Slots holding an entry (of any epoch): a read-only scan of the whole
    /// table, approximate while fills run concurrently.
    pub fn occupied(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.key.load(Ordering::Relaxed) != u64::MAX)
            .count()
    }

    /// Best-effort publish; losing the claim race just skips the fill.
    #[inline]
    pub fn fill(&self, key: u64, value: u64, epoch: u64) {
        let s = self.slot_of(key);
        let s0 = s.seq.load(Ordering::Relaxed);
        if s0 & 1 != 0 {
            return;
        }
        if s.seq
            .compare_exchange(s0, s0 + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        s.key.store(key, Ordering::Relaxed);
        s.epoch.store(epoch, Ordering::Relaxed);
        s.value.store(value, Ordering::Relaxed);
        s.seq.store(s0 + 2, Ordering::Release);
    }
}

/// Hit/miss counter stripes a production [`Counters`] holds.
pub const STRIPES: usize = 64;

/// One stripe's hit and miss cells, on a cache line of its own.
#[repr(align(64))]
struct Stripe<A: Atomics> {
    hits: A::U64,
    misses: A::U64,
}

/// Exact hit and miss counts, striped one cache line per stripe.
///
/// Stripes `0..N - 1` are *owned*: each must have at most one writer
/// thread, which counts with a relaxed `load` then `store`. With one
/// writer the load always reads that writer's own last store, so the
/// count stays exact without a `lock`-prefixed instruction. Every index
/// from `N - 1` up maps to the last, *shared* stripe, which any number of
/// threads count on with `fetch_add`. A reader sums all stripes with
/// relaxed loads: mid-count it may miss in-flight increments, never invent
/// one. `cache.rs` hands each thread its index once, in claim order.
pub struct Counters<A: Atomics = StdAtomics, const N: usize = STRIPES> {
    stripes: Box<[Stripe<A>; N]>,
}

impl<A: Atomics, const N: usize> Default for Counters<A, N> {
    fn default() -> Self {
        Counters {
            stripes: Box::new(std::array::from_fn(|_| Stripe {
                hits: A::U64::new(0),
                misses: A::U64::new(0),
            })),
        }
    }
}

impl<A: Atomics, const N: usize> Counters<A, N> {
    /// Counts one hit (`hit`) or miss on stripe `stripe`. An index below
    /// `N - 1` must belong to the calling thread alone; any larger index
    /// counts on the shared stripe.
    #[inline]
    pub fn count(&self, stripe: usize, hit: bool) {
        let s = &self.stripes[stripe.min(N - 1)];
        let cell = if hit { &s.hits } else { &s.misses };
        if stripe < N - 1 {
            cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        } else {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(hits, misses)` summed over every stripe.
    pub fn totals(&self) -> (u64, u64) {
        self.stripes.iter().fold((0, 0), |(h, m), s| {
            (
                h + s.hits.load(Ordering::Relaxed),
                m + s.misses.load(Ordering::Relaxed),
            )
        })
    }
}

/// The atomic mirror of the current index generation (epoch).
///
/// The authoritative generation lives behind an `RwLock<Arc<Generation>>`;
/// this mirror exists so the query hot path can learn the epoch with one
/// acquire load instead of taking the read lock twice. The swap protocol
/// ([`EpochMirror::publish`] *before* the generation pointer swap, both
/// inside the writer's critical section) makes the unavoidable race benign:
/// a query that read the OLD epoch but runs against the NEW generation
/// misses the cache and recomputes — correct, merely unlucky — while the
/// reverse (new epoch, old generation) cannot produce a stale cache hit
/// because entries are tagged with the epoch they were computed at.
pub struct EpochMirror<A: Atomics = StdAtomics> {
    published: A::U64,
}

impl<A: Atomics> std::fmt::Debug for EpochMirror<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochMirror")
            .field("published", &self.load())
            .finish()
    }
}

impl<A: Atomics> EpochMirror<A> {
    pub fn new(epoch: u64) -> Self {
        EpochMirror {
            published: A::U64::new(epoch),
        }
    }

    /// Publishes a new epoch. Release pairs with the acquire in
    /// [`EpochMirror::load`]: a reader that observes the new epoch also
    /// observes every cache invalidation the writer did before publishing.
    #[inline]
    pub fn publish(&self, epoch: u64) {
        self.published.store(epoch, Ordering::Release);
    }

    /// The most recently published epoch.
    #[inline]
    pub fn load(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_misses_empty_and_hits_filled() {
        let f: FrontCore = FrontCore::new(1024);
        assert_eq!(f.probe(7, 0), None);
        f.fill(7, 42, 0);
        assert_eq!(f.probe(7, 0), Some(42));
        assert_eq!(f.probe(7, 1), None, "epoch mismatch is a miss");
        assert_eq!(f.probe(8, 0), None, "key mismatch is a miss");
    }

    #[test]
    fn fill_overwrites_in_place() {
        let f: FrontCore = FrontCore::new(8);
        f.fill(1, 10, 0);
        f.fill(1, 11, 1);
        assert_eq!(f.probe(1, 0), None);
        assert_eq!(f.probe(1, 1), Some(11));
    }

    #[test]
    fn occupied_counts_filled_slots_of_any_epoch() {
        let f: FrontCore = FrontCore::new(1024);
        assert_eq!((f.num_slots(), f.occupied()), (1024, 0));
        f.fill(1, 10, 0);
        f.fill(2, 20, 5);
        assert_eq!(f.occupied(), 2);
        // Refilling a key under another epoch reuses its slot.
        f.fill(1, 11, 1);
        assert_eq!(f.occupied(), 2);
        assert_eq!(f.num_slots(), 1024);
    }

    #[test]
    fn epoch_mirror_roundtrips() {
        let m: EpochMirror = EpochMirror::new(0);
        assert_eq!(m.load(), 0);
        m.publish(3);
        assert_eq!(m.load(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_size_is_rejected() {
        let _: FrontCore = FrontCore::new(1000);
    }
}
