//! A lock-free result cache for point-to-point query results.
//!
//! Labelling queries are tens of nanoseconds, so a result cache only pays
//! off when a hit costs a small fraction of that. The whole cache is one
//! direct-mapped table of per-slot seqlocks ([`FrontCore`], the protocol
//! the model-check suite in `tests/model.rs` verifies): a probe is five
//! plain atomic loads, a fill is one CAS-claimed best-effort write, and a
//! slot simply holds the last pair filled into it. There is no lock, no
//! map and no recency list — a colliding pair overwrites the slot, and the
//! table is sized at twice the requested capacity to keep such collisions
//! rare. Capacity 0 disables the cache so the serving layer can A/B it.
//!
//! Distances in this workspace are symmetric, so keys are canonicalised to
//! `(min(s,t), max(s,t))`: a `(t, s)` probe hits a cached `(s, t)` result.
//!
//! Entries are tagged with the **index generation** (epoch) they were
//! computed against: after a weight-update batch swaps in a new generation,
//! the serving layer probes with the new epoch and every stale entry reads
//! as a miss — O(1) whole-cache invalidation with no sweep. Stale slots are
//! overwritten as new-generation answers are filled in. The epoch-less
//! [`QueryCache::get`]/[`QueryCache::insert`] are conveniences for
//! single-generation users (epoch 0).
//!
//! Hits and misses are counted for the server's `Metrics` read-out and the
//! bench's cache-hit-rate column on thread-striped, cache-line-padded
//! [`Counters`]. The first 63 threads that count each own a stripe and
//! bump it with a relaxed load and store — no `lock`-prefixed
//! instruction on a hit; later threads share the last stripe and keep
//! `fetch_add`. Both counts are exact either way.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use hc2l_graph::{Distance, Vertex};

use crate::lockfree::{Counters, FrontCore, STRIPES};

/// Counter snapshot of a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the oracle.
    pub misses: u64,
    /// Occupied table slots (including slots holding a stale generation).
    pub len: usize,
    /// Table slots (0 = cache disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over total lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// This thread's counter stripe: claimed once, on first use, from one
/// process-wide counter in claim order, and never released. The first
/// `STRIPES - 1` threads each own a stripe, so each owned stripe has one
/// writer in every cache; later threads all get the shared last stripe.
#[inline]
fn stripe() -> usize {
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let v = NEXT.fetch_add(1, Ordering::Relaxed).min(STRIPES - 1);
        s.set(v);
        v
    })
}

/// Largest capacity [`QueryCache::new`] honours: 2^24 entries, a table of
/// 2^25 slots (1 GiB). Larger requests are clamped to it.
pub const MAX_CAPACITY: usize = 1 << 24;

/// Table slots for a requested capacity: `None` for a disabled cache,
/// otherwise a non-zero power of two of at most `2 × MAX_CAPACITY`.
fn table_slots(capacity: usize) -> Option<usize> {
    Some(capacity.min(MAX_CAPACITY))
        .filter(|&c| c > 0)
        .and_then(|c| c.checked_mul(2))
        .and_then(usize::checked_next_power_of_two)
}

/// A direct-mapped, epoch-tagged result cache keyed on canonicalised
/// `(s, t)` pairs, shared by reference across worker threads.
///
/// A cached distance is an immutable function of `(pair, epoch)`, so the
/// table may drop or overwrite any entry at any time: a lost fill race or
/// a collision costs a recomputation, never a wrong answer.
pub struct QueryCache {
    /// `None` when the cache is disabled.
    table: Option<FrontCore>,
    counters: Counters,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl QueryCache {
    /// A cache sized for `capacity` entries, clamped to [`MAX_CAPACITY`]: a
    /// table of `(2 × capacity).next_power_of_two()` slots. `capacity == 0`
    /// disables the cache entirely (every lookup is a recorded miss,
    /// inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        // Empty slots carry key u64::MAX, which never matches a probe: real
        // keys pack two in-range vertex ids, validated by the serving layer.
        QueryCache {
            table: table_slots(capacity).map(FrontCore::new),
            counters: Counters::default(),
        }
    }

    /// A disabled cache: no storage, all lookups miss.
    pub fn disabled() -> Self {
        QueryCache::new(0)
    }

    /// Whether the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.table.is_some()
    }

    #[inline]
    fn key(s: Vertex, t: Vertex) -> u64 {
        // Distances are symmetric: canonicalise so (t, s) hits (s, t).
        let (lo, hi) = if s <= t { (s, t) } else { (t, s) };
        (lo as u64) << 32 | hi as u64
    }

    /// Looks up a pair at generation 0 (single-generation users).
    pub fn get(&self, s: Vertex, t: Vertex) -> Option<Distance> {
        self.get_at(s, t, 0)
    }

    /// Stores a pair's distance at generation 0 (no-op when disabled).
    pub fn insert(&self, s: Vertex, t: Vertex, d: Distance) {
        self.insert_at(s, t, d, 0)
    }

    /// Looks up a pair computed against index generation `epoch`, counting
    /// the hit or miss. An entry stored under any other generation, a
    /// colliding pair's entry and a slot caught mid-fill all read as a miss.
    #[inline]
    pub fn get_at(&self, s: Vertex, t: Vertex, epoch: u64) -> Option<Distance> {
        let got = self
            .table
            .as_ref()
            .and_then(|table| table.probe(QueryCache::key(s, t), epoch));
        self.counters.count(stripe(), got.is_some());
        got
    }

    /// Stores a pair's distance computed against index generation `epoch`
    /// (no-op when disabled; best effort — a fill that loses a race with a
    /// concurrent fill of the same slot is dropped). The caller passes the
    /// epoch it *queried* at, not the current one — if a generation swap
    /// raced the query, the entry lands tagged with the old epoch and can
    /// never serve a stale answer to new-generation probes.
    #[inline]
    pub fn insert_at(&self, s: Vertex, t: Vertex, d: Distance, epoch: u64) {
        if let Some(table) = &self.table {
            table.fill(QueryCache::key(s, t), d, epoch);
        }
    }

    /// Counter snapshot. `len` scans the table for occupied slots, so it
    /// costs a pass over the whole table.
    pub fn stats(&self) -> CacheStats {
        let (hits, misses) = self.counters.totals();
        CacheStats {
            hits,
            misses,
            len: self.table.as_ref().map_or(0, FrontCore::occupied),
            capacity: self.table.as_ref().map_or(0, FrontCore::num_slots),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_insert_and_symmetry() {
        let cache = QueryCache::new(64);
        assert_eq!(cache.get(1, 2), None);
        cache.insert(1, 2, 42);
        assert_eq!(cache.get(1, 2), Some(42));
        assert_eq!(cache.get(2, 1), Some(42), "symmetric key must hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_mismatch_reads_as_a_miss() {
        let cache = QueryCache::new(64);
        cache.insert_at(1, 2, 42, 0);
        assert_eq!(cache.get_at(1, 2, 0), Some(42));
        // A new generation sees the old entry as a miss...
        assert_eq!(cache.get_at(1, 2, 1), None);
        // ...and re-inserting under the new epoch takes over the slot.
        cache.insert_at(1, 2, 43, 1);
        assert_eq!(cache.get_at(1, 2, 1), Some(43));
        assert_eq!(cache.get_at(1, 2, 0), None, "old generation is gone");
        // A racing insert tagged with a stale epoch can never poison the
        // current generation.
        cache.insert_at(3, 4, 99, 0);
        assert_eq!(cache.get_at(3, 4, 1), None);
        let s = cache.stats();
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn disabled_cache_is_a_noop() {
        let cache = QueryCache::disabled();
        assert!(!cache.is_enabled());
        cache.insert(1, 2, 3);
        assert_eq!(cache.get(1, 2), None);
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.capacity, 0);
    }

    #[test]
    fn concurrent_use_keeps_counts_consistent() {
        // 80 threads: more than the 63 owned stripes, so the shared
        // `fetch_add` stripe counts alongside the plain load-store ones.
        const THREADS: u32 = 80;
        let cache = std::sync::Arc::new(QueryCache::new(1024));
        let threads: Vec<_> = (0..THREADS)
            .map(|id| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        let (s, t) = (i % 97, (i * 7 + id) % 89);
                        if cache.get(s, t).is_none() {
                            cache.insert(s, t, (s + t) as u64);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, THREADS as u64 * 1000);
        assert!(s.len <= s.capacity);
        // Every cached answer is still the right one.
        for s_v in 0..97u32 {
            for t_v in 0..89u32 {
                if let Some(d) = cache.get(s_v, t_v) {
                    assert_eq!(d, (s_v + t_v) as u64);
                }
            }
        }
    }

    #[test]
    fn reinsert_overwrites_the_value_in_place() {
        let cache = QueryCache::new(64);
        cache.insert(1, 2, 10);
        cache.insert(2, 1, 11);
        assert_eq!(cache.get(1, 2), Some(11), "the later value wins");
        assert_eq!(cache.stats().len, 1, "one pair holds one slot");
    }

    #[test]
    fn counts_stay_exact_with_more_threads_than_stripes() {
        // More threads than counter stripes, so some threads share the
        // last stripe; its `fetch_add` must still lose no increment.
        let cache = std::sync::Arc::new(QueryCache::new(64));
        cache.insert(1, 2, 3);
        let threads: Vec<_> = (0..STRIPES + 16)
            .map(|_| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(cache.get(1, 2), Some(3));
                        assert_eq!(cache.get(5, 6), None);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        let per_kind = (STRIPES as u64 + 16) * 50;
        assert_eq!((s.hits, s.misses), (per_kind, per_kind));
    }

    #[test]
    fn front_cache_serves_and_counts_hits() {
        let cache = QueryCache::new(4096);
        assert!(cache.is_enabled());
        assert_eq!(cache.get(1, 2), None);
        cache.insert(1, 2, 42);
        assert_eq!(cache.get(1, 2), Some(42));
        assert_eq!(cache.get(2, 1), Some(42), "symmetric probe hits");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn front_cache_respects_epochs() {
        let cache = QueryCache::new(8192);
        cache.insert_at(1, 2, 42, 0);
        assert_eq!(cache.get_at(1, 2, 0), Some(42));
        assert_eq!(cache.get_at(1, 2, 1), None, "stale epoch must not hit");
        cache.insert_at(1, 2, 43, 1);
        assert_eq!(cache.get_at(1, 2, 1), Some(43));
        assert_eq!(cache.get_at(1, 2, 0), None, "old generation is gone");
    }

    #[test]
    fn colliding_pairs_share_a_slot_and_the_later_fill_wins() {
        // A 2-slot table: of three distinct pairs, two must share a slot.
        let pairs = [(1, 2), (3, 4), (5, 6)];
        let mut collisions = 0;
        for (i, &a) in pairs.iter().enumerate() {
            for &b in &pairs[i + 1..] {
                let cache = QueryCache::new(1);
                assert_eq!(cache.stats().capacity, 2);
                cache.insert(a.0, a.1, 10);
                cache.insert(b.0, b.1, 20);
                assert_eq!(cache.get(b.0, b.1), Some(20), "the later fill wins");
                match cache.get(a.0, a.1) {
                    Some(d) => assert_eq!(d, 10, "a wrong value was served"),
                    None => {
                        // Same slot: the refill takes it back, and the
                        // other pair now reads as a miss.
                        collisions += 1;
                        assert_eq!(cache.stats().len, 1);
                        cache.insert(a.0, a.1, 10);
                        assert_eq!(cache.get(a.0, a.1), Some(10));
                        assert_eq!(cache.get(b.0, b.1), None);
                    }
                }
            }
        }
        assert!(collisions > 0, "pigeonhole guarantees a shared slot");
    }

    #[test]
    fn sizing_doubles_capacity_to_a_power_of_two_and_len_counts_fills() {
        let off = QueryCache::new(0);
        assert!(!off.is_enabled());
        assert_eq!((off.stats().capacity, off.stats().len), (0, 0));
        assert_eq!(QueryCache::new(3).stats().capacity, 8);
        // Oversized requests (2 × 2^63 wraps to zero; 2^40 entries would be
        // a 32 TiB table) clamp to the documented maximum, never zero slots.
        assert_eq!(table_slots(MAX_CAPACITY), Some(2 * MAX_CAPACITY));
        for huge in [MAX_CAPACITY + 1, 1 << 40, 1 << 63, usize::MAX] {
            assert_eq!(table_slots(huge), Some(2 * MAX_CAPACITY), "{huge}");
        }

        let cache = QueryCache::new(64);
        let s = cache.stats();
        assert_eq!((s.capacity, s.len), (128, 0));
        cache.insert(1, 2, 3);
        cache.insert(2, 1, 3); // same pair, same slot
        assert_eq!(cache.stats().len, 1);
        // Each occupied slot holds exactly one of the filled pairs, the
        // last one mapped there, and that pair hits.
        for v in 10..50 {
            cache.insert(v, v + 1000, v as u64);
        }
        let resident = (10..50).filter(|&v| cache.get(v, v + 1000).is_some());
        assert_eq!(cache.stats().len, 1 + resident.count());
    }

    #[test]
    fn front_cache_concurrent_probes_never_tear() {
        // Hammer one cache from many threads with values that encode
        // (pair, epoch): a seqlock bug serving a torn or mismatched
        // (key, epoch, value) triple trips the assert.
        let expected = |s: u32, t: u32, epoch: u64| {
            let (lo, hi) = (s.min(t) as u64, s.max(t) as u64);
            (lo << 32 | hi).wrapping_mul(3).wrapping_add(epoch)
        };
        let cache = std::sync::Arc::new(QueryCache::new(8192));
        let threads: Vec<_> = (0..8u32)
            .map(|id| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..20_000u32 {
                        let (s, t) = ((i * 7 + id) % 501, (i * 13) % 499);
                        let epoch = (i % 3) as u64;
                        match cache.get_at(s, t, epoch) {
                            Some(d) => assert_eq!(d, expected(s, t, epoch)),
                            None => cache.insert_at(s, t, expected(s, t, epoch), epoch),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 20_000, "every lookup is counted");
    }
}
