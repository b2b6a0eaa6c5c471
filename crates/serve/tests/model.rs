//! Model-check suite for the serve layer's lock-free cores.
//!
//! These tests run the PRODUCTION seqlock, epoch-mirror and counter source
//! (`hc2l_serve::lockfree`, instantiated with the checker's shim atomics
//! instead of `std::sync::atomic`) under `hc2l_check`'s deterministic
//! scheduler, which exhaustively explores thread interleavings at every
//! atomic access. A passing test here is a proof over the whole explored
//! schedule space, not a lucky stress run; the `report.exhaustive` asserts
//! make sure the space was actually exhausted rather than sampled.

use std::sync::Arc;

use hc2l_check::shim::CheckAtomics;
use hc2l_check::{model, model_with, thread, Mode, Options};
use hc2l_serve::lockfree::{Counters, EpochMirror, FrontCore};

type CheckedFront = FrontCore<CheckAtomics>;
type CheckedMirror = EpochMirror<CheckAtomics>;
/// Two owned stripes and the shared one: the production counter with a
/// geometry small enough for the snapshot's loads to interleave
/// exhaustively.
type CheckedCounters = Counters<CheckAtomics, 3>;

/// The value a correctly-published slot must carry, derived from its key
/// and epoch so any torn mix of two fills is detectable.
fn sealed(key: u64, epoch: u64) -> u64 {
    key.wrapping_mul(1000).wrapping_add(epoch)
}

/// One writer filling, one reader probing, every interleaving: the reader
/// must see a miss or the exact sealed value — never a half-written slot.
#[test]
fn seqlock_reader_never_observes_torn_fill() {
    let report = model(|| {
        // 1 slot: the fill and the probe are guaranteed to collide.
        let front = Arc::new(CheckedFront::new(1));
        let w = Arc::clone(&front);
        let writer = thread::spawn(move || {
            w.fill(7, sealed(7, 0), 0);
        });
        if let Some(v) = front.probe(7, 0) {
            assert_eq!(v, sealed(7, 0), "torn fill observed by reader");
        }
        writer.join();
        // After the writer finishes, the fill must be visible and intact.
        assert_eq!(front.probe(7, 0), Some(sealed(7, 0)));
    });
    assert!(
        report.exhaustive,
        "schedule space not exhausted: {report:?}"
    );
    assert!(report.schedules > 1, "degenerate exploration: {report:?}");
}

/// Two writers racing for one slot plus a concurrent reader (hit, fill and
/// overwrite in flight together): any probe result must be one of the two
/// sealed values, never a mix of them.
#[test]
fn seqlock_concurrent_fills_never_mix() {
    let report = model(|| {
        let front = Arc::new(CheckedFront::new(1));
        let (w1, w2) = (Arc::clone(&front), Arc::clone(&front));
        // Distinct keys, same slot (1-slot table): overwrite race.
        let t1 = thread::spawn(move || w1.fill(1, sealed(1, 0), 0));
        let t2 = thread::spawn(move || w2.fill(2, sealed(2, 0), 0));
        for key in [1u64, 2] {
            if let Some(v) = front.probe(key, 0) {
                assert_eq!(v, sealed(key, 0), "mixed fills leaked through seqlock");
            }
        }
        t1.join();
        t2.join();
    });
    assert!(report.schedules > 1, "degenerate exploration: {report:?}");
}

/// The generation-swap invalidation invariant, modelled exactly as
/// `server.rs` runs it: the cache holds an entry tagged with epoch 0, an
/// updater publishes epoch 1 through the mirror (the swap), and a reader
/// probes with whatever epoch it loaded. In NO interleaving may a reader
/// that observed the new epoch hit the old generation's entry.
#[test]
fn epoch_invalidation_never_serves_stale_generation() {
    let report = model(|| {
        let front = Arc::new(CheckedFront::new(1));
        let mirror = Arc::new(CheckedMirror::new(0));
        // Pre-state: the old generation's answer is cached at epoch 0.
        front.fill(7, sealed(7, 0), 0);
        let m = Arc::clone(&mirror);
        let updater = thread::spawn(move || {
            // The swap: publish the new epoch. (server.rs does this inside
            // the generation write lock, before the Arc swap.)
            m.publish(1);
        });
        // The reader path of ServeState::distance.
        let epoch = mirror.load();
        match front.probe(7, epoch) {
            Some(v) => {
                assert_eq!(epoch, 0, "stale generation served after invalidation");
                assert_eq!(v, sealed(7, 0));
            }
            None => {
                // A miss is always safe: the caller recomputes on the
                // current generation and re-inserts under `epoch`.
            }
        }
        updater.join();
        // Post-swap probes with the new epoch must keep missing until a
        // fresh fill arrives...
        assert_eq!(front.probe(7, 1), None);
        front.fill(7, sealed(7, 1), 1);
        // ...and then serve only the new generation's value.
        assert_eq!(front.probe(7, 1), Some(sealed(7, 1)));
        assert_eq!(front.probe(7, 0), None, "old epoch resurrected");
    });
    assert!(
        report.exhaustive,
        "schedule space not exhausted: {report:?}"
    );
}

/// A reader racing a fill *and* an epoch publish at once — the full
/// three-way traffic of a live update under load.
#[test]
fn swap_during_fill_is_always_consistent() {
    let report = model(|| {
        let front = Arc::new(CheckedFront::new(1));
        let mirror = Arc::new(CheckedMirror::new(0));
        let (f1, m1) = (Arc::clone(&front), Arc::clone(&mirror));
        // A query that computed under epoch 0 inserts its result while...
        let filler = thread::spawn(move || f1.fill(7, sealed(7, 0), 0));
        // ...an update publishes epoch 1.
        let swapper = thread::spawn(move || m1.publish(1));
        let epoch = mirror.load();
        if let Some(v) = front.probe(7, epoch) {
            // Whatever epoch the reader saw, the value must be the one
            // sealed for that epoch — the late insert tagged 0 can never
            // satisfy an epoch-1 probe.
            assert_eq!(v, sealed(7, epoch), "cross-epoch value served");
            assert_eq!(epoch, 0, "epoch-1 probe hit an epoch-0 fill");
        }
        filler.join();
        swapper.join();
    });
    assert!(report.schedules > 1, "degenerate exploration: {report:?}");
}

/// The hit/miss counters under every interleaving: an owner counts on its
/// stripe with a plain load and store, two threads share the last stripe
/// with `fetch_add`, and a snapshot runs while all three count. The
/// snapshot may miss in-flight counts but never exceed the final total,
/// and the final total is exact. With the snapshotter that is four
/// threads, past `model`'s automatic switch to sampling, so the search is
/// asked to exhaust every schedule of up to two preemptions (a lost
/// update needs one).
#[test]
fn counter_stripes_stay_exact_and_snapshots_stay_bounded() {
    let opts = Options {
        mode: Mode::Exhaustive {
            preemption_bound: 2,
        },
        ..Options::default()
    };
    let report = model_with(opts, || {
        let counters = Arc::new(CheckedCounters::default());
        let owner = {
            let c = Arc::clone(&counters);
            thread::spawn(move || {
                c.count(0, true);
                c.count(0, false);
            })
        };
        // Every index from 2 up lands on the shared stripe.
        let sharers: Vec<_> = [2, usize::MAX]
            .into_iter()
            .map(|stripe| {
                let c = Arc::clone(&counters);
                thread::spawn(move || c.count(stripe, true))
            })
            .collect();
        let (hits, misses) = counters.totals();
        assert!(
            hits <= 3 && misses <= 1,
            "snapshot ({hits}, {misses}) exceeds the final total"
        );
        owner.join();
        for t in sharers {
            t.join();
        }
        assert_eq!(counters.totals(), (3, 1), "a count was lost");
    });
    assert!(
        report.exhaustive,
        "schedule space not exhausted: {report:?}"
    );
    assert!(report.schedules > 1, "degenerate exploration: {report:?}");
}
