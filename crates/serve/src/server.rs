//! The serve loop: shared state, the TCP server (an event-driven epoll
//! reactor), and in-process request execution.
//!
//! One [`ServeState`] — index, result cache, counters — is built per served
//! index and shared behind an `Arc`: the daemon's connection handlers,
//! embedded callers (`sysbench`'s `embedded` workload) and the in-process
//! tests all execute
//! requests through the same [`ServeState::distance`] /
//! [`ServeState::one_to_many_into`] entry points, so every path is measured
//! and cached identically. The query path takes **no blocking locks**: the
//! oracle lives in an epoch-tagged generation behind an `RwLock<Arc<_>>`
//! whose read side is only ever held for one `Arc` clone, counters are
//! relaxed atomics, and the result cache is a lock-free seqlock table.
//!
//! **Live weight updates** ([`ServeState::try_apply_updates`]): a state
//! built with [`ServeState::with_updates`] additionally owns the underlying
//! graph plus an updatable [`Oracle`]; an `UpdateWeights` batch is absorbed
//! there (incrementally for CH / HC2L, by rebuild otherwise — see
//! `hc2l_oracle::DistanceOracle::apply_updates`) and the refreshed index is
//! published as a **new generation** with one brief write lock. In-flight
//! queries hold `Arc`s to the old generation and finish on it — they never
//! block on an update, and never observe a half-applied batch. Cache
//! entries are epoch-tagged, so the swap invalidates the whole cache in
//! O(1) without a sweep.
//!
//! [`serve_with_model`] runs the epoll reactor (`crate::reactor`), which
//! holds hundreds of mostly-idle connections on a handful of threads. It is
//! Linux-only: elsewhere it returns [`io::ErrorKind::Unsupported`], while
//! everything else in this module (state, cache, execution) stays portable.

use std::cell::Cell;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use hc2l_graph::{failpoints, Distance, Graph, KernelKind, Vertex};
use hc2l_oracle::{DistanceOracle, Method, Oracle, QueryStats, SharedOracle, WeightUpdate};

use hc2l_obs::clock;

use crate::cache::QueryCache;
use crate::lockfree::EpochMirror;
use crate::metrics::OpLatencies;
use crate::protocol::{write_response, Request, Response, UpdateOutcome, MAX_UPDATE_BATCH};
#[cfg(target_os = "linux")]
use crate::reactor::run as run_reactor;

/// Most reactor threads a serve loop runs; [`ServeState`] clamps its
/// thread count to this. Reactors above it stop paying for themselves —
/// each one is a full query-executing thread.
pub const MAX_REACTORS: usize = 16;

/// The serve loop's connection model. The epoll reactor is the only one;
/// the enum and [`serve_with_model`]'s parameter remain because `sysbench`
/// (whose sources stay fixed between benchmark changes) names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeModel {
    /// Event-driven reactor: N threads each own an epoll instance and a
    /// per-connection state table with incremental frame decoding, so
    /// hundreds of mostly-idle connections cost no threads and no blocked
    /// stacks. Linux-only.
    Epoll,
}

/// Fault-tolerance knobs of a serve loop. [`ServeConfig::default`] is what
/// the daemon runs with unless flags override it; tests tighten the budgets
/// to milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Close a connection that has been idle — at a frame boundary, with
    /// nothing buffered — longer than this. `None` never reaps idle peers.
    pub idle_timeout: Option<Duration>,
    /// Close a connection stalled *mid-request* longer than this: a partial
    /// frame trickling in (slow loris) or a peer not draining its response.
    /// This is the per-request deadline the server enforces — bounded time
    /// from first request byte to response flush, measured as time since
    /// the connection last made progress. `None` never reaps stalled peers.
    pub stall_timeout: Option<Duration>,
    /// How long shutdown waits for live connections to drain before closing
    /// them (`--drain-secs`; the default is 3 seconds). A window too long
    /// to add to an `Instant`, such as `Duration::MAX`, is unbounded.
    pub drain: Duration,
    /// Queries (`Distance` / `OneToMany`) allowed to execute concurrently
    /// before further ones are shed with [`Response::Overloaded`];
    /// 0 disables query admission control. Update admission is separate
    /// and always on: one batch absorbs at a time, a second is shed.
    pub max_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            idle_timeout: Some(Duration::from_secs(300)),
            stall_timeout: Some(Duration::from_secs(30)),
            drain: Duration::from_secs(3),
            max_inflight: 0,
        }
    }
}

/// Any index the serve loop can answer from: a zero-copy mmap-backed view
/// ([`SharedOracle`], the daemon's path) or an owned in-memory index
/// ([`Oracle`], the path tests and embedded users take after `build`/`load`).
#[derive(Debug, Clone)]
pub enum ServedOracle {
    /// Zero-copy view over a loaded container (see `OracleBuilder::open`).
    Shared(SharedOracle),
    /// Owned index (built in-process or decoded by `OracleBuilder::load`);
    /// boxed so the rarely-held large variant does not inflate the enum.
    Built(Box<Oracle>),
}

impl ServedOracle {
    /// The served method.
    pub fn method(&self) -> Method {
        match self {
            ServedOracle::Shared(o) => o.method(),
            ServedOracle::Built(o) => o.method(),
        }
    }

    /// Number of vertices of the indexed graph.
    pub fn num_vertices(&self) -> usize {
        match self {
            ServedOracle::Shared(o) => o.num_vertices(),
            ServedOracle::Built(o) => o.num_vertices(),
        }
    }

    /// Container-file footprint in bytes.
    pub fn index_bytes(&self) -> usize {
        match self {
            ServedOracle::Shared(o) => o.index_bytes(),
            ServedOracle::Built(o) => o.index_bytes(),
        }
    }

    /// Whether answers come straight out of a file mapping.
    pub fn is_mapped(&self) -> bool {
        match self {
            ServedOracle::Shared(o) => o.is_mapped(),
            ServedOracle::Built(_) => false,
        }
    }

    /// Uncounted, uncached point-to-point query straight at the index
    /// (callers wanting the serve path go through [`ServeState::distance`]).
    #[inline]
    pub fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        match self {
            ServedOracle::Shared(o) => o.distance(s, t),
            ServedOracle::Built(o) => o.distance(s, t),
        }
    }

    /// Like [`ServedOracle::distance`], plus the index's per-query
    /// instrumentation record.
    pub fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        match self {
            ServedOracle::Shared(o) => o.distance_with_stats(s, t),
            ServedOracle::Built(o) => o.distance_with_stats(s, t),
        }
    }

    /// Uncounted batched query straight at the index.
    #[inline]
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        match self {
            ServedOracle::Shared(o) => o.one_to_many_into(s, targets, out),
            ServedOracle::Built(o) => o.one_to_many_into(s, targets, out),
        }
    }
}

impl From<SharedOracle> for ServedOracle {
    fn from(o: SharedOracle) -> Self {
        ServedOracle::Shared(o)
    }
}

impl From<Oracle> for ServedOracle {
    fn from(o: Oracle) -> Self {
        ServedOracle::Built(Box::new(o))
    }
}

/// One immutable index generation: the oracle snapshot being served plus
/// the epoch that tags its cache entries. Queries grab an `Arc<Generation>`
/// and answer entirely on it, so a concurrent weight update (which installs
/// a *new* generation) never blocks them or changes answers mid-request.
/// Derefs to [`ServedOracle`], so `state.oracle().distance(s, t)` reads the
/// same as before generations existed.
#[derive(Debug)]
pub struct Generation {
    oracle: ServedOracle,
    epoch: u64,
}

impl Generation {
    /// The index generation number: 0 at build, +1 per absorbed update
    /// batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::ops::Deref for Generation {
    type Target = ServedOracle;

    fn deref(&self) -> &ServedOracle {
        &self.oracle
    }
}

/// The updatable source of truth behind a [`ServeState::with_updates`]
/// daemon: the live graph and an owned oracle that absorbs weight batches
/// (incrementally where the backend supports it). Guarded by a mutex so
/// concurrent batches serialise; queries never touch it.
#[derive(Debug)]
struct UpdateEngine {
    graph: Graph,
    oracle: Oracle,
}

/// Why [`ServeState::try_apply_updates`] refused a batch — the two cases
/// map to the two terminal protocol responses with different retry
/// semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// Another batch holds the update engine right now. Nothing of this
    /// batch was applied; retrying the identical batch after a backoff is
    /// safe. Maps to [`Response::Overloaded`].
    Overloaded(String),
    /// The batch cannot be applied (static index, oversized batch, engine
    /// disabled by an earlier fault). Retrying unchanged will fail again.
    /// Maps to [`Response::Error`].
    Rejected(String),
}

impl UpdateError {
    /// The wire response this error is reported as.
    pub fn into_response(self) -> Response {
        match self {
            UpdateError::Overloaded(msg) => Response::Overloaded(msg),
            UpdateError::Rejected(msg) => Response::Error(msg),
        }
    }
}

/// A point-in-time snapshot of a [`ServeState`]'s identity and counters —
/// what the `Metrics` document renders, the daemon prints at shutdown and
/// embedded callers read directly. Latency percentiles are not copied
/// here: they live in [`ServeState::latency`]'s histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Backend of the served index.
    pub method: Method,
    /// Active min-plus kernel of the serving process.
    pub kernel: KernelKind,
    /// Vertices of the indexed graph.
    pub num_vertices: u64,
    /// Container file size in bytes.
    pub index_bytes: u64,
    /// Reactor threads of the serve loop.
    pub threads: u32,
    /// Whether the index is served from a file mapping.
    pub mapped: bool,
    /// Point-to-point queries answered.
    pub distance_queries: u64,
    /// One-to-many requests answered.
    pub one_to_many_queries: u64,
    /// Total targets across all one-to-many requests.
    pub one_to_many_targets: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache occupied slots.
    pub cache_len: u64,
    /// Result-cache table slots (0 = disabled).
    pub cache_capacity: u64,
    /// `UpdateWeights` batches absorbed since startup.
    pub update_batches: u64,
    /// Index generation currently being served (0 until the first update).
    pub epoch: u64,
    /// Connections accepted since startup.
    pub connections_accepted: u64,
    /// Connections the server closed for exceeding an idle or stall budget
    /// (slow-loris clients, dead peers mid-frame, unread responses).
    pub connections_reaped: u64,
    /// Request-handler panics caught and converted into error responses
    /// (the daemon keeps serving; a nonzero value deserves investigation).
    pub panics_caught: u64,
    /// Requests shed with [`Response::Overloaded`] before execution.
    pub overload_rejections: u64,
    /// Response writes that failed because the peer was gone (broken pipe /
    /// connection reset); the reactor survives and the connection is closed.
    pub write_errors: u64,
}

impl ServerStats {
    /// Cache hits over total lookups, 0.0 when nothing was looked up.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Everything a serving thread needs to answer queries: the current index
/// generation, the result cache, and the served/shutdown counters.
#[derive(Debug)]
pub struct ServeState {
    /// Current generation; the write lock is held only for the pointer swap
    /// at the end of an update, the read lock only for an `Arc` clone.
    generation: RwLock<Arc<Generation>>,
    /// Present when the daemon owns the graph and can absorb updates.
    engine: Option<Mutex<UpdateEngine>>,
    cache: QueryCache,
    /// Mirror of the published generation's epoch, so the cache-hit fast
    /// path probes without touching the generation lock (and without the
    /// `Arc` clone/drop pair). Stored *before* the generation swap: a
    /// racing query can at worst miss on the not-yet-published epoch and
    /// recompute — it can never serve a stale generation's entry as fresh.
    /// The publish/load protocol lives in [`crate::lockfree::EpochMirror`],
    /// where the model-check suite exercises it under the checker.
    cache_epoch: EpochMirror,
    /// Per-opcode latency histograms, recorded identically on the wire and
    /// in process (everything funnels through these entry points).
    latency: OpLatencies,
    /// Vertex count of every generation: updates change weights, never
    /// topology, so requests validate against this without touching the
    /// generation lock.
    num_vertices: usize,
    threads: usize,
    config: ServeConfig,
    /// Distance requests have no counter of their own: the cache counts
    /// every lookup, and [`ServeState::distance`] makes exactly one.
    one_to_many_queries: AtomicU64,
    one_to_many_targets: AtomicU64,
    update_batches: AtomicU64,
    /// Queries currently executing, for [`ServeConfig::max_inflight`]
    /// admission.
    inflight: AtomicUsize,
    connections_accepted: AtomicU64,
    connections_reaped: AtomicU64,
    panics_caught: AtomicU64,
    overload_rejections: AtomicU64,
    write_errors: AtomicU64,
    /// Raised when an update batch panicked mid-absorb: the engine may be
    /// mid-mutation, so further updates are refused (queries keep answering
    /// on the last *published* generation, which the failed batch never
    /// touched).
    engine_failed: AtomicBool,
    shutdown: AtomicBool,
    /// Set by [`serve_with_model`] once the listener is bound; guards
    /// against two serve loops sharing one state's shutdown flag.
    bound_addr: OnceLock<SocketAddr>,
}

impl ServeState {
    /// Wraps an oracle with a result cache sized for `cache_capacity`
    /// entries (see [`QueryCache::new`]; 0 disables caching) for a serve
    /// loop of `threads` reactors, clamped to `1..=`[`MAX_REACTORS`]. The
    /// index is served as-is:
    /// `UpdateWeights` requests are answered with a typed error (use
    /// [`ServeState::with_updates`] to enable them).
    pub fn new(oracle: impl Into<ServedOracle>, threads: usize, cache_capacity: usize) -> Self {
        ServeState::build(oracle.into(), None, threads, cache_capacity)
    }

    /// Like [`ServeState::new`], but keeps `graph` and the owned `oracle`
    /// as the updatable source of truth: `UpdateWeights` batches are
    /// absorbed there and published as new generations while queries keep
    /// answering on the old one.
    pub fn with_updates(
        graph: Graph,
        oracle: Oracle,
        threads: usize,
        cache_capacity: usize,
    ) -> Self {
        let served = ServedOracle::from(oracle.clone());
        ServeState::build(
            served,
            Some(Mutex::new(UpdateEngine { graph, oracle })),
            threads,
            cache_capacity,
        )
    }

    fn build(
        oracle: ServedOracle,
        engine: Option<Mutex<UpdateEngine>>,
        threads: usize,
        cache_capacity: usize,
    ) -> Self {
        // Calibrate the TSC-to-nanoseconds rate up front so the first
        // recorded request does not absorb the ~4ms calibration spin.
        clock::calibrate();
        ServeState {
            num_vertices: oracle.num_vertices(),
            generation: RwLock::new(Arc::new(Generation { oracle, epoch: 0 })),
            engine,
            cache: QueryCache::new(cache_capacity),
            cache_epoch: EpochMirror::new(0),
            latency: OpLatencies::default(),
            threads: threads.clamp(1, MAX_REACTORS),
            config: ServeConfig::default(),
            one_to_many_queries: AtomicU64::new(0),
            one_to_many_targets: AtomicU64::new(0),
            update_batches: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            connections_accepted: AtomicU64::new(0),
            connections_reaped: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            overload_rejections: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            engine_failed: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            bound_addr: OnceLock::new(),
        }
    }

    /// Replaces the fault-tolerance configuration (builder style, before the
    /// state is shared): `ServeState::new(..).with_config(cfg)`.
    pub fn with_config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// The fault-tolerance configuration this state serves under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The currently served generation (an `Arc` snapshot: stable for the
    /// caller even while updates swap in newer generations).
    ///
    /// Lock poisoning is recovered, not propagated: the critical sections
    /// on this lock are a lone `Arc` clone / pointer store, which cannot be
    /// observed half-done, so a panic elsewhere in a past holder must not
    /// cascade into every future query.
    pub fn oracle(&self) -> Arc<Generation> {
        self.generation
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The current index generation number.
    pub fn epoch(&self) -> u64 {
        self.generation
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .epoch
    }

    /// Absorbs a weight-update batch and publishes the re-weighted index as
    /// a new generation. Queries keep answering on the old generation
    /// throughout and switch at the pointer swap. A batch that applies no
    /// update (every edge missing) publishes nothing: it reports the
    /// current epoch, and every cached answer stays valid.
    ///
    /// Admission control: one batch absorbs at a time. A batch arriving
    /// while another holds the engine is shed with
    /// [`UpdateError::Overloaded`] instead of queueing on the mutex — the
    /// client retries with backoff, and the daemon never accumulates a
    /// convoy of blocked update workers. [`UpdateError::Rejected`] (static
    /// index, oversized batch, disabled engine) leaves the served index
    /// untouched, as does a batch that panics mid-absorb: the panic is
    /// caught here, the engine is disabled, and the published generation —
    /// which the failed batch never touched — keeps answering exactly.
    pub fn try_apply_updates(
        &self,
        updates: &[WeightUpdate],
    ) -> Result<UpdateOutcome, UpdateError> {
        let t0 = clock::now();
        let Some(engine) = &self.engine else {
            return Err(UpdateError::Rejected(
                "this daemon serves a static index snapshot and cannot apply weight updates \
                 (start it from an owned graph, e.g. --grid, to enable them)"
                    .into(),
            ));
        };
        if updates.len() > MAX_UPDATE_BATCH {
            return Err(UpdateError::Rejected(format!(
                "batch of {} updates exceeds the {}-update frame cap; split it",
                updates.len(),
                MAX_UPDATE_BATCH
            )));
        }
        let mut guard = match engine.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.overload_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(UpdateError::Overloaded(
                    "an update batch is already being absorbed; retry with backoff".into(),
                ));
            }
            // A panicking absorb is caught below before it can poison the
            // mutex, but recover defensively: the engine-failed flag is
            // what actually gates a damaged engine.
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        };
        if self.engine_failed.load(Ordering::Acquire) {
            return Err(UpdateError::Rejected(
                "the update engine was disabled by an earlier mid-apply fault; queries keep \
                 answering on the last published generation (restart the daemon to re-enable \
                 updates)"
                    .into(),
            ));
        }
        // Panic isolation: a backend that dies mid-absorb (or an injected
        // `serve.update.absorb` fault) must degrade to a typed error, not
        // take the worker — and with it possibly the daemon — down. The
        // generation swap below only happens on success, so a failed batch
        // is never partially visible to queries.
        let absorbed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            failpoints::act("serve.update.absorb");
            let UpdateEngine { graph, oracle } = &mut *guard;
            let report = oracle.apply_updates(graph, updates);
            let served = ServedOracle::from(oracle.clone());
            (report, served)
        }));
        let (report, served) = match absorbed {
            Ok(pair) => pair,
            Err(_) => {
                self.engine_failed.store(true, Ordering::Release);
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                // A write error on stderr must not turn into a second panic.
                let _ = writeln!(
                    io::stderr(),
                    "update batch panicked mid-apply; engine disabled, \
                     still serving the last published generation"
                );
                return Err(UpdateError::Rejected(
                    "update batch failed mid-apply (panic caught): no part of the batch is \
                     visible to queries, and further updates are disabled until restart"
                        .into(),
                ));
            }
        };
        debug_assert_eq!(
            served.num_vertices(),
            self.num_vertices,
            "a weight update changed the vertex count"
        );
        // Publish: one brief write lock for the pointer swap. Readers that
        // cloned the old Arc finish on the old generation; every query
        // *started* after this point sees the new one. Poisoning on this
        // lock is recovered like on the read side — the store is atomic
        // from any observer's point of view.
        let epoch = if report.applied == 0 {
            self.epoch()
        } else {
            let mut slot = self.generation.write().unwrap_or_else(|p| p.into_inner());
            let epoch = slot.epoch + 1;
            // Advance the probe mirror *before* the swap is visible: see
            // the `cache_epoch` field docs for why this order is the safe
            // side of the race.
            self.cache_epoch.publish(epoch);
            *slot = Arc::new(Generation {
                oracle: served,
                epoch,
            });
            epoch
        };
        drop(guard);
        self.update_batches.fetch_add(1, Ordering::Relaxed);
        self.latency.update_weights.record(clock::ns_since(t0));
        Ok(UpdateOutcome {
            strategy_tag: report.strategy.tag(),
            applied: report.applied as u64,
            rejected: report.rejected as u64,
            micros: report.micros,
            epoch,
        })
    }

    /// Reactor threads a serve loop runs: the requested count, clamped to
    /// `1..=`[`MAX_REACTORS`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The result cache (for inspection; workers go through
    /// [`ServeState::distance`]).
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Answers a point-to-point query through the cache, counting it.
    ///
    /// The in-process hot path: vertices are trusted to be in range
    /// (embedded users own their workloads). Anything
    /// arriving over the wire goes through [`ServeState::try_distance`],
    /// which validates *before* counting or caching.
    ///
    /// The cache's hit/miss counter is the request count. Latency is timed
    /// on a per-thread sample only (see `sample_this_distance`); an
    /// unsampled request reads no clock and writes no histogram.
    #[inline]
    pub fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        let t0 = sample_this_distance().then(clock::now);
        // Probe with the epoch *mirror* instead of grabbing the generation:
        // a cache hit then skips the generation read lock and the `Arc`
        // clone/drop pair entirely. The mirror advances before the
        // generation swap, so the race goes the safe way — a fresh epoch
        // that misses and recomputes, never a stale entry served as
        // current.
        let epoch = self.cache_epoch.load();
        if let Some(d) = self.cache.get_at(s, t, epoch) {
            if let Some(t0) = t0 {
                self.latency.distance_hit.record(clock::ns_since(t0));
            }
            return d;
        }
        // One generation snapshot for compute and insert: the cache entry
        // is tagged with the epoch it was *computed* against, so a racing
        // generation swap can at worst waste this insert, never poison the
        // new generation.
        let generation = self.oracle();
        let Some(t0) = t0 else {
            let d = generation.distance(s, t);
            self.cache.insert_at(s, t, d, generation.epoch);
            return d;
        };
        let (d, query) = generation.distance_with_stats(s, t);
        self.cache.insert_at(s, t, d, generation.epoch);
        self.latency.distance_miss.record(clock::ns_since(t0));
        self.latency.hubs_scanned.record(query.hubs_scanned as u64);
        d
    }

    /// Answers a batched one-to-many query into a caller-provided buffer,
    /// counting and timing it. Batches bypass the point cache: the batched
    /// kernels amortise the per-source work already, and filling the table
    /// with whole rows would overwrite the point working set.
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        let t0 = clock::now();
        self.one_to_many_queries.fetch_add(1, Ordering::Relaxed);
        self.one_to_many_targets
            .fetch_add(targets.len() as u64, Ordering::Relaxed);
        self.oracle().one_to_many_into(s, targets, out);
        self.latency.one_to_many.record(clock::ns_since(t0));
    }

    /// Requests the serve loop to stop accepting and drain.
    ///
    /// The reactors poll this flag on a bounded interval (`epoll_wait`
    /// carries a timeout), so raising it is all that's needed — no
    /// loopback-connect "nudge", which silently never arrives when the
    /// listener is bound to a non-loopback or wildcard address.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Counter snapshot. `distance_queries` is the cache's hit + miss
    /// total, exact.
    pub fn stats(&self) -> ServerStats {
        let cache = self.cache.stats();
        let generation = self.oracle();
        ServerStats {
            method: generation.method(),
            kernel: hc2l_graph::active_kernel(),
            num_vertices: generation.num_vertices() as u64,
            index_bytes: generation.index_bytes() as u64,
            threads: self.threads as u32,
            mapped: generation.is_mapped(),
            distance_queries: cache.hits + cache.misses,
            one_to_many_queries: self.one_to_many_queries.load(Ordering::Relaxed),
            one_to_many_targets: self.one_to_many_targets.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_len: cache.len as u64,
            cache_capacity: cache.capacity as u64,
            update_batches: self.update_batches.load(Ordering::Relaxed),
            epoch: generation.epoch(),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_reaped: self.connections_reaped.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            overload_rejections: self.overload_rejections.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    /// The per-opcode latency histograms (for snapshots; the hot paths
    /// record into them internally).
    pub fn latency(&self) -> &OpLatencies {
        &self.latency
    }

    /// Renders the Prometheus text-exposition document a `Metrics` frame
    /// answers with.
    pub fn metrics_text(&self) -> String {
        crate::metrics::render(&self.stats(), &self.latency)
    }

    /// Records an accepted connection.
    pub(crate) fn note_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection closed for blowing an idle or stall budget.
    pub(crate) fn note_reaped(&self) {
        self.connections_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a caught request-handler panic.
    pub(crate) fn note_panic(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
        // A write error on stderr must not turn into a second panic.
        let _ = writeln!(
            io::stderr(),
            "request handler panicked (caught); the daemon keeps serving"
        );
    }

    /// Records a response write that failed because the peer was gone.
    pub(crate) fn note_write_error(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission control for the query path: reserves an in-flight slot, or
    /// sheds the request when [`ServeConfig::max_inflight`] slots are taken
    /// (the `Err` message becomes a [`Response::Overloaded`]). The returned
    /// guard releases the slot on drop — including during a panic unwind,
    /// so a caught handler panic can never leak capacity.
    pub(crate) fn admit_query(&self) -> Result<InflightGuard<'_>, String> {
        let cap = self.config.max_inflight;
        if cap == 0 {
            return Ok(InflightGuard { state: None });
        }
        let previous = self.inflight.fetch_add(1, Ordering::AcqRel);
        if previous >= cap {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.overload_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(format!(
                "query path saturated ({cap} requests in flight); retry with backoff"
            ));
        }
        Ok(InflightGuard { state: Some(self) })
    }

    /// Validates a point-to-point request: both vertices in range.
    ///
    /// Validation runs **before** [`ServeState::distance`] so a rejected
    /// request never increments the served-query counter, never records a
    /// cache miss, and never inserts a garbage key into the result cache —
    /// the counters and `cache_hit_rate` count only queries that were
    /// actually answered.
    fn check_distance(&self, s: Vertex, t: Vertex) -> Result<(), String> {
        let n = self.num_vertices as Vertex;
        if s >= n || t >= n {
            return Err(format!(
                "vertex out of range: ({s}, {t}) on a {n}-vertex index"
            ));
        }
        Ok(())
    }

    /// Answers a point-to-point query with validation first: out-of-range
    /// vertices produce `Err` without touching any counter or the cache.
    pub fn try_distance(&self, s: Vertex, t: Vertex) -> Result<Distance, String> {
        self.check_distance(s, t)?;
        Ok(self.distance(s, t))
    }

    /// Answers a batched query with validation first: a rejected batch
    /// touches no counter and no cache.
    pub fn try_one_to_many_into(
        &self,
        source: Vertex,
        targets: &[Vertex],
        out: &mut Vec<Distance>,
    ) -> Result<(), String> {
        self.check_one_to_many(source, targets)?;
        self.one_to_many_into(source, targets, out);
        Ok(())
    }

    /// Validates a one-to-many request: batch bounded by the
    /// response-frame cap, every vertex in range.
    fn check_one_to_many(&self, source: Vertex, targets: &[Vertex]) -> Result<(), String> {
        let n = self.num_vertices as Vertex;
        if targets.len() > crate::protocol::MAX_ONE_TO_MANY_TARGETS {
            return Err(format!(
                "batch of {} targets exceeds the {}-target response-frame cap; split it",
                targets.len(),
                crate::protocol::MAX_ONE_TO_MANY_TARGETS
            ));
        }
        if source >= n {
            return Err(format!(
                "source {source} out of range on a {n}-vertex index"
            ));
        }
        if let Some(bad) = targets.iter().find(|&&t| t >= n) {
            return Err(format!("target {bad} out of range on a {n}-vertex index"));
        }
        Ok(())
    }

    /// Executes one request. Out-of-range vertices produce a
    /// [`Response::Error`], never a panic — one bad client query must not
    /// take a worker thread down — and a rejected request leaves every
    /// counter and the cache untouched (see [`ServeState::try_distance`]).
    pub fn execute(&self, req: &Request, batch_buf: &mut Vec<Distance>) -> Response {
        match req {
            Request::Distance(s, t) => match self.try_distance(*s, *t) {
                Err(msg) => Response::Error(msg),
                Ok(d) => Response::Distance(d),
            },
            Request::OneToMany { source, targets } => {
                match self.try_one_to_many_into(*source, targets, batch_buf) {
                    Err(msg) => Response::Error(msg),
                    Ok(()) => Response::Distances(batch_buf.clone()),
                }
            }
            Request::UpdateWeights(updates) => match self.try_apply_updates(updates) {
                Err(e) => e.into_response(),
                Ok(outcome) => Response::Updated(outcome),
            },
            Request::Metrics => Response::Metrics(self.metrics_text()),
            Request::Shutdown => {
                self.request_shutdown();
                Response::ShuttingDown
            }
        }
    }
}

/// Each thread times its first distance request, then every
/// `SAMPLE_EVERY`-th after it.
const SAMPLE_EVERY: u32 = 64;

thread_local! {
    /// Unsampled distance requests left before this thread times one.
    static DISTANCE_COUNTDOWN: Cell<u32> = const { Cell::new(0) };
}

/// Whether the calling thread times its current distance request. Two
/// TSC reads cost more than a cache hit, so timing every request would
/// make the observer costlier than the path it observes.
#[inline]
fn sample_this_distance() -> bool {
    DISTANCE_COUNTDOWN.with(|left| match left.get() {
        0 => {
            left.set(SAMPLE_EVERY - 1);
            true
        }
        n => {
            left.set(n - 1);
            false
        }
    })
}

/// RAII in-flight-query slot from [`ServeState::admit_query`].
pub(crate) struct InflightGuard<'a> {
    state: Option<&'a ServeState>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state {
            state.inflight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Executes one decoded request and writes the encoded response to `w` —
/// the reactor's single request-execution path, where every wire request is
/// validated, counted, cached, admitted and (for batches) streamed. Returns
/// `true` when the request was `Shutdown`: the acknowledgement is written
/// *before* the shutdown flag is raised, so the drain cannot close the
/// socket under a response that was never sent.
///
/// Panic isolation lives here: execution always completes before the first
/// response byte is written (batched answers encode from the buffer only
/// after the kernel filled it), so a panicking handler is caught with the
/// stream still at a frame boundary and degrades to a typed
/// [`Response::Error`] — one poisoned request must not take the connection,
/// let alone the daemon, down.
pub(crate) fn respond<W: Write>(
    state: &ServeState,
    req: &Request,
    w: &mut W,
    batch_buf: &mut Vec<Distance>,
) -> io::Result<bool> {
    if matches!(req, Request::Shutdown) {
        write_response(w, &Response::ShuttingDown)?;
        state.request_shutdown();
        return Ok(true);
    }
    // Failpoint: a torn response frame. Execute for real, emit a prefix of
    // the encoded frame, then fail the connection — the chaos suite asserts
    // the peer decodes a typed error and the daemon keeps serving others.
    if let Some(failpoints::FailAction::Torn(n)) = failpoints::fired("serve.torn_response") {
        let mut frame = Vec::new();
        let resp = state.execute(req, batch_buf);
        write_response(&mut frame, &resp)?;
        w.write_all(&frame[..n.min(frame.len())])?;
        w.flush()?;
        return Err(failpoints::injected("serve.torn_response"));
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> io::Result<bool> {
        // Query admission: shed before executing anything. The guard
        // drops on every exit path, panic unwind included.
        let _inflight = match req {
            Request::Distance(..) | Request::OneToMany { .. } => match state.admit_query() {
                Ok(guard) => Some(guard),
                Err(shed) => {
                    write_response(w, &Response::Overloaded(shed))?;
                    return Ok(false);
                }
            },
            _ => None,
        };
        // Failpoint sits inside the admission window: injected delays and
        // panics model slow or crashing execution while holding a slot.
        failpoints::act("serve.request");
        // Batched answers stream straight from the reused buffer;
        // routing them through an owned `Response` would clone the
        // whole row per request.
        if let Request::OneToMany { source, targets } = req {
            match state.try_one_to_many_into(*source, targets, batch_buf) {
                Err(msg) => write_response(w, &Response::Error(msg))?,
                Ok(()) => crate::protocol::write_distances(w, batch_buf)?,
            }
            return Ok(false);
        }
        let resp = state.execute(req, batch_buf);
        write_response(w, &resp)?;
        Ok(false)
    }));
    match outcome {
        Ok(result) => result,
        Err(_) => {
            state.note_panic();
            write_response(
                w,
                &Response::Error(
                    "internal error: the request handler panicked; the daemon keeps serving \
                     (counted in hc2l_panics_caught_total)"
                        .into(),
                ),
            )?;
            Ok(false)
        }
    }
}

/// A running server: the bound address plus the serve-loop handle.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    serve_loop: Option<JoinHandle<io::Result<()>>>,
    state: Arc<ServeState>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (counters, shutdown flag).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Blocks until the serve loop exits (i.e. until some client sends
    /// `Shutdown`), then reports the serve loop's result.
    pub fn wait(mut self) -> io::Result<()> {
        // `wait` consumes self, so the handle is always present today; if
        // that invariant ever breaks, report it as an error instead of
        // panicking in the caller's serve path.
        let Some(handle) = self.serve_loop.take() else {
            return Err(io::Error::other("server already waited on"));
        };
        handle
            .join()
            .map_err(|_| io::Error::other("serve loop panicked"))?
    }

    /// Requests shutdown from this side and waits for the drain.
    pub fn shutdown(self) -> io::Result<()> {
        self.state.request_shutdown();
        self.wait()
    }
}

/// Binds `addr` and runs the epoll reactor in a background thread until a
/// `Shutdown` request arrives: `state.threads()` reactor threads multiplex
/// any number of connections over non-blocking sockets. Returns once the
/// listener is bound, so the caller can read the resolved address
/// immediately (pass port 0 for an ephemeral port).
///
/// `ServeModel::Epoll` is the only model; the parameter stays for the
/// benchmark's callers. epoll is a Linux syscall family, so on any other
/// platform this returns [`io::ErrorKind::Unsupported`] without binding.
pub fn serve_with_model(
    state: Arc<ServeState>,
    addr: impl ToSocketAddrs,
    model: ServeModel,
) -> io::Result<ServerHandle> {
    let ServeModel::Epoll = model;
    if !cfg!(target_os = "linux") {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the hc2l-serve server is an epoll reactor, and epoll is Linux-only",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    // The reactor polls the shutdown flag instead of blocking in `accept`:
    // the flag alone stops the loop, with no loopback nudge that could miss.
    listener.set_nonblocking(true)?;
    state
        .bound_addr
        .set(bound)
        .map_err(|_| io::Error::new(io::ErrorKind::AddrInUse, "state already serves a listener"))?;
    let loop_state = Arc::clone(&state);
    let serve_loop = std::thread::Builder::new()
        .name("hc2l-serve-accept".into())
        .spawn(move || run_reactor(listener, loop_state))?;
    Ok(ServerHandle {
        addr: bound,
        serve_loop: Some(serve_loop),
        state,
    })
}

/// Never called: [`serve_with_model`] returns before it off Linux.
#[cfg(not(target_os = "linux"))]
fn run_reactor(_listener: TcpListener, _state: Arc<ServeState>) -> io::Result<()> {
    Err(io::ErrorKind::Unsupported.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_request;
    use hc2l_graph::toy::paper_figure1;
    use hc2l_oracle::OracleBuilder;
    use std::io::{BufReader, BufWriter};
    use std::net::TcpStream;

    fn test_state(cache: usize) -> Arc<ServeState> {
        let g = paper_figure1();
        let oracle = OracleBuilder::new(Method::Hl).build(&g);
        Arc::new(ServeState::new(oracle, 4, cache))
    }

    fn ask(addr: SocketAddr, req: &Request) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_request(&mut writer, req).unwrap();
        crate::protocol::read_response(&mut reader)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn end_to_end_over_tcp() {
        let state = test_state(256);
        let expected = state.oracle().distance(2, 9);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();

        assert_eq!(
            ask(addr, &Request::Distance(2, 9)),
            Response::Distance(expected)
        );
        // A second ask hits the cache and agrees.
        assert_eq!(
            ask(addr, &Request::Distance(9, 2)),
            Response::Distance(expected)
        );

        let targets: Vec<Vertex> = (0..16).collect();
        let Response::Distances(row) = ask(
            addr,
            &Request::OneToMany {
                source: 3,
                targets: targets.clone(),
            },
        ) else {
            panic!("expected a Distances response");
        };
        let mut want = Vec::new();
        state.oracle().one_to_many_into(3, &targets, &mut want);
        assert_eq!(row, want);

        // Out-of-range queries error without killing the server.
        assert!(matches!(
            ask(addr, &Request::Distance(999, 0)),
            Response::Error(_)
        ));

        let stats = server.state().stats();
        assert_eq!(stats.method, Method::Hl);
        assert_eq!(stats.num_vertices, 16);
        assert_eq!(stats.distance_queries, 2);
        assert_eq!(stats.one_to_many_queries, 1);
        assert_eq!(stats.one_to_many_targets, 16);
        assert!(stats.cache_hits >= 1);
        // Every serving thread times its first distance request, so the
        // queries above must have produced non-zero percentiles.
        let distance = state.latency().distance_merged();
        assert!(distance.p50() > 0);
        assert!(distance.max() >= distance.p99());
        assert!(state.latency().one_to_many.snapshot().p50() > 0);

        // The Metrics frame answers a scrapeable Prometheus document with
        // the same exact request counts the in-process snapshot holds.
        // Which distance requests were timed depends on the thread that
        // served them (one reactor thread may serve both), so only require
        // one.
        let Response::Metrics(doc) = ask(addr, &Request::Metrics) else {
            panic!("expected a Metrics response");
        };
        assert!(
            doc.lines()
                .any(|l| l == "hc2l_requests_total{op=\"distance\"} 2"),
            "{doc}"
        );
        assert!(doc.lines().any(|l| l == "hc2l_cache_hits_total 1"), "{doc}");
        assert!(state.latency().distance_merged().count() >= 1);
        assert!(doc.contains("# TYPE hc2l_latency_p99_ns gauge"));

        assert_eq!(ask(addr, &Request::Shutdown), Response::ShuttingDown);
        server.wait().unwrap();
    }

    /// Runs `f` on a fresh thread, whose distance sampling countdown
    /// starts at 0.
    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|scope| scope.spawn(f).join().unwrap())
    }

    #[test]
    fn distance_sampling_contract() {
        let state = test_state(256);
        on_fresh_thread(|| {
            for i in 0..193u32 {
                state.distance(i % 16, (i * 7) % 16);
            }
            let mut out = Vec::new();
            for s in 0..3 {
                state.one_to_many_into(s, &[0, 5, 9], &mut out);
            }
        });
        let stats = state.stats();
        assert_eq!(stats.distance_queries, 193, "every request is counted");
        // Timed: calls 1, 65, 129 and 193.
        assert_eq!(state.latency().distance_merged().count(), 4);
        assert!(state.latency().distance_merged().p50() > 0);
        assert_eq!(stats.one_to_many_queries, 3);
        assert_eq!(state.latency().one_to_many.count(), 3, "batches: all timed");
    }

    #[test]
    fn distance_counts_stay_exact_under_concurrency() {
        const THREADS: u32 = 8;
        const CALLS: u32 = 5_000;
        for cache in [0, 1024] {
            let state = test_state(cache);
            std::thread::scope(|scope| {
                for k in 0..THREADS {
                    let state = &state;
                    scope.spawn(move || {
                        for i in 0..CALLS {
                            state.distance((i + k) % 16, (i * 3) % 16);
                        }
                    });
                }
            });
            let stats = state.stats();
            assert_eq!(
                stats.distance_queries,
                (THREADS * CALLS) as u64,
                "cache {cache}"
            );
            assert_eq!(
                stats.cache_hits + stats.cache_misses,
                stats.distance_queries,
                "cache {cache}"
            );
            // 5,000 calls per thread time calls 1, 65, ..., 4993: 79 each.
            assert_eq!(
                state.latency().distance_merged().count(),
                THREADS as u64 * 79,
                "cache {cache}"
            );
        }
    }

    #[test]
    fn sampled_miss_records_the_hubs_its_query_scanned() {
        let g = hc2l_roadnet::seeded_grid(6, 6, 0xA11CE);
        let oracle = OracleBuilder::new(Method::Hc2l).build(&g);
        let (s, t) = (0, 35);
        let want = oracle.distance_with_stats(s, t).1.hubs_scanned as u64;
        assert!(want > 0);
        let state = ServeState::new(oracle, 1, 256);
        // The first request on a fresh thread is sampled and misses.
        on_fresh_thread(|| state.distance(s, t));
        let hubs = state.latency().hubs_scanned.snapshot();
        assert_eq!((hubs.count(), hubs.max()), (1, want));
        let doc = state.metrics_text();
        assert!(doc
            .lines()
            .any(|l| l == format!("hc2l_index_hubs_scanned_max {want}")));
        // A sampled hit scans nothing and records nothing.
        on_fresh_thread(|| state.distance(s, t));
        assert_eq!(state.latency().hubs_scanned.count(), 1);
    }

    #[test]
    fn shutdown_from_the_handle_side() {
        let state = test_state(0);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        assert!(matches!(
            ask(addr, &Request::Distance(0, 5)),
            Response::Distance(_)
        ));
        server.shutdown().unwrap();
        assert!(state.is_shutting_down());
    }

    #[test]
    fn concurrent_clients_get_exact_answers() {
        let state = test_state(1024);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        let mut expected = [[0u64; 16]; 16];
        for s in 0..16u32 {
            for t in 0..16u32 {
                expected[s as usize][t as usize] = state.oracle().distance(s, t);
            }
        }
        let clients: Vec<_> = (0..8u32)
            .map(|id| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = BufWriter::new(stream);
                    let mut got = Vec::new();
                    for i in 0..200u32 {
                        let (s, t) = ((i + id) % 16, (i * 7) % 16);
                        write_request(&mut writer, &Request::Distance(s, t)).unwrap();
                        let Some(Response::Distance(d)) =
                            crate::protocol::read_response(&mut reader).unwrap()
                        else {
                            panic!("expected a distance");
                        };
                        got.push((s, t, d));
                    }
                    got
                })
            })
            .collect();
        for c in clients {
            for (s, t, d) in c.join().unwrap() {
                assert_eq!(d, expected[s as usize][t as usize]);
            }
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_drains_even_with_an_idle_connection() {
        shutdown_drains_with_stuck_client(&[]);
    }

    #[test]
    fn shutdown_drains_even_with_a_half_written_frame() {
        // A client that wrote part of a frame — here 2 of the 4 length
        // prefix bytes — and then went quiet is the other face of the
        // idle-connection shutdown race: the reactor holds a partial
        // decode and must still be torn down promptly.
        shutdown_drains_with_stuck_client(&[0x07, 0x00]);
    }

    /// Opens a connection, writes `partial` (possibly nothing) without ever
    /// completing a frame, requests shutdown from the handle side, and
    /// asserts the daemon exits within a bounded time.
    fn shutdown_drains_with_stuck_client(partial: &[u8]) {
        use std::io::Write as _;
        let state = test_state(0);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        let mut stuck = TcpStream::connect(addr).unwrap();
        if !partial.is_empty() {
            stuck.write_all(partial).unwrap();
            stuck.flush().unwrap();
        }
        // Make sure the stuck connection is accepted and being served
        // before shutdown is requested.
        assert!(matches!(
            ask(addr, &Request::Distance(1, 2)),
            Response::Distance(_)
        ));
        let done = std::thread::spawn(move || server.shutdown());
        // The drain must finish promptly despite the stuck connection.
        let start = std::time::Instant::now();
        done.join().unwrap().unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "drain took {:?}",
            start.elapsed()
        );
        drop(stuck);
    }

    #[test]
    fn unbounded_drain_window_shuts_down_cleanly() {
        // `Duration::MAX` is past what `Instant` can add: the drain must
        // treat it as no bound rather than panic the reactor, and still
        // close an idle connection that owes its peer nothing.
        let state = Arc::new(
            ServeState::new(OracleBuilder::new(Method::Hl).build(&paper_figure1()), 2, 0)
                .with_config(ServeConfig {
                    drain: Duration::MAX,
                    ..ServeConfig::default()
                }),
        );
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        let idle = TcpStream::connect(addr).unwrap();
        assert_eq!(ask(addr, &Request::Shutdown), Response::ShuttingDown);
        server.wait().unwrap();
        drop(idle);
    }

    #[test]
    fn slow_writers_decode_correctly() {
        // A valid Distance and OneToMany frame delivered one byte at a
        // time (every flush is its own TCP segment thanks to nodelay) must
        // decode identically to whole-frame delivery.
        use std::io::Write as _;
        let state = test_state(0);
        let expected_d = state.oracle().distance(2, 9);
        let targets: Vec<Vertex> = (0..8).collect();
        let mut expected_row = Vec::new();
        state
            .oracle()
            .one_to_many_into(3, &targets, &mut expected_row);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();

        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut frames = Vec::new();
        write_request(&mut frames, &Request::Distance(2, 9)).unwrap();
        write_request(
            &mut frames,
            &Request::OneToMany {
                source: 3,
                targets: targets.clone(),
            },
        )
        .unwrap();
        for b in &frames {
            writer.write_all(std::slice::from_ref(b)).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        assert_eq!(
            crate::protocol::read_response(&mut reader).unwrap(),
            Some(Response::Distance(expected_d))
        );
        assert_eq!(
            crate::protocol::read_response(&mut reader).unwrap(),
            Some(Response::Distances(expected_row.clone()))
        );
        drop((reader, writer));
        server.shutdown().unwrap();
    }

    #[test]
    fn backpressured_pipelined_requests_are_all_answered() {
        // Regression: a client that pipelines a batch whose response
        // (8 bytes x 150k targets = 1.2MB) exceeds the reactor's 1MB
        // backpressure high-water mark, plus a point query, *before reading
        // anything*, must still receive every answer once it starts
        // reading — the paused frames must resume when the write buffer
        // drains, not strand in the decoder.
        use std::io::Write as _;
        let state = test_state(0);
        let expected_row_val = state.oracle().distance(0, 1);
        let expected_d = state.oracle().distance(2, 9);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();

        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let targets = vec![1u32; 150_000];
        write_request(&mut writer, &Request::OneToMany { source: 0, targets }).unwrap();
        write_request(&mut writer, &Request::Distance(2, 9)).unwrap();
        writer.flush().unwrap();
        // Give the server time to execute the batch, hit the high-water
        // mark and pause, with both frames fully delivered.
        std::thread::sleep(std::time::Duration::from_millis(200));

        let mut reader = BufReader::new(stream);
        let Some(Response::Distances(ds)) = crate::protocol::read_response(&mut reader).unwrap()
        else {
            panic!("expected the batched response");
        };
        assert_eq!(ds.len(), 150_000);
        assert!(ds.iter().all(|&d| d == expected_row_val));
        let Some(Response::Distance(d)) = crate::protocol::read_response(&mut reader).unwrap()
        else {
            panic!("the pipelined point query was stranded");
        };
        assert_eq!(d, expected_d);
        drop((reader, writer));
        server.shutdown().unwrap();
    }

    #[test]
    fn rejected_requests_leave_stats_and_cache_untouched() {
        // Out-of-range queries must not count as served work nor seed the
        // cache with garbage keys — the counters and `cache_hit_rate` stay
        // honest. Checked through `execute` and over the wire.
        let state = test_state(256);
        let mut buf = Vec::new();
        assert!(matches!(
            state.execute(&Request::Distance(999, 0), &mut buf),
            Response::Error(_)
        ));
        assert!(matches!(
            state.execute(
                &Request::OneToMany {
                    source: 0,
                    targets: vec![1, 999],
                },
                &mut buf
            ),
            Response::Error(_)
        ));
        assert!(matches!(
            state.execute(
                &Request::OneToMany {
                    source: 999,
                    targets: vec![1],
                },
                &mut buf
            ),
            Response::Error(_)
        ));
        let stats = state.stats();
        assert_eq!(stats.distance_queries, 0);
        assert_eq!(stats.one_to_many_queries, 0);
        assert_eq!(stats.one_to_many_targets, 0);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert_eq!(stats.cache_len, 0);
        assert_eq!(state.cache().stats().len, 0);

        let state = test_state(256);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        assert!(matches!(
            ask(addr, &Request::Distance(999, 0)),
            Response::Error(_)
        ));
        assert!(matches!(
            ask(
                addr,
                &Request::OneToMany {
                    source: 0,
                    targets: vec![999],
                }
            ),
            Response::Error(_)
        ));
        let stats = server.state().stats();
        assert_eq!(stats.distance_queries, 0);
        assert_eq!(stats.one_to_many_queries, 0);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert_eq!(stats.cache_len, 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn saturated_daemon_still_accepts_a_shutdown_client() {
        // The only reactor holds an idle connection: it must still accept a
        // late client, so a wire-protocol Shutdown can land.
        let g = paper_figure1();
        let oracle = OracleBuilder::new(Method::Hl).build(&g);
        let state = Arc::new(ServeState::new(oracle, 1, 0)); // one reactor
        assert_eq!(state.threads(), 1);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        // Occupy the reactor with a connection that stays idle.
        let idle = TcpStream::connect(addr).unwrap();
        let stats = wait_for_stats(&state, |s| s.connections_accepted >= 1);
        assert_eq!(stats.connections_accepted, 1, "{stats:?}");
        // A second client must still get served and be able to shut the
        // daemon down.
        assert_eq!(ask(addr, &Request::Shutdown), Response::ShuttingDown);
        server.wait().unwrap();
        drop(idle);
    }

    #[test]
    fn oversized_batches_are_rejected_not_framed() {
        // A request whose *response* would exceed the frame cap must fail
        // as a typed Error on the server, not as a malformed frame on the
        // client (u64 distances are twice the width of u32 targets).
        let state = test_state(0);
        let mut buf = Vec::new();
        let resp = state.execute(
            &Request::OneToMany {
                source: 0,
                targets: vec![0; crate::protocol::MAX_ONE_TO_MANY_TARGETS + 1],
            },
            &mut buf,
        );
        assert!(matches!(resp, Response::Error(ref msg) if msg.contains("cap")));
        // A cap-sized batch of valid targets still answers (length checks
        // happen before vertex-range checks).
        let resp = state.execute(
            &Request::OneToMany {
                source: 0,
                targets: vec![1; 100],
            },
            &mut buf,
        );
        assert!(matches!(resp, Response::Distances(ref d) if d.len() == 100));
    }

    #[test]
    fn static_index_rejects_updates_with_a_typed_error() {
        // In process...
        let state = test_state(0);
        let mut buf = Vec::new();
        let resp = state.execute(
            &Request::UpdateWeights(vec![WeightUpdate::new(0, 1, 9)]),
            &mut buf,
        );
        assert!(matches!(resp, Response::Error(ref msg) if msg.contains("static")));
        assert_eq!(state.epoch(), 0);
        // ...and over the wire, without killing the daemon.
        let state = test_state(0);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        assert!(matches!(
            ask(addr, &Request::UpdateWeights(vec![WeightUpdate::new(0, 1, 9)])),
            Response::Error(ref msg) if msg.contains("static")
        ));
        assert!(matches!(
            ask(addr, &Request::Distance(1, 2)),
            Response::Distance(_)
        ));
        server.shutdown().unwrap();
    }

    /// A weighted grid plus an updatable [`ServeState`] over it.
    fn updatable_state(method: Method, threads: usize, cache: usize) -> (Graph, Arc<ServeState>) {
        let g = hc2l_roadnet::seeded_grid(6, 6, 0xA11CE);
        let oracle = OracleBuilder::new(method).build(&g);
        let state = Arc::new(ServeState::with_updates(g.clone(), oracle, threads, cache));
        (g, state)
    }

    /// A batch that re-weights every third edge (mostly increases), applied
    /// to `g` in place and returned for the wire.
    fn traffic_batch(g: &mut Graph) -> Vec<WeightUpdate> {
        let edges: Vec<_> = g.edges().collect();
        let mut batch = Vec::new();
        for (i, (u, v, w)) in edges.into_iter().enumerate() {
            if i % 3 == 0 {
                batch.push(WeightUpdate::new(u, v, w * 7 + 3));
            } else if i % 5 == 0 {
                batch.push(WeightUpdate::new(u, v, 1));
            }
        }
        for up in &batch {
            assert!(g.set_edge_weight(up.u, up.v, up.new_weight));
        }
        batch
    }

    #[test]
    fn updates_invalidate_the_cache_through_the_epoch_swap() {
        let (mut g, state) = updatable_state(Method::Ch, 2, 256);
        let before = state.distance(0, 35); // cached at epoch 0
        assert_eq!(state.distance(0, 35), before, "cache warm");
        let batch = traffic_batch(&mut g);
        let mut buf = Vec::new();
        let Response::Updated(outcome) = state.execute(&Request::UpdateWeights(batch), &mut buf)
        else {
            panic!("expected an Updated response");
        };
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.rejected, 0);
        assert_eq!(state.epoch(), 1);
        // Every answer — including the previously cached pair — now matches
        // Dijkstra on the re-weighted graph.
        for s in (0..g.num_vertices() as Vertex).step_by(5) {
            let dist = hc2l_graph::dijkstra(&g, s);
            for t in 0..g.num_vertices() as Vertex {
                assert_eq!(state.distance(s, t), dist[t as usize], "({s}, {t})");
            }
        }
    }

    #[test]
    fn a_batch_that_applies_nothing_keeps_the_generation_and_the_cache() {
        let (mut g, state) = updatable_state(Method::Hc2l, 2, 256);
        let mut buf = Vec::new();
        let batch = traffic_batch(&mut g);
        assert!(matches!(
            state.execute(&Request::UpdateWeights(batch), &mut buf),
            Response::Updated(UpdateOutcome { epoch: 1, .. })
        ));
        let d = state.distance(0, 35); // cached at epoch 1
        assert_eq!(state.distance(0, 35), d, "cache warm");
        let hits = state.stats().cache_hits;
        // (0, 35) are opposite corners of the grid, not an edge.
        let Response::Updated(outcome) = state.execute(
            &Request::UpdateWeights(vec![WeightUpdate::new(0, 35, 5)]),
            &mut buf,
        ) else {
            panic!("expected an Updated response");
        };
        assert_eq!((outcome.applied, outcome.rejected), (0, 1));
        assert_eq!(outcome.epoch, 1, "nothing applied, nothing published");
        assert_eq!(state.epoch(), 1);
        assert_eq!(state.distance(0, 35), d);
        assert_eq!(state.stats().cache_hits, hits + 1, "the pair still hits");
    }

    #[test]
    fn weight_updates_over_the_wire_stay_exact() {
        for method in [Method::Ch, Method::Hc2l] {
            weight_updates_over_the_wire_with(method);
        }
    }

    fn weight_updates_over_the_wire_with(method: Method) {
        let (mut g, state) = updatable_state(method, 4, 256);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        // Warm a few answers (and the cache) on the initial generation.
        assert!(matches!(
            ask(addr, &Request::Distance(0, 35)),
            Response::Distance(_)
        ));
        let mut batch = traffic_batch(&mut g);
        batch.push(WeightUpdate::new(0, 35, 1)); // not an edge: rejected
        let expected_applied = (batch.len() - 1) as u64;
        let Response::Updated(outcome) = ask(addr, &Request::UpdateWeights(batch)) else {
            panic!("{method}: expected an Updated response");
        };
        assert_eq!(outcome.applied, expected_applied, "{method}");
        assert_eq!(outcome.rejected, 1, "{method}");
        assert_eq!(outcome.epoch, 1, "{method}");
        if method == Method::Ch {
            assert_eq!(
                hc2l_oracle::UpdateStrategy::from_tag(outcome.strategy_tag),
                Some(hc2l_oracle::UpdateStrategy::ChCustomize),
                "CH must absorb the batch incrementally"
            );
        }
        // Post-update answers — point and batched, on a fresh connection
        // too — match Dijkstra on the re-weighted graph with 0 mismatches.
        let n = g.num_vertices() as Vertex;
        for s in (0..n).step_by(7) {
            let dist = hc2l_graph::dijkstra(&g, s);
            for t in 0..n {
                let Response::Distance(d) = ask(addr, &Request::Distance(s, t)) else {
                    panic!("{method}: expected a distance");
                };
                assert_eq!(d, dist[t as usize], "{method} ({s}, {t})");
            }
            let targets: Vec<Vertex> = (0..n).collect();
            let Response::Distances(row) = ask(
                addr,
                &Request::OneToMany {
                    source: s,
                    targets: targets.clone(),
                },
            ) else {
                panic!("{method}: expected a batched response");
            };
            let want: Vec<Distance> = targets.iter().map(|&t| dist[t as usize]).collect();
            assert_eq!(row, want, "{method} one-to-many from {s}");
        }
        server.shutdown().unwrap();
    }

    #[test]
    fn concurrent_queries_during_update_never_error_and_see_a_clean_swap() {
        let (g0, state) = updatable_state(Method::Ch, 4, 1024);
        let mut g1 = g0.clone();
        let batch = traffic_batch(&mut g1);
        let n = g0.num_vertices() as Vertex;
        let old: Vec<Vec<Distance>> = (0..n).map(|s| hc2l_graph::dijkstra(&g0, s)).collect();
        let new: Vec<Vec<Distance>> = (0..n).map(|s| hc2l_graph::dijkstra(&g1, s)).collect();
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        // `swapped` is raised only after the Updated response arrived, i.e.
        // strictly after the generation swap: a query *sent* with the flag
        // already up must answer on the new generation. Mid-race queries may
        // see either generation but never an error and never a mix.
        let swapped = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = (0..4u32)
            .map(|id| {
                let swapped = Arc::clone(&swapped);
                let stop = Arc::clone(&stop);
                let old = old.clone();
                let new = new.clone();
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = BufWriter::new(stream);
                    let mut i = 0u32;
                    let mut post_swap_queries = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let (s, t) = ((i * 3 + id) % n, (i * 11) % n);
                        let sent_after_swap = swapped.load(Ordering::SeqCst);
                        write_request(&mut writer, &Request::Distance(s, t)).unwrap();
                        let Some(Response::Distance(d)) =
                            crate::protocol::read_response(&mut reader).unwrap()
                        else {
                            panic!("query during update errored");
                        };
                        let (o, w) = (old[s as usize][t as usize], new[s as usize][t as usize]);
                        if sent_after_swap {
                            assert_eq!(d, w, "post-swap query ({s}, {t}) on the old generation");
                            post_swap_queries += 1;
                        } else {
                            assert!(
                                d == o || d == w,
                                "({s}, {t}): {d} matches neither generation"
                            );
                        }
                        i += 1;
                    }
                    post_swap_queries
                })
            })
            .collect();
        // Let the clients get going, then update on a separate connection.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let Response::Updated(outcome) = ask(addr, &Request::UpdateWeights(batch)) else {
            panic!("expected an Updated response");
        };
        assert_eq!(outcome.epoch, 1);
        swapped.store(true, Ordering::SeqCst);
        // Keep querying past the swap so the post-swap branch is exercised.
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        let post: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(post > 0, "no query ran after the swap");
        server.shutdown().unwrap();
    }

    #[test]
    fn pipelined_queries_behind_an_update_answer_on_the_new_generation() {
        // One connection pipelines: query, update, query — without reading.
        // Responses must come back in order, and the trailing query must be
        // answered on the post-update index (per-connection ordering holds
        // even though the reactor offloads the update to a worker).
        use std::io::Write as _;
        let (mut g, state) = updatable_state(Method::Ch, 2, 0);
        let d_old = state.oracle().distance(0, 35);
        let batch = traffic_batch(&mut g);
        let d_new = hc2l_graph::dijkstra(&g, 0)[35];
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        write_request(&mut writer, &Request::Distance(0, 35)).unwrap();
        write_request(&mut writer, &Request::UpdateWeights(batch)).unwrap();
        write_request(&mut writer, &Request::Distance(0, 35)).unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        assert_eq!(
            crate::protocol::read_response(&mut reader).unwrap(),
            Some(Response::Distance(d_old)),
            "leading query answers on the old generation"
        );
        let Some(Response::Updated(outcome)) = crate::protocol::read_response(&mut reader).unwrap()
        else {
            panic!("expected the Updated response second");
        };
        assert_eq!(outcome.epoch, 1);
        assert_eq!(
            crate::protocol::read_response(&mut reader).unwrap(),
            Some(Response::Distance(d_new)),
            "trailing query answers on the new generation"
        );
        drop((reader, writer));
        server.shutdown().unwrap();
    }

    #[test]
    fn execute_bypasses_cache_for_batches_but_counts_them() {
        let state = test_state(64);
        let mut buf = Vec::new();
        let resp = state.execute(
            &Request::OneToMany {
                source: 0,
                targets: vec![1, 2, 3],
            },
            &mut buf,
        );
        assert!(matches!(resp, Response::Distances(ref d) if d.len() == 3));
        let stats = state.stats();
        assert_eq!(stats.one_to_many_queries, 1);
        assert_eq!(stats.one_to_many_targets, 3);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    }

    #[test]
    fn stats_hit_rate() {
        let state = test_state(64);
        assert_eq!(state.stats().cache_hit_rate(), 0.0);
        for _ in 0..4 {
            state.distance(1, 2); // one miss, then three hits
        }
        let stats = state.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (3, 1));
        assert!((stats.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    /// Polls `stats()` until `pred` holds or ~5s pass; returns the last
    /// snapshot either way (the caller asserts on it for a clear failure).
    fn wait_for_stats(state: &ServeState, pred: impl Fn(&ServerStats) -> bool) -> ServerStats {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let s = state.stats();
            if pred(&s) || std::time::Instant::now() >= deadline {
                return s;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    /// Makes dropping `stream` send an RST instead of a clean FIN
    /// (`SO_LINGER` with zero timeout) — the abrupt-vanish shape of a
    /// crashed client, which a polite close cannot reproduce: small
    /// responses park in the kernel send buffer and no error ever surfaces.
    #[cfg(target_os = "linux")]
    fn rst_on_drop(stream: &TcpStream) {
        use std::os::unix::io::AsRawFd;
        #[repr(C)]
        struct Linger {
            l_onoff: i32,
            l_linger: i32,
        }
        extern "C" {
            fn setsockopt(
                fd: i32,
                level: i32,
                name: i32,
                value: *const std::ffi::c_void,
                len: u32,
            ) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_LINGER: i32 = 13;
        let linger = Linger {
            l_onoff: 1,
            l_linger: 0,
        };
        // SAFETY: passes a live pointer to `linger` with its exact size;
        // the kernel only reads optlen bytes through it during the call.
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                (&linger as *const Linger).cast(),
                std::mem::size_of::<Linger>() as u32,
            )
        };
        assert_eq!(rc, 0, "setsockopt(SO_LINGER) failed");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn broken_pipe_mid_response_survives() {
        // A client that pipelines a pile of requests and vanishes without
        // reading any answer must cost the server one counted write error,
        // never a reactor.
        use std::io::Write as _;
        let state = test_state(0);
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        {
            let stream = TcpStream::connect(addr).unwrap();
            rst_on_drop(&stream);
            let mut w = BufWriter::new(stream.try_clone().unwrap());
            for _ in 0..2000 {
                write_request(&mut w, &Request::Distance(2, 9)).unwrap();
            }
            w.flush().unwrap();
            // Drop with every response unread: the RST lands while the
            // server still owes (or is still reading) this peer.
        }
        let stats = wait_for_stats(&state, |s| s.write_errors >= 1);
        assert!(
            stats.write_errors >= 1,
            "the broken pipe was not counted: {stats:?}"
        );
        // The daemon keeps serving new connections afterwards.
        let expected = state.oracle().distance(2, 9);
        assert_eq!(
            ask(addr, &Request::Distance(2, 9)),
            Response::Distance(expected)
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn slow_loris_is_reaped_and_counted() {
        use std::io::{Read as _, Write as _};
        let state = Arc::new(
            ServeState::new(OracleBuilder::new(Method::Hl).build(&paper_figure1()), 2, 0)
                .with_config(ServeConfig {
                    idle_timeout: Some(Duration::from_millis(600)),
                    stall_timeout: Some(Duration::from_millis(250)),
                    ..ServeConfig::default()
                }),
        );
        let server =
            serve_with_model(Arc::clone(&state), ("127.0.0.1", 0), ServeModel::Epoll).unwrap();
        let addr = server.addr();
        // Dribble a frame header claiming 100 bytes, then stall forever.
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(&100u32.to_le_bytes()).unwrap();
        loris.flush().unwrap();
        let stats = wait_for_stats(&state, |s| s.connections_reaped >= 1);
        assert!(
            stats.connections_reaped >= 1,
            "the stalled connection was not reaped: {stats:?}"
        );
        assert!(stats.connections_accepted >= 1);
        // The reaped socket is actually closed from the server side.
        loris
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut byte = [0u8; 1];
        match loris.read(&mut byte) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("expected the server to close the loris"),
        }
        // Healthy clients are unaffected.
        let expected = state.oracle().distance(2, 9);
        assert_eq!(
            ask(addr, &Request::Distance(2, 9)),
            Response::Distance(expected)
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn admission_control_sheds_past_the_inflight_cap() {
        let state = test_state(0);
        // Cap 0 disables admission control entirely.
        assert!(state.admit_query().is_ok());
        let capped = test_state(0);
        let capped = Arc::new(
            Arc::try_unwrap(capped)
                .unwrap_or_else(|_| panic!("sole owner"))
                .with_config(ServeConfig {
                    max_inflight: 1,
                    ..ServeConfig::default()
                }),
        );
        let guard = capped.admit_query().expect("first query admitted");
        match capped.admit_query() {
            Err(msg) => {
                assert!(msg.contains("saturated"), "{msg}");
            }
            Ok(_) => panic!("expected the second query to be shed"),
        }
        drop(guard);
        // Releasing the slot re-admits, even after the earlier shed.
        assert!(capped.admit_query().is_ok());
        assert_eq!(capped.stats().overload_rejections, 1);
    }
}
