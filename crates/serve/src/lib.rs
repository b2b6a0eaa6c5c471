//! `hc2l-serve`: the concurrent query-serving subsystem of the HC2L
//! workspace.
//!
//! The construction crates build an index once; the persistence layer
//! (`hc2l_graph::container`) saves and reloads it in milliseconds; this
//! crate is the third phase — *serving* a loaded index to many concurrent
//! clients, the deployment shape the paper's sub-microsecond query times
//! exist for:
//!
//! * **mmap-backed loading** — the daemon opens indexes with
//!   `OracleBuilder::open`, which memory-maps the container
//!   (`Container::open_mmap`) and queries zero-copy views of the mapping;
//!   one physical copy of a multi-GB index serves every process on the
//!   host.
//! * **shared read-only oracles** — [`ServeState`] bundles the oracle (a
//!   `SharedOracle` view or an owned `Oracle`), a lock-free epoch-tagged
//!   result cache ([`QueryCache`]) and relaxed-atomic counters; serving
//!   threads query it behind one `Arc` with no locks on the oracle path.
//! * **live weight updates** — `UpdateWeights` frames carry edge
//!   re-weighting batches (live traffic) to a daemon started from an owned
//!   graph ([`ServeState::with_updates`]); the batch is absorbed
//!   incrementally where the backend supports it (CH customization, HC2L
//!   relabelling — see `hc2l-dynamic`) or by rebuild otherwise, and the
//!   refreshed index is published as a new epoch-tagged generation with one
//!   pointer swap — in-flight queries finish on the old generation, cache
//!   entries from it read as misses, and no query ever blocks on an update
//!   (the reactor offloads absorption to a worker thread).
//! * **a wire protocol and daemon** — a length-prefixed binary protocol
//!   ([`protocol`]) carrying `Distance`, batched `OneToMany`,
//!   `UpdateWeights`, `Metrics` and `Shutdown` over TCP, decodable both
//!   blockingly and incrementally
//!   ([`FrameDecoder`] accepts frames in arbitrary fragments). One
//!   event-driven epoll reactor serves it ([`serve_with_model`]): N reactor
//!   threads, per-connection state tables, write backpressure, 512+
//!   mostly-idle connections with no thread per client. The server is
//!   Linux-only (elsewhere `serve_with_model` returns
//!   `io::ErrorKind::Unsupported`); the state, cache, protocol and client
//!   build everywhere. The `hc2l-serve` binary is the daemon;
//!   `hc2l-query` is the matching client, able to replay
//!   `hc2l_roadnet` workload files over `--clients N` concurrent
//!   connections (`--idle M` more held open and quiet) and gate exactness.
//!   Serving throughput and latency are measured by `sysbench`, not by
//!   this crate.
//!
//! ```no_run
//! use std::sync::Arc;
//! use hc2l_oracle::OracleBuilder;
//! use hc2l_serve::{serve_with_model, ServeModel, ServeState};
//!
//! let oracle = OracleBuilder::open(std::path::Path::new("paris.hc2l")).unwrap();
//! let state = Arc::new(ServeState::new(oracle, 8, 1 << 20));
//! let server = serve_with_model(state, ("0.0.0.0", 7171), ServeModel::Epoll).unwrap();
//! println!("serving on {}", server.addr());
//! server.wait().unwrap();
//! ```

// Off Linux the reactor, the only caller of the connection-side helpers in
// `server`, is compiled out.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

pub mod cache;
pub mod lockfree;
pub mod metrics;
pub mod protocol;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod server;

pub use cache::{CacheStats, QueryCache};
pub use metrics::OpLatencies;
pub use protocol::{
    read_request, read_response, write_request, write_response, FrameDecoder, Request, Response,
    UpdateOutcome, MAX_FRAME_BYTES, MAX_ONE_TO_MANY_TARGETS, MAX_UPDATE_BATCH,
};
pub use server::{
    serve_with_model, Generation, ServeConfig, ServeModel, ServeState, ServedOracle, ServerHandle,
    ServerStats, UpdateError,
};
