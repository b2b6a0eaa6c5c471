//! The daemon's server: N reactor threads, each owning an epoll instance
//! and a table of non-blocking connections.
//!
//! One OS thread per connection would be fine for a dozen clients and
//! hopeless for the hundreds of mostly-idle connections a deployed query
//! daemon holds; [`crate::server::serve_with_model`] runs this reactor
//! instead. [`run`] spawns `ServeState::threads` reactors; reactor 0
//! additionally owns the (non-blocking) listener and deals accepted
//! connections out round-robin, handing a connection to a sibling through
//! a mutex inbox plus an `eventfd` wake. Each reactor then multiplexes its
//! connections with level-triggered `epoll_wait`:
//!
//! * **reads** pull whatever the socket has into an incremental
//!   [`FrameDecoder`](crate::protocol::FrameDecoder) — partial frames are
//!   carried across events, so a peer dribbling one byte per segment
//!   decodes exactly like one writing whole frames;
//! * **execution** goes through `respond`, the one request-execution path
//!   (validation, counters, cache, streamed batch responses), with
//!   responses encoded into a per-connection write buffer;
//! * **writes** flush opportunistically and fall back to `EPOLLOUT`
//!   interest when the socket is full, with **backpressure**: while a
//!   connection owes [`HIGH_WATER`] or more unflushed bytes, its reads are
//!   paused (EPOLLIN deregistered) and no further requests are executed, so
//!   a client that stops reading cannot balloon server memory;
//! * **weight updates** are offloaded: absorbing an `UpdateWeights` batch
//!   can take index-rebuild time, and a reactor thread must never stall its
//!   other connections that long — the batch runs on a spawned worker
//!   thread, the requesting connection pauses (no further frames execute,
//!   preserving per-connection response order) and resumes when the worker
//!   deposits the encoded response in the reactor's completion inbox and
//!   wakes it. Every other connection keeps querying throughout, on the old
//!   index generation until the swap, on the new one after;
//! * **reaping** — every [`SWEEP_INTERVAL`] each reactor walks its table
//!   and drops connections that have made no progress within their budget:
//!   `ServeConfig::idle_timeout` at a frame boundary with nothing owed,
//!   `ServeConfig::stall_timeout` mid-frame or with undrained responses —
//!   so a slow-loris peer dribbling a header forever, or one that stops
//!   reading its answers, costs a bounded amount of state, not a slot
//!   forever. Connections awaiting an offloaded update are exempt (the
//!   delay is the server's, not the peer's);
//! * **shutdown** is polled on every `epoll_wait` timeout and broadcast
//!   over the wake fds, then each reactor drains: stops accepting, gives
//!   every connection a bounded window (`ServeConfig::drain`, the daemon's
//!   `--drain-secs`, default 3s) to take its final flushed bytes, and exits
//!   — an idle connection or a half-written frame can delay exit by at most
//!   that window, never hang it.
//!
//! The epoll/eventfd bindings are direct `extern "C"` declarations,
//! mirroring the `mmap` precedent in `hc2l_graph::container` — no new
//! dependencies, and the whole module is `target_os = "linux"`; on other
//! platforms the daemon has no server and `serve_with_model` reports
//! `io::ErrorKind::Unsupported`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hc2l_graph::Distance;

use crate::protocol::{write_response, FrameDecoder, Request, Response};
use crate::server::{respond, ServeState};

/// Raw epoll / eventfd bindings (see the module docs for why these are
/// hand-declared rather than pulled from a crate).
mod sys {
    use std::ffi::c_void;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    /// `O_CLOEXEC` / `O_NONBLOCK`, shared by `epoll_create1` and `eventfd`.
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;

    /// Mirrors the kernel's `struct epoll_event`; x86-64 is the one ABI
    /// where it is packed (the 32-bit layout was kept on 64-bit).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

/// Backpressure threshold: while a connection owes this many unflushed
/// response bytes, its reads are paused and no further requests execute.
/// One maximal response frame (≈16MB) still buffers atomically — the mark
/// bounds *additional* pile-up, not a single frame.
const HIGH_WATER: usize = 1 << 20;

/// `epoll_wait` timeout — the upper bound on how stale a reactor's view of
/// the shutdown flag can be (wake fds make the common cases immediate).
const EPOLL_TIMEOUT_MS: i32 = 25;

/// How often each reactor sweeps its connection table for peers that blew
/// their idle or stall budget (`ServeConfig::{idle_timeout, stall_timeout}`;
/// the drain window itself comes from `ServeConfig::drain`, the daemon's
/// `--drain-secs`, default 3s).
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);

/// Read-syscall chunk size (one shared scratch buffer per reactor).
const READ_CHUNK: usize = 64 << 10;

/// Events fetched per `epoll_wait`.
const MAX_EVENTS: usize = 256;

/// `epoll_event.data` sentinel for the wake eventfd.
const DATA_WAKE: u64 = u64::MAX;
/// `epoll_event.data` sentinel for the listener.
const DATA_LISTENER: u64 = u64::MAX - 1;

/// Thin RAII epoll handle.
struct Epoll(i32);

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; the returned fd (or -1)
        // is validated below before use.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll(fd))
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events, data };
        let arg = if op == sys::EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut sys::EpollEvent
        };
        // SAFETY: `arg` is either null (DEL, where the kernel ignores it)
        // or a live pointer to `ev` on this stack frame for the duration of
        // the call; the kernel only reads through it.
        if unsafe { sys::epoll_ctl(self.0, op, fd, arg) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: i32, events: u32, data: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, data)
    }

    fn modify(&self, fd: i32, events: u32, data: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, data)
    }

    fn del(&self, fd: i32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for events; EINTR reads as "no events" rather than an error.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the pointer/len pair comes straight from the `events`
        // slice, which outlives the call; the kernel writes at most `len`
        // entries of the POD `EpollEvent` type.
        let n = unsafe {
            sys::epoll_wait(self.0, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd (created in `new`, never duplicated out);
        // closing it at most once takes no pointers.
        unsafe { sys::close(self.0) };
    }
}

/// An `eventfd`-backed waker: any thread can nudge a reactor out of
/// `epoll_wait` (new handed-over connection, shutdown broadcast).
struct WakeFd(i32);

impl WakeFd {
    fn new() -> io::Result<WakeFd> {
        // SAFETY: eventfd takes no pointers; the returned fd (or -1) is
        // validated below before use.
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd(fd))
    }

    fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes exactly the 8 bytes of `one`, which lives on this
        // stack frame for the duration of the call.
        let _ = unsafe { sys::write(self.0, (&one as *const u64).cast(), 8) };
    }

    /// Clears the pending wake count so level-triggered epoll quiets down.
    fn drain(&self) {
        let mut count: u64 = 0;
        // SAFETY: reads at most the 8 bytes of `count`, which lives on this
        // stack frame for the duration of the call.
        let _ = unsafe { sys::read(self.0, (&mut count as *mut u64).cast(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd (created in `new`, never duplicated out);
        // closing it at most once takes no pointers.
        unsafe { sys::close(self.0) };
    }
}

/// A finished weight-update batch on its way back to the connection that
/// requested it: the already-encoded response frame, addressed by fd plus
/// the connection token (fds are recycled; tokens are not, so a completion
/// for a connection that died mid-update is dropped instead of being
/// delivered to an unrelated newcomer on the same fd).
struct UpdateDone {
    fd: i32,
    token: u64,
    frame: Vec<u8>,
}

/// The cross-thread face of one reactor: where reactor 0 deposits accepted
/// connections, where update workers deposit finished batches, and how
/// anyone interrupts its `epoll_wait`.
struct ReactorHandle {
    wake: WakeFd,
    inbox: Mutex<Vec<TcpStream>>,
    done: Mutex<Vec<UpdateDone>>,
}

impl ReactorHandle {
    fn new() -> io::Result<ReactorHandle> {
        Ok(ReactorHandle {
            wake: WakeFd::new()?,
            inbox: Mutex::new(Vec::new()),
            done: Mutex::new(Vec::new()),
        })
    }
}

/// What frame-processing needs beyond the connection itself: the shared
/// state and, for update offloading, the reactor's own identity (worker
/// threads address completions back to `handles[id]`).
struct ReactorCtx<'a> {
    state: &'a Arc<ServeState>,
    handles: &'a Arc<Vec<ReactorHandle>>,
    id: usize,
}

/// Per-connection state: socket, incremental decoder, write buffer with
/// flush cursor, and the reused batch buffer (so steady-state one-to-many
/// serving allocates nothing per request).
struct Conn {
    stream: TcpStream,
    /// Distinguishes this connection from any later one recycled onto the
    /// same fd (update completions are addressed by `(fd, token)`).
    token: u64,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    batch_buf: Vec<Distance>,
    /// Event mask currently registered with epoll.
    interest: u32,
    /// No further requests will be executed (shutdown acknowledged, or a
    /// protocol error); the connection closes once `out` drains.
    closing: bool,
    /// The peer closed its write side; buffered frames still execute.
    read_eof: bool,
    /// An `UpdateWeights` batch is running on a worker thread; no further
    /// frames execute until its completion lands (responses stay ordered),
    /// and reads are paused like under backpressure.
    awaiting_update: bool,
    /// When this connection last made progress — bytes read from it, or
    /// response bytes it accepted. The reaping sweep compares this against
    /// the idle budget (at a frame boundary, nothing owed) or the stall
    /// budget (partial frame buffered, or responses it will not drain).
    last_progress: Instant,
}

/// Source of connection tokens (process-wide, never recycled).
static NEXT_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            token: NEXT_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            batch_buf: Vec::new(),
            interest: 0,
            closing: false,
            read_eof: false,
            awaiting_update: false,
            last_progress: Instant::now(),
        }
    }

    /// Response bytes queued but not yet accepted by the socket.
    fn pending_write(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// The event mask a connection should be registered with right now.
fn desired_interest(conn: &Conn) -> u32 {
    let mut ev = sys::EPOLLRDHUP;
    if !conn.closing && !conn.read_eof && !conn.awaiting_update && conn.pending_write() < HIGH_WATER
    {
        ev |= sys::EPOLLIN;
    }
    if conn.pending_write() > 0 {
        ev |= sys::EPOLLOUT;
    }
    ev
}

/// Flushes as much of the write buffer as the socket will take, returning
/// how many bytes it accepted (progress, for the reaping sweep).
/// `Err` means the connection is dead.
fn flush(conn: &mut Conn) -> io::Result<usize> {
    let mut accepted = 0;
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.out_pos += n;
                accepted += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
        // A 16MB batch response must not stay pinned by an idle connection.
        if conn.out.capacity() > (2 << 20) {
            conn.out.shrink_to(64 << 10);
        }
    } else if conn.out_pos >= (1 << 20) {
        // Partially flushed giant buffer: drop the consumed prefix.
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    Ok(accepted)
}

/// Decodes and executes buffered requests until input runs dry, the
/// connection is closing, an offloaded update pauses it, or backpressure
/// pauses it. A decode error is a protocol error: the connection stops
/// reading and will be dropped (after a best-effort flush).
fn process_frames(conn: &mut Conn, ctx: &ReactorCtx, shutdown_seen: &mut bool) -> io::Result<()> {
    while !conn.closing && !conn.awaiting_update && conn.pending_write() < HIGH_WATER {
        let Some(req) = conn.decoder.next_request()? else {
            break;
        };
        if let Request::UpdateWeights(updates) = req {
            // Offloaded: the reactor must keep serving its other
            // connections while the batch (potentially an index rebuild)
            // absorbs on a worker thread. This connection pauses so its
            // responses stay in request order.
            spawn_update_worker(ctx, conn, updates);
            continue; // loop exits via awaiting_update (or error queued)
        }
        if respond(ctx.state, &req, &mut conn.out, &mut conn.batch_buf)? {
            *shutdown_seen = true;
            conn.closing = true;
        }
    }
    Ok(())
}

/// Starts a worker thread absorbing `updates` for `conn`. On the (resource
/// exhaustion) failure to spawn, a typed error response is queued instead —
/// the protocol stays in lockstep either way.
fn spawn_update_worker(ctx: &ReactorCtx, conn: &mut Conn, updates: Vec<hc2l_oracle::WeightUpdate>) {
    let state = Arc::clone(ctx.state);
    let handles = Arc::clone(ctx.handles);
    let id = ctx.id;
    let fd = conn.stream.as_raw_fd();
    let token = conn.token;
    let spawned = std::thread::Builder::new()
        .name("hc2l-serve-update".into())
        .spawn(move || {
            let resp = match state.try_apply_updates(&updates) {
                Ok(outcome) => Response::Updated(outcome),
                Err(e) => e.into_response(),
            };
            let mut frame = Vec::new();
            if write_response(&mut frame, &resp).is_ok() {
                handles[id]
                    .done
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(UpdateDone { fd, token, frame });
                handles[id].wake.wake();
            }
        });
    match spawned {
        Ok(_) => conn.awaiting_update = true,
        Err(_) => {
            let _ = write_response(
                &mut conn.out,
                &Response::Error("update worker could not be spawned; retry".into()),
            );
        }
    }
}

/// Per-event read budget of [`drive_conn`]: a client that pipelines
/// requests as fast as the reactor answers them would otherwise never hit
/// `WouldBlock`, monopolising its reactor — siblings on the same epoll
/// would starve and the shutdown flag would go unchecked for as long as
/// the flood lasts. Once the budget is spent the connection yields back to
/// `epoll_wait`; level-triggered `EPOLLIN` re-delivers it immediately if
/// bytes remain, now interleaved fairly with every other ready connection.
const READ_BUDGET: usize = 1 << 20;

/// Drives one connection as far as it can go without blocking:
/// execute buffered frames → flush → read more, repeated until the socket
/// runs dry, backpressure pauses the reads, or the per-event
/// [`READ_BUDGET`] is spent. Returns `false` when the connection should be
/// closed now.
fn drive_conn(
    conn: &mut Conn,
    ctx: &ReactorCtx,
    scratch: &mut [u8],
    shutdown_seen: &mut bool,
) -> bool {
    let mut budget = READ_BUDGET;
    loop {
        if process_frames(conn, ctx, shutdown_seen).is_err() {
            // Protocol error: no more requests from this peer; whatever
            // responses are already owed still flush, then it drops.
            conn.closing = true;
        }
        match flush(conn) {
            Ok(0) => {}
            Ok(_) => conn.last_progress = Instant::now(),
            Err(_) => {
                ctx.state.note_write_error();
                return false;
            }
        }
        // Backpressure resume: if the flush freed room below the high-water
        // mark and complete frames are already buffered (paused by an
        // earlier pass), execute them before touching the socket again —
        // otherwise a client waiting on those answers before sending (or
        // one that already half-closed) would strand them forever.
        if !conn.closing
            && !conn.awaiting_update
            && conn.pending_write() < HIGH_WATER
            && conn.decoder.has_complete_frame()
        {
            continue;
        }
        if conn.closing || conn.read_eof || conn.awaiting_update {
            break;
        }
        if conn.pending_write() >= HIGH_WATER {
            break; // backpressure: EPOLLIN comes off via desired_interest
        }
        // Fairness yield — placed after the resume check, so no complete
        // frame can be left stranded: if bytes remain in the socket,
        // EPOLLIN fires again on the very next wait.
        if budget == 0 {
            break;
        }
        match conn.stream.read(scratch) {
            // EOF: loop once more so frames the peer pipelined before
            // half-closing still execute and answer.
            Ok(0) => conn.read_eof = true,
            Ok(n) => {
                budget = budget.saturating_sub(n);
                conn.last_progress = Instant::now();
                conn.decoder.feed(&scratch[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // An abrupt reset (not a clean FIN): the peer vanished with
                // I/O outstanding — counted like a broken-pipe write.
                ctx.state.note_write_error();
                return false;
            }
        }
    }
    // The loop exits past EOF only once no complete frame remains decodable
    // below the high-water mark — so under the mark, input is truly
    // exhausted and the connection lives only until its writes drain. A
    // connection awaiting an offloaded update stays alive regardless: its
    // response is still owed.
    let input_done = conn.closing
        || (conn.read_eof && !conn.awaiting_update && conn.pending_write() < HIGH_WATER);
    !(input_done && conn.pending_write() == 0)
}

/// Registers a fresh connection with this reactor and drives it once
/// (a fast client may have written its first request already).
fn register_conn(
    epoll: &Epoll,
    conns: &mut HashMap<i32, Conn>,
    stream: TcpStream,
    ctx: &ReactorCtx,
    scratch: &mut [u8],
    shutdown_seen: &mut bool,
) {
    stream.set_nodelay(true).ok();
    if stream.set_nonblocking(true).is_err() {
        return; // peer sees a reset and can retry
    }
    let fd = stream.as_raw_fd();
    let mut conn = Conn::new(stream);
    if !drive_conn(&mut conn, ctx, scratch, shutdown_seen) {
        return;
    }
    conn.interest = desired_interest(&conn);
    if epoll.add(fd, conn.interest, fd as u64).is_err() {
        return;
    }
    conns.insert(fd, conn);
}

/// Accepts until the backlog is empty, registering local connections and
/// dealing the rest round-robin to sibling reactors. A fatal listener
/// error propagates; transient per-connection failures are skipped.
fn accept_burst(
    listener: &TcpListener,
    epoll: &Epoll,
    ctx: &ReactorCtx,
    next_target: &mut usize,
    conns: &mut HashMap<i32, Conn>,
    scratch: &mut [u8],
    shutdown_seen: &mut bool,
) -> io::Result<()> {
    let handles = ctx.handles.as_slice();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                ctx.state.note_accepted();
                let target = *next_target % handles.len();
                *next_target += 1;
                if target == ctx.id {
                    register_conn(epoll, conns, stream, ctx, scratch, shutdown_seen);
                } else {
                    // Hand over non-blocking already, so the sibling never
                    // risks a blocking call on it.
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    handles[target]
                        .inbox
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(stream);
                    handles[target].wake.wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
}

/// One reactor thread. Reactor 0 passes the listener; the rest serve only
/// handed-over connections. Runs until shutdown is requested and the drain
/// completes.
fn reactor_loop(
    id: usize,
    listener: Option<TcpListener>,
    state: Arc<ServeState>,
    handles: Arc<Vec<ReactorHandle>>,
) -> io::Result<()> {
    let epoll = Epoll::new()?;
    epoll.add(handles[id].wake.0, sys::EPOLLIN, DATA_WAKE)?;
    if let Some(l) = &listener {
        epoll.add(l.as_raw_fd(), sys::EPOLLIN, DATA_LISTENER)?;
    }
    let ctx = ReactorCtx {
        state: &state,
        handles: &handles,
        id,
    };
    let mut conns: HashMap<i32, Conn> = HashMap::new();
    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut next_target = id;
    // When the drain began; `elapsed` cannot overflow, so even a
    // `Duration::MAX` drain window is simply unbounded.
    let mut draining: Option<Instant> = None;
    let mut last_sweep = Instant::now();
    let mut result: io::Result<()> = Ok(());

    loop {
        if state.is_shutting_down() && draining.is_none() {
            // Enter the drain: stop accepting, close everything that owes
            // the peer nothing, give the rest a bounded flush window.
            draining = Some(Instant::now());
            if let Some(l) = &listener {
                let _ = epoll.del(l.as_raw_fd());
            }
            conns.retain(|&fd, c| {
                c.closing = true;
                let dead = match flush(c) {
                    Ok(_) => false,
                    Err(_) => {
                        state.note_write_error();
                        true
                    }
                };
                if dead || c.pending_write() == 0 {
                    let _ = epoll.del(fd);
                    return false;
                }
                let want = desired_interest(c);
                if want != c.interest && epoll.modify(fd, want, fd as u64).is_ok() {
                    c.interest = want;
                }
                true
            });
        }
        if let Some(started) = draining {
            if conns.is_empty() || started.elapsed() >= state.config().drain {
                break;
            }
        }

        let nev = match epoll.wait(&mut events, EPOLL_TIMEOUT_MS) {
            Ok(n) => n,
            Err(e) => {
                result = Err(e);
                state.request_shutdown();
                break;
            }
        };
        let mut shutdown_seen = false;
        for ev in &events[..nev] {
            // Copy the (possibly packed) fields out before matching.
            let data = ev.data;
            let evs = ev.events;
            match data {
                DATA_WAKE => handles[id].wake.drain(),
                DATA_LISTENER => {
                    if draining.is_some() {
                        continue;
                    }
                    let Some(l) = &listener else { continue };
                    if let Err(e) = accept_burst(
                        l,
                        &epoll,
                        &ctx,
                        &mut next_target,
                        &mut conns,
                        &mut scratch,
                        &mut shutdown_seen,
                    ) {
                        // Fatal accept error (fd exhaustion, listener
                        // teardown): stop the whole server through the
                        // drain, never abandoning live connections.
                        result = Err(e);
                        state.request_shutdown();
                        shutdown_seen = true;
                    }
                }
                _ => {
                    let fd = data as i32;
                    let Some(conn) = conns.get_mut(&fd) else {
                        continue; // stale event for a just-closed fd
                    };
                    if evs & sys::EPOLLERR != 0 {
                        // Asynchronous socket error — the peer reset with
                        // data in flight; counted like a broken-pipe write.
                        state.note_write_error();
                    }
                    let keep = evs & sys::EPOLLERR == 0
                        && drive_conn(conn, &ctx, &mut scratch, &mut shutdown_seen);
                    if keep {
                        let want = desired_interest(conn);
                        if want != conn.interest && epoll.modify(fd, want, fd as u64).is_ok() {
                            conn.interest = want;
                        }
                    } else {
                        let _ = epoll.del(fd);
                        conns.remove(&fd);
                    }
                }
            }
        }

        // Deliver finished weight-update batches to the connections that
        // requested them: queue the encoded response, unpause, and re-drive
        // (frames the peer pipelined behind the update now execute, on the
        // new generation). A completion whose connection died mid-update —
        // or whose fd was recycled (token mismatch) — is dropped.
        let done: Vec<UpdateDone> = std::mem::take(
            &mut *handles[id]
                .done
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for d in done {
            let Some(conn) = conns.get_mut(&d.fd) else {
                continue;
            };
            if conn.token != d.token {
                continue;
            }
            conn.awaiting_update = false;
            conn.out.extend_from_slice(&d.frame);
            if drive_conn(conn, &ctx, &mut scratch, &mut shutdown_seen) {
                let want = desired_interest(conn);
                if want != conn.interest && epoll.modify(d.fd, want, d.fd as u64).is_ok() {
                    conn.interest = want;
                }
            } else {
                let _ = epoll.del(d.fd);
                conns.remove(&d.fd);
            }
        }

        // Adopt connections reactor 0 handed over (dropped when already
        // shutting down — the peer sees a reset, same as a refused accept).
        let newcomers: Vec<TcpStream> = std::mem::take(
            &mut *handles[id]
                .inbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for stream in newcomers {
            if draining.is_some() || state.is_shutting_down() {
                continue;
            }
            register_conn(
                &epoll,
                &mut conns,
                stream,
                &ctx,
                &mut scratch,
                &mut shutdown_seen,
            );
        }

        // Reap connections that blew their progress budget: a slow-loris
        // peer stuck mid-frame (or refusing to drain its responses) gets
        // the stall budget; a quiet one at a frame boundary gets the idle
        // budget. Connections awaiting an offloaded update are exempt —
        // the pending response is the server's latency, not the peer's.
        if draining.is_none() && last_sweep.elapsed() >= SWEEP_INTERVAL {
            last_sweep = Instant::now();
            let cfg = state.config();
            conns.retain(|&fd, c| {
                if c.awaiting_update {
                    return true;
                }
                let stalled = !c.decoder.is_idle() || c.pending_write() > 0;
                let budget = if stalled {
                    cfg.stall_timeout
                } else {
                    cfg.idle_timeout
                };
                match budget {
                    Some(b) if c.last_progress.elapsed() >= b => {
                        state.note_reaped();
                        let _ = epoll.del(fd);
                        false
                    }
                    _ => true,
                }
            });
        }

        if shutdown_seen {
            // A wire Shutdown landed on this reactor; siblings find out now
            // instead of at their next timeout.
            for h in handles.iter() {
                h.wake.wake();
            }
        }
    }
    result
}

/// Runs the reactors on `listener` until shutdown: spawns
/// `state.threads() - 1` sibling reactors (at most
/// [`MAX_REACTORS`](crate::server::MAX_REACTORS) in all) and
/// runs reactor 0 — listener owner — on the calling thread. Returns after
/// every reactor has drained; the first error (if any) wins.
pub(crate) fn run(listener: TcpListener, state: Arc<ServeState>) -> io::Result<()> {
    let n = state.threads();
    let handles: Vec<ReactorHandle> = (0..n)
        .map(|_| ReactorHandle::new())
        .collect::<io::Result<_>>()?;
    let handles = Arc::new(handles);
    let mut joins = Vec::new();
    for id in 1..n {
        let st = Arc::clone(&state);
        let hs = Arc::clone(&handles);
        let spawned = std::thread::Builder::new()
            .name(format!("hc2l-serve-reactor-{id}"))
            .spawn(move || reactor_loop(id, None, st, hs));
        match spawned {
            Ok(j) => joins.push(j),
            Err(e) => {
                // Could not build the full fleet: stop the ones that exist.
                state.request_shutdown();
                for h in handles.iter() {
                    h.wake.wake();
                }
                for j in joins {
                    let _ = j.join();
                }
                return Err(e);
            }
        }
    }
    let mut result = reactor_loop(0, Some(listener), Arc::clone(&state), Arc::clone(&handles));
    // Reactor 0 only returns once shutdown is requested (it requests it
    // itself on fatal errors); make sure no sibling sleeps through the news.
    for h in handles.iter() {
        h.wake.wake();
    }
    for j in joins {
        match j.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                if result.is_ok() {
                    result = Err(e);
                }
            }
            Err(_) => {
                if result.is_ok() {
                    result = Err(io::Error::other("reactor thread panicked"));
                }
            }
        }
    }
    result
}
