//! The length-prefixed binary wire protocol between `hc2l-serve` and its
//! clients.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! offset  size  field
//! ------  ----  --------------------------------------------
//!      0     4  payload length in bytes (u32, little-endian)
//!      4     1  opcode
//!      5     …  opcode-specific fields (little-endian integers)
//! ```
//!
//! Requests: `Distance(s, t)`, `OneToMany(s, targets…)`,
//! `UpdateWeights(batch…)`, `Metrics`, `Shutdown`. Responses mirror them, plus
//! two terminal variants with distinct retry semantics: `Error(message)` for
//! malformed or out-of-range requests (not retryable as-is, but the
//! connection stays usable — a bad query must not take down a worker) and
//! `Overloaded(message)` for well-formed requests shed before execution
//! (always safe to retry verbatim after a backoff).
//!
//! The codec is hand-rolled over `std::io::{Read, Write}` (the workspace
//! builds offline; the vendored serde is marker-only) and defensive in both
//! directions: frames are capped at [`MAX_FRAME_BYTES`] and every decode
//! error is a typed `io::Error`, so a garbage-spewing peer cannot make the
//! server allocate unboundedly or panic.
//!
//! Opcode 3 carried a retired counters frame; it stays reserved, and a peer
//! that sends it gets the same typed unknown-opcode error as any other.
//!
//! Two decoders share one payload grammar: the blocking
//! [`read_request`]/[`read_response`] pair (used by the clients, where a
//! partial frame simply blocks the reader, and by the tests as the
//! reference decoder) and the incremental [`FrameDecoder`] (used by the
//! reactor on the server side, where reads deliver frames in
//! arbitrary fragments and the decoder must carry state across calls).
//!
//! The per-request path allocates nothing per frame:
//!
//! * **borrowed decode** — [`FrameDecoder::next_request`] and
//!   [`FrameDecoder::next_response`] parse the payload in place, as a slice
//!   of the decoder's own buffer, and only then mark the frame consumed. A
//!   `Distance` frame decodes without touching the heap; a frame that
//!   carries a list or a text allocates only the `Vec`/`String` its owned
//!   [`Request`]/[`Response`] holds. The blocking [`read_request`] and
//!   [`read_response`] read a fixed-size frame's payload into a stack
//!   buffer, and a longer list or text payload into one `Vec`.
//! * **direct encode** — [`write_request`], [`write_response`] and
//!   [`write_distances`] know each payload's length before the first byte,
//!   gate it through the frame-length check (an oversized frame fails typed
//!   with nothing written), and stage the frame in a stack buffer that goes
//!   to the writer with one `write_all` per buffer-full. Every fixed-size
//!   frame (`Distance`, `Updated`, `Metrics`/`Shutdown` requests, …) is one
//!   `write_all`; no intermediate payload `Vec` exists at any size.

use std::io::{self, Read, Write};

use hc2l_graph::{Distance, Vertex};
use hc2l_oracle::WeightUpdate;

/// Upper bound on one frame's payload (compare: a one-to-many request of
/// 1M targets is 4MB). Anything larger is rejected as malformed — by both
/// decoders on the way in, and by the encoder's typed error on the way
/// out, so an oversized frame can never even be produced.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Largest one-to-many batch the server accepts.
///
/// Both encodings must stay under [`MAX_FRAME_BYTES`] for a batch of `N`:
///
/// * request payload: 1 (opcode) + 4 (source) + 4 (count) + 4·N, and
/// * response payload: 1 (opcode) + 4 (count) + 8·N —
///
/// the response is twice as wide per entry, so it binds:
/// `N = (MAX_FRAME_BYTES - 5) / 8`. A batch of exactly this size round-trips
/// in both directions (the request frame is then well under the cap); one
/// more target would push the *response* payload over the cap, so the server
/// answers larger requests with [`Response::Error`] and clients chunk
/// instead. The boundary is pinned by tests on both decoders.
pub const MAX_ONE_TO_MANY_TARGETS: usize = (MAX_FRAME_BYTES - 5) / 8;

// The derivation above, pinned at compile time: a cap-sized batch fits both
// encodings, one more target overflows the response.
const _: () = {
    assert!(1 + 4 + 4 + 4 * MAX_ONE_TO_MANY_TARGETS <= MAX_FRAME_BYTES);
    assert!(1 + 4 + 8 * MAX_ONE_TO_MANY_TARGETS <= MAX_FRAME_BYTES);
    assert!(1 + 4 + 8 * (MAX_ONE_TO_MANY_TARGETS + 1) > MAX_FRAME_BYTES);
};

/// Largest weight-update batch one frame can carry. The request payload is
/// 1 (opcode) + 4 (count) + 12·N (u, v, new_weight as u32 each), and the
/// response is a fixed-size report, so only the request binds:
/// `N = (MAX_FRAME_BYTES - 5) / 12` ≈ 1.4M updates per frame — far beyond
/// any realistic traffic tick; larger feeds chunk into multiple frames.
pub const MAX_UPDATE_BATCH: usize = (MAX_FRAME_BYTES - 5) / 12;

// Pinned like the one-to-many cap: a cap-sized batch fits, one more update
// overflows the request payload.
const _: () = {
    assert!(1 + 4 + 12 * MAX_UPDATE_BATCH <= MAX_FRAME_BYTES);
    assert!(1 + 4 + 12 * (MAX_UPDATE_BATCH + 1) > MAX_FRAME_BYTES);
};

mod op {
    pub const DISTANCE: u8 = 1;
    pub const ONE_TO_MANY: u8 = 2;
    pub const SHUTDOWN: u8 = 4;
    pub const UPDATE_WEIGHTS: u8 = 5;
    pub const METRICS: u8 = 6;
    pub const OVERLOADED: u8 = 0xFE;
    pub const ERROR: u8 = 0xFF;
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Exact point-to-point distance.
    Distance(Vertex, Vertex),
    /// Batched distances from one source to many targets.
    OneToMany {
        /// Source vertex.
        source: Vertex,
        /// Target vertices, answered in order.
        targets: Vec<Vertex>,
    },
    /// Apply a batch of edge re-weightings to the served index; subsequent
    /// queries (on any connection) answer on the re-weighted graph.
    UpdateWeights(Vec<WeightUpdate>),
    /// The full metrics surface in Prometheus text exposition format
    /// (every counter of [`crate::ServerStats`] plus per-opcode latency
    /// percentiles) — what `hc2l-query --metrics` scrapes.
    Metrics,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Distance`].
    Distance(Distance),
    /// Answer to [`Request::OneToMany`], parallel to the request's targets.
    Distances(Vec<Distance>),
    /// Answer to [`Request::Metrics`]: the Prometheus text exposition
    /// document (UTF-8).
    Metrics(String),
    /// Answer to [`Request::UpdateWeights`]: how the batch was absorbed.
    Updated(UpdateOutcome),
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
    /// The server shed this request *before executing any of it* — the
    /// query path is at its admission cap, or an update batch is already
    /// being absorbed. Unlike [`Response::Error`], the request itself was
    /// well-formed: retrying the identical frame after a backoff is always
    /// safe (nothing was applied), and the connection stays usable.
    Overloaded(String),
    /// The request was malformed or out of range; the connection survives.
    Error(String),
}

/// Wire form of an absorbed weight-update batch (the serve-side view of
/// `hc2l_oracle::UpdateReport`, plus the index generation it produced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateOutcome {
    /// `UpdateStrategy::tag()` of the strategy that absorbed the batch
    /// (1 = ch-customize, 2 = hc2l-relabel, 3 = rebuild).
    pub strategy_tag: u32,
    /// Updates that named an existing edge and were applied.
    pub applied: u64,
    /// Updates skipped for naming a missing edge or out-of-range vertex.
    pub rejected: u64,
    /// Wall-clock microseconds spent absorbing the batch.
    pub micros: u64,
    /// Index generation now being served; every query answered after this
    /// response was sent reflects at least this generation.
    pub epoch: u64,
}

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Reads one length-prefixed frame and decodes its payload with `decode`;
/// `Ok(None)` on a clean EOF at a frame boundary (the peer hung up between
/// requests). EOF anywhere *inside* a frame — including partway through
/// the length prefix — is an error: the first prefix byte alone
/// distinguishes "no next frame" from "truncated frame". A payload of at
/// most [`FIXED_STAGE`] bytes — every fixed-size frame — is read into a
/// stack buffer; only a longer list or text payload is read into a `Vec`.
fn read_frame<R: Read, T>(r: &mut R, decode: fn(&[u8]) -> io::Result<T>) -> io::Result<Option<T>> {
    let mut len = [0u8; 4];
    let mut got = 0usize;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(bad("EOF inside a frame length prefix")),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    check_frame_len(len)?;
    if len <= FIXED_STAGE {
        let mut stage = [0u8; FIXED_STAGE];
        r.read_exact(&mut stage[..len])?;
        return decode(&stage[..len]).map(Some);
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode(&payload).map(Some)
}

/// The shared frame-length gate of both decoders (and, inverted, of the
/// encoder): zero-length and over-cap frames are malformed.
fn check_frame_len(len: usize) -> io::Result<()> {
    if len == 0 {
        return Err(bad("empty frame"));
    }
    if len > MAX_FRAME_BYTES {
        return Err(bad(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    Ok(())
}

/// Stack staging buffer of a fixed-size frame: the largest is an `Updated`
/// report, 4 (length) + 1 (opcode) + 4 + 4·8 = 41 bytes. A text frame
/// stages its header here too; a message that does not fit follows it
/// with a second `write_all`. The blocking readers stage payloads of up to
/// this size on the stack as well.
const FIXED_STAGE: usize = 48;

/// Stack staging buffer of a list frame: a 64-entry distance row (4 + 1 +
/// 4 + 8·64 = 521 bytes) still goes out as one `write_all`.
const LIST_STAGE: usize = 1024;

/// One frame on its way into a writer, staged in an `N`-byte stack buffer
/// that is handed over with one `write_all` whenever it fills and once at
/// [`finish`](FrameOut::finish). Nothing is allocated at any frame size.
struct FrameOut<'w, W: Write, const N: usize> {
    w: &'w mut W,
    stage: [u8; N],
    len: usize,
}

impl<'w, W: Write, const N: usize> FrameOut<'w, W, N> {
    /// Opens a frame whose payload is `payload_len` bytes, the first of
    /// them `opcode`. The length is gated before anything is staged —
    /// enforced, not debug-asserted: a peer that rejects oversized frames
    /// as malformed must never be handed one, release builds included, and
    /// a refused frame leaves the writer untouched.
    fn open(w: &'w mut W, payload_len: usize, opcode: u8) -> io::Result<Self> {
        check_frame_len(payload_len)?;
        let mut out = FrameOut {
            w,
            stage: [0; N],
            len: 0,
        };
        out.put(&(payload_len as u32).to_le_bytes())?;
        out.put(&[opcode])?;
        Ok(out)
    }

    /// Appends `bytes` to the frame; a run longer than the stage (a long
    /// message text) goes to the writer directly after the staged prefix.
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.len() > N - self.len {
            self.w.write_all(&self.stage[..self.len])?;
            self.len = 0;
            if bytes.len() > N {
                return self.w.write_all(bytes);
            }
        }
        self.stage[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        Ok(())
    }

    /// Hands the staged tail to the writer and flushes it.
    fn finish(self) -> io::Result<()> {
        self.w.write_all(&self.stage[..self.len])?;
        self.w.flush()
    }
}

/// Incremental frame decoder for non-blocking connections.
///
/// The epoll reactor reads whatever the socket has — possibly one byte,
/// possibly three and a half frames — and [`feed`](FrameDecoder::feed)s it
/// here; [`next_request`](FrameDecoder::next_request) then yields each
/// complete frame as it materialises. Defensiveness matches the blocking
/// decoder exactly: the length prefix is validated the moment its four
/// bytes are in (an over-cap or zero length fails typed *before* any
/// payload is buffered, so a hostile peer cannot make the decoder allocate
/// beyond [`MAX_FRAME_BYTES`]), and a connection that hits EOF while
/// [`is_idle`](FrameDecoder::is_idle) is false was truncated mid-frame.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Bytes received but not yet decoded; `pos` marks the consumed prefix,
    /// compacted whenever a frame completes so the buffer never outgrows
    /// one frame plus one read's worth of fragments.
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder at a frame boundary.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends bytes received from the peer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: the consumed prefix is dead weight.
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= (64 << 10) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the decoder sits at a frame boundary (no partial frame
    /// buffered). EOF while this is `false` means the peer truncated a
    /// frame — the same condition the blocking decoder reports as an error.
    pub fn is_idle(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Whether the next `next_request`/`next_response` call would make
    /// progress — a complete frame is buffered, or a malformed length
    /// prefix will fail typed. The reactor uses this to resume execution of
    /// backpressure-paused frames without waiting for (possibly never
    /// arriving) socket readability.
    pub fn has_complete_frame(&self) -> bool {
        !matches!(self.peek_frame(), Ok(None))
    }

    /// The next complete frame's payload, borrowed from the buffer, with
    /// the bytes the whole frame spans; `Ok(None)` while more bytes are
    /// needed.
    fn peek_frame(&self) -> io::Result<Option<(&[u8], usize)>> {
        let pending = &self.buf[self.pos..];
        if pending.len() < 4 {
            return Ok(None);
        }
        // lint:allow(no-panic): pending.len() >= 4 checked above, so the 4-byte try_into cannot fail
        let len = u32::from_le_bytes(pending[..4].try_into().unwrap()) as usize;
        // Validate the prefix as soon as it is readable — before waiting
        // for (or buffering) a payload that would bust the cap.
        check_frame_len(len)?;
        match pending.get(4..4 + len) {
            Some(payload) => Ok(Some((payload, 4 + len))),
            None => Ok(None),
        }
    }

    /// Marks the `span` bytes of the frame just decoded as consumed.
    fn consume(&mut self, span: usize) {
        self.pos += span;
        if self.is_idle() {
            self.buf.clear();
            self.pos = 0;
        }
    }

    /// Pops the next complete request, `Ok(None)` while more bytes are
    /// needed. The payload is decoded in place; a frame that fails to
    /// decode is consumed all the same. Errors are sticky in practice: the
    /// caller drops the connection.
    pub fn next_request(&mut self) -> io::Result<Option<Request>> {
        let Some((payload, span)) = self.peek_frame()? else {
            return Ok(None);
        };
        let req = decode_request_payload(payload);
        self.consume(span);
        req.map(Some)
    }

    /// Pops the next complete response, `Ok(None)` while more bytes are
    /// needed; decoded in place, like [`next_request`](Self::next_request).
    pub fn next_response(&mut self) -> io::Result<Option<Response>> {
        let Some((payload, span)) = self.peek_frame()? else {
            return Ok(None);
        };
        let resp = decode_response_payload(payload);
        self.consume(span);
        resp.map(Some)
    }
}

/// Cursor over a frame payload.
struct Fields<'a> {
    bytes: &'a [u8],
}

impl<'a> Fields<'a> {
    fn u32(&mut self) -> io::Result<u32> {
        if self.bytes.len() < 4 {
            return Err(bad("truncated frame"));
        }
        // lint:allow(no-panic): bytes.len() >= 4 checked above, so the 4-byte try_into cannot fail
        let v = u32::from_le_bytes(self.bytes[..4].try_into().unwrap());
        self.bytes = &self.bytes[4..];
        Ok(v)
    }

    fn u64(&mut self) -> io::Result<u64> {
        if self.bytes.len() < 8 {
            return Err(bad("truncated frame"));
        }
        // lint:allow(no-panic): bytes.len() >= 8 checked above, so the 8-byte try_into cannot fail
        let v = u64::from_le_bytes(self.bytes[..8].try_into().unwrap());
        self.bytes = &self.bytes[8..];
        Ok(v)
    }

    fn finish(self) -> io::Result<()> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(bad("trailing bytes in frame"))
        }
    }
}

/// Writes one request as a frame, straight into `w`.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    match req {
        Request::Distance(s, t) => {
            let mut f = FrameOut::<W, FIXED_STAGE>::open(w, 9, op::DISTANCE)?;
            f.put(&s.to_le_bytes())?;
            f.put(&t.to_le_bytes())?;
            f.finish()
        }
        Request::OneToMany { source, targets } => {
            let len = 9 + 4 * targets.len();
            let mut f = FrameOut::<W, LIST_STAGE>::open(w, len, op::ONE_TO_MANY)?;
            f.put(&source.to_le_bytes())?;
            f.put(&(targets.len() as u32).to_le_bytes())?;
            for t in targets {
                f.put(&t.to_le_bytes())?;
            }
            f.finish()
        }
        Request::UpdateWeights(updates) => {
            let len = 5 + 12 * updates.len();
            let mut f = FrameOut::<W, LIST_STAGE>::open(w, len, op::UPDATE_WEIGHTS)?;
            f.put(&(updates.len() as u32).to_le_bytes())?;
            for up in updates {
                f.put(&up.u.to_le_bytes())?;
                f.put(&up.v.to_le_bytes())?;
                f.put(&up.new_weight.to_le_bytes())?;
            }
            f.finish()
        }
        Request::Metrics => FrameOut::<W, FIXED_STAGE>::open(w, 1, op::METRICS)?.finish(),
        Request::Shutdown => FrameOut::<W, FIXED_STAGE>::open(w, 1, op::SHUTDOWN)?.finish(),
    }
}

/// Reads one request; `Ok(None)` on clean EOF between frames.
pub fn read_request<R: Read>(r: &mut R) -> io::Result<Option<Request>> {
    read_frame(r, decode_request_payload)
}

/// Decodes one request frame payload — the grammar shared by the blocking
/// reader and the incremental [`FrameDecoder`].
fn decode_request_payload(payload: &[u8]) -> io::Result<Request> {
    // `check_frame_len` rejects empty frames upstream, but decode defensively
    // so this function is total over arbitrary payloads.
    let Some((opcode, rest)) = payload.split_first() else {
        return Err(bad("empty frame"));
    };
    let mut f = Fields { bytes: rest };
    let req = match *opcode {
        op::DISTANCE => {
            let (s, t) = (f.u32()?, f.u32()?);
            f.finish()?;
            Request::Distance(s, t)
        }
        op::ONE_TO_MANY => {
            let source = f.u32()?;
            let count = f.u32()? as usize;
            // Checked multiply: a huge claimed count must fail the length
            // comparison, not wrap it into passing on 32-bit hosts.
            if count.checked_mul(4) != Some(f.bytes.len()) {
                return Err(bad("one-to-many target count disagrees with frame length"));
            }
            let mut targets = Vec::with_capacity(count);
            for _ in 0..count {
                targets.push(f.u32()?);
            }
            f.finish()?;
            Request::OneToMany { source, targets }
        }
        op::UPDATE_WEIGHTS => {
            let count = f.u32()? as usize;
            // Checked multiply, as for one-to-many: a lying count must fail
            // the length comparison, never wrap past it.
            if count.checked_mul(12) != Some(f.bytes.len()) {
                return Err(bad("update count disagrees with frame length"));
            }
            let mut updates = Vec::with_capacity(count);
            for _ in 0..count {
                updates.push(WeightUpdate::new(f.u32()?, f.u32()?, f.u32()?));
            }
            f.finish()?;
            Request::UpdateWeights(updates)
        }
        op::METRICS => {
            f.finish()?;
            Request::Metrics
        }
        op::SHUTDOWN => {
            f.finish()?;
            Request::Shutdown
        }
        other => return Err(bad(format!("unknown request opcode {other}"))),
    };
    Ok(req)
}

/// Writes one response as a frame, straight into `w`.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    let (opcode, text) = match resp {
        Response::Distance(d) => {
            let mut f = FrameOut::<W, FIXED_STAGE>::open(w, 9, op::DISTANCE)?;
            f.put(&d.to_le_bytes())?;
            return f.finish();
        }
        Response::Distances(ds) => return write_distances(w, ds),
        Response::Updated(o) => {
            let mut f = FrameOut::<W, FIXED_STAGE>::open(w, 37, op::UPDATE_WEIGHTS)?;
            f.put(&o.strategy_tag.to_le_bytes())?;
            for v in [o.applied, o.rejected, o.micros, o.epoch] {
                f.put(&v.to_le_bytes())?;
            }
            return f.finish();
        }
        Response::ShuttingDown => {
            return FrameOut::<W, FIXED_STAGE>::open(w, 1, op::SHUTDOWN)?.finish()
        }
        Response::Metrics(text) => (op::METRICS, text),
        Response::Overloaded(msg) => (op::OVERLOADED, msg),
        Response::Error(msg) => (op::ERROR, msg),
    };
    let mut f = FrameOut::<W, FIXED_STAGE>::open(w, 1 + text.len(), opcode)?;
    f.put(text.as_bytes())?;
    f.finish()
}

/// Writes a [`Response::Distances`] frame directly from a slice — the
/// serving hot path encodes a reused batch buffer without first cloning it
/// into an owned `Response`.
pub fn write_distances<W: Write>(w: &mut W, ds: &[Distance]) -> io::Result<()> {
    let len = 5 + 8 * ds.len();
    let mut f = FrameOut::<W, LIST_STAGE>::open(w, len, op::ONE_TO_MANY)?;
    f.put(&(ds.len() as u32).to_le_bytes())?;
    for d in ds {
        f.put(&d.to_le_bytes())?;
    }
    f.finish()
}

/// Reads one response; `Ok(None)` on clean EOF between frames.
pub fn read_response<R: Read>(r: &mut R) -> io::Result<Option<Response>> {
    read_frame(r, decode_response_payload)
}

/// Decodes one response frame payload — shared with the incremental
/// [`FrameDecoder`].
fn decode_response_payload(payload: &[u8]) -> io::Result<Response> {
    // As in `decode_request_payload`: total over arbitrary payloads.
    let Some((opcode, rest)) = payload.split_first() else {
        return Err(bad("empty frame"));
    };
    let mut f = Fields { bytes: rest };
    let resp = match *opcode {
        op::DISTANCE => {
            let d = f.u64()?;
            f.finish()?;
            Response::Distance(d)
        }
        op::ONE_TO_MANY => {
            let count = f.u32()? as usize;
            // Checked multiply, as on the request side.
            if count.checked_mul(8) != Some(f.bytes.len()) {
                return Err(bad("distance count disagrees with frame length"));
            }
            let mut ds = Vec::with_capacity(count);
            for _ in 0..count {
                ds.push(f.u64()?);
            }
            f.finish()?;
            Response::Distances(ds)
        }
        op::METRICS => Response::Metrics(
            String::from_utf8(f.bytes.to_vec()).map_err(|_| bad("metrics text not UTF-8"))?,
        ),
        op::UPDATE_WEIGHTS => {
            let o = UpdateOutcome {
                strategy_tag: f.u32()?,
                applied: f.u64()?,
                rejected: f.u64()?,
                micros: f.u64()?,
                epoch: f.u64()?,
            };
            f.finish()?;
            Response::Updated(o)
        }
        op::SHUTDOWN => {
            f.finish()?;
            Response::ShuttingDown
        }
        op::OVERLOADED => Response::Overloaded(
            String::from_utf8(f.bytes.to_vec()).map_err(|_| bad("overload message not UTF-8"))?,
        ),
        op::ERROR => Response::Error(
            String::from_utf8(f.bytes.to_vec()).map_err(|_| bad("error message not UTF-8"))?,
        ),
        other => return Err(bad(format!("unknown response opcode {other}"))),
    };
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes a raw payload (opcode included) as one frame: how these
    /// tests hand-craft malformed frames the typed encoders never produce.
    fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
        let Some((&opcode, body)) = payload.split_first() else {
            return Err(bad("empty frame"));
        };
        let mut f = FrameOut::<W, FIXED_STAGE>::open(w, payload.len(), opcode)?;
        f.put(body)?;
        f.finish()
    }

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_request(&mut r).unwrap(), Some(req));
        assert_eq!(read_request(&mut r).unwrap(), None, "clean EOF after");
    }

    fn round_trip_response(resp: Response) {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_response(&mut r).unwrap(), Some(resp));
        assert_eq!(read_response(&mut r).unwrap(), None);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Distance(3, 999_999));
        round_trip_request(Request::OneToMany {
            source: 7,
            targets: vec![],
        });
        round_trip_request(Request::OneToMany {
            source: 7,
            targets: (0..100).collect(),
        });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::UpdateWeights(vec![]));
        round_trip_request(Request::UpdateWeights(
            (0..50)
                .map(|i| WeightUpdate::new(i, i + 1, 10 + i))
                .collect(),
        ));
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Distance(hc2l_graph::INFINITY));
        round_trip_response(Response::Distances(vec![1, 2, 3, u64::MAX]));
        round_trip_response(Response::Metrics(String::new()));
        round_trip_response(Response::Metrics(
            "# TYPE hc2l_latency_p99_ns gauge\nhc2l_latency_p99_ns{op=\"distance\"} 42\n".into(),
        ));
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Error("no such vertex".into()));
        round_trip_response(Response::Overloaded(
            "an update batch is already in flight".into(),
        ));
        round_trip_response(Response::Updated(UpdateOutcome {
            strategy_tag: 2,
            applied: 100,
            rejected: 3,
            micros: 12_345,
            epoch: 7,
        }));
    }

    #[test]
    fn garbage_fails_typed_not_panicking() {
        // Unknown opcode.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[42, 0, 0]).unwrap();
        assert!(read_request(&mut buf.as_slice()).is_err());
        // Oversized frame length.
        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        assert!(read_request(&mut huge.as_slice()).is_err());
        // Zero-length frame.
        assert!(read_request(&mut [0u8; 4].as_slice()).is_err());
        // Truncated mid-frame (not at a boundary) is an error, not None.
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Distance(1, 2)).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_request(&mut buf.as_slice()).is_err());
        // Truncated *inside the length prefix* is an error too — only a
        // zero-byte EOF is a clean boundary.
        assert!(read_request(&mut [0x07u8, 0x00].as_slice()).is_err());
        // Count field lying about the payload size.
        let mut p = vec![2u8]; // ONE_TO_MANY
        p.extend_from_slice(&1u32.to_le_bytes()); // source
        p.extend_from_slice(&1000u32.to_le_bytes()); // claims 1000 targets
        p.extend_from_slice(&5u32.to_le_bytes()); // provides one
        let mut buf = Vec::new();
        write_frame(&mut buf, &p).unwrap();
        assert!(read_request(&mut buf.as_slice()).is_err());
    }

    /// Feeds `buf` to a fresh incremental decoder in one piece and drains
    /// every complete request.
    fn incremental_requests(buf: &[u8]) -> io::Result<Vec<Request>> {
        let mut dec = FrameDecoder::new();
        dec.feed(buf);
        let mut out = Vec::new();
        while let Some(req) = dec.next_request()? {
            out.push(req);
        }
        assert!(dec.is_idle(), "whole frames must be fully consumed");
        Ok(out)
    }

    #[test]
    fn incremental_decoder_agrees_with_blocking_on_whole_frames() {
        let reqs = [
            Request::Distance(3, 999_999),
            Request::OneToMany {
                source: 7,
                targets: (0..100).collect(),
            },
            Request::Metrics,
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for req in &reqs {
            write_request(&mut buf, req).unwrap();
        }
        assert_eq!(incremental_requests(&buf).unwrap(), reqs);
    }

    #[test]
    fn incremental_decoder_handles_every_split_offset() {
        // One pipelined stream of three frames, split across two feeds at
        // every possible offset: the decoder must produce the identical
        // request sequence regardless of where the fragment boundary falls.
        let reqs = [
            Request::Distance(1, 2),
            Request::OneToMany {
                source: 9,
                targets: vec![4, 5, 6],
            },
            Request::UpdateWeights(vec![
                WeightUpdate::new(0, 1, 42),
                WeightUpdate::new(5, 6, 7),
            ]),
            Request::Metrics,
        ];
        let mut buf = Vec::new();
        for req in &reqs {
            write_request(&mut buf, req).unwrap();
        }
        for split in 0..=buf.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in [&buf[..split], &buf[split..]] {
                dec.feed(chunk);
                while let Some(req) = dec.next_request().unwrap() {
                    got.push(req);
                }
            }
            assert_eq!(got, reqs, "split at {split}");
            assert!(dec.is_idle());
        }
    }

    #[test]
    fn incremental_decoder_handles_byte_at_a_time_delivery() {
        let req = Request::OneToMany {
            source: 3,
            targets: (0..32).collect(),
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let mut dec = FrameDecoder::new();
        for (i, b) in buf.iter().enumerate() {
            dec.feed(std::slice::from_ref(b));
            let got = dec.next_request().unwrap();
            if i + 1 < buf.len() {
                assert_eq!(
                    got,
                    None,
                    "frame complete after {} of {} bytes?",
                    i + 1,
                    buf.len()
                );
                assert!(!dec.is_idle(), "mid-frame must not read as a boundary");
            } else {
                assert_eq!(got, Some(req.clone()));
            }
        }
        assert!(dec.is_idle());
    }

    #[test]
    fn incremental_decoder_rejects_garbage_like_the_blocking_one() {
        // Unknown opcode.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[42, 0, 0]).unwrap();
        assert!(incremental_requests(&buf).is_err());
        // Zero-length frame.
        assert!(incremental_requests(&[0u8; 4]).is_err());
        // Count field lying about the payload size.
        let mut p = vec![2u8];
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&1000u32.to_le_bytes());
        p.extend_from_slice(&5u32.to_le_bytes());
        let mut buf = Vec::new();
        write_frame(&mut buf, &p).unwrap();
        assert!(incremental_requests(&buf).is_err());
        // Update count lying about the payload size fails the same way on
        // both decoders.
        let mut p = vec![5u8]; // UPDATE_WEIGHTS
        p.extend_from_slice(&1000u32.to_le_bytes()); // claims 1000 updates
        p.extend_from_slice(&[0u8; 12]); // provides one
        let mut buf = Vec::new();
        write_frame(&mut buf, &p).unwrap();
        assert!(read_request(&mut buf.as_slice()).is_err());
        assert!(incremental_requests(&buf).is_err());
    }

    #[test]
    fn update_batch_bound_is_exact_and_over_cap_fails_before_buffering() {
        // A cap-sized batch still encodes within the frame cap...
        let updates = vec![WeightUpdate::new(1, 2, 3); MAX_UPDATE_BATCH];
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::UpdateWeights(updates.clone())).unwrap();
        assert_eq!(buf.len(), 4 + 1 + 4 + 12 * MAX_UPDATE_BATCH);
        let mut r = buf.as_slice();
        assert_eq!(
            read_request(&mut r).unwrap(),
            Some(Request::UpdateWeights(updates))
        );
        // ...one more update is refused by the encoder itself...
        let updates = vec![WeightUpdate::new(1, 2, 3); MAX_UPDATE_BATCH + 1];
        let mut buf = Vec::new();
        let err = write_request(&mut buf, &Request::UpdateWeights(updates)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            buf.is_empty(),
            "nothing may hit the wire on a refused frame"
        );
        // ...and a crafted over-cap length prefix (what such a batch's frame
        // would have to claim) fails typed on the incremental decoder from
        // the prefix alone — before any payload is buffered.
        let over = (1 + 4 + 12 * (MAX_UPDATE_BATCH + 1)) as u32;
        let mut dec = FrameDecoder::new();
        dec.feed(&over.to_le_bytes());
        let err = dec.next_request().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(dec.has_complete_frame(), "malformed prefix must fail fast");
    }

    #[test]
    fn frame_of_exactly_max_frame_bytes_round_trips_on_both_decoders() {
        // An Error response whose message fills the payload to exactly the
        // cap: 1 opcode byte + (MAX_FRAME_BYTES - 1) message bytes.
        let msg = "x".repeat(MAX_FRAME_BYTES - 1);
        let resp = Response::Error(msg);
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        assert_eq!(buf.len(), 4 + MAX_FRAME_BYTES);
        // Blocking decoder.
        let mut r = buf.as_slice();
        assert_eq!(read_response(&mut r).unwrap(), Some(resp.clone()));
        assert_eq!(read_response(&mut r).unwrap(), None);
        // Incremental decoder, fed in two fragments to cross the prefix.
        let mut dec = FrameDecoder::new();
        dec.feed(&buf[..7]);
        assert_eq!(dec.next_response().unwrap(), None);
        dec.feed(&buf[7..]);
        assert_eq!(dec.next_response().unwrap(), Some(resp));
        assert!(dec.is_idle());
    }

    #[test]
    fn frame_over_max_frame_bytes_fails_typed_on_both_decoders() {
        // The writer refuses to produce one...
        let msg = "x".repeat(MAX_FRAME_BYTES); // payload would be cap + 1
        let mut buf = Vec::new();
        let err = write_response(&mut buf, &Response::Error(msg)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            buf.is_empty(),
            "nothing may hit the wire on a refused frame"
        );
        // ...and both decoders reject a crafted over-cap prefix without
        // waiting for (or buffering) the payload.
        let prefix = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        let err = read_request(&mut prefix.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut dec = FrameDecoder::new();
        dec.feed(&prefix);
        let err = dec.next_request().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn one_to_many_bound_is_exact_against_both_encodings() {
        // (The arithmetic derivation is a compile-time assertion next to
        // the constant.) A cap-sized batch round-trips in both directions...
        let req = Request::OneToMany {
            source: 1,
            targets: vec![7; MAX_ONE_TO_MANY_TARGETS],
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        assert_eq!(read_request(&mut buf.as_slice()).unwrap(), Some(req));
        let ds = vec![42u64; MAX_ONE_TO_MANY_TARGETS];
        let mut buf = Vec::new();
        write_distances(&mut buf, &ds).unwrap();
        assert_eq!(buf.len(), 4 + 1 + 4 + 8 * MAX_ONE_TO_MANY_TARGETS);
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert_eq!(dec.next_response().unwrap(), Some(Response::Distances(ds)));

        // ...while one more distance is refused by the encoder itself.
        let ds = vec![42u64; MAX_ONE_TO_MANY_TARGETS + 1];
        let mut buf = Vec::new();
        let err = write_distances(&mut buf, &ds).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn metrics_and_update_responses_round_trip_through_frame_decoder() {
        // A pipelined response stream — an update report (every field
        // populated) followed by a Metrics document — through the
        // incremental decoder at every split offset, mirroring the request
        // split-matrix test above.
        let updated = Response::Updated(UpdateOutcome {
            strategy_tag: 3,
            applied: 1000,
            rejected: 2,
            micros: 65_536,
            epoch: u64::MAX,
        });
        let metrics = Response::Metrics(
            "# TYPE hc2l_latency_count gauge\nhc2l_latency_count{op=\"distance\",cache=\"hit\"} 998\n"
                .into(),
        );
        let mut buf = Vec::new();
        write_response(&mut buf, &updated).unwrap();
        write_response(&mut buf, &metrics).unwrap();
        for split in 0..=buf.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in [&buf[..split], &buf[split..]] {
                dec.feed(chunk);
                while let Some(resp) = dec.next_response().unwrap() {
                    got.push(resp);
                }
            }
            assert_eq!(
                got,
                vec![updated.clone(), metrics.clone()],
                "split at {split}"
            );
            assert!(dec.is_idle());
        }
        // The Metrics *request* is a bare opcode frame; a trailing byte is
        // malformed on both decoders.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[op::METRICS, 0]).unwrap();
        assert!(read_request(&mut buf.as_slice()).is_err());
        assert!(incremental_requests(&buf).is_err());
    }

    #[test]
    fn retired_opcode_3_fails_typed_on_both_decoders() {
        // Opcode 3 once carried a counters frame; it is reserved now and
        // reads as an unknown opcode, request and response side alike.
        for payload in [&[3u8][..], &[3u8, 0, 0, 0, 0][..]] {
            let mut buf = Vec::new();
            write_frame(&mut buf, payload).unwrap();
            for err in [
                read_request(&mut buf.as_slice()).unwrap_err(),
                incremental_requests(&buf).unwrap_err(),
            ] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(
                    err.to_string().contains("unknown request opcode 3"),
                    "{err}"
                );
            }
            let mut dec = FrameDecoder::new();
            dec.feed(&buf);
            for err in [
                read_response(&mut buf.as_slice()).unwrap_err(),
                dec.next_response().unwrap_err(),
            ] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(
                    err.to_string().contains("unknown response opcode 3"),
                    "{err}"
                );
            }
        }
    }
}
