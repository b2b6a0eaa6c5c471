//! The wire codec allocates nothing per frame on the request path.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! that run in parallel in this binary cannot add to each other's counts.
//! Each case warms up once (the target `Vec` and the decoder's buffer
//! reach their steady capacity), then encodes or decodes again and counts.
//! The blocking readers have no buffer to warm: they read from a byte
//! slice and are counted on their first frame.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hc2l_serve::protocol::{
    read_request, read_response, write_distances, write_request, write_response, FrameDecoder,
    Request, Response,
};

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting on the calling thread.
struct CountingAlloc;

fn count() {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter bump neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `alloc` obligations pass through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `alloc_zeroed` obligations pass through to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's `realloc` obligations pass through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller's `dealloc` obligations pass through to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of the second `encode` into a `Vec` that the first call
/// (the warm-up) left with spare capacity.
fn encode_allocations(encode: impl Fn(&mut Vec<u8>)) -> u64 {
    let mut out = Vec::with_capacity(4096);
    encode(&mut out);
    out.clear();
    let n = allocations_in(|| encode(&mut out));
    assert!(!out.is_empty(), "the encoder wrote nothing");
    n
}

/// A 64-entry one-to-many answer row.
fn row() -> Vec<u64> {
    (0..64).map(|i| i * 1_000 + 7).collect()
}

#[test]
fn encoding_a_distance_request_allocates_nothing() {
    let req = Request::Distance(3, 999_999);
    assert_eq!(
        encode_allocations(|out| write_request(out, &req).unwrap()),
        0
    );
}

#[test]
fn encoding_a_distance_response_allocates_nothing() {
    let resp = Response::Distance(42_424_242);
    assert_eq!(
        encode_allocations(|out| write_response(out, &resp).unwrap()),
        0
    );
}

#[test]
fn encoding_a_64_entry_distance_row_allocates_nothing() {
    let ds = row();
    assert_eq!(
        encode_allocations(|out| write_distances(out, &ds).unwrap()),
        0
    );
}

/// Allocations of decoding the frame in `bytes` a second time through one
/// decoder (the first pass is the warm-up that sizes its buffer), plus
/// what the second pass decoded.
fn decode_allocations<T>(
    bytes: &[u8],
    next: impl Fn(&mut FrameDecoder) -> Option<T>,
) -> (u64, Option<T>) {
    let mut dec = FrameDecoder::new();
    dec.feed(bytes);
    assert!(next(&mut dec).is_some(), "warm-up frame did not decode");
    let mut got = None;
    let n = allocations_in(|| {
        dec.feed(bytes);
        got = next(&mut dec);
    });
    assert!(dec.is_idle());
    (n, got)
}

#[test]
fn decoding_a_distance_request_allocates_nothing() {
    let req = Request::Distance(3, 999_999);
    let mut bytes = Vec::new();
    write_request(&mut bytes, &req).unwrap();
    let (n, got) = decode_allocations(&bytes, |d| d.next_request().unwrap());
    assert_eq!(got, Some(req));
    assert_eq!(n, 0);
}

#[test]
fn decoding_a_distance_response_allocates_nothing() {
    let resp = Response::Distance(42_424_242);
    let mut bytes = Vec::new();
    write_response(&mut bytes, &resp).unwrap();
    let (n, got) = decode_allocations(&bytes, |d| d.next_response().unwrap());
    assert_eq!(got, Some(resp));
    assert_eq!(n, 0);
}

#[test]
fn decoding_a_64_entry_distance_row_allocates_only_its_answer() {
    // The owned `Response::Distances` holds its row in a `Vec`: that one
    // allocation is the answer itself. The frame's payload is read in
    // place, so nothing else may allocate.
    let ds = row();
    let mut bytes = Vec::new();
    write_distances(&mut bytes, &ds).unwrap();
    let (n, got) = decode_allocations(&bytes, |d| d.next_response().unwrap());
    assert_eq!(got, Some(Response::Distances(ds)));
    assert_eq!(n, 1);
}

#[test]
fn blocking_read_of_a_distance_request_allocates_nothing() {
    let req = Request::Distance(3, 999_999);
    let mut bytes = Vec::new();
    write_request(&mut bytes, &req).unwrap();
    let mut reader = bytes.as_slice();
    let mut got = None;
    let n = allocations_in(|| got = read_request(&mut reader).unwrap());
    assert_eq!(got, Some(req));
    assert!(reader.is_empty(), "the frame was not read whole");
    assert_eq!(n, 0);
}

#[test]
fn blocking_read_of_a_distance_response_allocates_nothing() {
    let resp = Response::Distance(42_424_242);
    let mut bytes = Vec::new();
    write_response(&mut bytes, &resp).unwrap();
    let mut reader = bytes.as_slice();
    let mut got = None;
    let n = allocations_in(|| got = read_response(&mut reader).unwrap());
    assert_eq!(got, Some(resp));
    assert!(reader.is_empty(), "the frame was not read whole");
    assert_eq!(n, 0);
}
