//! Seeded structure-aware mutation fuzzing of every untrusted-input
//! decoder: the container file format (`Container::from_bytes` /
//! `Container::open`) and the wire protocol (`read_request`,
//! `read_response`, and the incremental `FrameDecoder`).
//!
//! The contract under test is total: for ANY byte string — valid, truncated,
//! bit-flipped, spliced, or extended — a decoder returns `Ok` or a typed
//! error. It never panics, never aborts, and never fails to make progress
//! (the drain loops are iteration-capped, so a livelock fails the test
//! instead of hanging CI).
//!
//! Mutations are structure-aware, not blind: headers, length prefixes, and
//! TOC windows are mutated preferentially, since that is where decoders
//! branch. The PRNG is a fixed-seed xorshift, so every CI run explores the
//! same ≥10k-mutation corpus per decoder and a failure reproduces from the
//! iteration number alone.

use std::path::PathBuf;

use hc2l_graph::container::{Container, ContainerWriter};
use hc2l_oracle::WeightUpdate;
use hc2l_serve::protocol::{
    read_request, read_response, write_request, write_response, FrameDecoder, Request, Response,
    UpdateOutcome,
};

/// Mutations per decoder; the acceptance floor is 10k.
const MUTATIONS_PER_DECODER: usize = 10_000;

/// Fixed seed: the corpus is identical on every run.
const SEED: u64 = 0x5EED_D0C0_DE15_F00D;

/// Iteration cap for drain loops — generous multiple of the largest
/// possible frame count in a mutant; exceeding it means the decoder
/// stopped making progress.
const PROGRESS_CAP: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Deterministic PRNG (xorshift64*) — no external deps.
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// The mutator.
// ---------------------------------------------------------------------------

/// One structure-aware mutation of `base`. `hot` is the byte range where
/// the format keeps its header/TOC/length machinery; half of all point
/// mutations land there.
fn mutate(rng: &mut Rng, base: &[u8], hot: usize) -> Vec<u8> {
    let mut m = base.to_vec();
    if m.is_empty() {
        return vec![rng.next() as u8];
    }
    let hot = hot.clamp(1, m.len());
    let pick = |rng: &mut Rng, len: usize| -> usize {
        if rng.below(2) == 0 {
            rng.below(hot.min(len))
        } else {
            rng.below(len)
        }
    };
    match rng.below(8) {
        // Truncate: decoders must treat every prefix as incomplete or bad.
        0 => {
            let at = rng.below(m.len());
            m.truncate(at);
        }
        // Single byte overwrite.
        1 => {
            let i = pick(rng, m.len());
            m[i] = rng.next() as u8;
        }
        // A burst of 2..=8 byte overwrites.
        2 => {
            for _ in 0..(2 + rng.below(7)) {
                let i = pick(rng, m.len());
                m[i] = rng.next() as u8;
            }
        }
        // Clobber an aligned-ish 4-byte window: counts, tags, u32 lengths.
        3 => {
            let i = pick(rng, m.len().saturating_sub(3).max(1));
            let w = (rng.next() as u32).to_le_bytes();
            for (j, b) in w.iter().enumerate() {
                if i + j < m.len() {
                    m[i + j] = *b;
                }
            }
        }
        // Clobber an 8-byte window: checksums, offsets, u64 sizes.
        4 => {
            let i = pick(rng, m.len().saturating_sub(7).max(1));
            let w = rng.next().to_le_bytes();
            for (j, b) in w.iter().enumerate() {
                if i + j < m.len() {
                    m[i + j] = *b;
                }
            }
        }
        // Single bit flip (header-biased via `pick`).
        5 => {
            let i = pick(rng, m.len());
            m[i] ^= 1 << rng.below(8);
        }
        // Append garbage: trailing bytes must be rejected or ignored
        // deliberately, never walked off the end.
        6 => {
            for _ in 0..(1 + rng.below(64)) {
                m.push(rng.next() as u8);
            }
        }
        // Splice: duplicate a random chunk over another position, shifting
        // section payloads relative to the TOC that describes them.
        _ => {
            let len = 1 + rng.below(16.min(m.len()));
            let src = rng.below(m.len() - len + 1);
            let chunk: Vec<u8> = m[src..src + len].to_vec();
            let dst = rng.below(m.len());
            m.splice(dst..dst, chunk);
        }
    }
    m
}

// ---------------------------------------------------------------------------
// Container corpus.
// ---------------------------------------------------------------------------

/// A few valid container files of different shapes; every mutant derives
/// from one of these, so mutations perturb real structure instead of
/// feeding the decoder pure noise it rejects at byte 0.
fn container_corpus() -> Vec<Vec<u8>> {
    let mut small = ContainerWriter::new(7);
    small.push_section(1, vec![0xAB; 16]);

    let mut medium = ContainerWriter::new(3);
    medium.push_pods::<u64>(1, &[1, 2, 3, u64::MAX]);
    medium.push_pods::<u32>(2, &(0u32..64).collect::<Vec<_>>());
    medium.push_section(9, b"metadata-ish".to_vec());

    let mut large = ContainerWriter::new(1);
    large.push_pods::<u64>(4, &(0u64..512).map(|i| i * 3).collect::<Vec<_>>());
    large.push_section(5, vec![0u8; 1024]);
    large.push_pods::<u32>(6, &[u32::MAX; 33]);

    vec![small.finish(), medium.finish(), large.finish()]
}

/// Header + TOC span of a container: 40-byte header plus 24 bytes per
/// entry, with some payload spillover.
const CONTAINER_HOT: usize = 40 + 3 * 24 + 16;

/// `Container::from_bytes` over ≥10k mutants: typed errors only, and a
/// mutant that still validates must also survive section access.
#[test]
fn container_from_bytes_never_panics() {
    let corpus = container_corpus();
    let mut rng = Rng::new(SEED);
    let mut survivors = 0usize;
    for i in 0..MUTATIONS_PER_DECODER {
        let base = &corpus[i % corpus.len()];
        let m = mutate(&mut rng, base, CONTAINER_HOT);
        match Container::from_bytes(&m) {
            Err(_) => {} // typed rejection is the expected outcome
            Ok(c) => {
                survivors += 1;
                // A validated mutant must be fully readable: specs, every
                // section body, and pod views must stay in bounds.
                for spec in c.specs() {
                    let _ = c.section(spec.tag);
                    let _ = c.section_pods::<u64>(spec.tag);
                    let _ = c.read_pod_vec::<u32>(spec.tag);
                }
                let _ = c.method_tag();
                let _ = c.file_len();
            }
        }
    }
    // Point mutations can legitimately survive validation: the checksum
    // covers the header fields, TOC tags/lengths, and section payloads, but
    // not the 64-byte alignment padding between sections — a flipped
    // padding byte is invisible to every reader. The invariant fuzzing
    // establishes is that all survivors were fully readable above; the rate
    // bound only catches the mutator degenerating into a no-op.
    assert!(survivors < MUTATIONS_PER_DECODER / 2, "got {survivors}");
}

/// `Container::open` (the file-backed path) over ≥10k mutants written to
/// disk: typed `PersistError`s only.
#[test]
fn container_open_never_panics() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("decode_fuzz");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("mutant.hc2l");
    let corpus = container_corpus();
    let mut rng = Rng::new(SEED ^ 0xF11E);
    for i in 0..MUTATIONS_PER_DECODER {
        let base = &corpus[i % corpus.len()];
        let m = mutate(&mut rng, base, CONTAINER_HOT);
        std::fs::write(&path, &m).expect("write mutant");
        match Container::open(&path) {
            Err(_) => {}
            Ok(c) => {
                for spec in c.specs() {
                    let _ = c.section(spec.tag);
                }
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Protocol corpus.
// ---------------------------------------------------------------------------

/// Every request variant, encoded; mutants derive from real frames.
fn request_corpus() -> Vec<Vec<u8>> {
    let requests = [
        Request::Distance(3, 9),
        Request::OneToMany {
            source: 1,
            targets: vec![0, 2, 4, 8, 16],
        },
        Request::UpdateWeights(vec![
            WeightUpdate::new(0, 1, 42),
            WeightUpdate::new(5, 6, 7),
        ]),
        Request::Metrics,
        Request::Shutdown,
    ];
    let mut corpus = Vec::new();
    for req in &requests {
        let mut buf = Vec::new();
        write_request(&mut buf, req).expect("encode corpus request");
        corpus.push(buf);
    }
    // A pipelined stream: mutations hit inter-frame boundaries too.
    let mut all = Vec::new();
    for req in &requests {
        write_request(&mut all, req).expect("encode corpus request");
    }
    corpus.push(all);
    corpus
}

/// Every response variant, encoded.
fn response_corpus() -> Vec<Vec<u8>> {
    let responses = [
        Response::Distance(12345),
        Response::Distances(vec![1, u64::MAX, 3]),
        Response::Metrics("# HELP hc2l_up 1\nhc2l_up 1\n".into()),
        Response::Updated(UpdateOutcome::default()),
        Response::ShuttingDown,
        Response::Overloaded("busy".into()),
        Response::Error("no such vertex".into()),
    ];
    let mut corpus = Vec::new();
    for resp in &responses {
        let mut buf = Vec::new();
        write_response(&mut buf, resp).expect("encode corpus response");
        corpus.push(buf);
    }
    let mut all = Vec::new();
    for resp in &responses {
        write_response(&mut all, resp).expect("encode corpus response");
    }
    corpus.push(all);
    corpus
}

/// Length prefix + opcode + first fields are the hot zone of a frame.
const FRAME_HOT: usize = 16;

/// Blocking request reader over ≥10k mutants: drains each mutant stream to
/// clean EOF or a typed error, under a progress cap.
#[test]
fn read_request_never_panics_or_stalls() {
    let corpus = request_corpus();
    let mut rng = Rng::new(SEED ^ 0x51DE);
    for i in 0..MUTATIONS_PER_DECODER {
        let base = &corpus[i % corpus.len()];
        let m = mutate(&mut rng, base, FRAME_HOT);
        let mut r = m.as_slice();
        for step in 0.. {
            assert!(step < PROGRESS_CAP, "read_request stopped making progress");
            match read_request(&mut r) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// Blocking response reader over ≥10k mutants.
#[test]
fn read_response_never_panics_or_stalls() {
    let corpus = response_corpus();
    let mut rng = Rng::new(SEED ^ 0xCAFE);
    for i in 0..MUTATIONS_PER_DECODER {
        let base = &corpus[i % corpus.len()];
        let m = mutate(&mut rng, base, FRAME_HOT);
        let mut r = m.as_slice();
        for step in 0.. {
            assert!(step < PROGRESS_CAP, "read_response stopped making progress");
            match read_response(&mut r) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// The incremental decoder over ≥10k mutants, fed in random-sized chunks
/// exactly as a reactor would off a socket: after every feed the decoder is
/// drained; an error ends the mutant (the reactor drops the connection).
#[test]
fn frame_decoder_never_panics_or_stalls() {
    let req_corpus = request_corpus();
    let resp_corpus = response_corpus();
    let mut rng = Rng::new(SEED ^ 0xDEC0DE);
    for i in 0..MUTATIONS_PER_DECODER {
        let as_requests = i % 2 == 0;
        let corpus = if as_requests {
            &req_corpus
        } else {
            &resp_corpus
        };
        let base = &corpus[(i / 2) % corpus.len()];
        let m = mutate(&mut rng, base, FRAME_HOT);
        let mut dec = FrameDecoder::new();
        let mut fed = 0usize;
        let mut steps = 0usize;
        'mutant: while fed < m.len() {
            let chunk = (1 + rng.below(23)).min(m.len() - fed);
            dec.feed(&m[fed..fed + chunk]);
            fed += chunk;
            loop {
                steps += 1;
                assert!(steps < PROGRESS_CAP, "FrameDecoder stopped making progress");
                let done = if as_requests {
                    matches!(dec.next_request(), Ok(None) | Err(_))
                } else {
                    matches!(dec.next_response(), Ok(None) | Err(_))
                };
                // `has_complete_frame` must agree with the decode calls and
                // never panic on a torn buffer either.
                let _ = dec.has_complete_frame();
                if done {
                    // Distinguish "need more bytes" from "error": both end
                    // the drain; an error ends the whole mutant.
                    break;
                }
            }
            let errored = if as_requests {
                dec.next_request().is_err()
            } else {
                dec.next_response().is_err()
            };
            if errored {
                break 'mutant;
            }
        }
    }
}
