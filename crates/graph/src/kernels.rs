//! Vectorised min-plus query kernels with one-time runtime dispatch.
//!
//! Every labelling backend's hot path is one of three reductions over the
//! frozen label arenas ([`crate::flat_labels`]):
//!
//! * [`min_plus_scan`] — `min_i (a[i] + b[i])` over two parallel distance
//!   arrays (HC2L's level scan),
//! * [`min_plus_merge`] — `min { da[i] + db[j] : ha[i] == hb[j] }` over two
//!   hub lists sorted strictly ascending (HL's merge-join),
//! * [`min_plus_gather`] — `min_p (ds[pos[p]] + dt[pos[p]])` over an index
//!   list (H2H's bag scan).
//!
//! The scan and the gather come in two implementations — portable scalar
//! (the branch-free code LLVM auto-vectorises at the baseline target) and
//! AVX2 (x86-64) — behind a process-wide [`KernelKind`] selected **once**,
//! by `is_x86_feature_detected!("avx2")` at first use; every other host
//! (aarch64 included) runs the scalar code. The
//! environment variable `HC2L_KERNEL=scalar|avx2` overrides detection
//! (unavailable requests fall back with a warning), and [`force_kernel`]
//! switches at runtime for tests and benchmarks. Every kernel returns
//! **bit-identical** results on every backend, so switching kernels — even
//! concurrently — can never change an answer, only its speed.
//!
//! # The merge is scalar only
//!
//! [`min_plus_merge`] runs one branch-free scalar loop on every kernel. A
//! blocked 8x8 AVX2 merge-join (and a NEON 4x4 analogue) and per-16-entry
//! suffix cut bounds used to sit on top of it; on city road networks with
//! travel-time weights (200k uniform pairs, 2-vCPU x86-64 guest, median of
//! 12 alternating rounds, ns per HL query) both lost to the plain loop:
//!
//! | HL query path | 48×48 | 128×128 | 256×256 |
//! |---|---|---|---|
//! | bounds + AVX2 merge | 245.0 | 518.6 | 1130.9 |
//! | bounds + scalar merge | 217.3 | 489.2 | 1213.2 |
//! | AVX2 merge | 199.6 | 455.9 | 1079.0 |
//! | scalar merge | 170.4 | 401.0 | 988.2 |
//!
//! PHL's own merge-join (`hc2l-phl`) dropped the same bounds: without them
//! it ran at parity or faster at 48×48 and 128×128.
//!
//! # Overflow discipline
//!
//! Stored distances obey the workspace invariant `d <= INFINITY ==
//! u64::MAX / 4`, so the plain lane adds inside the kernels cannot wrap
//! (`2 * INFINITY < 2^63`); this is also what makes the *signed* 64-bit
//! SIMD compares valid on values that are logically unsigned.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::types::{Distance, Vertex, INFINITY};

/// Chunk width of the branch-free scalar min-reductions. Eight 64-bit lanes
/// span two AVX2 registers; the accumulators live
/// in registers across the whole scan.
pub const MIN_PLUS_LANES: usize = 8;

/// Which vectorised implementation the query kernels run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KernelKind {
    /// Portable branch-free scalar code (every host).
    Scalar = 1,
    /// 256-bit AVX2 lanes (x86-64 with AVX2).
    Avx2 = 2,
}

impl KernelKind {
    /// Stable lower-case name (`scalar`/`avx2`) — the value accepted
    /// by the `HC2L_KERNEL` override and reported in bench and metrics output.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
        }
    }

    /// Parses a kernel name as accepted by `HC2L_KERNEL` (case-insensitive).
    pub fn from_name(name: &str) -> Option<KernelKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelKind::Scalar),
            "avx2" => Some(KernelKind::Avx2),
            _ => None,
        }
    }

    /// Whether this kernel can run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            KernelKind::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelKind::Avx2 => false,
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The selected kernel, `0` = not yet initialised. Relaxed ordering is
/// enough: all kernels produce bit-identical results, so a racing reader
/// seeing a stale value only runs a different-speed, equally-correct path.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The kernel the dispatched entry points currently run. Initialises the
/// selection on first call: `HC2L_KERNEL` override if set and available,
/// otherwise the best kernel the host supports.
#[inline]
pub fn active_kernel() -> KernelKind {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => init_kernel(),
        1 => KernelKind::Scalar,
        _ => KernelKind::Avx2,
    }
}

/// The best kernel the host supports, ignoring any override.
pub fn detect_kernel() -> KernelKind {
    if KernelKind::Avx2.is_available() {
        KernelKind::Avx2
    } else {
        KernelKind::Scalar
    }
}

/// Every kernel the host can run (always contains [`KernelKind::Scalar`]).
pub fn available_kernels() -> Vec<KernelKind> {
    [KernelKind::Scalar, KernelKind::Avx2]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

/// Forces the dispatched kernels onto `kind` for the rest of the process
/// (or until the next call), falling back to detection when `kind` is not
/// available on this host. Returns the kernel actually installed.
///
/// Safe to call at any time, even while other threads are querying: every
/// kernel returns bit-identical results, so the switch is observable only
/// as a speed change. Intended for tests, benchmarks and the per-kernel
/// exactness sweeps.
pub fn force_kernel(kind: KernelKind) -> KernelKind {
    let effective = if kind.is_available() {
        kind
    } else {
        detect_kernel()
    };
    ACTIVE.store(effective as u8, Ordering::Relaxed);
    effective
}

#[cold]
fn init_kernel() -> KernelKind {
    let requested = std::env::var("HC2L_KERNEL").ok().and_then(|raw| {
        let parsed = KernelKind::from_name(&raw);
        if parsed.is_none() && !raw.trim().is_empty() {
            eprintln!("warning: HC2L_KERNEL={raw:?} is not one of scalar|avx2; auto-detecting");
        }
        parsed
    });
    let kind = match requested {
        Some(k) if k.is_available() => k,
        Some(k) => {
            let fallback = detect_kernel();
            eprintln!(
                "warning: HC2L_KERNEL={} is not available on this host; using {fallback}",
                k.name()
            );
            fallback
        }
        None => detect_kernel(),
    };
    ACTIVE.store(kind as u8, Ordering::Relaxed);
    kind
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

/// Branch-free `min_i (a[i] + b[i])` over the common prefix of two distance
/// slices (runs the [`active_kernel`]).
///
/// Both inputs must only contain values `<= INFINITY` (the workspace-wide
/// invariant for stored distances), so the lane adds cannot overflow.
///
/// Scans shorter than `SCAN_SIMD_MIN` (64) take the scalar path *inline*
/// without consulting the dispatcher at all: HC2L's per-level cut labels
/// are typically a few dozen entries, and at that size the kernel-select
/// atomic load plus an outlined SIMD call costs more than the scan itself.
#[inline]
pub fn min_plus_scan(a: &[Distance], b: &[Distance]) -> Distance {
    if a.len().min(b.len()) < SCAN_SIMD_MIN {
        return scalar::min_plus_scan(a, b);
    }
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` is only ever installed after `is_available()`
        // confirmed the host supports it.
        KernelKind::Avx2 => unsafe { avx2::min_plus_scan(a, b) },
        _ => scalar::min_plus_scan(a, b),
    }
}

/// Branch-free merge-join `min { da[i] + db[j] : ha[i] == hb[j] }` over two
/// hub lists sorted **strictly** ascending: both cursors step past the
/// smaller hub (both on a match), and a match's sum is folded in through a
/// select rather than a branch. Scalar on every kernel (see the module docs
/// for why).
#[inline]
pub fn min_plus_merge(ha: &[Vertex], da: &[Distance], hb: &[Vertex], db: &[Distance]) -> Distance {
    debug_assert_eq!(ha.len(), da.len());
    debug_assert_eq!(hb.len(), db.len());
    let mut best = INFINITY;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ha.len() && j < hb.len() {
        let (x, y) = (ha[i], hb[j]);
        let d = da[i] + db[j];
        let cand = if x == y { d } else { INFINITY };
        best = best.min(cand);
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
    best.min(INFINITY)
}

/// Branch-free gather reduction `min_p (ds[pos[p]] + dt[pos[p]])` — H2H's
/// bag scan (runs the [`active_kernel`]).
///
/// Positions are expected to be in range for both rows (the load-time
/// validators enforce this for well-formed files); an out-of-range position
/// takes the scalar path and panics on the bounds check there, exactly as
/// the pre-SIMD code did — the vector gather is only entered once every
/// index is proven in range.
#[inline]
pub fn min_plus_gather(pos: &[u32], ds: &[Distance], dt: &[Distance]) -> Distance {
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 if pos.len() >= GATHER_SIMD_MIN => {
            // The gather instruction has no bounds checks and takes *signed*
            // 32-bit indices, so prove every position in range (and below
            // 2^31) first; a branchless max-reduce vectorises well.
            let limit = ds.len().min(dt.len()).min(1usize << 31) as u32;
            let max = pos.iter().fold(0u32, |m, &p| m.max(p));
            if (max as usize) < limit as usize {
                // SAFETY: AVX2 availability as in `min_plus_scan`; every
                // index was just proven in range for both rows.
                unsafe { avx2::min_plus_gather(pos, ds, dt) }
            } else {
                scalar::min_plus_gather(pos, ds, dt)
            }
        }
        _ => scalar::min_plus_gather(pos, ds, dt),
    }
}

/// Position count below which the dispatched [`min_plus_gather`] stays on
/// the scalar loop even under the AVX2 kernel: `VPGATHERQQ` is a
/// high-latency instruction, and on short bags (the common H2H case — bag
/// sizes track the treewidth) the bounds prepass plus gather latency loses
/// to the scalar load/add/cmov loop by ~20% measured (`benches/kernels.rs`);
/// past this length the two are at parity or better.
const GATHER_SIMD_MIN: usize = 64;

/// Common-prefix length below which [`min_plus_scan`] stays on the inline
/// scalar path without even loading the kernel selector. Sized so the short scans that dominate
/// HC2L's query mix (cut labels of a few dozen entries — see
/// `QueryStats::hubs_scanned`) pay zero dispatch overhead, while long
/// scans still reach the SIMD kernels.
const SCAN_SIMD_MIN: usize = 64;

// ---------------------------------------------------------------------------
// Scalar kernels (portable fallback — the pre-SIMD branch-free code)
// ---------------------------------------------------------------------------

pub(crate) mod scalar {
    use super::{Distance, INFINITY, MIN_PLUS_LANES};

    /// Chunked branch-free scan; LLVM auto-vectorises the lane loop at the
    /// baseline target width.
    #[inline]
    pub fn min_plus_scan(a: &[Distance], b: &[Distance]) -> Distance {
        let len = a.len().min(b.len());
        let (a, b) = (&a[..len], &b[..len]);
        let mut lanes = [INFINITY; MIN_PLUS_LANES];
        let mut ca = a.chunks_exact(MIN_PLUS_LANES);
        let mut cb = b.chunks_exact(MIN_PLUS_LANES);
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            for l in 0..MIN_PLUS_LANES {
                lanes[l] = lanes[l].min(xa[l] + xb[l]);
            }
        }
        let mut best = INFINITY;
        for &lane in &lanes {
            best = best.min(lane);
        }
        for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
            best = best.min(x + y);
        }
        best.min(INFINITY)
    }

    /// Branch-free gather reduction (bounds-checked indexing: an
    /// out-of-range position panics here, never reads out of bounds).
    #[inline]
    pub fn min_plus_gather(pos: &[u32], ds: &[Distance], dt: &[Distance]) -> Distance {
        let mut best = INFINITY;
        for &p in pos {
            let p = p as usize;
            best = best.min(ds[p] + dt[p]);
        }
        best.min(INFINITY)
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86-64)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Distance, INFINITY};
    use std::arch::x86_64::*;

    /// Unaligned 4-lane load at `s[i..i + 4]`.
    ///
    /// # Safety
    /// Requires `i + 4 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn loadu(s: &[u64], i: usize) -> __m256i {
        // SAFETY: the caller guarantees `i + 4 <= s.len()`, so the 32-byte
        // read stays inside the slice; the unaligned load form has no
        // alignment requirement.
        unsafe { _mm256_loadu_si256(s.as_ptr().add(i) as *const __m256i) }
    }

    /// Lane-wise unsigned 64-bit minimum. Valid with the *signed* compare
    /// because every operand stays below `2^63` (sums of two distances are
    /// at most `2 * INFINITY`). Safe: registers only (`target_feature` on a
    /// safe fn makes calls from non-AVX2 contexts unsafe, which the
    /// dispatchers already are).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn min_u64x4(x: __m256i, y: __m256i) -> __m256i {
        let x_gt_y = _mm256_cmpgt_epi64(x, y);
        _mm256_blendv_epi8(x, y, x_gt_y)
    }

    /// Horizontal minimum of the 4 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hmin_u64x4(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is exactly 32 bytes of writable memory; the
        // unaligned store form has no alignment requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v) };
        lanes.iter().copied().fold(u64::MAX, u64::min)
    }

    /// AVX2 scan: two 4-lane accumulators (8 entries per iteration),
    /// scalar tail.
    ///
    /// # Safety
    /// Requires AVX2 (callers dispatch on `is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn min_plus_scan(a: &[Distance], b: &[Distance]) -> Distance {
        let len = a.len().min(b.len());
        let mut best = INFINITY;
        let mut i = 0usize;
        if len >= 8 {
            let inf = _mm256_set1_epi64x(INFINITY as i64);
            let mut acc0 = inf;
            let mut acc1 = inf;
            while i + 8 <= len {
                // SAFETY: `i + 8 <= len <= a.len(), b.len()`, so all four
                // 4-lane loads are in bounds.
                let (s0, s1) = unsafe {
                    (
                        _mm256_add_epi64(loadu(a, i), loadu(b, i)),
                        _mm256_add_epi64(loadu(a, i + 4), loadu(b, i + 4)),
                    )
                };
                acc0 = min_u64x4(acc0, s0);
                acc1 = min_u64x4(acc1, s1);
                i += 8;
            }
            best = hmin_u64x4(min_u64x4(acc0, acc1));
        }
        while i < len {
            best = best.min(a[i] + b[i]);
            i += 1;
        }
        best.min(INFINITY)
    }

    /// AVX2 gather reduction: 8 positions per iteration through two
    /// independent hardware-gather chains (the gather instruction is
    /// high-latency, so a single accumulator chain serialises on it),
    /// scalar tail.
    ///
    /// # Safety
    /// Requires AVX2, and **every** `pos[p]` must be in range for both
    /// `ds` and `dt` and below `2^31` (the dispatcher proves this before
    /// calling): the gather instruction performs no bounds checks.
    #[target_feature(enable = "avx2")]
    pub unsafe fn min_plus_gather(pos: &[u32], ds: &[Distance], dt: &[Distance]) -> Distance {
        let len = pos.len();
        let mut best = INFINITY;
        let mut i = 0usize;
        if len >= 4 {
            let mut acc0 = _mm256_set1_epi64x(INFINITY as i64);
            let mut acc1 = acc0;
            while i + 8 <= len {
                // SAFETY: `i + 8 <= len` keeps both index loads inside
                // `pos`; every gathered lane is in bounds for `ds` and `dt`
                // by this fn's contract (the dispatcher validated all
                // positions before calling).
                let (sum0, sum1) = unsafe {
                    let idx0 = _mm_loadu_si128(pos.as_ptr().add(i) as *const __m128i);
                    let idx1 = _mm_loadu_si128(pos.as_ptr().add(i + 4) as *const __m128i);
                    let s0 = _mm256_i32gather_epi64::<8>(ds.as_ptr() as *const i64, idx0);
                    let t0 = _mm256_i32gather_epi64::<8>(dt.as_ptr() as *const i64, idx0);
                    let s1 = _mm256_i32gather_epi64::<8>(ds.as_ptr() as *const i64, idx1);
                    let t1 = _mm256_i32gather_epi64::<8>(dt.as_ptr() as *const i64, idx1);
                    (_mm256_add_epi64(s0, t0), _mm256_add_epi64(s1, t1))
                };
                acc0 = min_u64x4(acc0, sum0);
                acc1 = min_u64x4(acc1, sum1);
                i += 8;
            }
            if i + 4 <= len {
                // SAFETY: as above, with one 4-lane index load at `i`.
                let sum = unsafe {
                    let idx = _mm_loadu_si128(pos.as_ptr().add(i) as *const __m128i);
                    let vs = _mm256_i32gather_epi64::<8>(ds.as_ptr() as *const i64, idx);
                    let vt = _mm256_i32gather_epi64::<8>(dt.as_ptr() as *const i64, idx);
                    _mm256_add_epi64(vs, vt)
                };
                acc0 = min_u64x4(acc0, sum);
                i += 4;
            }
            best = hmin_u64x4(min_u64x4(acc0, acc1));
        }
        while i < len {
            let p = pos[i] as usize;
            best = best.min(ds[p] + dt[p]);
            i += 1;
        }
        best.min(INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded xorshift generator for the property tests.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    fn restore_kernel() {
        force_kernel(detect_kernel());
    }

    /// Random distance array mixing small values and INFINITY.
    fn random_dists(rng: &mut Rng, len: usize) -> Vec<Distance> {
        (0..len)
            .map(|_| {
                if rng.next().is_multiple_of(5) {
                    INFINITY
                } else {
                    rng.next() % 10_000
                }
            })
            .collect()
    }

    /// Strictly increasing hub list with parallel random distances.
    fn random_label(rng: &mut Rng, len: usize) -> (Vec<Vertex>, Vec<Distance>) {
        let mut hub = 0u32;
        let mut hubs = Vec::with_capacity(len);
        for _ in 0..len {
            hub += 1 + (rng.next() % 4) as u32;
            hubs.push(hub);
        }
        let dists = random_dists(rng, len);
        (hubs, dists)
    }

    fn naive_scan(a: &[Distance], b: &[Distance]) -> Distance {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| x + y)
            .fold(INFINITY, Distance::min)
    }

    fn naive_merge(ha: &[Vertex], da: &[Distance], hb: &[Vertex], db: &[Distance]) -> Distance {
        let mut best = INFINITY;
        for (i, &h) in ha.iter().enumerate() {
            if let Some(j) = hb.iter().position(|&g| g == h) {
                best = best.min(da[i] + db[j]);
            }
        }
        best
    }

    #[test]
    fn kernel_kind_round_trips_names() {
        for k in [KernelKind::Scalar, KernelKind::Avx2] {
            assert_eq!(KernelKind::from_name(k.name()), Some(k));
        }
        assert_eq!(KernelKind::from_name(" AVX2 "), Some(KernelKind::Avx2));
        assert_eq!(KernelKind::from_name("sse9"), None);
    }

    #[test]
    fn available_kernels_always_include_scalar_and_the_detected_kind() {
        let avail = available_kernels();
        assert!(avail.contains(&KernelKind::Scalar));
        assert!(avail.contains(&detect_kernel()));
        // Forcing an unavailable kernel falls back to detection.
        if !KernelKind::Avx2.is_available() {
            assert_eq!(force_kernel(KernelKind::Avx2), detect_kernel());
        }
        assert_eq!(force_kernel(KernelKind::Scalar), KernelKind::Scalar);
        restore_kernel();
    }

    #[test]
    fn all_kernels_agree_on_scan_bitwise() {
        let mut rng = Rng(0xD1CE);
        for len_a in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 31, 64, 127] {
            for delta in [0usize, 1, 5] {
                let a = random_dists(&mut rng, len_a);
                let b = random_dists(&mut rng, len_a + delta);
                let expected = {
                    let n = a.len().min(b.len());
                    naive_scan(&a[..n], &b[..n])
                };
                for k in available_kernels() {
                    assert_eq!(force_kernel(k), k);
                    assert_eq!(min_plus_scan(&a, &b), expected, "kernel {k} len {len_a}");
                }
            }
        }
        restore_kernel();
    }

    #[test]
    fn scalar_merge_matches_naive_merge() {
        let mut rng = Rng(0xBEEF);
        for len_a in [0usize, 1, 3, 7, 8, 9, 16, 33, 70, 150] {
            for len_b in [0usize, 1, 4, 8, 15, 41, 64, 97] {
                let (ha, da) = random_label(&mut rng, len_a);
                let (hb, db) = random_label(&mut rng, len_b);
                assert_eq!(
                    min_plus_merge(&ha, &da, &hb, &db),
                    naive_merge(&ha, &da, &hb, &db),
                    "lens {len_a}/{len_b}"
                );
            }
        }
        for len in [1usize, 8, 17, 64, 130] {
            // Dense overlap: identical hub lists.
            let (ha, da) = random_label(&mut rng, len);
            let db = random_dists(&mut rng, len);
            assert_eq!(
                min_plus_merge(&ha, &da, &ha, &db),
                naive_merge(&ha, &da, &ha, &db)
            );
            // Disjoint hub sets (odd vs even ids): no common hub.
            let odd: Vec<Vertex> = ha.iter().map(|&h| 2 * h + 1).collect();
            let even: Vec<Vertex> = ha.iter().map(|&h| 2 * h).collect();
            assert_eq!(min_plus_merge(&odd, &da, &even, &db), INFINITY);
            // All-INFINITY columns: INFINITY + INFINITY must not leak out.
            let inf = vec![INFINITY; len];
            assert_eq!(min_plus_merge(&ha, &inf, &ha, &inf), INFINITY);
            assert_eq!(
                min_plus_merge(&ha, &inf, &ha, &db),
                naive_merge(&ha, &inf, &ha, &db)
            );
        }
    }

    #[test]
    fn all_kernels_agree_on_merge_bitwise() {
        // The merge has no per-kernel code: forcing any kernel (what
        // `HC2L_KERNEL` does at start-up) must leave every answer unchanged.
        let mut rng = Rng(0xC0FFEE);
        let cases: Vec<_> = [(0usize, 5usize), (9, 0), (16, 16), (33, 70), (150, 97)]
            .into_iter()
            .map(|(len_a, len_b)| {
                let (ha, da) = random_label(&mut rng, len_a);
                let (hb, db) = random_label(&mut rng, len_b);
                let expected = naive_merge(&ha, &da, &hb, &db);
                (ha, da, hb, db, expected)
            })
            .collect();
        for k in available_kernels() {
            assert_eq!(force_kernel(k), k);
            for (ha, da, hb, db, expected) in &cases {
                assert_eq!(
                    min_plus_merge(ha, da, hb, db),
                    *expected,
                    "kernel {k} lens {}/{}",
                    ha.len(),
                    hb.len()
                );
            }
        }
        restore_kernel();
    }

    #[test]
    fn all_kernels_agree_on_gather_bitwise() {
        let mut rng = Rng(0xA11CE);
        // Bags both below and above `GATHER_SIMD_MIN`, so the dispatched
        // call exercises the scalar short-bag path *and* the hardware
        // gather (64, 67, 131).
        for rows in [1usize, 9, 40] {
            let ds = random_dists(&mut rng, rows);
            let dt = random_dists(&mut rng, rows);
            for bag in [0usize, 1, 3, 4, 5, 11, 39, 64, 67, 131] {
                let pos: Vec<u32> = (0..bag)
                    .map(|_| (rng.next() % rows as u64) as u32)
                    .collect();
                let expected = pos
                    .iter()
                    .map(|&p| ds[p as usize] + dt[p as usize])
                    .fold(INFINITY, Distance::min);
                for k in available_kernels() {
                    force_kernel(k);
                    assert_eq!(min_plus_gather(&pos, &ds, &dt), expected, "kernel {k}");
                }
            }
        }
        restore_kernel();
    }
}
