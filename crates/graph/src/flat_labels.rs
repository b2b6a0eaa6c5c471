//! Flat arena storage for distance labels, shared by every labelling backend.
//!
//! The paper's microsecond-scale query times hinge on a label being "a
//! contiguous block scanned once" (Section 4.2). Nested `Vec<Vec<…>>`
//! layouts undercut that: every vertex costs two heap allocations, every
//! query pays a pointer chase per level, and size statistics require a full
//! O(n) walk. This module provides the *frozen* representations the query
//! paths run on instead — single global arenas with CSR offsets:
//!
//! * [`FlatCsr`] — one value arena plus `n + 1` row offsets. Used for the
//!   H2H ancestor-distance and position arrays, the flattened LCA sparse
//!   table, the tree-decomposition bags/children, and PHL's packed
//!   `(path, offset, dist)` label triples.
//! * [`FlatLevelLabels`] — the HC2L layout: one global distance arena, one
//!   global table of per-level sub-offsets, and one per-vertex index into
//!   that table. Hub identities stay *implicit* (position `i` of a level's
//!   array refers to the `i`-th ranked cut vertex of that hierarchy node),
//!   which is why no parallel hub arena is needed and the footprint stays at
//!   8 bytes per entry.
//! * [`FlatEntryLabels`] — the hub/entry layout used by HL (and, since the
//!   persistence refactor, the CH upward graph): a parallel
//!   structure-of-arrays of hub ids and distances with per-vertex CSR
//!   offsets. The merge-join mostly reads the 4-byte hub column, which is
//!   why the column split wins for HL; PHL, which touches every column of
//!   every scanned entry, instead keeps packed triples in a [`FlatCsr`]
//!   (measured ~2x faster there than the column split).
//!
//! # Ownership-generic storage
//!
//! Every arena is generic over a [`Store`] parameter deciding who owns the
//! backing slices: [`Owned`] (the default — plain `Vec`s, what `freeze()`
//! produces after construction) or [`Borrowed`] (`&[T]` views into a loaded
//! index container, see `crate::container`). The accessors and the query
//! kernels are written once against `&[T]` and therefore run unchanged on
//! either instantiation — a serve-only process can answer queries straight
//! out of the loaded file buffer without materialising a single `Vec`.
//!
//! Construction keeps whatever nested scratch it likes; a `freeze()` step
//! converts it into the arena once, computing all size totals at that point
//! so `stats()` calls are O(1) afterwards. The only on-disk form of an arena
//! is its raw arrays, one container section each (see `crate::container`);
//! `parts()` hands them to the writer and `from_parts` reassembles them on
//! load, rejecting malformed input with the typed [`DecodeError`] shared
//! with the container module, never a panic.
//!
//! The query kernels that scan these arenas ([`min_plus_scan`],
//! [`min_plus_merge`] and friends) live in [`crate::kernels`] — re-exported
//! here for compatibility. The scan has scalar, AVX2 and NEON flavours
//! behind a one-time runtime dispatch; the merge-join is one scalar loop.
//! No arena carries derived data such as the reference implementation's
//! `CUT_BOUNDS` suffix minima: HC2L's level scans rarely reach the length
//! where a block skip could pay, and HL's merge ran faster without them at
//! every measured size (see [`crate::kernels`]), so each arena is exactly
//! its label arrays.

use std::marker::PhantomData;
use std::ops::Deref;

use crate::container::DecodeError;
pub use crate::kernels::{min_plus_merge, min_plus_scan, MIN_PLUS_LANES};
use crate::types::{Distance, Vertex};

/// Who owns an arena's backing slices: [`Owned`] `Vec`s (the build path) or
/// [`Borrowed`] views into a loaded container buffer (the zero-copy path).
pub trait Store {
    /// The slice container for element type `T`.
    type Slice<T: Copy + 'static>: Deref<Target = [T]>;
}

/// Owned, `Vec`-backed storage — what `freeze()` and the owned loaders produce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Owned;

impl Store for Owned {
    type Slice<T: Copy + 'static> = Vec<T>;
}

/// Borrowed storage: the arena's slices point into memory owned elsewhere
/// (typically a loaded `crate::container::Container` buffer).
#[derive(Debug, Clone, Copy)]
pub struct Borrowed<'a>(PhantomData<&'a ()>);

impl<'a> Store for Borrowed<'a> {
    type Slice<T: Copy + 'static> = &'a [T];
}

/// A frozen CSR array-of-arrays: one contiguous value arena plus `n + 1`
/// row offsets.
pub struct FlatCsr<T: Copy + 'static, S: Store = Owned> {
    values: S::Slice<T>,
    offsets: S::Slice<u32>,
}

/// A [`FlatCsr`] borrowing its arenas from a loaded container buffer.
pub type FlatCsrRef<'a, T> = FlatCsr<T, Borrowed<'a>>;

impl<T: Copy + 'static, S: Store> FlatCsr<T, S> {
    /// Assembles an arena from its two raw parts, validating the CSR
    /// invariants (offsets start at 0, are non-decreasing, and end at the
    /// value count).
    pub fn from_parts(values: S::Slice<T>, offsets: S::Slice<u32>) -> Result<Self, DecodeError> {
        match offsets.first() {
            None => return Err(DecodeError::Malformed("CSR offset table is empty")),
            Some(&first) if first != 0 => {
                return Err(DecodeError::Malformed("CSR offsets do not start at 0"))
            }
            _ => {}
        }
        if offsets[offsets.len() - 1] as usize != values.len() {
            return Err(DecodeError::Malformed(
                "CSR offsets do not end at the arena length",
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(DecodeError::Malformed("CSR offsets decrease"));
        }
        Ok(FlatCsr { values, offsets })
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Length of row `i`.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Total number of values across all rows (O(1): the arena length).
    #[inline]
    pub fn total_values(&self) -> usize {
        self.values.len()
    }

    /// Memory footprint in bytes (O(1): arena plus offset table).
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<T>() + self.offsets.len() * 4
    }

    /// The raw parts: the value arena and the offset table.
    #[inline]
    pub fn parts(&self) -> (&[T], &[u32]) {
        (&self.values, &self.offsets)
    }
}

impl<T: Copy + 'static> FlatCsr<T, Owned> {
    /// Freezes nested rows into the arena.
    pub fn freeze(rows: &[Vec<T>]) -> Self {
        let total: usize = rows.iter().map(|r| r.len()).sum();
        assert!(total <= u32::MAX as usize, "arena exceeds u32 offsets");
        let mut values = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        for row in rows {
            values.extend_from_slice(row);
            offsets.push(values.len() as u32);
        }
        FlatCsr { values, offsets }
    }
}

impl<T: Copy + 'static + std::fmt::Debug, S: Store> std::fmt::Debug for FlatCsr<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatCsr")
            .field("values", &&self.values[..])
            .field("offsets", &&self.offsets[..])
            .finish()
    }
}

impl<T: Copy + 'static, S: Store> Clone for FlatCsr<T, S>
where
    S::Slice<T>: Clone,
    S::Slice<u32>: Clone,
{
    fn clone(&self) -> Self {
        FlatCsr {
            values: self.values.clone(),
            offsets: self.offsets.clone(),
        }
    }
}

impl<T: Copy + 'static + PartialEq, S: Store, S2: Store> PartialEq<FlatCsr<T, S2>>
    for FlatCsr<T, S>
{
    fn eq(&self, other: &FlatCsr<T, S2>) -> bool {
        self.values[..] == other.values[..] && self.offsets[..] == other.offsets[..]
    }
}

impl<T: Copy + 'static + Eq, S: Store> Eq for FlatCsr<T, S> {}

/// The frozen HC2L label arena: per-vertex, per-level distance arrays with
/// implicit hub identities.
///
/// Layout (all indices `u32`):
///
/// ```text
/// dists:         [  v0 level0 | v0 level1 | … | v1 level0 | …         ]
/// level_offsets: [  o(v0,0) o(v0,1) … o(v0,L0) | o(v1,0) …           ]  absolute into dists
/// level_index:   [  i(v0) i(v1) … i(vn)                               ]  into level_offsets
/// ```
///
/// Vertex `v`'s offset table is `level_offsets[level_index[v] ..
/// level_index[v+1]]`; a vertex with `L` levels owns `L + 1` table entries,
/// so level `k`'s array is the slice between consecutive table entries —
/// one bounds-checked lookup and one contiguous slice per query.
pub struct FlatLevelLabels<S: Store = Owned> {
    dists: S::Slice<Distance>,
    level_offsets: S::Slice<u32>,
    level_index: S::Slice<u32>,
}

/// A [`FlatLevelLabels`] borrowing its arenas from a loaded container.
pub type FlatLevelLabelsRef<'a> = FlatLevelLabels<Borrowed<'a>>;

/// Construction-time scratch for [`FlatLevelLabels`]: nested per-vertex
/// buffers filled level by level, converted once by
/// [`LevelLabelsBuilder::freeze`].
#[derive(Debug, Clone, Default)]
pub struct LevelLabelsBuilder {
    dists: Vec<Vec<Distance>>,
    ends: Vec<Vec<u32>>,
}

impl LevelLabelsBuilder {
    /// Scratch for `n` vertices with no levels yet.
    pub fn new(n: usize) -> Self {
        LevelLabelsBuilder {
            dists: vec![Vec::new(); n],
            ends: vec![Vec::new(); n],
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.dists.len()
    }

    /// Appends the distance array for vertex `v`'s next level.
    pub fn push_level(&mut self, v: Vertex, array: &[Distance]) {
        let d = &mut self.dists[v as usize];
        d.extend_from_slice(array);
        self.ends[v as usize].push(d.len() as u32);
    }

    /// Number of levels pushed for vertex `v` so far.
    pub fn num_levels(&self, v: Vertex) -> usize {
        self.ends[v as usize].len()
    }

    /// The distance array pushed for vertex `v` at `level` (scratch view).
    pub fn level_array(&self, v: Vertex, level: usize) -> &[Distance] {
        let ends = &self.ends[v as usize];
        if level >= ends.len() {
            return &[];
        }
        let start = if level == 0 {
            0
        } else {
            ends[level - 1] as usize
        };
        &self.dists[v as usize][start..ends[level] as usize]
    }

    /// Converts the scratch into the frozen arena.
    pub fn freeze(self) -> FlatLevelLabels {
        let total: usize = self.dists.iter().map(|d| d.len()).sum();
        assert!(
            total <= u32::MAX as usize,
            "label arena exceeds u32 offsets"
        );
        let n = self.dists.len();
        let mut dists = Vec::with_capacity(total);
        let mut level_offsets = Vec::with_capacity(2 * n);
        let mut level_index = Vec::with_capacity(n + 1);
        level_index.push(0);
        for (d, ends) in self.dists.iter().zip(self.ends.iter()) {
            let base = dists.len() as u32;
            level_offsets.push(base);
            level_offsets.extend(ends.iter().map(|&end| base + end));
            dists.extend_from_slice(d);
            level_index.push(level_offsets.len() as u32);
        }
        FlatLevelLabels {
            dists,
            level_offsets,
            level_index,
        }
    }
}

impl FlatLevelLabels<Owned> {
    /// An empty arena over `n` vertices (every vertex has zero levels).
    pub fn empty(n: usize) -> Self {
        LevelLabelsBuilder::new(n).freeze()
    }
}

impl<S: Store> FlatLevelLabels<S> {
    /// Assembles an arena from its three raw parts, validating every
    /// invariant a query relies on so that no slice operation can panic.
    pub fn from_parts(
        dists: S::Slice<Distance>,
        level_offsets: S::Slice<u32>,
        level_index: S::Slice<u32>,
    ) -> Result<Self, DecodeError> {
        match level_index.first() {
            None => return Err(DecodeError::Malformed("level index is empty")),
            Some(&first) if first != 0 => {
                return Err(DecodeError::Malformed("level index does not start at 0"))
            }
            _ => {}
        }
        if level_index[level_index.len() - 1] as usize != level_offsets.len() {
            return Err(DecodeError::Malformed(
                "level index does not end at the offset-table length",
            ));
        }
        if level_index.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DecodeError::Malformed(
                "level index is not strictly increasing",
            ));
        }
        if level_offsets.iter().any(|&o| o as usize > dists.len()) {
            return Err(DecodeError::Malformed(
                "level offset exceeds the distance arena",
            ));
        }
        // A valid freeze produces globally non-decreasing offsets (each
        // vertex's table starts where the previous one ended), which is also
        // what makes every level_array slice well-formed.
        if level_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(DecodeError::Malformed("level offsets decrease"));
        }
        Ok(FlatLevelLabels {
            dists,
            level_offsets,
            level_index,
        })
    }

    /// Number of vertices covered.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.level_index.len() - 1
    }

    /// Number of levels stored for vertex `v`.
    #[inline]
    pub fn num_levels(&self, v: Vertex) -> usize {
        (self.level_index[v as usize + 1] - self.level_index[v as usize]) as usize - 1
    }

    /// The distance array of vertex `v` at `level`, or an empty slice when
    /// the level is out of range.
    #[inline]
    pub fn level_array(&self, v: Vertex, level: usize) -> &[Distance] {
        let table = &self.level_offsets
            [self.level_index[v as usize] as usize..self.level_index[v as usize + 1] as usize];
        if level + 1 >= table.len() {
            return &[];
        }
        &self.dists[table[level] as usize..table[level + 1] as usize]
    }

    /// Total distance entries stored for vertex `v`.
    #[inline]
    pub fn vertex_entries(&self, v: Vertex) -> usize {
        let table = &self.level_offsets
            [self.level_index[v as usize] as usize..self.level_index[v as usize + 1] as usize];
        (table[table.len() - 1] - table[0]) as usize
    }

    /// Total number of distance entries (O(1): the arena length).
    #[inline]
    pub fn total_entries(&self) -> usize {
        self.dists.len()
    }

    /// Mean entries per vertex (O(1)).
    pub fn avg_entries(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            self.dists.len() as f64 / n as f64
        }
    }

    /// Memory footprint in bytes (O(1)).
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.dists.len() * std::mem::size_of::<Distance>()
            + self.level_offsets.len() * 4
            + self.level_index.len() * 4
    }

    /// The raw parts: distance arena, level-offset table, per-vertex index.
    #[inline]
    pub fn parts(&self) -> (&[Distance], &[u32], &[u32]) {
        (&self.dists, &self.level_offsets, &self.level_index)
    }
}

impl<S: Store> std::fmt::Debug for FlatLevelLabels<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatLevelLabels")
            .field("dists", &&self.dists[..])
            .field("level_offsets", &&self.level_offsets[..])
            .field("level_index", &&self.level_index[..])
            .finish()
    }
}

impl<S: Store> Clone for FlatLevelLabels<S>
where
    S::Slice<Distance>: Clone,
    S::Slice<u32>: Clone,
{
    fn clone(&self) -> Self {
        FlatLevelLabels {
            dists: self.dists.clone(),
            level_offsets: self.level_offsets.clone(),
            level_index: self.level_index.clone(),
        }
    }
}

impl<S: Store, S2: Store> PartialEq<FlatLevelLabels<S2>> for FlatLevelLabels<S> {
    fn eq(&self, other: &FlatLevelLabels<S2>) -> bool {
        self.dists[..] == other.dists[..]
            && self.level_offsets[..] == other.level_offsets[..]
            && self.level_index[..] == other.level_index[..]
    }
}

impl<S: Store> Eq for FlatLevelLabels<S> {}

/// The frozen hub/entry label arena used by HL: a parallel
/// structure-of-arrays of hub ids and distances with per-vertex CSR
/// offsets.
///
/// `hubs[k]` is the hub id of entry `k` and `dists[k]` the distance from
/// the labelled vertex. Entries of a vertex are sorted by hub id, so
/// queries are linear merge-joins over two contiguous slices. The column
/// split pays off exactly when the merge-join mostly reads the 4-byte hub
/// column; backends that touch every field of every scanned entry (PHL)
/// store packed structs in a [`FlatCsr`] instead.
pub struct FlatEntryLabels<S: Store = Owned> {
    hubs: S::Slice<Vertex>,
    dists: S::Slice<Distance>,
    offsets: S::Slice<u32>,
}

/// A [`FlatEntryLabels`] borrowing its arenas from a loaded container.
pub type FlatEntryLabelsRef<'a> = FlatEntryLabels<Borrowed<'a>>;

impl FlatEntryLabels<Owned> {
    /// Freezes nested `(hub, dist)` rows into the arena.
    pub fn freeze_pairs(rows: &[Vec<(Vertex, Distance)>]) -> Self {
        let total: usize = rows.iter().map(|r| r.len()).sum();
        assert!(
            total <= u32::MAX as usize,
            "label arena exceeds u32 offsets"
        );
        let mut hubs = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        for row in rows {
            for &(h, d) in row {
                hubs.push(h);
                dists.push(d);
            }
            offsets.push(hubs.len() as u32);
        }
        FlatEntryLabels {
            hubs,
            dists,
            offsets,
        }
    }
}

impl<S: Store> FlatEntryLabels<S> {
    /// Assembles an arena from its three raw parts, validating the parallel
    /// columns and the CSR invariants.
    pub fn from_parts(
        hubs: S::Slice<Vertex>,
        dists: S::Slice<Distance>,
        offsets: S::Slice<u32>,
    ) -> Result<Self, DecodeError> {
        if hubs.len() != dists.len() {
            return Err(DecodeError::Malformed(
                "hub and distance columns differ in length",
            ));
        }
        match offsets.first() {
            None => return Err(DecodeError::Malformed("entry offset table is empty")),
            Some(&first) if first != 0 => {
                return Err(DecodeError::Malformed("entry offsets do not start at 0"))
            }
            _ => {}
        }
        if offsets[offsets.len() - 1] as usize != hubs.len() {
            return Err(DecodeError::Malformed(
                "entry offsets do not end at the arena length",
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(DecodeError::Malformed("entry offsets decrease"));
        }
        Ok(FlatEntryLabels {
            hubs,
            dists,
            offsets,
        })
    }

    /// Number of vertices covered.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of entries of vertex `v`.
    #[inline]
    pub fn len_of(&self, v: Vertex) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Entry range of vertex `v` in the arenas.
    #[inline]
    pub fn range_of(&self, v: Vertex) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Hub ids of vertex `v`'s entries.
    #[inline]
    pub fn hubs(&self, v: Vertex) -> &[Vertex] {
        &self.hubs[self.range_of(v)]
    }

    /// Distances of vertex `v`'s entries.
    #[inline]
    pub fn dists(&self, v: Vertex) -> &[Distance] {
        &self.dists[self.range_of(v)]
    }

    /// Total number of entries (O(1): the arena length).
    #[inline]
    pub fn total_entries(&self) -> usize {
        self.hubs.len()
    }

    /// Mean entries per vertex (O(1)).
    pub fn avg_entries(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            self.hubs.len() as f64 / n as f64
        }
    }

    /// Memory footprint in bytes (O(1)).
    #[inline]
    pub fn memory_bytes(&self) -> usize {
        self.hubs.len() * 4
            + self.dists.len() * std::mem::size_of::<Distance>()
            + self.offsets.len() * 4
    }

    /// The raw parts: hub column, distance column, offset table.
    #[inline]
    pub fn parts(&self) -> (&[Vertex], &[Distance], &[u32]) {
        (&self.hubs, &self.dists, &self.offsets)
    }
}

impl<S: Store> std::fmt::Debug for FlatEntryLabels<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatEntryLabels")
            .field("hubs", &&self.hubs[..])
            .field("dists", &&self.dists[..])
            .field("offsets", &&self.offsets[..])
            .finish()
    }
}

impl<S: Store> Clone for FlatEntryLabels<S>
where
    S::Slice<Vertex>: Clone,
    S::Slice<Distance>: Clone,
    S::Slice<u32>: Clone,
{
    fn clone(&self) -> Self {
        FlatEntryLabels {
            hubs: self.hubs.clone(),
            dists: self.dists.clone(),
            offsets: self.offsets.clone(),
        }
    }
}

impl<S: Store, S2: Store> PartialEq<FlatEntryLabels<S2>> for FlatEntryLabels<S> {
    fn eq(&self, other: &FlatEntryLabels<S2>) -> bool {
        self.hubs[..] == other.hubs[..]
            && self.dists[..] == other.dists[..]
            && self.offsets[..] == other.offsets[..]
    }
}

impl<S: Store> Eq for FlatEntryLabels<S> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::INFINITY;

    #[test]
    fn min_plus_scan_matches_naive() {
        let a: Vec<Distance> = (0..37).map(|i| (i * 7 + 3) % 23).collect();
        let b: Vec<Distance> = (0..41).map(|i| (i * 5 + 1) % 19).collect();
        let naive = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| x + y)
            .min()
            .unwrap_or(INFINITY);
        assert_eq!(min_plus_scan(&a, &b), naive);
        assert_eq!(min_plus_scan(&[], &b), INFINITY);
        assert_eq!(min_plus_scan(&a, &[]), INFINITY);
    }

    #[test]
    fn min_plus_scan_handles_infinity() {
        let a = vec![INFINITY, 5, INFINITY];
        let b = vec![3, INFINITY, INFINITY];
        assert_eq!(min_plus_scan(&a, &b), INFINITY);
        let a = vec![INFINITY; 20];
        let mut b = vec![INFINITY; 20];
        b[17] = 1;
        let mut a2 = a.clone();
        a2[17] = 2;
        assert_eq!(min_plus_scan(&a2, &b), 3);
    }

    #[test]
    fn min_plus_merge_matches_naive() {
        let ha = vec![1u32, 4, 6, 9, 12];
        let da = vec![10u64, 2, 7, 1, 4];
        let hb = vec![2u32, 4, 9, 10, 12, 14];
        let db = vec![1u64, 3, 9, 0, 2, 8];
        // Common hubs: 4 (2+3), 9 (1+9), 12 (4+2) -> 5.
        assert_eq!(min_plus_merge(&ha, &da, &hb, &db), 5);
        assert_eq!(min_plus_merge(&[], &[], &hb, &db), INFINITY);
        // No common hubs.
        assert_eq!(min_plus_merge(&[1], &[1], &[2], &[1]), INFINITY);
    }

    #[test]
    fn flat_csr_round_trips_rows() {
        let rows = vec![vec![1u64, 2, 3], vec![], vec![9, 8]];
        let csr = FlatCsr::freeze(&rows);
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.row(0), &[1, 2, 3]);
        assert_eq!(csr.row(1), &[] as &[u64]);
        assert_eq!(csr.row(2), &[9, 8]);
        assert_eq!(csr.row_len(2), 2);
        assert_eq!(csr.total_values(), 5);
        assert_eq!(csr.memory_bytes(), 5 * 8 + 4 * 4);
        let (values, offsets) = csr.parts();
        let back = FlatCsr::<u64>::from_parts(values.to_vec(), offsets.to_vec()).unwrap();
        assert_eq!(back, csr);
        // A value arena one short of the final offset is rejected.
        assert!(FlatCsr::<u64>::from_parts(values[..4].to_vec(), offsets.to_vec()).is_err());
    }

    #[test]
    fn borrowed_views_serve_the_same_rows() {
        let rows = vec![vec![4u64, 5], vec![6]];
        let owned = FlatCsr::freeze(&rows);
        let (values, offsets) = owned.parts();
        let view: FlatCsrRef<'_, u64> = FlatCsr::from_parts(values, offsets).unwrap();
        assert_eq!(view.num_rows(), owned.num_rows());
        for i in 0..owned.num_rows() {
            assert_eq!(view.row(i), owned.row(i));
        }
        assert_eq!(view, owned);
    }

    #[test]
    fn level_labels_freeze_preserves_arrays() {
        let mut b = LevelLabelsBuilder::new(3);
        b.push_level(0, &[1, 2, 3]);
        b.push_level(0, &[]);
        b.push_level(0, &[9]);
        b.push_level(2, &[7, 7]);
        assert_eq!(b.level_array(0, 0), &[1, 2, 3]);
        assert_eq!(b.level_array(0, 2), &[9]);
        let frozen = b.freeze();
        assert_eq!(frozen.num_vertices(), 3);
        assert_eq!(frozen.num_levels(0), 3);
        assert_eq!(frozen.num_levels(1), 0);
        assert_eq!(frozen.num_levels(2), 1);
        assert_eq!(frozen.level_array(0, 0), &[1, 2, 3]);
        assert_eq!(frozen.level_array(0, 1), &[] as &[Distance]);
        assert_eq!(frozen.level_array(0, 2), &[9]);
        assert_eq!(frozen.level_array(0, 3), &[] as &[Distance]);
        assert_eq!(frozen.level_array(1, 0), &[] as &[Distance]);
        assert_eq!(frozen.level_array(2, 0), &[7, 7]);
        assert_eq!(frozen.vertex_entries(0), 4);
        assert_eq!(frozen.vertex_entries(1), 0);
        assert_eq!(frozen.total_entries(), 6);
        assert!((frozen.avg_entries() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entry_labels_freeze_and_round_trip() {
        let pairs = vec![vec![(3u32, 10u64), (7, 2)], vec![], vec![(1, 0)]];
        let flat = FlatEntryLabels::freeze_pairs(&pairs);
        assert_eq!(flat.num_vertices(), 3);
        assert_eq!(flat.hubs(0), &[3, 7]);
        assert_eq!(flat.dists(0), &[10, 2]);
        assert_eq!(flat.len_of(1), 0);
        assert_eq!(flat.total_entries(), 3);
        assert!((flat.avg_entries() - 1.0).abs() < 1e-12);
        let (h, d, o) = flat.parts();
        let back =
            FlatEntryLabels::<Owned>::from_parts(h.to_vec(), d.to_vec(), o.to_vec()).unwrap();
        assert_eq!(back, flat);
    }

    #[test]
    fn malformed_level_offsets_are_rejected() {
        // A per-vertex offset table that decreases: dists len 5,
        // level_offsets [4, 1], level_index [0, 2]. Every other invariant
        // holds, but slicing dists[4..1] would panic — loading must reject it.
        assert!(matches!(
            FlatLevelLabels::<Owned>::from_parts(vec![0u64; 5], vec![4u32, 1], vec![0u32, 2]),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn corrupt_codec_input_is_rejected() {
        let flat = FlatEntryLabels::freeze_pairs(&[vec![(1u32, 2u64)]]);
        let (h, d, o) = flat.parts();
        // Corrupt the final offset so it no longer matches the arena length.
        let mut offsets = o.to_vec();
        offsets[1] ^= 0xFF00_0000;
        assert!(matches!(
            FlatEntryLabels::<Owned>::from_parts(h.to_vec(), d.to_vec(), offsets),
            Err(DecodeError::Malformed(_))
        ));
        // No arrays at all: the offset table is empty.
        assert!(matches!(
            FlatEntryLabels::<Owned>::from_parts(Vec::new(), Vec::new(), Vec::new()),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn flat_csr_from_parts_rejects_each_broken_invariant() {
        let bad = |values: Vec<u64>, offsets: Vec<u32>| {
            FlatCsr::<u64>::from_parts(values, offsets).unwrap_err()
        };
        for (values, offsets, why) in [
            (vec![], vec![], "CSR offset table is empty"),
            (vec![1, 2], vec![1, 2], "CSR offsets do not start at 0"),
            (
                vec![1, 2],
                vec![0, 1],
                "CSR offsets do not end at the arena length",
            ),
            (vec![1, 2], vec![0, 2, 1, 2], "CSR offsets decrease"),
        ] {
            assert_eq!(bad(values, offsets), DecodeError::Malformed(why));
        }
    }

    #[test]
    fn level_labels_from_parts_reject_each_broken_invariant() {
        let bad = |dists: Vec<Distance>, offsets: Vec<u32>, index: Vec<u32>| {
            FlatLevelLabels::<Owned>::from_parts(dists, offsets, index).unwrap_err()
        };
        for (dists, offsets, index, why) in [
            (vec![], vec![], vec![], "level index is empty"),
            (
                vec![5],
                vec![0, 1],
                vec![1, 2],
                "level index does not start at 0",
            ),
            (
                vec![5],
                vec![0, 1],
                vec![0, 1],
                "level index does not end at the offset-table length",
            ),
            (
                vec![5],
                vec![0, 1],
                vec![0, 0, 2],
                "level index is not strictly increasing",
            ),
            (
                vec![5],
                vec![0, 2],
                vec![0, 2],
                "level offset exceeds the distance arena",
            ),
        ] {
            assert_eq!(bad(dists, offsets, index), DecodeError::Malformed(why));
        }
    }

    #[test]
    fn entry_labels_from_parts_reject_each_broken_invariant() {
        let bad = |hubs: Vec<Vertex>, dists: Vec<Distance>, offsets: Vec<u32>| {
            FlatEntryLabels::<Owned>::from_parts(hubs, dists, offsets).unwrap_err()
        };
        for (hubs, dists, offsets, why) in [
            (
                vec![1, 2],
                vec![7],
                vec![0, 2],
                "hub and distance columns differ in length",
            ),
            (
                vec![1],
                vec![7],
                vec![1, 1],
                "entry offsets do not start at 0",
            ),
            (
                vec![1],
                vec![7],
                vec![0, 2],
                "entry offsets do not end at the arena length",
            ),
            (
                vec![1, 2],
                vec![7, 8],
                vec![0, 2, 1, 2],
                "entry offsets decrease",
            ),
        ] {
            assert_eq!(bad(hubs, dists, offsets), DecodeError::Malformed(why));
        }
    }

    #[test]
    fn level_labels_hold_only_the_three_label_arrays() {
        // A level long enough to span several 16-entry blocks: the frozen
        // arena is its distance arena plus the two offset tables and nothing
        // derived, and a borrowed view over those parts is the same arena.
        let mut b = LevelLabelsBuilder::new(2);
        let long: Vec<Distance> = (0..40).map(|i| 1_000 - i as u64).collect();
        b.push_level(0, &long);
        b.push_level(0, &[7, INFINITY]);
        b.push_level(1, &[]);
        let frozen = b.freeze();
        let (d, lo, li) = frozen.parts();
        assert_eq!((d.len(), lo.len(), li.len()), (42, 5, 3));
        assert_eq!(frozen.memory_bytes(), 42 * 8 + 5 * 4 + 3 * 4);
        let view: FlatLevelLabelsRef<'_> = FlatLevelLabels::from_parts(d, lo, li).unwrap();
        assert_eq!(view, frozen);
        assert_eq!(view.level_array(0, 0), &long[..]);
        assert_eq!(view.level_array(0, 1), &[7, INFINITY]);
    }

    #[test]
    fn entry_labels_hold_only_the_three_label_arrays() {
        // A label long enough to span several 16-entry blocks: the frozen
        // arena is its hub column, distance column and offset table and
        // nothing derived, on every path that produces one.
        let rows: Vec<Vec<(Vertex, Distance)>> = vec![
            (0..40u32).map(|h| (h * 2, 500 - h as u64)).collect(),
            vec![],
            vec![(1, INFINITY), (5, 3)],
        ];
        let flat = FlatEntryLabels::freeze_pairs(&rows);
        let bytes_of_arrays = 42 * 4 + 42 * 8 + 4 * 4;
        assert_eq!(flat.memory_bytes(), bytes_of_arrays);
        let (h, d, o) = flat.parts();
        assert_eq!((h.len(), d.len(), o.len()), (42, 42, 4));

        let view: FlatEntryLabelsRef<'_> = FlatEntryLabels::from_parts(h, d, o).unwrap();
        assert_eq!(view, flat);
        assert_eq!(view.memory_bytes(), bytes_of_arrays);
        assert_eq!(view.dists(0), flat.dists(0));
        assert_eq!(view.hubs(2), &[1, 5]);
    }
}
