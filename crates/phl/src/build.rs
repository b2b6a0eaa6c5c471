//! Pruned construction of the highway labelling.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use hc2l_graph::container::{
    method_tag, Container, ContainerWriter, DecodeError, MetaReader, MetaWriter, PersistentIndex,
    Pod, PodValue,
};
use hc2l_graph::flat_labels::{Borrowed, Owned, Store};
use hc2l_graph::{Distance, FlatCsr, Graph, Vertex, INFINITY};

use crate::decompose::HighwayDecomposition;

/// One label entry: the distance from the labelled vertex to an attachment
/// point sitting at `offset` along highway `path`.
///
/// Entries are stored *packed* (array-of-structs) in the frozen label arena:
/// a PHL query touches every column of every scanned entry, so interleaving
/// keeps each label to one prefetch stream — the three-parallel-columns
/// layout used by HL measured ~2x slower here (six distant streams per
/// query).
///
/// The struct is `repr(C)` with an explicit padding word so that its
/// in-memory layout (24 bytes, no implicit padding) equals its on-disk
/// little-endian encoding — that is what lets a loaded container section be
/// viewed as `&[PhlEntry]` without decoding (the [`Pod`] contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(C)]
pub struct PhlEntry {
    /// Highway (path) index; smaller = more important.
    pub path: u32,
    /// Explicit padding keeping the struct layout identical to its encoding
    /// (always zero; ordered after `path` so derived comparisons are
    /// unaffected).
    pad: u32,
    /// Offset of the attachment point along the highway.
    pub offset: Distance,
    /// Distance from the labelled vertex to the attachment point.
    pub dist: Distance,
}

impl PhlEntry {
    /// A label entry for highway `path`, attachment offset `offset`,
    /// distance `dist`.
    pub fn new(path: u32, offset: Distance, dist: Distance) -> Self {
        PhlEntry {
            path,
            pad: 0,
            offset,
            dist,
        }
    }
}

impl PodValue for PhlEntry {
    const WIDTH: usize = 24;
    fn write_le(self, out: &mut Vec<u8>) {
        self.path.write_le(out);
        self.pad.write_le(out);
        self.offset.write_le(out);
        self.dist.write_le(out);
    }
    fn read_le(bytes: &[u8]) -> Self {
        PhlEntry {
            path: u32::read_le(bytes),
            pad: u32::read_le(&bytes[4..]),
            offset: u64::read_le(&bytes[8..]),
            dist: u64::read_le(&bytes[16..]),
        }
    }
}

// SAFETY: `repr(C)` with fields u32, u32, u64, u64 — size 24 == WIDTH, no
// implicit padding, every bit pattern valid, and `write_le` emits the fields
// in declaration order, i.e. exactly the little-endian memory image.
unsafe impl Pod for PhlEntry {}

/// Size statistics of a highway labelling.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PhlStats {
    /// Total number of label triples.
    pub total_entries: usize,
    /// Mean label size per vertex.
    pub avg_label_size: f64,
    /// Memory footprint in bytes.
    pub memory_bytes: usize,
    /// Number of highways in the decomposition.
    pub num_paths: usize,
}

/// Container section tags of the PHL backend.
mod sec {
    /// Scalar metadata blob.
    pub const META: u32 = 0;
    /// Packed [`super::PhlEntry`] arena (24-byte records).
    pub const ENTRIES: u32 = 1;
    /// Per-vertex CSR offsets (`u32`).
    pub const OFFSETS: u32 = 2;
    // Tags 3 and 4 (suffix cut bounds and their offsets) are legacy, ignored
    // on read. Never reuse them.
}

/// The frozen, queryable state of a pruned highway labelling: the packed
/// [`PhlEntry`] triples in a [`FlatCsr`] arena, sorted by `(path, offset)`
/// per vertex.
///
/// Generic over the [`Store`]: owned after a build, borrowed (zero-copy)
/// over a loaded container's sections.
pub struct FrozenPhlLabels<S: Store = Owned> {
    labels: FlatCsr<PhlEntry, S>,
}

/// A [`FrozenPhlLabels`] borrowing its arena from a loaded container.
pub type FrozenPhlLabelsRef<'a> = FrozenPhlLabels<Borrowed<'a>>;

impl<S: Store> FrozenPhlLabels<S> {
    /// Wraps a frozen label arena (trusted: the build path sorts before
    /// freezing).
    pub fn new(labels: FlatCsr<PhlEntry, S>) -> Self {
        FrozenPhlLabels { labels }
    }

    /// Wraps a *loaded* arena, validating the per-vertex `(path, offset)`
    /// sort order the query merge-join relies on — an unsorted label would
    /// silently skip matching highways, so a crafted file fails here with a
    /// typed error instead.
    pub fn from_sorted(labels: FlatCsr<PhlEntry, S>) -> Result<Self, DecodeError> {
        for v in 0..labels.num_rows() {
            if labels.row(v).windows(2).any(|w| w[0] > w[1]) {
                return Err(DecodeError::Malformed(
                    "PHL label not sorted by (path, offset)",
                ));
            }
        }
        Ok(FrozenPhlLabels::new(labels))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.num_rows()
    }

    /// The label of vertex `v`: packed entries sorted by `(path, offset)`.
    #[inline]
    pub fn label(&self, v: Vertex) -> &[PhlEntry] {
        self.labels.row(v as usize)
    }

    /// Number of entries in vertex `v`'s label.
    #[inline]
    pub fn label_len(&self, v: Vertex) -> usize {
        self.labels.row_len(v as usize)
    }

    /// The underlying arena.
    pub fn arena(&self) -> &FlatCsr<PhlEntry, S> {
        &self.labels
    }
}

impl<'a> FrozenPhlLabels<Borrowed<'a>> {
    /// Zero-copy view of the labelling stored in a loaded container
    /// (little-endian hosts; see `Container::section_pods`).
    pub fn from_container(c: &'a Container) -> Result<Self, DecodeError> {
        FrozenPhlLabels::from_sorted(FlatCsr::from_parts(
            c.section_pods::<PhlEntry>(sec::ENTRIES)?,
            c.section_pods::<u32>(sec::OFFSETS)?,
        )?)
    }
}

impl<S: Store> std::fmt::Debug for FrozenPhlLabels<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenPhlLabels")
            .field("labels", &self.labels)
            .finish()
    }
}

impl<S: Store> Clone for FrozenPhlLabels<S>
where
    FlatCsr<PhlEntry, S>: Clone,
{
    fn clone(&self) -> Self {
        FrozenPhlLabels {
            labels: self.labels.clone(),
        }
    }
}

/// A pruned highway labelling index.
///
/// Post-build, the [`PhlEntry`] triples live packed in the frozen
/// [`FrozenPhlLabels`] arena — one contiguous block per vertex, one global
/// allocation — sorted by `(path, offset)` per vertex, so queries are
/// merge-joins over contiguous entry slices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhlIndex {
    /// The frozen labels queries run on.
    frozen: FrozenPhlLabels,
    /// Number of highways the labelling was built from.
    num_paths: usize,
}

impl PhlIndex {
    /// Builds the index: highway decomposition followed by pruned labelling.
    pub fn build(g: &Graph) -> Self {
        let decomposition = HighwayDecomposition::build(g);
        let n = g.num_vertices();
        // Nested construction scratch; frozen into the flat arena at the end.
        let mut labels: Vec<Vec<PhlEntry>> = vec![Vec::new(); n];

        // Process highways in importance order; within a highway, process its
        // vertices in balanced bisection order (midpoint first, then the
        // midpoints of the two halves, and so on). Each vertex of the highway
        // acts as a hub: a pruned Dijkstra stores (path, offset_of_hub, dist)
        // entries at the vertices it reaches, skipping vertices whose distance
        // to the hub is already certified by the labels built so far (the
        // same pruning rule as pruned landmark labelling, so the labelling
        // stays exact). The bisection order makes hubs near the middle of a
        // highway cover their path-mates, keeping per-vertex labels around
        // `O(log path length)` for the on-path entries.
        let mut dist = vec![INFINITY; n];
        let mut touched: Vec<Vertex> = Vec::new();

        for (path_idx, path) in decomposition.paths.iter().enumerate() {
            let path_idx = path_idx as u32;
            for pos in bisection_order(path.vertices.len()) {
                let hub = path.vertices[pos];
                let hub_offset = path.offsets[pos];
                let mut heap: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
                dist[hub as usize] = 0;
                touched.push(hub);
                heap.push(Reverse((0, hub)));
                while let Some(Reverse((d, v))) = heap.pop() {
                    if d > dist[v as usize] {
                        continue;
                    }
                    if query_labels_unsorted(&labels[hub as usize], &labels[v as usize]) <= d {
                        continue;
                    }
                    labels[v as usize].push(PhlEntry::new(path_idx, hub_offset, d));
                    for e in g.neighbors(v) {
                        let nd = d + e.weight as Distance;
                        if nd < dist[e.to as usize] {
                            dist[e.to as usize] = nd;
                            touched.push(e.to);
                            heap.push(Reverse((nd, e.to)));
                        }
                    }
                }
                for &v in &touched {
                    dist[v as usize] = INFINITY;
                }
                touched.clear();
            }
        }

        // Entries were appended path by path, but the bisection order means
        // offsets within a path are not monotone; sort each label so queries
        // can merge-join on (path, offset), then freeze into the flat arena.
        for label in &mut labels {
            label.sort_unstable();
        }
        PhlIndex {
            frozen: FrozenPhlLabels::new(FlatCsr::freeze(&labels)),
            num_paths: decomposition.num_paths(),
        }
    }

    /// The frozen queryable state.
    pub fn frozen(&self) -> &FrozenPhlLabels {
        &self.frozen
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.frozen.num_vertices()
    }

    /// The frozen label arena.
    pub fn labels(&self) -> &FlatCsr<PhlEntry> {
        self.frozen.arena()
    }

    /// The label of vertex `v`: packed entries sorted by `(path, offset)`.
    #[inline]
    pub fn label(&self, v: Vertex) -> &[PhlEntry] {
        self.frozen.label(v)
    }

    /// Number of entries in vertex `v`'s label.
    #[inline]
    pub fn label_len(&self, v: Vertex) -> usize {
        self.frozen.label_len(v)
    }

    /// Size statistics (O(1): totals are fixed by the freeze step).
    pub fn stats(&self) -> PhlStats {
        let labels = self.frozen.arena();
        PhlStats {
            total_entries: labels.total_values(),
            avg_label_size: if labels.num_rows() == 0 {
                0.0
            } else {
                labels.total_values() as f64 / labels.num_rows() as f64
            },
            memory_bytes: labels.memory_bytes(),
            num_paths: self.num_paths,
        }
    }
}

impl PersistentIndex for PhlIndex {
    const METHOD_TAG: u32 = method_tag::PHL;

    fn write_sections(&self, w: &mut ContainerWriter) {
        let mut meta = MetaWriter::new();
        meta.u64(self.num_paths as u64).retired(1); // held the build time
        w.push_section(sec::META, meta.finish());
        let (entries, offsets) = self.frozen.arena().parts();
        w.push_pods(sec::ENTRIES, entries);
        w.push_pods(sec::OFFSETS, offsets);
    }

    fn read_sections(c: &Container) -> Result<Self, DecodeError> {
        let mut meta = MetaReader::new(c.section(sec::META)?);
        let num_paths = meta.usize()?;
        meta.skip(1)?;
        meta.finish()?;
        let labels = FlatCsr::from_parts(
            c.read_pod_vec::<PhlEntry>(sec::ENTRIES)?,
            c.read_pod_vec::<u32>(sec::OFFSETS)?,
        )?;
        Ok(PhlIndex {
            frozen: FrozenPhlLabels::from_sorted(labels)?,
            num_paths,
        })
    }
}

/// Positions `0..len` in balanced bisection order: the midpoint first, then
/// recursively the midpoints of the left and right halves. Hubs processed in
/// this order cover their own highway with logarithmically many label entries
/// per vertex.
fn bisection_order(len: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(len);
    let mut ranges = std::collections::VecDeque::new();
    if len > 0 {
        ranges.push_back((0usize, len));
    }
    while let Some((lo, hi)) = ranges.pop_front() {
        if lo >= hi {
            continue;
        }
        let mid = (lo + hi) / 2;
        order.push(mid);
        ranges.push_back((lo, mid));
        ranges.push_back((mid + 1, hi));
    }
    order
}

/// Construction-time variant of [`query_labels`]: labels are only sorted at
/// freeze time (entries arrive in bisection order), so same-path groups are
/// combined with the order-insensitive all-pairs product.
fn query_labels_unsorted(a: &[PhlEntry], b: &[PhlEntry]) -> Distance {
    let mut best = INFINITY;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i].path, b[j].path);
        if x == y {
            let a_end = a[i..].iter().take_while(|e| e.path == x).count() + i;
            let b_end = b[j..].iter().take_while(|e| e.path == x).count() + j;
            let group_b = &b[j..b_end];
            for ea in &a[i..a_end] {
                for eb in group_b {
                    best = best.min(ea.dist + eb.dist + ea.offset.abs_diff(eb.offset));
                }
            }
            i = a_end;
            j = b_end;
        } else {
            i += (x < y) as usize;
            j += (y < x) as usize;
        }
    }
    best.min(INFINITY)
}

/// Evaluates Equation 2 over two *frozen* labels (sorted by `(path,
/// offset)`): a merge join on path ids; for each common path the
/// attachment-point groups are combined, bridging the highway segment with
/// the along-path distance.
///
/// Singleton groups (the common case) take a direct branch-free
/// min-reduction; larger groups use [`group_min`], a linear prefix-min sweep
/// instead of the quadratic all-pairs product.
pub(crate) fn query_labels(a: &[PhlEntry], b: &[PhlEntry]) -> Distance {
    let mut best = INFINITY;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i].path, b[j].path);
        if x == y {
            let a_end = a[i..].iter().take_while(|e| e.path == x).count() + i;
            let b_end = b[j..].iter().take_while(|e| e.path == x).count() + j;
            let (ga, gb) = (&a[i..a_end], &b[j..b_end]);
            if ga.len() == 1 {
                let ea = ga[0];
                for eb in gb {
                    best = best.min(ea.dist + eb.dist + ea.offset.abs_diff(eb.offset));
                }
            } else if gb.len() == 1 {
                let eb = gb[0];
                for ea in ga {
                    best = best.min(ea.dist + eb.dist + ea.offset.abs_diff(eb.offset));
                }
            } else {
                best = best.min(group_min(ga, gb));
            }
            i = a_end;
            j = b_end;
        } else {
            i += (x < y) as usize;
            j += (y < x) as usize;
        }
    }
    best.min(INFINITY)
}

/// Linear-time minimum of `ea.dist + eb.dist + |ea.offset - eb.offset|` over
/// all pairs of two same-path groups, both sorted by offset.
///
/// For a pair with `ea.offset <= eb.offset` the cost is
/// `(ea.dist - ea.offset) + (eb.dist + eb.offset)`, so a merged sweep in
/// offset order only needs the running minimum of `dist - offset` over the
/// *other* group's already-visited prefix — `O(|A| + |B|)` instead of the
/// `O(|A| * |B|)` all-pairs product. Intermediate values can go negative, so
/// the sweep runs in `i128` (every operand is below `2^62`, far from
/// overflow).
fn group_min(a: &[PhlEntry], b: &[PhlEntry]) -> Distance {
    let mut best: i128 = INFINITY as i128;
    // Running min of dist - offset over the visited prefix of each group.
    let (mut min_a, mut min_b): (i128, i128) = (i128::MAX / 2, i128::MAX / 2);
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        // Pop the smaller offset next; on ties pop from `a` first so the tied
        // `b` element sees it in `min_a` (each pair must be seen once with
        // the later element as the sweep point).
        let take_a = j >= b.len() || (i < a.len() && a[i].offset <= b[j].offset);
        if take_a {
            let e = a[i];
            i += 1;
            best = best.min(e.dist as i128 + e.offset as i128 + min_b);
            min_a = min_a.min(e.dist as i128 - e.offset as i128);
        } else {
            let e = b[j];
            j += 1;
            best = best.min(e.dist as i128 + e.offset as i128 + min_a);
            min_b = min_b.min(e.dist as i128 - e.offset as i128);
        }
    }
    best.min(INFINITY as i128) as Distance
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::toy::{paper_figure1, path_graph};

    #[test]
    fn labels_are_sorted_and_nonempty() {
        let g = paper_figure1();
        let index = PhlIndex::build(&g);
        for v in 0..16u32 {
            let label = index.label(v);
            assert!(!label.is_empty(), "vertex {v} has an empty PHL label");
            for w in label.windows(2) {
                assert!(
                    w[0].path < w[1].path || (w[0].path == w[1].path && w[0].offset <= w[1].offset)
                );
            }
        }
    }

    #[test]
    fn own_path_entry_has_zero_distance() {
        let g = paper_figure1();
        let index = PhlIndex::build(&g);
        let decomposition = HighwayDecomposition::build(&g);
        for v in 0..16u32 {
            let own_path = decomposition.path_of[v as usize];
            let own_offset = decomposition.offset_of[v as usize];
            assert!(
                index
                    .label(v)
                    .iter()
                    .any(|e| e.path == own_path && e.offset == own_offset && e.dist == 0),
                "vertex {v} lacks its own attachment entry"
            );
        }
    }

    #[test]
    fn path_graph_labels_stay_logarithmic() {
        // On a single highway, the bisection processing order keeps each
        // vertex's label to the O(log n) hubs that cover it.
        let g = path_graph(12, 3);
        let index = PhlIndex::build(&g);
        let stats = index.stats();
        assert_eq!(stats.num_paths, 1);
        assert!(
            stats.avg_label_size <= (12f64).log2() + 2.0,
            "avg label {}",
            stats.avg_label_size
        );
    }

    #[test]
    fn bisection_order_is_a_permutation() {
        for len in [0usize, 1, 2, 7, 16, 33] {
            let mut order = bisection_order(len);
            assert_eq!(order.len(), len);
            order.sort_unstable();
            assert_eq!(order, (0..len).collect::<Vec<_>>());
        }
        assert_eq!(bisection_order(5)[0], 2);
    }

    #[test]
    fn group_min_matches_all_pairs_product() {
        // Seeded pseudo-random same-path groups, sorted by offset; the
        // linear sweep must agree with the quadratic reference on every
        // case, including ties and singletons.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let make = |next: &mut dyn FnMut() -> u64| {
                let len = 1 + (next() % 6) as usize;
                let mut g: Vec<PhlEntry> = (0..len)
                    .map(|_| PhlEntry::new(0, next() % 50, next() % 100))
                    .collect();
                g.sort_unstable();
                g
            };
            let ga = make(&mut next);
            let gb = make(&mut next);
            let brute = ga
                .iter()
                .flat_map(|ea| {
                    gb.iter()
                        .map(move |eb| ea.dist + eb.dist + ea.offset.abs_diff(eb.offset))
                })
                .min()
                .unwrap();
            assert_eq!(group_min(&ga, &gb), brute, "ga={ga:?} gb={gb:?}");
        }
    }

    #[test]
    fn stats_accounting() {
        let g = paper_figure1();
        let index = PhlIndex::build(&g);
        let s = index.stats();
        assert_eq!(
            s.total_entries,
            (0..16).map(|v| index.label_len(v)).sum::<usize>()
        );
        assert!(s.memory_bytes >= s.total_entries * std::mem::size_of::<PhlEntry>());
    }

    #[test]
    fn entry_layout_is_pod() {
        // The Pod contract FrozenPhlLabelsRef relies on: in-memory size ==
        // encoded width.
        assert_eq!(std::mem::size_of::<PhlEntry>(), PhlEntry::WIDTH);
        let e = PhlEntry::new(3, 17, 99);
        let mut bytes = Vec::new();
        e.write_le(&mut bytes);
        assert_eq!(bytes.len(), PhlEntry::WIDTH);
        assert_eq!(PhlEntry::read_le(&bytes), e);
    }

    #[test]
    fn container_round_trip_and_borrowed_view_agree() {
        let g = paper_figure1();
        let index = PhlIndex::build(&g);
        let mut w = ContainerWriter::new(PhlIndex::METHOD_TAG);
        index.write_sections(&mut w);
        let c = Container::from_bytes(&w.finish()).unwrap();
        let back = PhlIndex::read_sections(&c).unwrap();
        assert_eq!(back.stats().num_paths, index.stats().num_paths);
        let view = FrozenPhlLabels::from_container(&c).unwrap();
        for s in 0..16u32 {
            for t in 0..16u32 {
                assert_eq!(back.query(s, t), index.query(s, t));
                assert_eq!(view.query(s, t), index.query(s, t));
            }
        }
    }

    #[test]
    fn container_holds_only_the_label_sections() {
        let g = paper_figure1();
        let index = PhlIndex::build(&g);
        let mut w = ContainerWriter::new(PhlIndex::METHOD_TAG);
        index.write_sections(&mut w);
        let c = Container::from_bytes(&w.finish()).unwrap();
        let tags: Vec<u32> = c.specs().iter().map(|spec| spec.tag).collect();
        assert_eq!(tags, [sec::META, sec::ENTRIES, sec::OFFSETS]);
        let entries = index.stats().total_entries as u64;
        let len_of = |tag| c.specs().iter().find(|s| s.tag == tag).unwrap().len;
        assert_eq!(len_of(sec::ENTRIES), entries * PhlEntry::WIDTH as u64);
        assert_eq!(len_of(sec::OFFSETS), 17 * 4);
        assert_eq!(
            index.stats().memory_bytes as u64,
            entries * PhlEntry::WIDTH as u64 + 17 * 4
        );
    }

    #[test]
    fn legacy_bound_sections_are_ignored_whatever_they_hold() {
        // Tags 3 and 4 held suffix cut bounds in older files. Readers never
        // look at them, so neither values nor lengths that fit no bound
        // table (an odd byte count, an empty payload) can fail a load.
        let g = paper_figure1();
        let index = PhlIndex::build(&g);
        for (bounds, offsets) in [(vec![0u8; 3], vec![]), (vec![0xFF; 64], vec![7u8; 5])] {
            let mut w = ContainerWriter::new(PhlIndex::METHOD_TAG);
            index.write_sections(&mut w);
            w.push_section(3, bounds);
            w.push_section(4, offsets);
            let c = Container::from_bytes(&w.finish()).unwrap();
            assert!(c.has_section(3) && c.has_section(4));
            let back = PhlIndex::read_sections(&c).expect("legacy tags are ignored");
            let view = FrozenPhlLabels::from_container(&c).expect("legacy tags are ignored");
            assert_eq!(back.labels(), index.labels());
            for s in 0..16u32 {
                for t in 0..16u32 {
                    assert_eq!(back.query(s, t), index.query(s, t));
                    assert_eq!(view.query(s, t), index.query(s, t));
                }
            }
        }
    }

    #[test]
    fn crafted_containers_are_rejected_on_load() {
        // An offset table that stops short of the entry arena, or a label
        // out of (path, offset) order, fails both loaders with a typed error.
        let g = paper_figure1();
        let index = PhlIndex::build(&g);
        let (entries, offsets) = index.labels().parts();
        let v = (0..16).find(|&v| index.label_len(v) >= 2).unwrap() as usize;
        let mut unsorted = entries.to_vec();
        unsorted.swap(offsets[v] as usize, offsets[v] as usize + 1);
        for (entries, offsets, why) in [
            (
                entries.to_vec(),
                &offsets[..16],
                "CSR offsets do not end at the arena length",
            ),
            (unsorted, offsets, "PHL label not sorted by (path, offset)"),
        ] {
            let mut w = ContainerWriter::new(PhlIndex::METHOD_TAG);
            let mut meta = MetaWriter::new();
            meta.u64(index.num_paths as u64).f64(0.0);
            w.push_section(sec::META, meta.finish());
            w.push_pods(sec::ENTRIES, &entries);
            w.push_pods(sec::OFFSETS, offsets);
            let c = Container::from_bytes(&w.finish()).unwrap();
            let want = Some(DecodeError::Malformed(why));
            assert_eq!(PhlIndex::read_sections(&c).err(), want);
            assert_eq!(FrozenPhlLabels::from_container(&c).err(), want);
        }
    }
}
