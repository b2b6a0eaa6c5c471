//! Pruned construction of the hub labelling.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use hc2l_ch::ContractionHierarchy;
use hc2l_graph::container::{
    method_tag, Container, ContainerWriter, DecodeError, MetaReader, MetaWriter, PersistentIndex,
};
use hc2l_graph::flat_labels::{Borrowed, Owned, Store};
use hc2l_graph::{Distance, FlatEntryLabels, Graph, Vertex, INFINITY};

/// Size statistics of a hub labelling.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HubLabelStats {
    /// Total number of `(hub, distance)` entries.
    pub total_entries: usize,
    /// Mean entries per vertex (the paper's "average hub size" for HL).
    pub avg_label_size: f64,
    /// Bytes used by the labelling.
    pub memory_bytes: usize,
}

/// Container section tags of the HL backend.
mod sec {
    /// Scalar metadata ([`super::MetaWriter`] blob).
    pub const META: u32 = 0;
    /// Hub-id column (`u32`).
    pub const HUBS: u32 = 1;
    /// Distance column (`u64`).
    pub const DISTS: u32 = 2;
    /// Per-vertex CSR offsets (`u32`).
    pub const OFFSETS: u32 = 3;
    /// Importance position of each vertex (`u32`).
    pub const ORDER: u32 = 4;
    // Tags 5 and 6 (suffix cut bounds and their offsets) are legacy, ignored
    // on read. Never reuse them.
}

/// The frozen, queryable state of a hub labelling: the [`FlatEntryLabels`]
/// arena plus each vertex's importance position.
///
/// Generic over the [`Store`]: owned after a build, borrowed (zero-copy)
/// over the sections of a loaded index container — the merge-join query
/// kernel runs on either instantiation unchanged.
pub struct FrozenHubLabels<S: Store = Owned> {
    /// Frozen per-vertex labels, each sorted by hub order index.
    labels: FlatEntryLabels<S>,
    /// `order_of[v]` — importance position of vertex `v` (0 = most important).
    order_of: S::Slice<u32>,
}

/// A [`FrozenHubLabels`] borrowing its arenas from a loaded container.
pub type FrozenHubLabelsRef<'a> = FrozenHubLabels<Borrowed<'a>>;

impl<S: Store> FrozenHubLabels<S> {
    /// Assembles the frozen state, validating that the order array covers
    /// every labelled vertex and that every label is strictly sorted by hub
    /// id — the invariant the merge-join relies on; an unsorted label would
    /// silently miss common hubs, so a crafted file fails here instead.
    pub fn from_parts(
        labels: FlatEntryLabels<S>,
        order_of: S::Slice<u32>,
    ) -> Result<Self, DecodeError> {
        if order_of.len() != labels.num_vertices() {
            return Err(DecodeError::Malformed(
                "order array does not cover every vertex",
            ));
        }
        for v in 0..labels.num_vertices() as Vertex {
            if labels.hubs(v).windows(2).any(|w| w[0] >= w[1]) {
                return Err(DecodeError::Malformed("hub label not strictly sorted"));
            }
        }
        Ok(FrozenHubLabels { labels, order_of })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.num_vertices()
    }

    /// The frozen label arena.
    pub fn labels(&self) -> &FlatEntryLabels<S> {
        &self.labels
    }

    /// Hub ids of vertex `v`'s label (sorted ascending).
    #[inline]
    pub fn label_hubs(&self, v: Vertex) -> &[Vertex] {
        self.labels.hubs(v)
    }

    /// Distances of vertex `v`'s label, parallel to
    /// [`FrozenHubLabels::label_hubs`].
    #[inline]
    pub fn label_dists(&self, v: Vertex) -> &[Distance] {
        self.labels.dists(v)
    }

    /// Number of entries in vertex `v`'s label.
    #[inline]
    pub fn label_len(&self, v: Vertex) -> usize {
        self.labels.len_of(v)
    }

    /// Importance position of a vertex (0 = most important).
    #[inline]
    pub fn order_of(&self, v: Vertex) -> u32 {
        self.order_of[v as usize]
    }

    /// Size statistics (O(1): totals are fixed by the freeze step).
    pub fn stats(&self) -> HubLabelStats {
        HubLabelStats {
            total_entries: self.labels.total_entries(),
            avg_label_size: self.labels.avg_entries(),
            memory_bytes: self.labels.memory_bytes(),
        }
    }
}

impl<'a> FrozenHubLabels<Borrowed<'a>> {
    /// Zero-copy view of the labelling stored in a loaded container
    /// (little-endian hosts; see `Container::section_pods`).
    pub fn from_container(c: &'a Container) -> Result<Self, DecodeError> {
        let labels = FlatEntryLabels::from_parts(
            c.section_pods::<u32>(sec::HUBS)?,
            c.section_pods::<u64>(sec::DISTS)?,
            c.section_pods::<u32>(sec::OFFSETS)?,
        )?;
        FrozenHubLabels::from_parts(labels, c.section_pods::<u32>(sec::ORDER)?)
    }
}

impl<S: Store> std::fmt::Debug for FrozenHubLabels<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenHubLabels")
            .field("labels", &self.labels)
            .field("order_of", &&self.order_of[..])
            .finish()
    }
}

impl<S: Store> Clone for FrozenHubLabels<S>
where
    FlatEntryLabels<S>: Clone,
    S::Slice<u32>: Clone,
{
    fn clone(&self) -> Self {
        FrozenHubLabels {
            labels: self.labels.clone(),
            order_of: self.order_of.clone(),
        }
    }
}

/// A hub-labelling index.
///
/// Queries run entirely on the frozen [`FrozenHubLabels`] state: per-vertex
/// hub-id and distance columns are contiguous, and the merge-join advances
/// branch-free (`hc2l_graph::min_plus_merge`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HubLabelIndex {
    frozen: FrozenHubLabels,
}

impl HubLabelIndex {
    /// Builds the hub labelling for a graph. The vertex order is derived from
    /// a contraction hierarchy; label construction is a pruned Dijkstra from
    /// each vertex in importance order (pruned landmark labelling).
    pub fn build(g: &Graph) -> Self {
        let ch = ContractionHierarchy::build(g);
        Self::build_with_order(g, &ch.ordering.most_important_first())
    }

    /// Builds the labelling with an explicit vertex order (most important
    /// first). Exposed for tests and for experimenting with other orders.
    pub fn build_with_order(g: &Graph, order: &[Vertex]) -> Self {
        let n = g.num_vertices();
        assert_eq!(order.len(), n, "order must cover every vertex exactly once");
        let mut order_of = vec![u32::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(
                order_of[v as usize],
                u32::MAX,
                "duplicate vertex {v} in order"
            );
            order_of[v as usize] = i as u32;
        }

        // Construction-time scratch: nested per-vertex entry lists. The
        // pruning rule queries the partially built labels, so the nested
        // shape is convenient here; it is frozen into the flat arena once,
        // at the end.
        let mut labels: Vec<Vec<(Vertex, Distance)>> = vec![Vec::new(); n];
        // Scratch buffers reused across the pruned Dijkstra runs.
        let mut dist = vec![INFINITY; n];
        let mut touched: Vec<Vertex> = Vec::new();

        for (hub_idx, &hub) in order.iter().enumerate() {
            let hub_idx = hub_idx as u32;
            let mut heap: BinaryHeap<Reverse<(Distance, Vertex)>> = BinaryHeap::new();
            dist[hub as usize] = 0;
            touched.push(hub);
            heap.push(Reverse((0, hub)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v as usize] {
                    continue;
                }
                // Prune: if the existing labels already certify a distance no
                // larger than d between hub and v, v (and everything behind
                // it) is covered by more important hubs.
                if query_nested(&labels[hub as usize], &labels[v as usize]) <= d {
                    continue;
                }
                labels[v as usize].push((hub_idx, d));
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

        // Labels were filled in increasing hub index, so they are sorted;
        // freeze them into the flat query arena.
        HubLabelIndex {
            frozen: FrozenHubLabels {
                labels: FlatEntryLabels::freeze_pairs(&labels),
                order_of,
            },
        }
    }

    /// The frozen queryable state.
    pub fn frozen(&self) -> &FrozenHubLabels {
        &self.frozen
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.frozen.num_vertices()
    }

    /// The frozen label arena.
    pub fn labels(&self) -> &FlatEntryLabels {
        self.frozen.labels()
    }

    /// Hub ids of vertex `v`'s label (sorted ascending).
    #[inline]
    pub fn label_hubs(&self, v: Vertex) -> &[Vertex] {
        self.frozen.label_hubs(v)
    }

    /// Distances of vertex `v`'s label, parallel to [`Self::label_hubs`].
    #[inline]
    pub fn label_dists(&self, v: Vertex) -> &[Distance] {
        self.frozen.label_dists(v)
    }

    /// Number of entries in vertex `v`'s label.
    #[inline]
    pub fn label_len(&self, v: Vertex) -> usize {
        self.frozen.label_len(v)
    }

    /// Importance position of a vertex (0 = most important).
    pub fn order_of(&self, v: Vertex) -> u32 {
        self.frozen.order_of(v)
    }

    /// Size statistics (O(1): totals are fixed by the freeze step).
    pub fn stats(&self) -> HubLabelStats {
        self.frozen.stats()
    }
}

impl PersistentIndex for HubLabelIndex {
    const METHOD_TAG: u32 = method_tag::HL;

    fn write_sections(&self, w: &mut ContainerWriter) {
        let mut meta = MetaWriter::new();
        meta.retired(1); // held the build time
        w.push_section(sec::META, meta.finish());
        let (hubs, dists, offsets) = self.frozen.labels.parts();
        w.push_pods(sec::HUBS, hubs);
        w.push_pods(sec::DISTS, dists);
        w.push_pods(sec::OFFSETS, offsets);
        w.push_pods(sec::ORDER, &self.frozen.order_of);
    }

    fn read_sections(c: &Container) -> Result<Self, DecodeError> {
        let mut meta = MetaReader::new(c.section(sec::META)?);
        meta.skip(1)?;
        meta.finish()?;
        let labels = FlatEntryLabels::from_parts(
            c.read_pod_vec::<u32>(sec::HUBS)?,
            c.read_pod_vec::<u64>(sec::DISTS)?,
            c.read_pod_vec::<u32>(sec::OFFSETS)?,
        )?;
        Ok(HubLabelIndex {
            frozen: FrozenHubLabels::from_parts(labels, c.read_pod_vec::<u32>(sec::ORDER)?)?,
        })
    }
}

/// Merge-join of two *construction-time* labels (Equation 1 of the paper),
/// over the nested scratch representation.
fn query_nested(a: &[(Vertex, Distance)], b: &[(Vertex, Distance)]) -> Distance {
    let mut best = INFINITY;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let d = a[i].1 + b[j].1;
                if d < best {
                    best = d;
                }
                i += 1;
                j += 1;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::toy::paper_figure1;

    #[test]
    fn labels_are_sorted_by_hub_rank() {
        let g = paper_figure1();
        let index = HubLabelIndex::build(&g);
        for v in 0..16u32 {
            let hubs = index.label_hubs(v);
            let dists = index.label_dists(v);
            assert!(!hubs.is_empty());
            assert_eq!(hubs.len(), dists.len());
            for w in hubs.windows(2) {
                assert!(w[0] < w[1]);
            }
            // Every vertex's label ends with itself at distance zero.
            let own = hubs.iter().position(|&h| h == index.order_of(v));
            assert_eq!(own.map(|i| dists[i]), Some(0));
        }
    }

    #[test]
    fn canonical_order_matches_paper_label_sizes_up_to_pruning() {
        // With the exact total order of Example 3.1
        // (14 > 13 > 7 > 9 > 4 > 5 > 12 > 15 > 10 > 16 > 11 > 1 > 2 > 8 > 3 > 6),
        // the canonical hub labelling of Figure 1(b) has the sizes below. The
        // pruned landmark construction never stores *more* than the canonical
        // labelling (it may drop an entry when several shortest paths exist),
        // so its label sizes are bounded by the paper's.
        let g = paper_figure1();
        let order: Vec<Vertex> = [14u32, 13, 7, 9, 4, 5, 12, 15, 10, 16, 11, 1, 2, 8, 3, 6]
            .iter()
            .map(|v| v - 1)
            .collect();
        let index = HubLabelIndex::build_with_order(&g, &order);
        let canonical_sizes: [(u32, usize); 16] = [
            (14, 1),
            (13, 2),
            (7, 3),
            (9, 4),
            (4, 3),
            (5, 5),
            (12, 5),
            (15, 6),
            (10, 6),
            (16, 7),
            (11, 6),
            (1, 7),
            (2, 7),
            (8, 5),
            (3, 7),
            (6, 6),
        ];
        for (paper_id, size) in canonical_sizes {
            let got = index.label_len(paper_id - 1);
            assert!(
                got <= size && got >= 1,
                "label of paper vertex {paper_id}: got {got}, canonical {size}"
            );
        }
        // The most important vertex has a trivial label; the bottom ones do not.
        assert_eq!(index.label_len(13), 1);
        assert!(index.stats().total_entries >= 40);
    }

    #[test]
    fn duplicate_order_is_rejected() {
        let g = paper_figure1();
        let mut order: Vec<Vertex> = (0..16).collect();
        order[3] = 0;
        let result = std::panic::catch_unwind(|| HubLabelIndex::build_with_order(&g, &order));
        assert!(result.is_err());
    }

    #[test]
    fn stats_count_entries() {
        let g = paper_figure1();
        let index = HubLabelIndex::build(&g);
        let s = index.stats();
        assert_eq!(
            s.total_entries,
            (0..16).map(|v| index.label_len(v)).sum::<usize>()
        );
        assert!(s.avg_label_size >= 1.0);
        assert!(s.memory_bytes > 0);
    }

    #[test]
    fn container_round_trip_and_borrowed_view_agree() {
        let g = paper_figure1();
        let index = HubLabelIndex::build(&g);
        let mut w = ContainerWriter::new(HubLabelIndex::METHOD_TAG);
        index.write_sections(&mut w);
        let c = Container::from_bytes(&w.finish()).unwrap();
        let back = HubLabelIndex::read_sections(&c).unwrap();
        let view = FrozenHubLabels::from_container(&c).unwrap();
        for s in 0..16u32 {
            for t in 0..16u32 {
                assert_eq!(back.query(s, t), index.query(s, t));
                assert_eq!(view.query(s, t), index.query(s, t));
            }
        }
    }

    #[test]
    fn container_holds_only_the_label_and_order_sections() {
        let g = paper_figure1();
        let index = HubLabelIndex::build(&g);
        let mut w = ContainerWriter::new(HubLabelIndex::METHOD_TAG);
        index.write_sections(&mut w);
        let c = Container::from_bytes(&w.finish()).unwrap();
        let tags: Vec<u32> = c.specs().iter().map(|spec| spec.tag).collect();
        assert_eq!(
            tags,
            [sec::META, sec::HUBS, sec::DISTS, sec::OFFSETS, sec::ORDER]
        );
        let entries = index.stats().total_entries as u64;
        let len_of = |tag| c.specs().iter().find(|s| s.tag == tag).unwrap().len;
        assert_eq!(len_of(sec::HUBS), entries * 4);
        assert_eq!(len_of(sec::DISTS), entries * 8);
        assert_eq!(len_of(sec::OFFSETS), 17 * 4);
        assert_eq!(index.stats().memory_bytes as u64, entries * 12 + 17 * 4);
    }

    #[test]
    fn legacy_bound_sections_are_ignored_whatever_they_hold() {
        // Tags 5 and 6 held suffix cut bounds in older files. Readers never
        // look at them, so neither values nor lengths that fit no bound
        // table (an odd byte count, an empty payload) can fail a load.
        let g = paper_figure1();
        let index = HubLabelIndex::build(&g);
        for (bounds, offsets) in [(vec![0u8; 3], vec![]), (vec![0xFF; 64], vec![7u8; 5])] {
            let mut w = ContainerWriter::new(HubLabelIndex::METHOD_TAG);
            index.write_sections(&mut w);
            w.push_section(5, bounds);
            w.push_section(6, offsets);
            let c = Container::from_bytes(&w.finish()).unwrap();
            assert!(c.has_section(5) && c.has_section(6));
            let back = HubLabelIndex::read_sections(&c).expect("legacy tags are ignored");
            let view = FrozenHubLabels::from_container(&c).expect("legacy tags are ignored");
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
        // An order array that misses a vertex, or a label whose hubs are out
        // of order, fails both loaders with a typed error.
        let g = paper_figure1();
        let index = HubLabelIndex::build(&g);
        let (hubs, dists, offsets) = index.labels().parts();
        let order = &index.frozen.order_of;
        let mut unsorted = hubs.to_vec();
        let row = index.labels().range_of(0);
        assert!(row.len() >= 2);
        unsorted.swap(row.start, row.start + 1);
        for (hubs, order, why) in [
            (
                hubs.to_vec(),
                &order[..15],
                "order array does not cover every vertex",
            ),
            (unsorted, &order[..], "hub label not strictly sorted"),
        ] {
            let mut w = ContainerWriter::new(HubLabelIndex::METHOD_TAG);
            let mut meta = MetaWriter::new();
            meta.f64(0.0);
            w.push_section(sec::META, meta.finish());
            w.push_pods(sec::HUBS, &hubs);
            w.push_pods(sec::DISTS, dists);
            w.push_pods(sec::OFFSETS, offsets);
            w.push_pods(sec::ORDER, order);
            let c = Container::from_bytes(&w.finish()).unwrap();
            let want = Some(DecodeError::Malformed(why));
            assert_eq!(HubLabelIndex::read_sections(&c).err(), want);
            assert_eq!(FrozenHubLabels::from_container(&c).err(), want);
        }
    }
}
