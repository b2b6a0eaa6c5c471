//! Zero-copy serving: borrowed oracle views over a loaded index container.
//!
//! [`Oracle::load`](crate::Oracle::load) decodes a container's sections into
//! owned arenas — fine for a single process, but a serving deployment wants
//! to keep one memory-mapped copy of a (possibly multi-GB) index and let
//! every worker thread query it in place. This module provides that path:
//!
//! * [`FrozenView`] — the borrowed counterpart of the [`Oracle`] enum: any
//!   backend's `Frozen*Ref` view, dispatching on the method tag stored in a
//!   loaded [`Container`]. The slices point straight into the container's
//!   buffer; nothing is copied.
//! * [`SharedOracle`] — a self-contained, `Send + Sync` handle bundling an
//!   `Arc<Container>` with the [`FrozenView`] borrowing it, so the pair can
//!   be stored, cloned and shared across threads like an owned index.
//!   [`SharedOracle::open`] memory-maps the file (`Container::open_mmap`),
//!   falling back to a buffered read where mapping is unavailable.
//!
//! The query kernels are the *same* code that runs on owned indexes — every
//! backend implements them once on its `Frozen*<S>` type, generic over the
//! storage — so a `SharedOracle` answers bit-identically to the
//! [`Oracle`] that saved the file.

use std::path::Path;
use std::sync::Arc;

use hc2l::FrozenHc2lRef;
use hc2l_ch::FrozenChRef;
use hc2l_graph::container::{Container, DecodeError};
use hc2l_graph::{Distance, PersistError, QueryStats, Vertex};
use hc2l_h2h::FrozenH2hRef;
use hc2l_hl::FrozenHubLabelsRef;
use hc2l_phl::FrozenPhlLabelsRef;

use crate::method::Method;
use crate::oracle::Oracle;

/// A borrowed, read-only distance oracle over a loaded [`Container`]: the
/// zero-copy counterpart of the [`Oracle`] enum.
///
/// Obtained with [`FrozenView::from_container`]; every query runs on slices
/// of the container's buffer (heap or file mapping), so constructing one
/// costs only the backends' structural validation.
#[derive(Debug, Clone)]
pub enum FrozenView<'a> {
    /// Hierarchical Cut 2-Hop Labelling.
    Hc2l(FrozenHc2lRef<'a>),
    /// Hierarchical 2-Hop Index.
    H2h(FrozenH2hRef<'a>),
    /// Pruned Highway Labelling.
    Phl(FrozenPhlLabelsRef<'a>),
    /// Hub Labelling.
    Hl(FrozenHubLabelsRef<'a>),
    /// Contraction Hierarchies.
    Ch(FrozenChRef<'a>),
}

impl<'a> FrozenView<'a> {
    /// Builds the view matching the container's method tag, running the
    /// backend's structural validation (the same `from_parts` checks the
    /// owned load path uses, so a crafted file fails typed here too).
    pub fn from_container(c: &'a Container) -> Result<Self, DecodeError> {
        let method = Method::from_tag(c.method_tag()).ok_or(DecodeError::UnknownMethod {
            tag: c.method_tag(),
        })?;
        Ok(match method {
            Method::Hc2l => FrozenView::Hc2l(FrozenHc2lRef::from_container(c)?),
            Method::H2h => FrozenView::H2h(FrozenH2hRef::from_container(c)?),
            Method::Phl => FrozenView::Phl(FrozenPhlLabelsRef::from_container(c)?),
            Method::Hl => FrozenView::Hl(FrozenHubLabelsRef::from_container(c)?),
            Method::Ch => FrozenView::Ch(FrozenChRef::from_container(c)?),
        })
    }

    /// The method whose index this view serves.
    pub fn method(&self) -> Method {
        match self {
            FrozenView::Hc2l(_) => Method::Hc2l,
            FrozenView::H2h(_) => Method::H2h,
            FrozenView::Phl(_) => Method::Phl,
            FrozenView::Hl(_) => Method::Hl,
            FrozenView::Ch(_) => Method::Ch,
        }
    }

    /// Number of vertices of the indexed graph.
    pub fn num_vertices(&self) -> usize {
        match self {
            FrozenView::Hc2l(v) => v.num_vertices(),
            FrozenView::H2h(v) => v.num_vertices(),
            FrozenView::Phl(v) => v.num_vertices(),
            FrozenView::Hl(v) => v.num_vertices(),
            FrozenView::Ch(v) => v.num_vertices(),
        }
    }

    /// Exact point-to-point distance.
    #[inline]
    pub fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        match self {
            FrozenView::Hc2l(v) => v.query(s, t),
            FrozenView::H2h(v) => v.query(s, t),
            FrozenView::Phl(v) => v.query(s, t),
            FrozenView::Hl(v) => v.query(s, t),
            FrozenView::Ch(v) => v.query(s, t),
        }
    }

    /// Exact distance plus the shared per-query instrumentation record.
    pub fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        match self {
            FrozenView::Hc2l(v) => v.query_with_stats(s, t),
            FrozenView::H2h(v) => v.query_with_stats(s, t),
            FrozenView::Phl(v) => v.query_with_stats(s, t),
            FrozenView::Hl(v) => v.query_with_stats(s, t),
            FrozenView::Ch(v) => v.query_with_stats(s, t),
        }
    }

    /// Batched one-to-many query into a caller-provided buffer (amortising
    /// per-source work; CH has no batched kernel and falls back to pointwise
    /// upward searches).
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        match self {
            FrozenView::Hc2l(v) => v.one_to_many_into(s, targets, out),
            FrozenView::H2h(v) => v.one_to_many_into(s, targets, out),
            FrozenView::Phl(v) => v.one_to_many_into(s, targets, out),
            FrozenView::Hl(v) => v.one_to_many_into(s, targets, out),
            FrozenView::Ch(v) => {
                out.clear();
                out.extend(targets.iter().map(|&t| v.query(s, t)));
            }
        }
    }

    /// Allocating variant of [`FrozenView::one_to_many_into`].
    pub fn one_to_many(&self, s: Vertex, targets: &[Vertex]) -> Vec<Distance> {
        let mut out = Vec::new();
        self.one_to_many_into(s, targets, &mut out);
        out
    }
}

/// A shareable, read-only oracle serving queries straight out of a loaded
/// index container — the unit one serving process hands to N worker threads.
///
/// Internally this is an `Arc<Container>` (owned buffer or file mapping)
/// plus the [`FrozenView`] borrowing it. The view's lifetime is tied to the
/// container by construction: the `Arc` stored alongside keeps the buffer
/// alive (and at a stable address) for as long as any clone of this handle
/// exists, so the handle is safely `Send + Sync + 'static` and clones are
/// cheap (an `Arc` bump plus a few slice headers — no index data is copied).
///
/// ```no_run
/// use hc2l_oracle::SharedOracle;
/// use std::sync::Arc;
///
/// let oracle = Arc::new(SharedOracle::open(std::path::Path::new("paris.hc2l")).unwrap());
/// let workers: Vec<_> = (0..8)
///     .map(|_| {
///         let oracle = Arc::clone(&oracle);
///         std::thread::spawn(move || oracle.distance(0, 42))
///     })
///     .collect();
/// for w in workers {
///     w.join().unwrap();
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SharedOracle {
    // Field order matters for drop order only cosmetically (the view holds
    // plain slices with no `Drop`); correctness comes from the `Arc` below
    // outliving every use of the view through `&self`.
    view: FrozenView<'static>,
    container: Arc<Container>,
}

impl SharedOracle {
    /// Opens an index container by memory-mapping it
    /// ([`Container::open_mmap`]), falling back to a buffered read where
    /// mapping is unavailable, and builds the matching zero-copy view.
    pub fn open(path: &Path) -> Result<SharedOracle, PersistError> {
        SharedOracle::from_container(Container::open_mmap(path)?)
    }

    /// Wraps an already-loaded container.
    pub fn from_container(container: Container) -> Result<SharedOracle, PersistError> {
        let container = Arc::new(container);
        // SAFETY: the view borrows slices of the container's backing buffer.
        // That buffer lives on the heap (or in a file mapping) at a stable
        // address: moving or cloning the `Arc` never relocates it, and it is
        // freed only when the last `Arc` drops — which cannot happen while
        // this `SharedOracle` (holding one) is alive. The 'static view is
        // never exposed by value; every accessor reborrows it at the
        // lifetime of `&self`.
        let eternal: &'static Container = unsafe { &*Arc::as_ptr(&container) };
        let view = FrozenView::from_container(eternal).map_err(PersistError::Decode)?;
        Ok(SharedOracle { view, container })
    }

    /// The method whose index this oracle serves.
    pub fn method(&self) -> Method {
        self.view.method()
    }

    /// Display name of the served method ("HC2L", "H2H", ...).
    pub fn name(&self) -> &'static str {
        self.method().name()
    }

    /// Number of vertices of the indexed graph.
    pub fn num_vertices(&self) -> usize {
        self.view.num_vertices()
    }

    /// Size of the backing container file in bytes.
    pub fn index_bytes(&self) -> usize {
        self.container.file_len()
    }

    /// Whether queries are served out of a file mapping (as opposed to a
    /// heap buffer).
    pub fn is_mapped(&self) -> bool {
        self.container.is_mapped()
    }

    /// Exact point-to-point distance.
    #[inline]
    pub fn distance(&self, s: Vertex, t: Vertex) -> Distance {
        self.view.distance(s, t)
    }

    /// Exact distance plus the shared per-query instrumentation record.
    pub fn distance_with_stats(&self, s: Vertex, t: Vertex) -> (Distance, QueryStats) {
        self.view.distance_with_stats(s, t)
    }

    /// Batched one-to-many query into a caller-provided buffer.
    pub fn one_to_many_into(&self, s: Vertex, targets: &[Vertex], out: &mut Vec<Distance>) {
        self.view.one_to_many_into(s, targets, out)
    }

    /// Allocating variant of [`SharedOracle::one_to_many_into`].
    pub fn one_to_many(&self, s: Vertex, targets: &[Vertex]) -> Vec<Distance> {
        self.view.one_to_many(s, targets)
    }
}

/// Every queryable handle a serving process shares across worker threads
/// must be `Send + Sync`; assert it at compile time for the owned enum, the
/// shared handle, and each backend's frozen view (owned and borrowed).
#[allow(dead_code)]
fn assert_shareable() {
    fn check<T: Send + Sync>() {}
    check::<Oracle>();
    check::<SharedOracle>();
    check::<FrozenView<'_>>();
    check::<hc2l::FrozenHc2l>();
    check::<FrozenHc2lRef<'_>>();
    check::<hc2l_h2h::FrozenH2h>();
    check::<FrozenH2hRef<'_>>();
    check::<hc2l_phl::FrozenPhlLabels>();
    check::<FrozenPhlLabelsRef<'_>>();
    check::<hc2l_hl::FrozenHubLabels>();
    check::<FrozenHubLabelsRef<'_>>();
    check::<hc2l_ch::FrozenCh>();
    check::<FrozenChRef<'_>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OracleBuilder;
    use crate::traits::DistanceOracle;
    use hc2l_graph::toy::paper_figure1;

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hc2l-view-{tag}-{}.hc2l", std::process::id()))
    }

    #[test]
    fn shared_oracle_matches_builder_for_every_method() {
        let g = paper_figure1();
        for method in Method::ALL {
            let built = OracleBuilder::new(method).threads(2).build(&g);
            let path = scratch(method.name());
            built.save(&path).unwrap();
            let shared = SharedOracle::open(&path).unwrap();
            assert_eq!(shared.method(), method);
            assert_eq!(shared.name(), method.name());
            assert_eq!(shared.num_vertices(), 16);
            assert_eq!(
                shared.index_bytes(),
                std::fs::metadata(&path).unwrap().len() as usize
            );
            let targets: Vec<Vertex> = (0..16).collect();
            let mut buf = Vec::new();
            for s in 0..16u32 {
                shared.one_to_many_into(s, &targets, &mut buf);
                for t in 0..16u32 {
                    assert_eq!(
                        shared.distance(s, t),
                        built.distance(s, t),
                        "{method} ({s},{t})"
                    );
                    assert_eq!(buf[t as usize], built.distance(s, t));
                }
                let (d, stats) = shared.distance_with_stats(s, (s + 1) % 16);
                let (bd, bstats) = built.distance_with_stats(s, (s + 1) % 16);
                assert_eq!(d, bd);
                assert_eq!(stats.hubs_scanned, bstats.hubs_scanned);
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn shared_oracle_survives_cloning_and_threads() {
        let g = paper_figure1();
        let built = OracleBuilder::new(Method::Hc2l).build(&g);
        let path = scratch("threads");
        built.save(&path).unwrap();
        let shared = SharedOracle::open(&path).unwrap();
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(shared.is_mapped());
        // Clones are independently usable, including after the original and
        // the on-disk file are gone (the mapping holds the pages).
        let clone = shared.clone();
        drop(shared);
        std::fs::remove_file(&path).ok();
        let shared = std::sync::Arc::new(clone);
        let answers: Vec<_> = (0..4)
            .map(|i| {
                let o = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || o.distance(i, 15 - i))
            })
            .map(|h| h.join().unwrap())
            .collect();
        for (i, d) in answers.into_iter().enumerate() {
            assert_eq!(d, built.distance(i as Vertex, 15 - i as Vertex));
        }
    }

    #[test]
    fn open_buffered_agrees_with_mmap() {
        let g = paper_figure1();
        let built = OracleBuilder::new(Method::Hl).build(&g);
        let path = scratch("buffered");
        built.save(&path).unwrap();
        let mapped = SharedOracle::open(&path).unwrap();
        let buffered = SharedOracle::from_container(Container::open(&path).unwrap()).unwrap();
        assert!(!buffered.is_mapped());
        for s in 0..16u32 {
            for t in 0..16u32 {
                assert_eq!(mapped.distance(s, t), buffered.distance(s, t));
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
