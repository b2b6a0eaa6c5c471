//! Dynamic edge-weight updates for the HC2L-workspace distance oracles.
//!
//! The paper's indexes are static, but the serving scenario they exist for —
//! sub-microsecond road-network distances for millions of users — runs on
//! *live traffic*: edge weights change continuously while queries keep
//! flowing. The authors' follow-up work (*Stable Tree Labelling*, arXiv
//! 2501.17379) keeps the hierarchical structure fixed under weight changes
//! and patches only the distances; this crate applies the same principle to
//! the two backends whose structure separates cleanly from their metric:
//!
//! * **CH** ([`customize_ch`]) — the contraction *order* stays fixed; a
//!   weight batch replays it, re-contracting every vertex against the new
//!   metric. All the ordering work — priority evaluations and lazy
//!   re-prioritisations, each as expensive as a contraction — is skipped,
//!   which is where most of the construction time goes, and the witness
//!   searches that do re-run keep the upward graph as small as a fresh
//!   build's. A drastic batch the stored order does not suit aborts on a
//!   fill-in/work budget and falls back to a rebuild.
//! * **HC2L** ([`update_hc2l`]) — the balanced tree hierarchy stays fixed;
//!   the recursion walks the old and the re-weighted graph *in lockstep*
//!   down the tree the index's stored per-vertex bitstrings encode (so a
//!   loaded index relabels exactly like a built one), re-labelling only the
//!   nodes whose shortcut-enhanced subgraph actually changed and copying
//!   every label array of untouched subtrees verbatim. A single edge update
//!   dirties one root-to-leaf spine; everything else is a memcpy.
//!
//! Backends without such a separation (plain hub labelling, H2H, PHL) fall
//! back to a full rebuild behind the same [`WeightUpdate`] batch API — the
//! `hc2l-oracle` crate wires that up so callers never branch on the method.
//!
//! Both incremental paths are exactness-gated in this crate's tests against
//! Dijkstra on the re-weighted graph, and both are asserted to be faster
//! than a from-scratch rebuild for small batches.

pub mod ch_update;
pub mod hc2l_update;
pub mod update;

pub use ch_update::customize_ch;
pub use hc2l_update::update_hc2l;
pub use update::{apply_batch, UpdateReport, UpdateStrategy, WeightUpdate};
