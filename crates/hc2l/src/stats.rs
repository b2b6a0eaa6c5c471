//! Index statistics reported by the paper's evaluation tables.

use serde::{Deserialize, Serialize};

use hc2l_cut::HierarchyStats;

/// Size- and shape-related statistics of a built index (Tables 2, 3 and 5).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IndexStats {
    /// Number of vertices of the original graph.
    pub num_vertices: usize,
    /// Number of vertices remaining after degree-one contraction (the
    /// vertices that actually carry labels).
    pub core_vertices: usize,
    /// Fraction of vertices removed by the contraction.
    pub contraction_ratio: f64,
    /// Bytes of distance-label storage (Table 2's "Labelling Size").
    pub label_bytes: usize,
    /// Bytes of the per-vertex LCA bookkeeping (Table 3's "LCA Storage").
    pub lca_bytes: usize,
    /// Bytes of contraction bookkeeping (root / distance / parent per
    /// contracted vertex).
    pub contraction_bytes: usize,
    /// Total index footprint.
    pub total_bytes: usize,
    /// Average number of label entries per (core) vertex.
    pub avg_label_entries: f64,
    /// Hierarchy shape statistics (Table 5).
    pub hierarchy: HierarchyStats,
}
