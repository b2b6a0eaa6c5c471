//! Dataset summary statistics (the paper's Table 1).

use serde::{Deserialize, Serialize};

use hc2l_graph::pathutil::diameter_double_sweep;
use hc2l_graph::{Distance, Graph};

/// Summary row describing a dataset, mirroring Table 1 of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Free-text description of the region the dataset models.
    pub region: String,
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Lower bound on the diameter (double-sweep estimate), expressed in
    /// *hops over weighted edges* like the paper's `diam.` column.
    pub diameter: Distance,
    /// Average vertex degree.
    pub avg_degree: f64,
    /// Memory footprint of the graph in compressed-sparse-row form, in
    /// bytes (see `csr_bytes`).
    pub memory_bytes: usize,
}

impl DatasetSummary {
    /// Memory in mebibytes, for display.
    pub fn memory_mib(&self) -> f64 {
        self.memory_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Computes the summary for a dataset.
pub fn dataset_summary(name: &str, region: &str, g: &Graph) -> DatasetSummary {
    let diameter = if g.num_vertices() == 0 {
        0
    } else {
        diameter_double_sweep(g, 0)
    };
    DatasetSummary {
        name: name.to_string(),
        region: region.to_string(),
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
        diameter,
        avg_degree: g.average_degree(),
        memory_bytes: csr_bytes(g),
    }
}

/// Bytes of `g` in compressed-sparse-row form: `n + 1` `u64` row offsets,
/// then a `u32` target and a `u32` weight per directed edge.
fn csr_bytes(g: &Graph) -> usize {
    let half_edges: usize = g.vertices().map(|v| g.degree(v)).sum();
    (g.num_vertices() + 1) * 8 + half_edges * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::RoadNetworkConfig;
    use crate::weights::WeightMode;
    use hc2l_graph::toy::paper_figure1;

    #[test]
    fn summary_of_paper_example() {
        let g = paper_figure1();
        let s = dataset_summary("FIG1", "paper example", &g);
        assert_eq!(s.num_vertices, 16);
        assert_eq!(s.num_edges, 26);
        assert!(s.diameter >= 4);
        assert!(s.avg_degree > 3.0);
        // 17 row offsets of 8 bytes, then 52 directed edges of 4 + 4 bytes.
        assert_eq!(s.memory_bytes, 17 * 8 + 52 * 8);
    }

    #[test]
    fn summary_of_empty_and_edgeless_graphs() {
        let empty = dataset_summary("E", "", &Graph::with_vertices(0));
        assert_eq!((empty.diameter, empty.memory_bytes), (0, 8));
        let isolated = dataset_summary("I", "", &Graph::with_vertices(3));
        assert_eq!((isolated.diameter, isolated.memory_bytes), (0, 4 * 8));
    }

    #[test]
    fn summary_of_synthetic_city() {
        let net = RoadNetworkConfig::city(12, 12, 77).generate();
        let g = net.graph(WeightMode::Distance);
        let s = dataset_summary("CITY", "12x12 synthetic", &g);
        assert_eq!(s.num_vertices, 144);
        assert!(
            s.diameter > 1000,
            "diameter should be in metres, got {}",
            s.diameter
        );
    }
}
