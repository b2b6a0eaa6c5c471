//! Named synthetic dataset suite.
//!
//! The paper's Table 1 lists ten road networks from New York City (264k
//! vertices) up to the whole USA (24M vertices). Reproducing the experiments
//! at full scale requires the original DIMACS downloads and hours of
//! preprocessing; the suite here mirrors the *progression* of the table with
//! synthetic networks whose sizes grow by roughly the same factors, so every
//! experiment can be regenerated on a laptop. When the real datasets are
//! available on disk they can be loaded through [`crate::dimacs`] and passed
//! to the same harness.

use serde::{Deserialize, Serialize};

use crate::synthetic::{generate_multi_city, MultiCityConfig, RoadNetwork, RoadNetworkConfig};

/// How large the synthetic stand-ins should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuiteScale {
    /// A few hundred vertices per dataset — used by unit/integration tests.
    Tiny,
    /// Thousands of vertices — the default for `cargo bench`.
    Small,
    /// Tens of thousands of vertices — used by the `repro` binary for the
    /// headline tables; takes minutes to index.
    Medium,
}

impl SuiteScale {
    /// Multiplier applied to the base grid dimensions of each dataset.
    fn factor(self) -> usize {
        match self {
            SuiteScale::Tiny => 1,
            SuiteScale::Small => 3,
            SuiteScale::Medium => 8,
        }
    }
}

/// Specification of one synthetic dataset in the suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Short name, mirroring the paper's dataset codes (NY, BAY, ...).
    pub name: String,
    /// Human-readable description of the stand-in.
    pub region: String,
    /// The generator configuration. Single-city datasets use `city`,
    /// multi-city ones use `multi`.
    pub config: DatasetConfig,
}

/// Generator configuration variants.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DatasetConfig {
    /// One contiguous urban grid.
    City(RoadNetworkConfig),
    /// Several cities connected by corridors (continental-style).
    MultiCity(MultiCityConfig),
}

impl DatasetSpec {
    /// Generates the road network for this spec. Generation time and size
    /// go to the `HC2L_LOG` logger at `info` — the medium-scale suite takes
    /// minutes and this is the only progress signal `repro` emits per
    /// dataset.
    pub fn build(&self) -> RoadNetwork {
        let t0 = hc2l_obs::clock::now();
        let net = match &self.config {
            DatasetConfig::City(cfg) => cfg.generate(),
            DatasetConfig::MultiCity(cfg) => generate_multi_city(cfg),
        };
        hc2l_obs::info!(
            "generated dataset {} ({}): {} vertices, {} edges in {:.1}ms",
            self.name,
            self.region,
            net.num_vertices(),
            net.num_segments(),
            hc2l_obs::clock::ns_since(t0) as f64 / 1e6
        );
        net
    }

    /// Expected number of vertices (before corridor vertices are added).
    pub fn nominal_vertices(&self) -> usize {
        match &self.config {
            DatasetConfig::City(cfg) => cfg.rows * cfg.cols,
            DatasetConfig::MultiCity(cfg) => cfg.cities * cfg.city.rows * cfg.city.cols,
        }
    }
}

/// The standard dataset sweep, mirroring the paper's Table 1 progression.
/// The first datasets are single cities; the larger ones are multi-city maps
/// whose top-level cuts are tiny, like the NY dataset's top-level cut of 5
/// mentioned in the paper.
pub fn standard_suite(scale: SuiteScale) -> Vec<DatasetSpec> {
    let f = scale.factor();
    let city = |name: &str, region: &str, rows: usize, cols: usize, seed: u64| DatasetSpec {
        name: name.to_string(),
        region: region.to_string(),
        config: DatasetConfig::City(RoadNetworkConfig {
            rows: rows * f,
            cols: cols * f,
            seed,
            ..Default::default()
        }),
    };
    let multi = |name: &str, region: &str, cities: usize, rows: usize, cols: usize, seed: u64| {
        DatasetSpec {
            name: name.to_string(),
            region: region.to_string(),
            config: DatasetConfig::MultiCity(MultiCityConfig {
                cities,
                city: RoadNetworkConfig {
                    rows: rows * f,
                    cols: cols * f,
                    seed,
                    ..Default::default()
                },
                corridors_per_link: 2,
                corridor_hops: 8,
                seed,
            }),
        }
    };
    vec![
        city("NY-s", "synthetic stand-in for New York City", 14, 14, 101),
        city(
            "BAY-s",
            "synthetic stand-in for San Francisco Bay",
            15,
            15,
            102,
        ),
        city("COL-s", "synthetic stand-in for Colorado", 17, 17, 103),
        city("FLA-s", "synthetic stand-in for Florida", 22, 22, 104),
        multi("CAL-s", "synthetic stand-in for California", 2, 18, 18, 105),
        multi("E-s", "synthetic stand-in for Eastern USA", 3, 19, 19, 106),
        multi("W-s", "synthetic stand-in for Western USA", 4, 19, 19, 107),
        multi(
            "CTR-s",
            "synthetic stand-in for Central USA",
            5,
            21,
            21,
            108,
        ),
        multi(
            "USA-s",
            "synthetic stand-in for the whole USA",
            6,
            22,
            22,
            109,
        ),
        multi(
            "EUR-s",
            "synthetic stand-in for Western Europe",
            6,
            21,
            21,
            110,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightMode;
    use hc2l_graph::components::is_connected;

    #[test]
    fn suite_has_ten_datasets_with_increasing_size() {
        let suite = standard_suite(SuiteScale::Tiny);
        assert_eq!(suite.len(), 10);
        assert!(suite[0].nominal_vertices() < suite[9].nominal_vertices());
        let names: Vec<_> = suite.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names[0], "NY-s");
        assert_eq!(names[8], "USA-s");
    }

    #[test]
    fn tiny_suite_builds_connected_networks() {
        for spec in standard_suite(SuiteScale::Tiny).into_iter().take(5) {
            let net = spec.build();
            let g = net.graph(WeightMode::Distance);
            assert!(is_connected(&g), "{} must be connected", spec.name);
            assert!(g.num_vertices() >= spec.nominal_vertices());
        }
    }

    #[test]
    fn scales_increase_vertex_counts() {
        let tiny = &standard_suite(SuiteScale::Tiny)[0];
        let small = &standard_suite(SuiteScale::Small)[0];
        assert!(small.nominal_vertices() > tiny.nominal_vertices());
    }
}
