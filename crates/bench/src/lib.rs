//! Benchmark harness for the HC2L reproduction.
//!
//! The paper's evaluation consists of five tables and two figures; this crate
//! regenerates each of them (on the synthetic dataset suite by default, or on
//! DIMACS files when provided):
//!
//! | Experiment | Content | Entry point |
//! |---|---|---|
//! | Table 1 | dataset summary | [`tables::table1`] |
//! | Table 2 | query time / label size / construction time (distance weights) | [`tables::table2`] |
//! | Table 3 | LCA storage and average hub size | [`tables::table3`] |
//! | Table 4 | same as Table 2 with travel-time weights | [`tables::table2`] with [`WeightMode::TravelTime`](hc2l_roadnet::WeightMode::TravelTime) |
//! | Table 5 | tree height and maximum cut width | [`tables::table5`] |
//! | Figure 6 | query time by distance bucket Q1..Q10 | [`figures::figure6`] |
//! | Figure 7 | query time / cut size vs. balance threshold β | [`figures::figure7`] |
//! | §5.1.2 ablation | effect of tail pruning | [`tables::ablation_tail_pruning`] |
//!
//! The `repro` binary drives all of them from the command line; the Criterion
//! benches under `benches/` give statistically robust timings for the query
//! hot paths.

pub mod figures;
pub mod json;
pub mod measure;
pub mod report;
pub mod tables;

pub use measure::{measure_query_time, BuildMeasurement, QueryMeasurement};
pub use report::Table;
