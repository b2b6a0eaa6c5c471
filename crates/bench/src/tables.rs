//! Regeneration of the paper's Tables 1–5 and the tail-pruning ablation.

use hc2l::Hc2lConfig;
use hc2l_graph::Graph;
use hc2l_oracle::{DistanceOracle, Method};
use hc2l_roadnet::{
    dataset_summary, random_pairs, standard_suite, DatasetSpec, SuiteScale, WeightMode,
};

use crate::measure::{measure_build, measure_query_time};
use crate::report::{fmt_bytes, fmt_seconds, Table};

/// Options controlling which datasets to run and how many queries to time.
#[derive(Debug, Clone, Copy)]
pub struct SuiteOptions {
    /// Scale of the synthetic stand-ins.
    pub scale: SuiteScale,
    /// How many of the ten suite datasets to run (they grow in size).
    pub num_datasets: usize,
    /// Number of random queries per dataset.
    pub queries: usize,
    /// HC2L build threads for the paper's HC2Lp construction column.
    pub threads: usize,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            scale: SuiteScale::Small,
            num_datasets: 4,
            queries: 2000,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(2),
        }
    }
}

impl SuiteOptions {
    /// A fast configuration used by tests.
    pub fn tiny() -> Self {
        SuiteOptions {
            scale: SuiteScale::Tiny,
            num_datasets: 2,
            queries: 200,
            threads: 2,
        }
    }

    /// The datasets selected by these options.
    pub fn datasets(&self) -> Vec<DatasetSpec> {
        let mut suite = standard_suite(self.scale);
        suite.truncate(self.num_datasets.max(1));
        suite
    }
}

/// Per-method measurements on one dataset.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Method name.
    pub method: &'static str,
    /// Mean query time in microseconds.
    pub avg_query_micros: f64,
    /// Label storage in bytes.
    pub label_bytes: usize,
    /// Auxiliary LCA storage in bytes.
    pub lca_bytes: usize,
    /// Construction wall-clock seconds.
    pub build_seconds: f64,
    /// Mean hub entries examined per query.
    pub avg_hubs: f64,
    /// Tree height, when the method has a tree hierarchy.
    pub tree_height: Option<u32>,
    /// Maximum cut width / bag size, when applicable.
    pub max_width: Option<usize>,
}

/// All measurements on one dataset.
#[derive(Debug, Clone)]
pub struct DatasetResult {
    /// Dataset name.
    pub name: String,
    /// Number of vertices / edges of the materialised graph.
    pub num_vertices: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// One row per method (HC2L first).
    pub rows: Vec<MethodRow>,
    /// Construction time of the parallel HC2Lp build.
    pub hc2lp_build_seconds: f64,
}

impl DatasetResult {
    /// The row of a given method.
    pub fn row(&self, method: &str) -> Option<&MethodRow> {
        self.rows.iter().find(|r| r.method == method)
    }
}

/// Runs the main comparison (Tables 2/3/4/5) for one weight mode.
pub fn run_comparison(mode: WeightMode, opts: &SuiteOptions) -> Vec<DatasetResult> {
    let mut results = Vec::new();
    for spec in opts.datasets() {
        let network = spec.build();
        let g = network.graph(mode);
        results.push(run_dataset(&spec.name, &g, opts, mode));
    }
    results
}

fn run_dataset(name: &str, g: &Graph, opts: &SuiteOptions, _mode: WeightMode) -> DatasetResult {
    let pairs = random_pairs(g.num_vertices(), opts.queries, 0xC0FFEE);
    let mut rows = Vec::new();
    let mut checksum: Option<u128> = None;
    for method in Method::LABELLING {
        let build = measure_build(method, g, 1);
        let q = measure_query_time(&build.oracle, &pairs);
        // All methods must agree on the workload; the checksum is a cheap
        // full-workload consistency guard.
        match checksum {
            None => checksum = Some(q.checksum),
            Some(c) => assert_eq!(
                c,
                q.checksum,
                "{} disagrees with the previous methods on {}",
                method.name(),
                name
            ),
        }
        rows.push(MethodRow {
            method: method.name(),
            avg_query_micros: q.avg_micros,
            label_bytes: build.oracle.label_bytes(),
            lca_bytes: build.oracle.lca_bytes(),
            build_seconds: build.build_seconds,
            avg_hubs: q.avg_hubs,
            tree_height: build.oracle.tree_height(),
            max_width: build.oracle.max_width(),
        });
    }
    // Parallel HC2L build (HC2Lp column of Tables 2/4).
    let hc2lp = measure_build(Method::Hc2l, g, opts.threads);
    DatasetResult {
        name: name.to_string(),
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
        rows,
        hc2lp_build_seconds: hc2lp.build_seconds,
    }
}

/// Table 1: dataset summary.
pub fn table1(opts: &SuiteOptions, mode: WeightMode) -> Table {
    let mut t = Table::new(
        &format!("Table 1 — dataset summary ({mode} weights, synthetic suite)"),
        &["Dataset", "|V|", "|E|", "diam.", "avg deg", "Memory"],
    );
    for spec in opts.datasets() {
        let g = spec.build().graph(mode);
        let s = dataset_summary(&spec.name, &spec.region, &g);
        t.add_row(vec![
            s.name.clone(),
            s.num_vertices.to_string(),
            s.num_edges.to_string(),
            s.diameter.to_string(),
            format!("{:.2}", s.avg_degree),
            fmt_bytes(s.memory_bytes),
        ]);
    }
    t
}

/// Tables 2 and 4: query time, labelling size and construction time.
pub fn table2(results: &[DatasetResult], mode: WeightMode) -> Table {
    let title = match mode {
        WeightMode::Distance => {
            "Table 2 — query time / labelling size / construction time (distance weights)"
        }
        WeightMode::TravelTime => {
            "Table 4 — query time / labelling size / construction time (travel-time weights)"
        }
    };
    let mut t = Table::new(
        title,
        &[
            "Dataset",
            "Method",
            "Query [µs]",
            "Label size",
            "Construction",
            "HC2Lp constr.",
        ],
    );
    for r in results {
        for row in &r.rows {
            t.add_row(vec![
                r.name.clone(),
                row.method.to_string(),
                format!("{:.3}", row.avg_query_micros),
                fmt_bytes(row.label_bytes),
                fmt_seconds(row.build_seconds),
                if row.method == "HC2L" {
                    fmt_seconds(r.hc2lp_build_seconds)
                } else {
                    "-".to_string()
                },
            ]);
        }
    }
    t
}

/// Table 3: LCA storage and average hub size.
pub fn table3(results: &[DatasetResult]) -> Table {
    let mut t = Table::new(
        "Table 3 — LCA storage and average hub size (AHS)",
        &[
            "Dataset", "LCA HC2L", "LCA H2H", "AHS HC2L", "AHS H2H", "AHS PHL", "AHS HL",
        ],
    );
    for r in results {
        let get = |m: &str| r.row(m);
        t.add_row(vec![
            r.name.clone(),
            get("HC2L")
                .map(|x| fmt_bytes(x.lca_bytes))
                .unwrap_or_default(),
            get("H2H")
                .map(|x| fmt_bytes(x.lca_bytes))
                .unwrap_or_default(),
            get("HC2L")
                .map(|x| format!("{:.0}", x.avg_hubs))
                .unwrap_or_default(),
            get("H2H")
                .map(|x| format!("{:.0}", x.avg_hubs))
                .unwrap_or_default(),
            get("PHL")
                .map(|x| format!("{:.0}", x.avg_hubs))
                .unwrap_or_default(),
            get("HL")
                .map(|x| format!("{:.0}", x.avg_hubs))
                .unwrap_or_default(),
        ]);
    }
    t
}

/// Table 5: tree height and maximum cut width.
pub fn table5(results: &[DatasetResult]) -> Table {
    let mut t = Table::new(
        "Table 5 — tree height and max cut size/width",
        &[
            "Dataset",
            "Height HC2L",
            "Height H2H",
            "MaxCut HC2L",
            "Width H2H",
        ],
    );
    for r in results {
        let hc2l = r.row("HC2L");
        let h2h = r.row("H2H");
        t.add_row(vec![
            r.name.clone(),
            hc2l.and_then(|x| x.tree_height)
                .map(|h| h.to_string())
                .unwrap_or_default(),
            h2h.and_then(|x| x.tree_height)
                .map(|h| h.to_string())
                .unwrap_or_default(),
            hc2l.and_then(|x| x.max_width)
                .map(|h| h.to_string())
                .unwrap_or_default(),
            h2h.and_then(|x| x.max_width)
                .map(|h| h.to_string())
                .unwrap_or_default(),
        ]);
    }
    t
}

/// Section 5.1.2's ablation: labelling size and construction time with and
/// without tail pruning.
pub fn ablation_tail_pruning(opts: &SuiteOptions, mode: WeightMode) -> Table {
    let mut t = Table::new(
        "Ablation — tail pruning (Section 5.1.2)",
        &[
            "Dataset",
            "Label (pruned)",
            "Label (no pruning)",
            "Size increase",
            "Build (pruned)",
            "Build (no pruning)",
        ],
    );
    for spec in opts.datasets() {
        let g = spec.build().graph(mode);
        let start = std::time::Instant::now();
        let pruned = hc2l::Hc2lIndex::build(&g, Hc2lConfig::default());
        let pruned_secs = start.elapsed().as_secs_f64();
        let start = std::time::Instant::now();
        let unpruned = hc2l::Hc2lIndex::build(&g, Hc2lConfig::default().without_tail_pruning());
        let unpruned_secs = start.elapsed().as_secs_f64();
        let pb = pruned.stats().label_bytes;
        let ub = unpruned.stats().label_bytes;
        t.add_row(vec![
            spec.name.clone(),
            fmt_bytes(pb),
            fmt_bytes(ub),
            format!("{:+.1}%", (ub as f64 / pb as f64 - 1.0) * 100.0),
            fmt_seconds(pruned_secs),
            fmt_seconds(unpruned_secs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_comparison_produces_all_tables() {
        let opts = SuiteOptions::tiny();
        let results = run_comparison(WeightMode::Distance, &opts);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.rows.len(), Method::LABELLING.len());
            // HC2L must have the smallest per-query hub count among labelling
            // methods (that is the paper's core claim about search space).
            let hc2l_hubs = r.row("HC2L").unwrap().avg_hubs;
            let hl_hubs = r.row("HL").unwrap().avg_hubs;
            assert!(hc2l_hubs <= hl_hubs * 1.5 + 5.0);
        }
        let t2 = table2(&results, WeightMode::Distance);
        assert_eq!(t2.num_rows(), 2 * Method::LABELLING.len());
        let t3 = table3(&results);
        let t5 = table5(&results);
        assert_eq!(t3.num_rows(), 2);
        assert_eq!(t5.num_rows(), 2);
        assert!(t2.render().contains("HC2L"));
    }

    #[test]
    fn table1_renders_every_dataset() {
        let opts = SuiteOptions::tiny();
        let t = table1(&opts, WeightMode::Distance);
        assert_eq!(t.num_rows(), 2);
        assert!(t.render().contains("NY-s"));
    }

    #[test]
    fn ablation_reports_both_configurations() {
        let opts = SuiteOptions::tiny();
        let t = ablation_tail_pruning(&opts, WeightMode::Distance);
        assert_eq!(t.num_rows(), 2);
        assert!(t.render().contains('%'));
    }
}
