//! Regeneration of the paper's Figures 6 and 7.

use hc2l::Hc2lConfig;
use hc2l_oracle::Method;
use hc2l_roadnet::{distance_buckets, random_pairs, WeightMode};

use crate::measure::{measure_build, measure_query_time};
use crate::report::Table;
use crate::tables::SuiteOptions;

/// Figure 6: query time per distance bucket Q1..Q10 for every method.
/// One table per dataset, series laid out as rows.
pub fn figure6(opts: &SuiteOptions, mode: WeightMode, per_bucket: usize) -> Vec<Table> {
    let mut tables = Vec::new();
    for spec in opts.datasets() {
        let g = spec.build().graph(mode);
        let buckets = distance_buckets(&g, per_bucket, 1000, 0xF16);
        let mut header: Vec<String> = vec!["Method".to_string()];
        for i in 1..=buckets.buckets.len() {
            header.push(format!("Q{i} [µs]"));
        }
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            &format!("Figure 6 — query time by distance bucket ({})", spec.name),
            &header_refs,
        );
        for method in Method::LABELLING {
            let build = measure_build(method, &g, 1);
            let mut row = vec![method.name().to_string()];
            for bucket in &buckets.buckets {
                if bucket.is_empty() {
                    row.push("-".to_string());
                } else {
                    let m = measure_query_time(&build.oracle, bucket);
                    row.push(format!("{:.3}", m.avg_micros));
                }
            }
            t.add_row(row);
        }
        tables.push(t);
    }
    tables
}

/// Figure 7: query time and average cut size under varying balance threshold
/// β ∈ {0.15, 0.20, 0.25, 0.30, 0.35}.
pub fn figure7(opts: &SuiteOptions, mode: WeightMode) -> Table {
    let betas = [0.15, 0.20, 0.25, 0.30, 0.35];
    let mut t = Table::new(
        "Figure 7 — HC2L query time and cut size vs. balance threshold β",
        &[
            "Dataset",
            "β",
            "Query [µs]",
            "Avg cut",
            "Max cut",
            "Height",
            "Label size",
        ],
    );
    for spec in opts.datasets() {
        let g = spec.build().graph(mode);
        let pairs = random_pairs(g.num_vertices(), opts.queries, 0xBE7A);
        for &beta in &betas {
            let index = hc2l::Hc2lIndex::build(&g, Hc2lConfig::with_beta(beta));
            let start = std::time::Instant::now();
            let mut checksum = 0u128;
            for p in &pairs {
                checksum = checksum.wrapping_add(index.query(p.source, p.target) as u128);
            }
            let micros = start.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64;
            std::hint::black_box(checksum);
            let stats = index.stats();
            t.add_row(vec![
                spec.name.clone(),
                format!("{beta:.2}"),
                format!("{micros:.3}"),
                format!("{:.1}", stats.hierarchy.avg_cut_size),
                stats.hierarchy.max_cut_size.to_string(),
                stats.hierarchy.height.to_string(),
                crate::report::fmt_bytes(stats.label_bytes),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_produces_one_table_per_dataset() {
        let mut opts = SuiteOptions::tiny();
        opts.num_datasets = 1;
        opts.queries = 100;
        let tables = figure6(&opts, WeightMode::Distance, 20);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].num_rows(), Method::LABELLING.len());
        assert!(tables[0].render().contains("Q10"));
    }

    #[test]
    fn figure7_sweeps_five_betas() {
        let mut opts = SuiteOptions::tiny();
        opts.num_datasets = 1;
        opts.queries = 100;
        let t = figure7(&opts, WeightMode::Distance);
        assert_eq!(t.num_rows(), 5);
        assert!(t.render().contains("0.20"));
    }
}
