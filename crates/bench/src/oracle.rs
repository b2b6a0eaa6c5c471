//! Re-export of the unified oracle API from `hc2l-oracle`.
//!
//! The experiment runners used to maintain their own adapter layer here;
//! that role moved into the `hc2l-oracle` crate, where the
//! [`DistanceOracle`] trait is implemented by every backend directly. This
//! module keeps the benchmark-facing names stable and adds the one
//! convenience the runners want: building by `(method, graph, threads)`.

pub use hc2l_oracle::{DistanceOracle, Method, Oracle, OracleBuilder, OracleConfig, QueryStats};

/// Builds the index for `method` over `g`, using `threads` workers where the
/// method supports parallel construction (HC2L; more than one thread gives
/// the paper's HC2Lp).
pub fn build_oracle(method: Method, g: &hc2l_graph::Graph, threads: usize) -> Oracle {
    OracleBuilder::new(method).threads(threads).build(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc2l_graph::dijkstra_distance;
    use hc2l_graph::toy::paper_figure1;

    #[test]
    fn all_oracles_answer_exactly() {
        let g = paper_figure1();
        for method in Method::ALL {
            let oracle = build_oracle(method, &g, 2);
            for &(s, t) in &[(0u32, 7u32), (2, 9), (13, 14), (5, 5), (3, 12)] {
                assert_eq!(
                    oracle.distance(s, t),
                    dijkstra_distance(&g, s, t),
                    "{} wrong on ({s},{t})",
                    oracle.name()
                );
            }
            assert!(oracle.index_bytes() > 0);
            assert!(oracle.construction_seconds() >= 0.0);
        }
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(Method::Hc2l.name(), "HC2L");
        assert_eq!(Method::LABELLING.len(), 4);
    }
}
