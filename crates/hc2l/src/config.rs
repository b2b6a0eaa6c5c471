//! Construction parameters.

use serde::{Deserialize, Serialize};

/// Configuration of the HC2L index construction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Hc2lConfig {
    /// Balance parameter β ∈ (0, 0.5]. The paper selects 0.2 by default and
    /// sweeps 0.15–0.35 in Figure 7.
    pub beta: f64,
    /// Subgraphs with at most this many vertices are not bisected further;
    /// all their vertices become a single leaf "cut" with pairwise labels.
    pub leaf_threshold: usize,
    /// Enables the tail-pruning optimisation of Section 4.2.2. Disabling it
    /// reproduces the ablation the paper reports (index ~10-15% larger,
    /// construction ~20% faster).
    pub tail_pruning: bool,
    /// Repeatedly contract degree-one vertices before building the hierarchy
    /// (Section 4.2, "contract the graph by repeatedly removing degree-one
    /// vertices").
    pub contract_degree_one: bool,
    /// Number of worker threads. `1` is the sequential HC2L of the paper;
    /// larger values give the parallel variant HC2Lp. Scheduling only: the
    /// index is the same at every thread count, and containers do not store
    /// it.
    pub threads: usize,
    /// Subtrees smaller than this are always processed on the current thread
    /// even when `threads > 1`, to avoid spawning threads for tiny work.
    /// Scheduling only, like `threads`.
    pub parallel_grain: usize,
}

impl Default for Hc2lConfig {
    fn default() -> Self {
        Hc2lConfig {
            beta: 0.2,
            leaf_threshold: 4,
            tail_pruning: true,
            contract_degree_one: true,
            threads: 1,
            parallel_grain: 512,
        }
    }
}

impl Hc2lConfig {
    /// Sequential configuration with a specific balance parameter.
    pub fn with_beta(beta: f64) -> Self {
        Hc2lConfig {
            beta,
            ..Default::default()
        }
    }

    /// Parallel configuration (the paper's HC2Lp) using the given number of
    /// threads.
    pub fn parallel(threads: usize) -> Self {
        Hc2lConfig {
            threads: threads.max(1),
            ..Default::default()
        }
    }

    /// Disables tail pruning (ablation study).
    pub fn without_tail_pruning(mut self) -> Self {
        self.tail_pruning = false;
        self
    }

    /// Disables degree-one contraction.
    pub fn without_contraction(mut self) -> Self {
        self.contract_degree_one = false;
        self
    }

    /// Validates parameter ranges, panicking on nonsensical values.
    pub fn validate(&self) {
        assert!(
            self.beta > 0.0 && self.beta <= 0.5,
            "β must be in (0, 0.5], got {}",
            self.beta
        );
        assert!(
            self.leaf_threshold >= 1,
            "leaf threshold must be at least 1"
        );
        assert!(self.threads >= 1, "at least one thread is required");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = Hc2lConfig::default();
        assert!((c.beta - 0.2).abs() < 1e-12);
        assert!(c.tail_pruning);
        assert!(c.contract_degree_one);
        assert_eq!(c.threads, 1);
        assert_eq!(c.parallel_grain, 512);
        c.validate();
    }

    #[test]
    fn builders_compose() {
        let c = Hc2lConfig::parallel(8)
            .without_tail_pruning()
            .without_contraction();
        assert_eq!(c.threads, 8);
        assert!(!c.tail_pruning);
        assert!(!c.contract_degree_one);
        c.validate();
    }

    #[test]
    #[should_panic]
    fn invalid_beta_panics() {
        Hc2lConfig::with_beta(0.7).validate();
    }

    #[test]
    #[should_panic]
    fn zero_threads_panics() {
        let c = Hc2lConfig {
            threads: 0,
            ..Default::default()
        };
        c.validate();
    }
}
