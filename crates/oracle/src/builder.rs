//! Construction configuration and the fluent [`OracleBuilder`].

use hc2l::Hc2lConfig;
use hc2l_graph::Graph;
use serde::{Deserialize, Serialize};

use crate::method::Method;
use crate::oracle::Oracle;
use crate::traits::DistanceOracle;

/// Configuration shared by every oracle construction.
///
/// [`Oracle::build`] dispatches on `method` and hands HC2L its
/// [`OracleConfig::hc2l`] (thread count included); the baselines have no
/// tunables.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Which backend [`Oracle::build`] constructs.
    pub method: Method,
    /// Construction parameters of the HC2L index (β, leaf threshold, tail
    /// pruning, degree-one contraction, build thread count).
    pub hc2l: Hc2lConfig,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig::new(Method::Hc2l)
    }
}

impl OracleConfig {
    /// Default configuration for a method.
    pub fn new(method: Method) -> Self {
        OracleConfig {
            method,
            hc2l: Hc2lConfig::default(),
        }
    }
}

/// Fluent construction of an [`Oracle`]:
///
/// ```
/// use hc2l_oracle::{DistanceOracle, Method, OracleBuilder};
/// use hc2l_graph::toy::grid_graph;
///
/// let g = grid_graph(4, 4);
/// let oracle = OracleBuilder::new(Method::H2h).build(&g);
/// assert_eq!(oracle.name(), "H2H");
/// assert_eq!(oracle.distance(0, 15), 6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OracleBuilder {
    config: OracleConfig,
}

impl OracleBuilder {
    /// Starts a builder for the given method with default parameters.
    pub fn new(method: Method) -> Self {
        OracleBuilder {
            config: OracleConfig::new(method),
        }
    }

    /// Sets the HC2L balance parameter β ∈ (0, 0.5].
    pub fn beta(mut self, beta: f64) -> Self {
        self.config.hc2l.beta = beta;
        self
    }

    /// Sets the HC2L build thread count (`1`, the default, is the paper's
    /// sequential HC2L; more gives HC2Lp and the identical index). The
    /// baselines build sequentially and ignore it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.hc2l.threads = threads.max(1);
        self
    }

    /// Replaces the full HC2L construction configuration — thread count
    /// included, so call [`OracleBuilder::threads`] after this, not before.
    pub fn hc2l_config(mut self, config: hc2l::Hc2lConfig) -> Self {
        self.config.hc2l = config;
        self
    }

    /// The assembled configuration.
    pub fn config(&self) -> &OracleConfig {
        &self.config
    }

    /// Builds the oracle over a graph.
    pub fn build(&self, g: &Graph) -> Oracle {
        Oracle::build(g, &self.config)
    }

    /// Loads a previously saved oracle from a sectioned index-container
    /// file, dispatching on the method tag stored in the file header — the
    /// serve-only counterpart of [`OracleBuilder::build`]. Construction
    /// parameters travel with the file, so no builder configuration is
    /// needed:
    ///
    /// ```no_run
    /// use hc2l_oracle::{DistanceOracle, OracleBuilder};
    ///
    /// let oracle = OracleBuilder::load(std::path::Path::new("paris.hc2l")).unwrap();
    /// let d = oracle.distance(0, 42);
    /// # let _ = d;
    /// ```
    pub fn load(path: &std::path::Path) -> Result<Oracle, hc2l_graph::PersistError> {
        Oracle::load(path)
    }

    /// Opens a previously saved oracle *in place*: the container file is
    /// memory-mapped (`hc2l_graph::container::Container::open_mmap`, with a
    /// buffered-read fallback) and queries run on zero-copy views of the
    /// mapping — no decode of the label arenas into fresh heap memory, and
    /// physical pages shared across every process serving the same file.
    /// The serving counterpart of [`OracleBuilder::load`]; the returned
    /// [`SharedOracle`](crate::SharedOracle) is `Send + Sync` and cheap to
    /// clone, so one open index fans out to N worker threads behind an
    /// `Arc`:
    ///
    /// ```no_run
    /// use hc2l_oracle::OracleBuilder;
    ///
    /// let oracle = OracleBuilder::open(std::path::Path::new("paris.hc2l")).unwrap();
    /// let d = oracle.distance(0, 42);
    /// # let _ = d;
    /// ```
    pub fn open(path: &std::path::Path) -> Result<crate::SharedOracle, hc2l_graph::PersistError> {
        crate::SharedOracle::open(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_settings() {
        let b = OracleBuilder::new(Method::Hc2l).beta(0.3).threads(8);
        assert_eq!(b.config().method, Method::Hc2l);
        assert!((b.config().hc2l.beta - 0.3).abs() < 1e-12);
        assert_eq!(b.config().hc2l.threads, 8);
    }

    #[test]
    fn default_build_is_sequential() {
        assert_eq!(OracleConfig::new(Method::Hc2l).hc2l.threads, 1);
    }

    #[test]
    fn zero_threads_is_clamped() {
        let b = OracleBuilder::new(Method::Hc2l).threads(0);
        assert_eq!(b.config().hc2l.threads, 1);
    }

    #[test]
    fn hc2l_config_replaces_the_thread_count() {
        let b = OracleBuilder::new(Method::Hc2l)
            .threads(4)
            .hc2l_config(Hc2lConfig::default());
        assert_eq!(b.config().hc2l.threads, 1);
    }
}
