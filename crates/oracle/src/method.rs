//! Runtime identification of the workspace's distance-oracle backends.

use hc2l_graph::container::method_tag;
use serde::{Deserialize, Serialize};

/// The distance-query methods compared in the paper's evaluation, plus CH
/// (which the paper discusses as the search-based state of the art).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Hierarchical Cut 2-Hop Labelling (this paper). Built with several
    /// threads (`OracleBuilder::threads`) it is the paper's HC2Lp, which
    /// produces the identical index.
    Hc2l,
    /// Hierarchical 2-Hop Index (tree-decomposition labelling).
    H2h,
    /// Pruned Highway Labelling.
    Phl,
    /// Hub Labelling (pruned landmark labelling over a CH order).
    Hl,
    /// Contraction Hierarchies (search-based baseline).
    Ch,
}

impl Method {
    /// Every backend, in the order the comparison examples print them.
    pub const ALL: [Method; 5] = [
        Method::Hc2l,
        Method::H2h,
        Method::Phl,
        Method::Hl,
        Method::Ch,
    ];

    /// The labelling methods the paper's main tables compare (CH is only
    /// used in auxiliary comparisons).
    pub const LABELLING: [Method; 4] = [Method::Hc2l, Method::H2h, Method::Phl, Method::Hl];

    /// The method tag stored in index-container headers
    /// (`hc2l_graph::container::method_tag`).
    pub fn tag(self) -> u32 {
        match self {
            Method::Hc2l => method_tag::HC2L,
            Method::H2h => method_tag::H2H,
            Method::Phl => method_tag::PHL,
            Method::Hl => method_tag::HL,
            Method::Ch => method_tag::CH,
        }
    }

    /// The method denoted by a container header tag, if any. The legacy
    /// parallel-build tag denotes HC2L: both builds produce one index.
    pub fn from_tag(tag: u32) -> Option<Method> {
        if tag == method_tag::HC2L_PARALLEL {
            return Some(Method::Hc2l);
        }
        Method::ALL.into_iter().find(|m| m.tag() == tag)
    }

    /// Display name used in generated tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            Method::Hc2l => "HC2L",
            Method::H2h => "H2H",
            Method::Phl => "PHL",
            Method::Hl => "HL",
            Method::Ch => "CH",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    /// Parses the display name (case-insensitive), for CLI flags.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "hc2l" => Ok(Method::Hc2l),
            "h2h" => Ok(Method::H2h),
            "phl" => Ok(Method::Phl),
            "hl" => Ok(Method::Hl),
            "ch" => Ok(Method::Ch),
            other => Err(format!(
                "unknown method '{other}' (expected one of hc2l, h2h, phl, hl, ch)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Method::Hc2l.name(), "HC2L");
        assert_eq!(Method::ALL.len(), 5);
        assert_eq!(Method::LABELLING.len(), 4);
    }

    #[test]
    fn tags_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::from_tag(m.tag()), Some(m));
        }
        assert_eq!(
            Method::from_tag(method_tag::HC2L_PARALLEL),
            Some(Method::Hc2l)
        );
        assert_eq!(Method::from_tag(0), None);
        assert_eq!(Method::from_tag(999), None);
    }

    #[test]
    fn parses_every_display_name() {
        for m in Method::ALL {
            assert_eq!(m.name().parse::<Method>().unwrap(), m);
        }
        assert!("dijkstra".parse::<Method>().is_err());
        assert!("hc2lp".parse::<Method>().is_err());
    }
}
