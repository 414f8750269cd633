//! Experiment scale and the dataset registry.
//!
//! Table 3's datasets are multi-billion-edge artifacts; the reproduction
//! generates structural stand-ins at a configurable scale. `SGP_SCALE`
//! (`tiny` | `small` | `default` | `large`) selects how big.

use crate::error::SgpError;
use sgp_graph::generators::{
    powerlaw_cm, rmat, road_grid, snb_social, PowerLawConfig, RmatConfig, RoadConfig, SnbConfig,
};
use sgp_graph::stats::GraphClass;
use sgp_graph::{Graph, GraphStats};

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test size (CI, unit tests): thousands of edges.
    Tiny,
    /// Small laptop scale: tens of thousands of edges.
    Small,
    /// Default experiment scale: hundreds of thousands of edges.
    Default,
    /// Large: millions of edges (slow but richer tails).
    Large,
}

impl std::str::FromStr for Scale {
    type Err = SgpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "default" | "" => Ok(Scale::Default),
            "large" => Ok(Scale::Large),
            other => Err(SgpError::Config {
                what: "SGP_SCALE",
                value: other.to_string(),
                expected: "tiny|small|default|large",
            }),
        }
    }
}

impl Scale {
    /// Reads the scale from the `SGP_SCALE` environment variable,
    /// silently defaulting to [`Scale::Default`] on unset *or unknown*
    /// values. Prefer [`Scale::try_from_env`] in binaries so typos in
    /// `SGP_SCALE` fail loudly instead of running the wrong scale.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or(Scale::Default)
    }

    /// Reads the scale from the `SGP_SCALE` environment variable.
    /// Unset means [`Scale::Default`]; a set-but-unknown value is a
    /// [`SgpError::Config`].
    pub fn try_from_env() -> Result<Self, SgpError> {
        std::env::var("SGP_SCALE").unwrap_or_default().parse()
    }

    /// A scale-dependent multiplier with `Default` = 1.0.
    pub fn factor(&self) -> f64 {
        match self {
            Scale::Tiny => 0.05,
            Scale::Small => 0.25,
            Scale::Default => 1.0,
            Scale::Large => 4.0,
        }
    }
}

/// The four datasets of the paper's Table 3, as synthetic stand-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Twitter follower graph stand-in (heavy-tailed, R-MAT).
    Twitter,
    /// UK2007-05 web-graph stand-in (power-law configuration model).
    UkWeb,
    /// USA road network stand-in (perturbed lattice).
    UsaRoad,
    /// LDBC SNB SF-1000 friendship-graph stand-in (community social).
    LdbcSnb,
}

/// A Table 3 row for the *original* dataset, for paper-vs-measured
/// comparison in reports.
#[derive(Debug, Clone)]
pub struct PaperDatasetRow {
    /// Edge count reported by the paper.
    pub edges: &'static str,
    /// Vertex count reported by the paper.
    pub vertices: &'static str,
    /// "Avg / Max Degree" column.
    pub degrees: &'static str,
    /// "Type" column.
    pub kind: &'static str,
}

impl Dataset {
    /// All datasets in Table 3 order.
    pub fn all() -> &'static [Dataset] {
        &[Dataset::Twitter, Dataset::UkWeb, Dataset::UsaRoad, Dataset::LdbcSnb]
    }

    /// The datasets used by the offline-analytics experiments (Table 2).
    pub fn offline_set() -> &'static [Dataset] {
        &[Dataset::Twitter, Dataset::UkWeb, Dataset::UsaRoad]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Twitter => "Twitter",
            Dataset::UkWeb => "UK2007-05",
            Dataset::UsaRoad => "USA-Road",
            Dataset::LdbcSnb => "LDBC-SNB",
        }
    }

    /// The structural class the stand-in must reproduce.
    pub fn expected_class(&self) -> GraphClass {
        match self {
            Dataset::Twitter | Dataset::LdbcSnb => GraphClass::HeavyTailed,
            Dataset::UkWeb => GraphClass::PowerLaw,
            Dataset::UsaRoad => GraphClass::LowDegree,
        }
    }

    /// The original dataset's Table 3 row.
    pub fn paper_row(&self) -> PaperDatasetRow {
        match self {
            Dataset::Twitter => PaperDatasetRow {
                edges: "1.46B",
                vertices: "41M",
                degrees: "35 / 2.9M",
                kind: "Heavy Tailed",
            },
            Dataset::UkWeb => PaperDatasetRow {
                edges: "3.73B",
                vertices: "105M",
                degrees: "35.5 / 975K",
                kind: "Power-law",
            },
            Dataset::UsaRoad => PaperDatasetRow {
                edges: "58.3M",
                vertices: "23M",
                degrees: "2.5 / 9",
                kind: "Low-degree",
            },
            Dataset::LdbcSnb => PaperDatasetRow {
                edges: "3.6M kn", // LDBC SNB SF-1000 knows edges (Table 3 lists 3.6M x 447M persons)
                vertices: "447M",
                degrees: "124 / 3682",
                kind: "Heavy Tailed",
            },
        }
    }

    /// Generates the stand-in graph at the given scale. Deterministic:
    /// the same `(dataset, scale)` always yields the same graph.
    pub fn generate(&self, scale: Scale) -> Graph {
        let f = scale.factor();
        match self {
            Dataset::Twitter => {
                // R-MAT scale grows logarithmically with the factor.
                let rscale = (13.0 + f.log2()).round().clamp(9.0, 17.0) as u32;
                rmat(RmatConfig { scale: rscale, edge_factor: 16, ..RmatConfig::default() })
            }
            Dataset::UkWeb => powerlaw_cm(PowerLawConfig {
                vertices: (24_000.0 * f) as usize,
                avg_degree: 14.0,
                exponent: 0.85,
                seed: 0x1107_u64,
            }),
            Dataset::UsaRoad => {
                let side = ((160.0 * f.sqrt()) as usize).max(24);
                road_grid(RoadConfig { width: side, height: side, ..RoadConfig::default() })
            }
            Dataset::LdbcSnb => snb_social(SnbConfig {
                persons: (16_000.0 * f) as usize,
                communities: ((160.0 * f) as usize).max(8),
                avg_friends: 22.0,
                ..SnbConfig::default()
            }),
        }
    }

    /// Generates and summarizes the stand-in (one measured Table 3 row).
    pub fn stats(&self, scale: Scale) -> GraphStats {
        GraphStats::of(&self.generate(scale))
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dataset_generates_nonempty() {
        for &d in Dataset::all() {
            let g = d.generate(Scale::Tiny);
            assert!(g.num_vertices() > 100, "{d}: {}", g.num_vertices());
            assert!(g.num_edges() > 100, "{d}: {}", g.num_edges());
        }
    }

    #[test]
    fn stand_ins_match_expected_class() {
        for &d in Dataset::all() {
            let s = d.stats(Scale::Small);
            assert_eq!(
                s.classify(),
                d.expected_class(),
                "{d}: stats {s} classified {:?}",
                s.classify()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::Twitter.generate(Scale::Tiny);
        let b = Dataset::Twitter.generate(Scale::Tiny);
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn scale_orders_sizes() {
        let tiny = Dataset::UkWeb.generate(Scale::Tiny);
        let small = Dataset::UkWeb.generate(Scale::Small);
        assert!(tiny.num_edges() < small.num_edges());
    }

    #[test]
    fn scale_from_env_defaults() {
        // Do not set the variable: default expected. (Tests run in
        // parallel; avoid mutating the process environment.)
        if std::env::var("SGP_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Default);
        }
    }

    #[test]
    fn scale_parses_known_and_rejects_unknown() {
        assert_eq!("tiny".parse::<Scale>().ok(), Some(Scale::Tiny));
        assert_eq!("SMALL".parse::<Scale>().ok(), Some(Scale::Small));
        assert_eq!("default".parse::<Scale>().ok(), Some(Scale::Default));
        assert_eq!("".parse::<Scale>().ok(), Some(Scale::Default));
        assert_eq!("large".parse::<Scale>().ok(), Some(Scale::Large));
        let err = "huge".parse::<Scale>().unwrap_err().to_string();
        assert!(err.contains("SGP_SCALE") && err.contains("huge"), "{err}");
    }

    #[test]
    fn road_is_low_degree_even_at_tiny_scale() {
        let g = Dataset::UsaRoad.generate(Scale::Tiny);
        assert!(GraphStats::of(&g).max_degree <= 16);
    }
}
