//! Dataset characteristics à la the paper's Table 3.

use crate::csr::Graph;

/// Structural classification used in Table 3's "Type" column and by the
/// decision tree of §6.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphClass {
    /// Heavy-tailed degree distribution (Twitter, LDBC SNB).
    HeavyTailed,
    /// Power-law degree distribution (UK2007-05 web graph).
    PowerLaw,
    /// Low-degree regular structure (USA-Road).
    LowDegree,
}

impl std::fmt::Display for GraphClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            GraphClass::HeavyTailed => "Heavy Tailed",
            GraphClass::PowerLaw => "Power-law",
            GraphClass::LowDegree => "Low-degree",
        })
    }
}

/// Summary statistics for a graph (one row of Table 3).
#[derive(Debug, Clone)]
pub struct GraphStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Average out-degree `m / n`.
    pub avg_degree: f64,
    /// Maximum total degree.
    pub max_degree: usize,
    /// Ratio max_degree / avg_degree — the skew indicator the decision
    /// tree branches on.
    pub skew: f64,
    /// Gini coefficient of the total-degree distribution in [0, 1]
    /// (0 = perfectly regular, → 1 = extremely skewed).
    pub degree_gini: f64,
    /// R² of the least-squares line through the log-log degree-rank
    /// plot. A *clean* power law (web graphs like UK2007-05) fits a
    /// straight line (R² → 1); heavy-tailed social graphs deviate —
    /// curvature in the body (Twitter/R-MAT) or a capped tail (LDBC
    /// SNB) pulls R² down. This is the paper's "Power-law" vs "Heavy
    /// Tailed" distinction made measurable.
    pub powerlaw_fit_r2: f64,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn of(g: &Graph) -> Self {
        let n = g.num_vertices();
        let m = g.num_edges();
        let avg = g.avg_degree();
        let max = g.max_degree();
        let mut degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        degrees.sort_unstable();
        let gini = gini(&degrees);
        let r2 = powerlaw_fit_r2(&degrees);
        GraphStats {
            vertices: n,
            edges: m,
            avg_degree: avg,
            max_degree: max,
            skew: if avg > 0.0 { max as f64 / (2.0 * avg) } else { 0.0 },
            degree_gini: gini,
            powerlaw_fit_r2: r2,
        }
    }

    /// Classifies the graph for the §6.4 decision tree:
    /// * **Low-degree** — bounded max degree or negligible skew (road
    ///   networks);
    /// * **Power-law** — skewed *and* the degree-rank plot is a clean
    ///   straight line in log-log space (web graphs);
    /// * **Heavy-tailed** — skewed with a bent rank plot (social
    ///   networks).
    pub fn classify(&self) -> GraphClass {
        if self.max_degree <= 16 || self.skew < 3.0 {
            GraphClass::LowDegree
        } else if self.powerlaw_fit_r2 > 0.95 {
            GraphClass::PowerLaw
        } else {
            GraphClass::HeavyTailed
        }
    }
}

/// R² of the least-squares fit of `ln(degree)` against `ln(rank)` over
/// the non-zero degrees (rank 1 = highest degree). 1.0 means a perfect
/// power law; sequences shorter than 3 return 0.0.
fn powerlaw_fit_r2(sorted_ascending: &[usize]) -> f64 {
    let degs: Vec<f64> =
        sorted_ascending.iter().rev().filter(|&&d| d > 0).map(|&d| d as f64).collect();
    if degs.len() < 3 {
        return 0.0;
    }
    let n = degs.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy, mut syy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (i, &d) in degs.iter().enumerate() {
        let x = ((i + 1) as f64).ln();
        let y = d.ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
        syy += y * y;
    }
    let cov = n * sxy - sx * sy;
    let varx = n * sxx - sx * sx;
    let vary = n * syy - sy * sy;
    if varx <= 0.0 || vary <= 0.0 {
        return 0.0; // constant degrees: no power-law shape at all
    }
    (cov * cov) / (varx * vary)
}

/// Gini coefficient of a sorted, non-negative sequence.
fn gini(sorted: &[usize]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = sorted.iter().map(|&d| d as f64).sum();
    if total == 0.0 {
        return 0.0;
    }
    let mut weighted = 0.0f64;
    for (i, &d) in sorted.iter().enumerate() {
        weighted += (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * d as f64;
    }
    weighted / (n as f64 * total)
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} avg={:.1} max={} ({})",
            self.vertices,
            self.edges,
            self.avg_degree,
            self.max_degree,
            self.classify()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        powerlaw_cm, road_grid, snb_social, PowerLawConfig, RoadConfig, SnbConfig,
    };
    use crate::GraphBuilder;

    #[test]
    fn stats_of_simple_graph() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(0, 2).add_edge(0, 3).build();
        let s = GraphStats::of(&g);
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.max_degree, 3);
    }

    #[test]
    fn gini_zero_for_regular() {
        assert!((gini(&[2, 2, 2, 2]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn gini_high_for_star() {
        let mut degs = vec![1usize; 99];
        degs.push(99);
        degs.sort_unstable();
        assert!(gini(&degs) > 0.4);
    }

    #[test]
    fn gini_empty_is_zero() {
        assert_eq!(gini(&[]), 0.0);
    }

    #[test]
    fn road_classifies_low_degree() {
        let g = road_grid(RoadConfig { width: 30, height: 30, ..RoadConfig::default() });
        assert_eq!(GraphStats::of(&g).classify(), GraphClass::LowDegree);
    }

    #[test]
    fn powerlaw_classifies_skewed() {
        let g = powerlaw_cm(PowerLawConfig {
            vertices: 3000,
            avg_degree: 10.0,
            exponent: 0.8,
            seed: 7,
        });
        let c = GraphStats::of(&g).classify();
        assert_ne!(c, GraphClass::LowDegree, "power-law graph must not classify as low-degree");
    }

    #[test]
    fn powerlaw_fit_r2_perfect_on_exact_power_law() {
        let degs: Vec<usize> =
            (1..=200usize).map(|r| (1000.0 / (r as f64).powf(0.8)).round() as usize).collect();
        let mut sorted = degs;
        sorted.sort_unstable();
        assert!(powerlaw_fit_r2(&sorted) > 0.98);
    }

    #[test]
    fn powerlaw_fit_r2_low_on_regular_degrees() {
        assert_eq!(powerlaw_fit_r2(&[3, 3, 3, 3, 3]), 0.0);
        assert_eq!(powerlaw_fit_r2(&[1]), 0.0);
    }

    #[test]
    fn snb_classifies_heavy_tailed_not_low_degree() {
        let g = snb_social(SnbConfig { persons: 3000, communities: 30, ..SnbConfig::default() });
        assert_ne!(GraphStats::of(&g).classify(), GraphClass::LowDegree);
    }
}
