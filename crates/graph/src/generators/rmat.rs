//! Recursive-matrix (R-MAT) generator — the Twitter stand-in.
//!
//! R-MAT with the classic `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`
//! parameterization produces the heavy-tailed degree distribution and
//! hub vertices characteristic of the Twitter follower graph (Table 3:
//! avg degree 35, max degree 2.9M). Scale is configurable so the
//! reproduction runs at laptop size.

use crate::csr::Graph;
use crate::sampling::seeded_rng;
use crate::GraphBuilder;

/// Configuration for the [`rmat`] generator.
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the number of vertices (n = 2^scale).
    pub scale: u32,
    /// Average out-degree; m = edge_factor * n edges are attempted.
    pub edge_factor: usize,
    /// Quadrant probabilities; must be positive and sum to ~1.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        // Graph500 parameters: strongly skewed, Twitter-like.
        RmatConfig { scale: 14, edge_factor: 16, a: 0.57, b: 0.19, c: 0.19, seed: 0x0781_77E4 }
    }
}

impl RmatConfig {
    /// The implied bottom-right quadrant probability `d = 1 - a - b - c`.
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Number of vertices `2^scale`.
    pub fn vertices(&self) -> usize {
        1usize << self.scale
    }
}

/// Generates an R-MAT graph.
///
/// Duplicate edges and self-loops produced by the recursive process are
/// dropped (the paper's datasets are simple graphs), so the final edge
/// count is slightly below `edge_factor * n`.
///
/// # Panics
/// Panics if the quadrant probabilities are not a valid distribution.
pub fn rmat(cfg: RmatConfig) -> Graph {
    let d = cfg.d();
    assert!(
        cfg.a > 0.0 && cfg.b >= 0.0 && cfg.c >= 0.0 && d >= 0.0,
        "invalid R-MAT probabilities a={} b={} c={} d={}",
        cfg.a,
        cfg.b,
        cfg.c,
        d
    );
    let n = cfg.vertices();
    let m = cfg.edge_factor * n;
    let mut rng = seeded_rng(cfg.seed);
    let mut builder = GraphBuilder::with_capacity(m);
    // Noise on the quadrant probabilities per level ("smoothing") avoids
    // the artificial staircase degree distribution of pure R-MAT.
    for _ in 0..m {
        let (mut x0, mut x1) = (0usize, n);
        let (mut y0, mut y1) = (0usize, n);
        for _ in 0..cfg.scale {
            let noise = 0.95 + 0.1 * rng.unit();
            let (a, b, c) = (cfg.a * noise, cfg.b, cfg.c);
            let total = a + b + c + d;
            let r = rng.unit() * total;
            let (right, down) = if r < a {
                (false, false)
            } else if r < a + b {
                (true, false)
            } else if r < a + b + c {
                (false, true)
            } else {
                (true, true)
            };
            let xm = (x0 + x1) / 2;
            let ym = (y0 + y1) / 2;
            if right {
                x0 = xm;
            } else {
                x1 = xm;
            }
            if down {
                y0 = ym;
            } else {
                y1 = ym;
            }
        }
        builder.push_edge(x0 as u32, y0 as u32);
    }
    builder.ensure_vertices(n).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RmatConfig {
        RmatConfig { scale: 10, edge_factor: 8, ..RmatConfig::default() }
    }

    #[test]
    fn rmat_vertex_count_is_power_of_two() {
        let g = rmat(small());
        assert_eq!(g.num_vertices(), 1024);
    }

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(small());
        let b = rmat(small());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn rmat_seed_changes_graph() {
        let a = rmat(small());
        let b = rmat(RmatConfig { seed: 99, ..small() });
        assert_ne!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn rmat_is_heavy_tailed() {
        let g = rmat(RmatConfig { scale: 12, edge_factor: 16, ..RmatConfig::default() });
        assert!(
            g.max_degree() as f64 > 20.0 * g.avg_degree(),
            "max {} should dwarf avg {}",
            g.max_degree(),
            g.avg_degree()
        );
    }

    #[test]
    fn rmat_has_no_self_loops_or_duplicates() {
        let g = rmat(small());
        let mut edges: Vec<_> = g.edges().collect();
        assert!(edges.iter().all(|e| !e.is_loop()));
        let before = edges.len();
        edges.dedup();
        assert_eq!(edges.len(), before);
    }

    #[test]
    #[should_panic(expected = "invalid R-MAT probabilities")]
    fn rmat_rejects_bad_probabilities() {
        rmat(RmatConfig { a: 0.9, b: 0.9, c: 0.9, ..small() });
    }
}
