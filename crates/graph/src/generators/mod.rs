//! Synthetic dataset generators standing in for the paper's graphs.
//!
//! The original study uses Twitter (heavy-tailed social network),
//! UK2007-05 (power-law web graph), USA-Road (low-degree, long-diameter
//! road network) and the LDBC SNB SF-1000 friendship graph (Table 3).
//! Those datasets are multi-billion-edge downloads; the reproduction
//! substitutes deterministic generators that preserve the *structural
//! properties the paper's findings depend on*:
//!
//! | Paper dataset | Generator | Preserved property |
//! |---|---|---|
//! | Twitter       | [`rmat`] | heavy-tailed degree distribution, hubs |
//! | UK2007-05     | [`powerlaw_cm`] | power-law degrees with higher skew |
//! | USA-Road      | [`road_grid`] | bounded degree (≤ 9 in Table 3 shape), long diameter |
//! | LDBC SNB      | [`snb_social`] | community structure + heavy-tailed friendships |
//!
//! Every generator is a pure function of its config (including the seed).
#![expect(
    clippy::indexing_slicing,
    reason = "generators index degree/target buffers they allocated to the requested graph size earlier in the same fn"
)]

mod random;
mod rmat;
mod road;
mod snb;

pub use random::{erdos_renyi, ErdosRenyiConfig};
pub use rmat::{rmat, RmatConfig};
pub use road::{road_grid, RoadConfig};
pub use snb::{snb_social, SnbConfig};

use crate::csr::Graph;
use crate::sampling::seeded_rng;
use crate::types::VertexId;
use crate::GraphBuilder;

/// Configuration for the power-law configuration-model generator
/// ([`powerlaw_cm`]), the UK2007-05 web-graph stand-in.
#[derive(Debug, Clone, Copy)]
pub struct PowerLawConfig {
    /// Number of vertices.
    pub vertices: usize,
    /// Target average out-degree.
    pub avg_degree: f64,
    /// Rank exponent γ ∈ (0, 1): the degree of the r-th most popular
    /// vertex scales as `r^(−γ)`, yielding a degree-distribution
    /// power-law exponent of `1 + 1/γ` (γ = 0.8 ⇒ ≈ 2.25, the regime of
    /// real web graphs).
    pub exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig { vertices: 20_000, avg_degree: 12.0, exponent: 0.8, seed: 0xDEC0DE }
    }
}

/// Configuration-model generator with power-law degrees on both sides.
///
/// Every vertex is assigned a popularity rank; out-degrees follow
/// `d(r) ∝ r^(−γ)` scaled to the requested mean, and targets are chosen
/// preferentially with the same rank weights — so the *in*-degree
/// distribution is power-law too, the property that DBH and HDRF exploit
/// (§4.2.2 of the paper).
pub fn powerlaw_cm(cfg: PowerLawConfig) -> Graph {
    assert!(cfg.vertices > 1, "need at least two vertices");
    assert!(
        cfg.exponent > 0.0 && cfg.exponent < 1.5,
        "rank exponent should be in (0, 1.5); degree exponent is 1 + 1/γ"
    );
    let n = cfg.vertices;
    let mut rng = seeded_rng(cfg.seed);

    // Identify popularity rank with vertex id, then shuffle so hubs are
    // spread over the id space (real crawls do not order by degree).
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    crate::sampling::shuffle(&mut perm, &mut rng);

    // Rank weights w(r) = (r+1)^(−γ), scaled so degrees sum to avg·n.
    let weights: Vec<f64> = (0..n).map(|r| ((r + 1) as f64).powf(-cfg.exponent)).collect();
    let wsum: f64 = weights.iter().sum();
    let scale = cfg.avg_degree * n as f64 / wsum;
    // Cap hub degrees at n/8 so dedup losses stay negligible.
    let cap = (n / 8).max(2) as f64;
    let degrees: Vec<usize> =
        weights.iter().map(|w| ((w * scale).round().max(1.0)).min(cap) as usize).collect();

    let alias = crate::sampling::AliasTable::new(&weights);
    let mut builder = GraphBuilder::with_capacity((cfg.avg_degree * n as f64) as usize);
    for r in 0..n {
        let src = perm[r];
        let mut placed = 0usize;
        let mut attempts = 0usize;
        // Distinct-target sampling with bounded retries; duplicates the
        // builder would drop anyway are simply not counted as placed.
        let budget = degrees[r];
        let max_attempts = budget * 4 + 16;
        let mut seen: Vec<VertexId> = Vec::with_capacity(budget.min(64));
        while placed < budget && attempts < max_attempts {
            attempts += 1;
            let dst = perm[alias.sample(&mut rng)];
            if dst == src || seen.contains(&dst) {
                continue;
            }
            if seen.len() < 64 {
                seen.push(dst);
            }
            builder.push_edge(src, dst);
            placed += 1;
        }
    }
    builder.ensure_vertices(n).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn powerlaw_is_deterministic() {
        let cfg = PowerLawConfig { vertices: 500, avg_degree: 4.0, exponent: 0.8, seed: 1 };
        let a = powerlaw_cm(cfg);
        let b = powerlaw_cm(cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn powerlaw_has_heavy_tail() {
        let g = powerlaw_cm(PowerLawConfig {
            vertices: 2000,
            avg_degree: 8.0,
            exponent: 0.85,
            seed: 2,
        });
        // Max degree should far exceed the average for a power-law graph.
        assert!(
            g.max_degree() as f64 > 10.0 * g.avg_degree(),
            "max {} avg {}",
            g.max_degree(),
            g.avg_degree()
        );
    }

    #[test]
    fn powerlaw_vertex_count_respected() {
        let g =
            powerlaw_cm(PowerLawConfig { vertices: 333, avg_degree: 3.0, exponent: 0.7, seed: 3 });
        assert_eq!(g.num_vertices(), 333);
    }
}
