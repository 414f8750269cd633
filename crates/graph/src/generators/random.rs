//! Erdős–Rényi G(n, m) generator, used as a structure-free control graph
//! in tests and property-based checks (uniform random graphs are where
//! hash partitioning's expected cut-size formulas hold exactly).

use crate::csr::Graph;
use crate::sampling::seeded_rng;
use crate::GraphBuilder;

/// Configuration for the [`erdos_renyi`] generator.
#[derive(Debug, Clone, Copy)]
pub struct ErdosRenyiConfig {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of directed edges to attempt (duplicates/self-loops dropped).
    pub edges: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ErdosRenyiConfig {
    fn default() -> Self {
        ErdosRenyiConfig { vertices: 1000, edges: 8000, seed: 0xE12D05 }
    }
}

/// Generates a uniform random directed graph with ~`edges` edges.
pub fn erdos_renyi(cfg: ErdosRenyiConfig) -> Graph {
    assert!(cfg.vertices >= 2, "need at least two vertices");
    let mut rng = seeded_rng(cfg.seed);
    let mut builder = GraphBuilder::with_capacity(cfg.edges);
    for _ in 0..cfg.edges {
        let src = rng.index(cfg.vertices) as u32;
        let dst = rng.index(cfg.vertices) as u32;
        builder.push_edge(src, dst);
    }
    builder.ensure_vertices(cfg.vertices).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_vertex_count() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 50, edges: 100, seed: 1 });
        assert_eq!(g.num_vertices(), 50);
    }

    #[test]
    fn er_edge_count_close_to_target() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 1000, edges: 5000, seed: 2 });
        assert!(g.num_edges() > 4500 && g.num_edges() <= 5000, "edges {}", g.num_edges());
    }

    #[test]
    fn er_is_deterministic() {
        let a = erdos_renyi(ErdosRenyiConfig::default());
        let b = erdos_renyi(ErdosRenyiConfig::default());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn er_degrees_are_concentrated() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 2000, edges: 20_000, seed: 3 });
        // Uniform random: max degree stays within a small multiple of avg.
        assert!((g.max_degree() as f64) < 6.0 * g.avg_degree());
    }
}
