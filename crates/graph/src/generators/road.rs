//! Road-network generator — the USA-Road stand-in.
//!
//! USA-Road (Table 3) is a low-degree graph (avg 2.5, max 9) with a
//! regular grid-like structure and a long diameter; this is the dataset
//! on which edge-cut SGP (LDG/FENNEL) wins in the paper. A perturbed 2-D
//! lattice has exactly those properties: bounded degree, strong locality,
//! diameter Θ(√n).

use crate::csr::Graph;
use crate::sampling::seeded_rng;
use crate::GraphBuilder;

/// Configuration for the [`road_grid`] generator.
#[derive(Debug, Clone, Copy)]
pub struct RoadConfig {
    /// Grid width (number of columns).
    pub width: usize,
    /// Grid height (number of rows).
    pub height: usize,
    /// Fraction of lattice edges randomly removed (road networks are not
    /// complete grids). Kept modest so the graph stays mostly connected.
    pub removal_rate: f64,
    /// Fraction of cells that get a diagonal "shortcut" edge, bumping max
    /// degree above 4 like highway interchanges do.
    pub diagonal_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RoadConfig {
    fn default() -> Self {
        RoadConfig { width: 160, height: 160, removal_rate: 0.12, diagonal_rate: 0.05, seed: 0x0AD }
    }
}

impl RoadConfig {
    /// Number of vertices `width * height`.
    pub fn vertices(&self) -> usize {
        self.width * self.height
    }
}

/// Generates a perturbed-lattice road network. Edges are bidirectional
/// (both directions are materialized), matching the undirected DIMACS
/// road graphs used by the paper.
pub fn road_grid(cfg: RoadConfig) -> Graph {
    assert!(cfg.width >= 2 && cfg.height >= 2, "grid must be at least 2x2");
    assert!((0.0..1.0).contains(&cfg.removal_rate), "removal_rate must be in [0,1)");
    assert!((0.0..=1.0).contains(&cfg.diagonal_rate), "diagonal_rate must be in [0,1]");
    let mut rng = seeded_rng(cfg.seed);
    let id = |x: usize, y: usize| (y * cfg.width + x) as u32;
    let mut builder = GraphBuilder::with_capacity(cfg.vertices() * 5);
    for y in 0..cfg.height {
        for x in 0..cfg.width {
            if x + 1 < cfg.width && rng.unit() >= cfg.removal_rate {
                builder.push_edge(id(x, y), id(x + 1, y));
                builder.push_edge(id(x + 1, y), id(x, y));
            }
            if y + 1 < cfg.height && rng.unit() >= cfg.removal_rate {
                builder.push_edge(id(x, y), id(x, y + 1));
                builder.push_edge(id(x, y + 1), id(x, y));
            }
            if x + 1 < cfg.width && y + 1 < cfg.height && rng.unit() < cfg.diagonal_rate {
                builder.push_edge(id(x, y), id(x + 1, y + 1));
                builder.push_edge(id(x + 1, y + 1), id(x, y));
            }
        }
    }
    builder.ensure_vertices(cfg.vertices()).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RoadConfig {
        RoadConfig { width: 20, height: 20, ..RoadConfig::default() }
    }

    #[test]
    fn road_vertex_count() {
        let g = road_grid(small());
        assert_eq!(g.num_vertices(), 400);
    }

    #[test]
    fn road_is_low_degree() {
        let g = road_grid(small());
        // 4 lattice directions + up to 2 diagonals, counted in+out.
        assert!(g.max_degree() <= 12, "max degree {}", g.max_degree());
        assert!(g.avg_degree() < 5.0);
    }

    #[test]
    fn road_edges_are_bidirectional() {
        let g = road_grid(small());
        for e in g.edges() {
            assert!(g.has_edge(e.dst, e.src), "missing reverse of {e}");
        }
    }

    #[test]
    fn road_is_deterministic() {
        let a = road_grid(small());
        let b = road_grid(small());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn road_has_long_diameter_shape() {
        // Sanity: a lattice keeps most vertices far from vertex 0; check
        // BFS from corner reaches depth >= width/2 on an intact-ish grid.
        let g = road_grid(RoadConfig {
            removal_rate: 0.0,
            diagonal_rate: 0.0,
            width: 16,
            height: 16,
            seed: 1,
        });
        let mut dist = vec![usize::MAX; g.num_vertices()];
        let mut q = std::collections::VecDeque::new();
        dist[0] = 0;
        q.push_back(0u32);
        let mut max_d = 0;
        while let Some(v) = q.pop_front() {
            for w in g.out_neighbors(v) {
                if dist[*w as usize] == usize::MAX {
                    dist[*w as usize] = dist[v as usize] + 1;
                    max_d = max_d.max(dist[*w as usize]);
                    q.push_back(*w);
                }
            }
        }
        assert!(max_d >= 30, "lattice diameter should be ~w+h, got {max_d}");
    }

    #[test]
    #[should_panic(expected = "grid must be at least 2x2")]
    fn road_rejects_degenerate_grid() {
        road_grid(RoadConfig { width: 1, height: 5, ..RoadConfig::default() });
    }
}
