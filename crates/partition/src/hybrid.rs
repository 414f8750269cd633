//! Hybrid-cut SGP (§4.3 of the paper): PowerLyra's hybrid random (`HCR`)
//! and Ginger (`HG`).
//!
//! PowerLyra "differentiates between high-degree and low-degree vertices;
//! it uses edge-cut partitioning for low-degree vertices while in-edges
//! of high-degree vertices are partitioned via vertex-cut". Concretely,
//! the *in-edges* of a low-degree vertex `v` are grouped on `v`'s own
//! partition (making its gather local), while the in-edges of a
//! high-degree vertex are scattered by hashing their *source* endpoint.
//!
//! Both run as vertex machines of the registry's table: hybrid random
//! (`HCR`) hashes every vertex to an owner (embarrassingly parallel,
//! like plain hash), Ginger (`HG`) places it with `GingerVertex`; at
//! seal time `place_hybrid_edges` routes the in-edges of low-degree
//! vertices to the *target*'s owner and those of high-degree vertices
//! to the *source*'s — the two-phase behaviour the paper notes is
//! "difficult for streaming data".
#![expect(
    clippy::indexing_slicing,
    reason = "the degree-threshold router indexes the same sized-k tables as its two delegate kernels and shares their id ranges"
)]

use crate::assignment::PartitionId;
use crate::config::PartitionerConfig;
use crate::edge_cut::{VertexStreamPartitioner, VertexStreamState};
use sgp_graph::stream::VertexRecord;
use sgp_graph::Graph;

/// Degree threshold separating low- from high-degree vertices. PowerLyra
/// exposes this as a user knob; the reproduction derives it from the
/// average degree by [`PartitionerConfig::ginger_threshold_factor`].
pub(crate) fn high_degree_threshold(g: &Graph, cfg: &PartitionerConfig) -> usize {
    ((g.avg_degree() * cfg.ginger_threshold_factor).ceil() as usize).max(1)
}

/// Ginger's phase-1 greedy as a [`VertexStreamPartitioner`], Eq. (8) of
/// the paper: a FENNEL-like greedy that places each vertex `v` (and its
/// in-edges) on the partition maximizing
/// `|N(v) ∩ P_i| − ½(|V_i| + (|V|/|E|)·|E_i|)`, balancing both vertex
/// and edge counts. Vertex counts come from the shared streaming state;
/// the edge-count term tracks the in-edges that travel with every vertex
/// this machine placed, which is private knowledge of the greedy (the
/// shared state counts vertices).
#[derive(Debug, Clone)]
pub(crate) struct GingerVertex {
    k: usize,
    nm_ratio: f64,
    vertex_cap: f64,
    in_degrees: Vec<usize>,
    edge_counts: Vec<usize>,
    /// Scratch neighbour histogram reused across vertices (DESIGN.md §13).
    hist: Vec<usize>,
}

impl GingerVertex {
    /// Creates the Ginger phase-1 machine for `g` (in-degrees are the
    /// a-priori knowledge Ginger shares with the offline formulation).
    pub(crate) fn new(cfg: &PartitionerConfig, g: &Graph) -> Self {
        let n = g.num_vertices();
        let m = g.num_edges().max(1);
        GingerVertex {
            k: cfg.k,
            nm_ratio: n as f64 / m as f64,
            vertex_cap: cfg.vertex_capacity(n).max(1.0) * 1.5, // soft guard only
            in_degrees: g.vertices().map(|v| g.in_degree(v)).collect(),
            edge_counts: vec![0; cfg.k],
            hist: Vec::new(),
        }
    }
}

impl VertexStreamPartitioner for GingerVertex {
    fn place(&mut self, rec: &VertexRecord<'_>, state: &VertexStreamState) -> PartitionId {
        state.neighbor_histogram_into(&rec.neighbors, self.k, &mut self.hist);
        let mut best = (f64::NEG_INFINITY, 0usize);
        for i in 0..self.k {
            if state.sizes[i] as f64 >= self.vertex_cap {
                continue;
            }
            let balance =
                0.5 * (state.sizes[i] as f64 + self.nm_ratio * self.edge_counts[i] as f64);
            let score = self.hist[i] as f64 - balance;
            if score > best.0 {
                best = (score, i);
            }
        }
        // In-edges travel with the vertex.
        self.edge_counts[best.1] += self.in_degrees[rec.vertex as usize];
        best.1 as PartitionId
    }

    fn snapshot_state(&self) -> Vec<(&'static str, Vec<u64>)> {
        // The edge-count term is placement-affecting private state, so a
        // snapshot that dropped it would diverge after restore.
        vec![("edge_counts", self.edge_counts.iter().map(|&c| c as u64).collect())]
    }

    fn restore_state(&mut self, key: &str, values: &[u64]) -> bool {
        // One count per partition, together at most the in-edges of the
        // whole graph.
        let m = self.in_degrees.iter().sum::<usize>() as u64;
        let total = values.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
        if key != "edge_counts" || values.len() != self.k || total.is_none_or(|t| t > m) {
            return false;
        }
        self.edge_counts = values.iter().map(|&c| c as usize).collect();
        true
    }
}

/// Shared hybrid edge placement: edge `(u, v)` goes to `owner[v]` when
/// `v` is low-degree (in-degree ≤ threshold), else to `owner[u]`
/// (PowerLyra hashes high-degree in-edges by source). Also returns how
/// many edges took the high-degree route — the hybrid-cut's
/// characteristic decision counter.
pub(crate) fn place_hybrid_edges(
    g: &Graph,
    k: usize,
    owner: &[PartitionId],
    threshold: usize,
) -> (Vec<PartitionId>, u64) {
    debug_assert!(owner.iter().all(|&p| (p as usize) < k));
    let mut edge_parts = Vec::with_capacity(g.num_edges());
    let mut high_degree_hits = 0u64;
    for e in g.edges() {
        let p = if g.in_degree(e.dst) <= threshold {
            owner[e.dst as usize]
        } else {
            high_degree_hits += 1;
            owner[e.src as usize]
        };
        edge_parts.push(p);
    }
    (edge_parts, high_degree_hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Partitioning;
    use crate::metrics;
    use crate::registry::{partition, Algorithm};
    use sgp_graph::generators::{rmat, road_grid, RmatConfig, RoadConfig};
    use sgp_graph::{GraphBuilder, StreamOrder};

    fn cfg(k: usize) -> PartitionerConfig {
        PartitionerConfig::new(k)
    }

    fn twitter_like() -> Graph {
        rmat(RmatConfig { scale: 11, edge_factor: 12, ..RmatConfig::default() })
    }

    /// HCR is a hash: the stream order cannot matter.
    fn hybrid_random(g: &Graph, cfg: &PartitionerConfig) -> Partitioning {
        partition(g, Algorithm::HybridRandom, cfg, StreamOrder::Natural)
    }

    fn ginger(g: &Graph, cfg: &PartitionerConfig, order: StreamOrder) -> Partitioning {
        partition(g, Algorithm::Ginger, cfg, order)
    }

    #[test]
    fn hybrid_random_low_degree_edges_follow_target() {
        // Star pointing *into* vertex 0 (high in-degree) plus a chain of
        // low-degree vertices.
        let mut b = GraphBuilder::new();
        for i in 1..=30u32 {
            b.push_edge(i, 0); // 0 is high in-degree
        }
        b.push_edge(31, 32);
        let g = b.build();
        let c = cfg(4);
        let p = hybrid_random(&g, &c);
        let owner = p.vertex_owner.as_ref().unwrap();
        // Low-degree target: edge (31,32) must sit on owner of 32.
        assert_eq!(p.edge_parts[g.edge_index(31, 32).unwrap()], owner[32]);
        // High-degree target: edge (5,0) must sit on owner of 5 (source).
        assert_eq!(p.edge_parts[g.edge_index(5, 0).unwrap()], owner[5]);
    }

    #[test]
    fn hybrid_random_is_deterministic() {
        let g = twitter_like();
        let c = cfg(8);
        assert_eq!(hybrid_random(&g, &c).edge_parts, hybrid_random(&g, &c).edge_parts);
    }

    #[test]
    fn ginger_beats_hybrid_random_on_replication() {
        let g = twitter_like();
        let c = cfg(8);
        let hcr = hybrid_random(&g, &c);
        let hg = ginger(&g, &c, StreamOrder::Random { seed: 3 });
        let (r_hcr, r_hg) =
            (metrics::replication_factor(&g, &hcr), metrics::replication_factor(&g, &hg));
        assert!(r_hg < r_hcr, "Ginger RF {r_hg} should beat hybrid random {r_hcr}");
    }

    #[test]
    fn ginger_beats_vcr_on_skewed_graph() {
        let g = twitter_like();
        let c = cfg(8);
        let vcr = partition(&g, Algorithm::VcrHash, &c, StreamOrder::Random { seed: 1 });
        let hg = ginger(&g, &c, StreamOrder::Random { seed: 1 });
        assert!(
            metrics::replication_factor(&g, &hg) < metrics::replication_factor(&g, &vcr),
            "hybrid should beat random vertex-cut on power-law graphs (§4.3)"
        );
    }

    #[test]
    fn ginger_edges_reasonably_balanced() {
        let g = twitter_like();
        let c = cfg(8);
        let p = ginger(&g, &c, StreamOrder::Random { seed: 5 });
        let imb = metrics::load_imbalance(&p.edges_per_partition());
        assert!(imb < 2.0, "Ginger edge imbalance {imb}");
    }

    #[test]
    fn hybrid_on_low_degree_graph_degenerates_to_edge_cut_grouping() {
        // Road networks have no high-degree vertices, so every edge
        // follows its target's owner — pure target-grouped edge-cut.
        let g = road_grid(RoadConfig { width: 20, height: 20, ..RoadConfig::default() });
        let c = cfg(4);
        let p = hybrid_random(&g, &c);
        let owner = p.vertex_owner.as_ref().unwrap();
        for (i, e) in g.edges().enumerate() {
            assert_eq!(p.edge_parts[i], owner[e.dst as usize]);
        }
    }

    #[test]
    fn ginger_assigns_every_vertex() {
        let g = twitter_like();
        let c = cfg(16);
        let p = ginger(&g, &c, StreamOrder::Bfs);
        let owner = p.vertex_owner.unwrap();
        assert_eq!(owner.len(), g.num_vertices());
        assert!(owner.iter().all(|&x| x < 16));
    }
}
