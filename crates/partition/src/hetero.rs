//! Heterogeneous-cluster extensions (the paper's Appendix A).
//!
//! "The algorithms discussed so far assume a homogeneous cluster where
//! each machine has identical resources. LeBeane et al. propose an
//! extension to the vertex-cut SGP algorithms [...] that takes cluster
//! heterogeneity into consideration. Similarly, Xu et al. propose
//! Balanced Min-Increased as an edge-cut SGP algorithm that assigns each
//! arriving vertex u to a partition that minimizes the marginal cost
//! under balance constraints."
//!
//! This module provides both flavours: [`HeteroLdg`] (capacity-weighted
//! LDG, the BMI-style edge-cut variant) and [`HeteroHdrf`]
//! (capacity-weighted HDRF, the LeBeane-style vertex-cut variant).
//! A machine with weight 2.0 is expected to host twice the load of a
//! machine with weight 1.0.

use crate::assignment::PartitionId;
use crate::config::PartitionerConfig;
use crate::edge_cut::{VertexStreamPartitioner, VertexStreamState};
use crate::vertex_cut::{hdrf_score_column, EdgeStreamPartitioner, EdgeStreamState};
use sgp_graph::stream::VertexRecord;
use sgp_graph::Edge;

/// Relative capacities of a heterogeneous cluster.
#[derive(Debug, Clone)]
pub struct ClusterProfile {
    /// Per-partition capacity shares, normalized to sum 1.
    shares: Vec<f64>,
}

impl ClusterProfile {
    /// Builds a profile from raw capacity weights (cores, memory, …).
    ///
    /// # Panics
    /// Panics if `weights` is empty or any weight is non-positive.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one machine");
        assert!(weights.iter().all(|&w| w > 0.0), "capacities must be positive");
        let total: f64 = weights.iter().sum();
        ClusterProfile { shares: weights.iter().map(|w| w / total).collect() }
    }

    /// A homogeneous profile of `k` equal machines.
    pub fn homogeneous(k: usize) -> Self {
        Self::new(&vec![1.0; k])
    }

    /// Number of machines.
    pub fn k(&self) -> usize {
        self.shares.len()
    }

    /// The capacity share of machine `i` (sums to 1 over machines).
    pub fn share(&self, i: usize) -> f64 {
        self.shares[i]
    }

    /// Absolute capacity of machine `i` for a total load of `total`
    /// elements with slack β.
    pub fn capacity(&self, i: usize, total: usize, slack: f64) -> f64 {
        (self.shares[i] * total as f64 * slack).max(1.0)
    }
}

/// Capacity-weighted LDG: Eq. (4) with a per-partition capacity
/// `C_i = β·n·share_i` instead of the uniform `β·n/k`.
#[derive(Debug, Clone)]
pub struct HeteroLdg {
    profile: ClusterProfile,
    capacities: Vec<f64>,
    /// Scratch neighbour histogram reused across vertices (DESIGN.md §13).
    hist: Vec<usize>,
}

impl HeteroLdg {
    /// Creates the partitioner for a graph with `n` vertices.
    ///
    /// # Panics
    /// Panics if the profile size differs from `cfg.k`.
    pub fn new(cfg: &PartitionerConfig, profile: ClusterProfile, n: usize) -> Self {
        assert_eq!(profile.k(), cfg.k, "profile must cover every partition");
        let capacities = (0..cfg.k).map(|i| profile.capacity(i, n, cfg.balance_slack)).collect();
        HeteroLdg { profile, capacities, hist: Vec::new() }
    }
}

impl VertexStreamPartitioner for HeteroLdg {
    fn place(&mut self, rec: &VertexRecord, state: &VertexStreamState) -> PartitionId {
        let k = self.profile.k();
        state.neighbor_histogram_into(&rec.neighbors, k, &mut self.hist);
        let mut best: Option<(f64, f64, usize)> = None; // (score, fill for tie-break, index)
        for (i, &h) in self.hist.iter().enumerate() {
            let size = state.sizes[i] as f64;
            if size >= self.capacities[i] {
                continue;
            }
            let fill = size / self.capacities[i];
            // +1 smoothing keeps capacity-seeking behaviour alive for
            // vertices with no placed neighbours.
            let score = (h as f64 + 1.0) * (1.0 - fill);
            let candidate = (score, fill, i);
            best = Some(match best {
                None => candidate,
                Some(b) if score > b.0 + 1e-12 || ((score - b.0).abs() <= 1e-12 && fill < b.1) => {
                    candidate
                }
                Some(b) => b,
            });
        }
        best.map(|(_, _, i)| i as PartitionId).unwrap_or_else(|| {
            // Everything at capacity: relative least-filled machine.
            (0..k)
                .min_by(|&a, &b| {
                    let fa = state.sizes[a] as f64 / self.capacities[a];
                    let fb = state.sizes[b] as f64 / self.capacities[b];
                    // sgp-lint: allow(no-panic-in-lib): capacities are validated positive at construction, so the fill ratios are finite
                    fa.partial_cmp(&fb).expect("finite fill")
                })
                // sgp-lint: allow(no-panic-in-lib): 0..k is non-empty because PartitionerConfig::new asserts k >= 1
                .expect("k >= 1") as PartitionId
        })
    }

    fn name(&self) -> &'static str {
        "hLDG"
    }
}

/// Capacity-weighted HDRF: Eq. (7) with the balance term computed on the
/// *relative fill* `|e(P_i)| / C_i` of each machine. The score column
/// comes from HDRF's own builder; the fold is a strict `>` scan with no
/// tie epsilon.
#[derive(Debug, Clone)]
pub struct HeteroHdrf {
    lambda: f64,
    capacities: Vec<f64>,
    /// Scratch score column reused across edges (DESIGN.md §13).
    scores: Vec<f64>,
}

impl HeteroHdrf {
    /// Creates the partitioner for a graph with `m` edges.
    ///
    /// # Panics
    /// Panics if the profile size differs from `cfg.k`.
    pub fn new(cfg: &PartitionerConfig, profile: ClusterProfile, m: usize) -> Self {
        assert_eq!(profile.k(), cfg.k, "profile must cover every partition");
        let capacities = (0..cfg.k).map(|i| profile.capacity(i, m, cfg.balance_slack)).collect();
        HeteroHdrf { lambda: cfg.hdrf_lambda, capacities, scores: vec![0.0; cfg.k] }
    }
}

impl EdgeStreamPartitioner for HeteroHdrf {
    fn place(&mut self, e: Edge, state: &EdgeStreamState) -> PartitionId {
        let capacities = &self.capacities;
        hdrf_score_column(&mut self.scores, e, state, self.lambda, |i| capacities[i], [None, None]);
        let mut best = (f64::NEG_INFINITY, 0 as PartitionId);
        for (i, &score) in self.scores.iter().enumerate() {
            if score > best.0 {
                best = (score, i as PartitionId);
            }
        }
        best.1
    }

    fn name(&self) -> &'static str {
        "hHDRF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{run_edge_stream, run_vertex_stream};
    use sgp_graph::generators::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
    use sgp_graph::StreamOrder;
    use sgp_trace::NullSink;

    #[test]
    fn homogeneous_profile_is_uniform() {
        let p = ClusterProfile::homogeneous(4);
        for i in 0..4 {
            assert!((p.share(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn profile_normalizes_weights() {
        let p = ClusterProfile::new(&[2.0, 1.0, 1.0]);
        assert!((p.share(0) - 0.5).abs() < 1e-12);
        assert!((p.capacity(0, 100, 1.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacities must be positive")]
    fn profile_rejects_zero_capacity() {
        ClusterProfile::new(&[1.0, 0.0]);
    }

    #[test]
    fn hetero_ldg_loads_follow_capacities() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 4000, edges: 16_000, seed: 31 });
        let cfg = PartitionerConfig::new(4);
        let profile = ClusterProfile::new(&[4.0, 2.0, 1.0, 1.0]);
        let mut p = HeteroLdg::new(&cfg, profile.clone(), g.num_vertices());
        let result =
            run_vertex_stream(&g, &mut p, 4, StreamOrder::Random { seed: 1 }, &mut NullSink);
        let counts = result.vertices_per_partition().unwrap();
        let total: usize = counts.iter().sum();
        for (i, &count) in counts.iter().enumerate() {
            let actual = count as f64 / total as f64;
            let target = profile.share(i);
            assert!(
                (actual - target).abs() < 0.35 * target + 0.02,
                "machine {i}: share {actual:.3} vs target {target:.3}"
            );
        }
        // The big machine must clearly host the most vertices.
        assert!(counts[0] > counts[2] && counts[0] > counts[3]);
    }

    #[test]
    fn hetero_hdrf_loads_follow_capacities() {
        let g = rmat(RmatConfig { scale: 11, edge_factor: 10, ..RmatConfig::default() });
        let cfg = PartitionerConfig::new(4);
        let profile = ClusterProfile::new(&[3.0, 1.0, 1.0, 1.0]);
        let mut p = HeteroHdrf::new(&cfg, profile.clone(), g.num_edges());
        let result = run_edge_stream(&g, &mut p, 4, StreamOrder::Random { seed: 2 }, &mut NullSink);
        let counts = result.edges_per_partition();
        let total: usize = counts.iter().sum();
        let big = counts[0] as f64 / total as f64;
        assert!(
            (big - 0.5).abs() < 0.15,
            "big machine should hold ~half the edges, holds {big:.3}"
        );
    }

    #[test]
    fn hetero_with_uniform_profile_close_to_standard_balance() {
        let g = rmat(RmatConfig { scale: 10, edge_factor: 8, ..RmatConfig::default() });
        let cfg = PartitionerConfig::new(4);
        let mut p = HeteroHdrf::new(&cfg, ClusterProfile::homogeneous(4), g.num_edges());
        let result = run_edge_stream(&g, &mut p, 4, StreamOrder::Random { seed: 3 }, &mut NullSink);
        let imb = crate::metrics::load_imbalance(&result.edges_per_partition());
        assert!(imb < 1.3, "uniform hetero-HDRF imbalance {imb}");
    }

    #[test]
    #[should_panic(expected = "profile must cover every partition")]
    fn profile_size_must_match_k() {
        let cfg = PartitionerConfig::new(4);
        HeteroLdg::new(&cfg, ClusterProfile::homogeneous(3), 100);
    }
}
