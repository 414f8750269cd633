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
//! This module provides the vertex-cut flavour, [`HeteroHdrf`]
//! (capacity-weighted HDRF, the LeBeane-style variant), which the
//! Appendix A report runs. A machine with weight 2.0 is expected to host
//! twice the load of a machine with weight 1.0.

use crate::assignment::PartitionId;
use crate::config::PartitionerConfig;
use crate::vertex_cut::{hdrf_score_column, EdgeStreamPartitioner, EdgeStreamState};
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
    /// Panics if `weights` is empty, if any weight is not positive or not
    /// finite, or if the weights sum past `f64::MAX`. Each of these would
    /// turn the shares into NaN or 0, and every capacity would clamp to
    /// the same floor.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one machine");
        assert!(weights.iter().all(|&w| w > 0.0), "capacities must be positive");
        assert!(weights.iter().all(|w| w.is_finite()), "capacities must be finite");
        let total: f64 = weights.iter().sum();
        assert!(total.is_finite(), "capacities must have a finite sum");
        ClusterProfile { shares: weights.iter().map(|w| w / total).collect() }
    }

    /// Number of machines.
    pub(crate) fn k(&self) -> usize {
        self.shares.len()
    }

    /// The capacity share of machine `i` (sums to 1 over machines).
    #[expect(
        clippy::indexing_slicing,
        reason = "a machine id is below k(), the caller's loop bound"
    )]
    pub fn share(&self, i: usize) -> f64 {
        self.shares[i]
    }

    /// Absolute capacity of machine `i` for a total load of `total`
    /// elements with slack β.
    #[expect(
        clippy::indexing_slicing,
        reason = "a machine id is below k(), the caller's loop bound"
    )]
    pub(crate) fn capacity(&self, i: usize, total: usize, slack: f64) -> f64 {
        (self.shares[i] * total as f64 * slack).max(1.0)
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
    #[expect(
        clippy::indexing_slicing,
        reason = "the score column asks for capacities[i] with i < k, and capacities has k entries"
    )]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::run_edge_stream;
    use sgp_graph::generators::{rmat, RmatConfig};
    use sgp_graph::StreamOrder;
    use sgp_trace::NullSink;

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
    #[should_panic(expected = "capacities must be finite")]
    fn profile_rejects_infinite_capacity() {
        ClusterProfile::new(&[1.0, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "capacities must have a finite sum")]
    fn profile_rejects_capacities_whose_sum_overflows() {
        ClusterProfile::new(&[f64::MAX, f64::MAX]);
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
        let mut p = HeteroHdrf::new(&cfg, ClusterProfile::new(&[1.0; 4]), g.num_edges());
        let result = run_edge_stream(&g, &mut p, 4, StreamOrder::Random { seed: 3 }, &mut NullSink);
        let imb = crate::metrics::load_imbalance(&result.edges_per_partition());
        assert!(imb < 1.3, "uniform hetero-HDRF imbalance {imb}");
    }

    #[test]
    #[should_panic(expected = "profile must cover every partition")]
    fn profile_size_must_match_k() {
        let cfg = PartitionerConfig::new(4);
        HeteroHdrf::new(&cfg, ClusterProfile::new(&[1.0; 3]), 100);
    }
}
