//! Scale-out factor advisor — the paper's §7 future-work direction:
//! "Another direction is to study the appropriate scale-out factor given
//! a particular graph and workload characteristics. […] some of the
//! algorithms are sensitive to the communication-to-computation ratio."
//!
//! The advisor runs the requested workload on the simulated engine over
//! a sweep of cluster sizes (using the decision tree's recommended
//! partitioner for the graph) and reports, per k, the simulated
//! execution time and the communication-to-computation ratio, picking
//! the smallest k within a tolerance of the best time — "scaling out
//! further buys less than `tolerance` improvement".

use crate::decision::{recommend_for_graph, WorkloadClass};
use crate::runners::{default_order, run_offline_workload, OfflineWorkload};
use sgp_engine::{EngineOptions, Placement};
use sgp_graph::Graph;
use sgp_partition::{partition, Algorithm, PartitionerConfig};

/// One sweep point of the advisor.
#[derive(Debug, Clone)]
pub struct ScaleOutPoint {
    /// Cluster size.
    pub k: usize,
    /// Simulated execution time, seconds.
    pub exec_seconds: f64,
    /// Total network bytes.
    pub network_bytes: u64,
    /// Communication-to-computation ratio: simulated network nanoseconds
    /// over simulated compute nanoseconds, aggregated over the run.
    pub comm_to_comp: f64,
}

/// The advisor's result.
#[derive(Debug, Clone)]
pub struct ScaleOutReport {
    /// The partitioner the sweep used (decision-tree pick).
    pub algorithm: Algorithm,
    /// The workload swept.
    pub workload: OfflineWorkload,
    /// One point per candidate k, in input order.
    pub points: Vec<ScaleOutPoint>,
    /// The recommended cluster size.
    pub recommended_k: usize,
}

/// Sweeps `candidates` and recommends a scale-out factor for running
/// `workload` on `g`.
///
/// `tolerance` is the relative execution-time improvement that justifies
/// doubling resources (default style: 0.1 = stop scaling when another
/// step buys less than 10%).
///
/// # Panics
/// Panics if `candidates` is empty.
pub fn recommend_scale_out(
    g: &Graph,
    workload: OfflineWorkload,
    candidates: &[usize],
    tolerance: f64,
) -> ScaleOutReport {
    assert!(!candidates.is_empty(), "need at least one candidate cluster size");
    let algorithm = recommend_for_graph(g, WorkloadClass::OfflineAnalytics).algorithm;
    let opts = EngineOptions::default();
    let mut points = Vec::with_capacity(candidates.len());
    for &k in candidates {
        let cfg = PartitionerConfig::new(k);
        let p = partition(g, algorithm, &cfg, default_order());
        let placement = Placement::build(g, &p);
        let report = run_offline_workload(g, &placement, workload, &opts);
        let compute_ns: f64 = report.machine_compute_ns.iter().sum();
        let network_ns = report.total_network_bytes() as f64 / opts.cost.bytes_per_second * 1e9;
        points.push(ScaleOutPoint {
            k,
            exec_seconds: report.total_seconds(),
            network_bytes: report.total_network_bytes(),
            comm_to_comp: if compute_ns > 0.0 { network_ns / compute_ns } else { 0.0 },
        });
    }
    // Walk the sweep in increasing k: keep scaling while the next point
    // improves execution time by more than `tolerance`.
    let mut sorted: Vec<&ScaleOutPoint> = points.iter().collect();
    sorted.sort_by_key(|p| p.k);
    let mut best = sorted[0];
    for p in &sorted[1..] {
        if p.exec_seconds < best.exec_seconds * (1.0 - tolerance) {
            best = p;
        }
    }
    ScaleOutReport { algorithm, workload, recommended_k: best.k, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataset, Scale};

    #[test]
    fn advisor_returns_candidate_k() {
        let g = Dataset::Twitter.generate(Scale::Tiny);
        let report = recommend_scale_out(&g, OfflineWorkload::PageRank, &[2, 4, 8, 16], 0.1);
        assert!([2usize, 4, 8, 16].contains(&report.recommended_k));
        assert_eq!(report.points.len(), 4);
    }

    #[test]
    fn advisor_prefers_smaller_k_when_gains_vanish() {
        // With 100% tolerance nothing beats the smallest k.
        let g = Dataset::Twitter.generate(Scale::Tiny);
        let report = recommend_scale_out(&g, OfflineWorkload::PageRank, &[2, 8], 10.0);
        assert_eq!(report.recommended_k, 2);
    }

    #[test]
    fn comm_to_comp_rises_with_k() {
        // The paper's motivation: the communication-to-computation ratio
        // grows as partitions shrink.
        let g = Dataset::Twitter.generate(Scale::Tiny);
        let report = recommend_scale_out(&g, OfflineWorkload::PageRank, &[2, 16], 0.1);
        let at = |k: usize| {
            report.points.iter().find(|p| p.k == k).expect("candidate present").comm_to_comp
        };
        assert!(at(16) > at(2), "comm/comp must rise with k: {} vs {}", at(16), at(2));
    }

    #[test]
    fn advisor_uses_decision_tree_pick() {
        let g = Dataset::UsaRoad.generate(Scale::Tiny);
        let report = recommend_scale_out(&g, OfflineWorkload::Sssp, &[4], 0.1);
        assert_eq!(report.algorithm, Algorithm::Fennel, "road → FENNEL per Fig. 9");
    }

    #[test]
    #[should_panic(expected = "need at least one candidate")]
    fn empty_candidates_rejected() {
        let g = Dataset::Twitter.generate(Scale::Tiny);
        recommend_scale_out(&g, OfflineWorkload::Wcc, &[], 0.1);
    }
}
