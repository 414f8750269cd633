//! The paper's decision tree (Fig. 9, §6.4) as an executable artifact.
//!
//! > "First, we recognize the limitations of the literature on online
//! > graph query workloads and recommend hash-based partitioning as a
//! > simple but effective solution, especially for latency critical
//! > applications. On the other hand, FENNEL can improve the aggregated
//! > throughput [...] for systems under medium load. For graph
//! > analytics, graph type and degree distribution play the most
//! > important role [...]. Edge-cut methods, FENNEL in particular, are
//! > effective for low-degree graphs like road networks. Hybrid model is
//! > most effective on heavy-tailed graphs [...]. For graphs with
//! > power-law degree distribution, we recommend HDRF."
use sgp_graph::stats::GraphClass;
use sgp_graph::{Graph, GraphStats};
use sgp_partition::Algorithm;

/// The workload side of the tree's first split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Iterative offline analytics (PageRank, WCC, SSSP).
    OfflineAnalytics,
    /// Online graph queries (1-hop, 2-hop, shortest path).
    OnlineQueries,
}

/// For online queries: which objective dominates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineObjective {
    /// Tail latency is critical (user-facing SLOs).
    TailLatency,
    /// Aggregate throughput under medium load.
    Throughput,
}

/// A recommendation with the reasoning path taken through the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recommendation {
    /// The recommended algorithm.
    pub algorithm: Algorithm,
    /// Human-readable trace of the branches taken.
    pub reasoning: Vec<String>,
}

/// Walks Fig. 9 for an offline-analytics workload on a graph of the
/// given class, or an online workload with the given objective.
pub fn recommend(
    workload: WorkloadClass,
    graph_class: Option<GraphClass>,
    objective: Option<OnlineObjective>,
) -> Recommendation {
    let mut reasoning = Vec::new();
    match workload {
        WorkloadClass::OnlineQueries => {
            reasoning.push("workload = online queries".to_string());
            match objective.unwrap_or(OnlineObjective::TailLatency) {
                OnlineObjective::TailLatency => {
                    reasoning.push("tail latency critical → hash-based partitioning".to_string());
                    Recommendation { algorithm: Algorithm::EcrHash, reasoning }
                }
                OnlineObjective::Throughput => {
                    reasoning.push(
                        "optimize throughput under medium load → FENNEL (at the expense of tail latency)"
                            .to_string(),
                    );
                    Recommendation { algorithm: Algorithm::Fennel, reasoning }
                }
            }
        }
        WorkloadClass::OfflineAnalytics => {
            reasoning.push("workload = offline analytics".to_string());
            let class = graph_class.unwrap_or(GraphClass::HeavyTailed);
            match class {
                GraphClass::LowDegree => {
                    reasoning.push("low-degree graph (road network) → FENNEL".to_string());
                    Recommendation { algorithm: Algorithm::Fennel, reasoning }
                }
                GraphClass::PowerLaw => {
                    reasoning.push("power-law degree distribution → HDRF".to_string());
                    Recommendation { algorithm: Algorithm::Hdrf, reasoning }
                }
                GraphClass::HeavyTailed => {
                    reasoning.push(
                        "heavy-tailed graph (social network) → hybrid-cut (Ginger)".to_string(),
                    );
                    Recommendation { algorithm: Algorithm::Ginger, reasoning }
                }
            }
        }
    }
}

/// Convenience: classifies `g` and walks the analytics branch.
pub fn recommend_for_graph(g: &Graph, workload: WorkloadClass) -> Recommendation {
    let class = GraphStats::of(g).classify();
    recommend(workload, Some(class), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataset, Scale};

    #[test]
    fn online_latency_critical_says_hash() {
        let r = recommend(WorkloadClass::OnlineQueries, None, Some(OnlineObjective::TailLatency));
        assert_eq!(r.algorithm, Algorithm::EcrHash);
    }

    #[test]
    fn online_throughput_says_fennel() {
        let r = recommend(WorkloadClass::OnlineQueries, None, Some(OnlineObjective::Throughput));
        assert_eq!(r.algorithm, Algorithm::Fennel);
    }

    #[test]
    fn analytics_branches_match_fig9() {
        use sgp_graph::stats::GraphClass::*;
        assert_eq!(
            recommend(WorkloadClass::OfflineAnalytics, Some(LowDegree), None).algorithm,
            Algorithm::Fennel
        );
        assert_eq!(
            recommend(WorkloadClass::OfflineAnalytics, Some(PowerLaw), None).algorithm,
            Algorithm::Hdrf
        );
        assert_eq!(
            recommend(WorkloadClass::OfflineAnalytics, Some(HeavyTailed), None).algorithm,
            Algorithm::Ginger
        );
    }

    #[test]
    fn road_dataset_routes_to_fennel() {
        let g = Dataset::UsaRoad.generate(Scale::Tiny);
        let r = recommend_for_graph(&g, WorkloadClass::OfflineAnalytics);
        assert_eq!(r.algorithm, Algorithm::Fennel);
        assert!(r.reasoning.iter().any(|s| s.contains("low-degree")));
    }

    #[test]
    fn reasoning_is_nonempty() {
        let r = recommend(WorkloadClass::OnlineQueries, None, None);
        assert!(!r.reasoning.is_empty());
    }
}
