//! Structural partitioning-quality metrics (§4.1, §4.2, Appendix B).
//!
//! * **Edge-cut ratio** — fraction of edges whose endpoints are owned by
//!   different partitions (edge-cut model, Eq. 3).
//! * **Replication factor** — average number of partitions a vertex
//!   spans (vertex-cut model, Eq. 6); on an engine with Appendix-B
//!   placement this also quantifies edge-cut communication.
//! * **Load imbalance** — largest partition over average partition size.
//!
//! The closed-form expectations for uniform random placement (Appendix B
//! and Bourse et al.) are provided as oracles for the property tests.

use crate::assignment::Partitioning;
use sgp_graph::Graph;

/// Fraction of edges cut across partitions given a vertex ownership map.
pub fn edge_cut_ratio_from_owner(g: &Graph, owner: &[u32]) -> f64 {
    assert_eq!(owner.len(), g.num_vertices());
    if g.num_edges() == 0 {
        return 0.0;
    }
    let cut = g.edges().filter(|e| owner[e.src as usize] != owner[e.dst as usize]).count();
    cut as f64 / g.num_edges() as f64
}

/// Edge-cut ratio of a partitioning, or `None` for pure vertex-cut
/// placements (which have no vertex ownership to cut against).
pub fn edge_cut_ratio(g: &Graph, p: &Partitioning) -> Option<f64> {
    p.vertex_owner.as_ref().map(|owner| edge_cut_ratio_from_owner(g, owner))
}

/// Replication factor: average `|A(u)|` over all vertices (Eq. 6). 1.0
/// means no replication at all.
pub fn replication_factor(g: &Graph, p: &Partitioning) -> f64 {
    if g.num_vertices() == 0 {
        return 0.0;
    }
    p.total_replicas(g) as f64 / g.num_vertices() as f64
}

/// Load imbalance: largest count over average count (≥ 1.0; 1.0 = exact
/// balance). Defined for any per-partition load vector.
pub fn load_imbalance(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let avg = total as f64 / counts.len() as f64;
    // sgp-lint: allow(no-panic-in-lib): counts.is_empty() returned above, so max() yields a value
    *counts.iter().max().expect("non-empty") as f64 / avg
}

/// Relative standard deviation (σ/μ) of a load vector — the measure the
/// paper plots in Fig. 8 for workload-aware partitioning.
pub fn relative_std_dev(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<usize>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Expected edge-cut ratio of uniform random vertex placement:
/// `1 − 1/k` (§4.1.1).
pub fn expected_hash_edge_cut(k: usize) -> f64 {
    1.0 - 1.0 / k as f64
}

/// Expected replication factor of uniform random *vertex* placement with
/// Appendix-B edge grouping (out-edges follow the source): vertex `v`'s
/// replica set is its own partition plus the owners of its in-neighbours,
/// i.e. `d_in(v) + 1` i.i.d. uniform draws, so
/// `E|A(v)| = k·(1 − (1 − 1/k)^(d_in(v)+1))`.
pub fn expected_rf_random_edge_cut(g: &Graph, k: usize) -> f64 {
    if g.num_vertices() == 0 {
        return 0.0;
    }
    let kf = k as f64;
    let sum: f64 =
        g.vertices().map(|v| kf * (1.0 - (1.0 - 1.0 / kf).powi(g.in_degree(v) as i32 + 1))).sum();
    sum / g.num_vertices() as f64
}

/// Expected replication factor of uniform random *edge* placement
/// (Bourse et al.): vertex `v`'s `d(v)` incident edges land on i.i.d.
/// uniform partitions, so `E|A(v)| = k·(1 − (1 − 1/k)^d(v))`; isolated
/// vertices contribute 1 (their deterministic parking partition).
pub fn expected_rf_random_vertex_cut(g: &Graph, k: usize) -> f64 {
    if g.num_vertices() == 0 {
        return 0.0;
    }
    let kf = k as f64;
    let sum: f64 = g
        .vertices()
        .map(|v| {
            let d = g.degree(v);
            if d == 0 {
                1.0
            } else {
                kf * (1.0 - (1.0 - 1.0 / kf).powi(d as i32))
            }
        })
        .sum();
    sum / g.num_vertices() as f64
}

/// A full structural-quality report for one partitioning (the per-row
/// payload behind Fig. 2 and Table 4).
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// Number of partitions.
    pub k: usize,
    /// Replication factor (Eq. 6 / Appendix B).
    pub replication_factor: f64,
    /// Edge-cut ratio (Eq. 3), when the model is vertex-disjoint.
    pub edge_cut_ratio: Option<f64>,
    /// Imbalance of per-partition edge counts.
    pub edge_imbalance: f64,
    /// Imbalance of owned-vertex counts, when vertex-disjoint.
    pub vertex_imbalance: Option<f64>,
}

impl QualityReport {
    /// Measures `p` against `g`.
    pub fn measure(g: &Graph, p: &Partitioning) -> Self {
        QualityReport {
            k: p.k,
            replication_factor: replication_factor(g, p),
            edge_cut_ratio: edge_cut_ratio(g, p),
            edge_imbalance: load_imbalance(&p.edges_per_partition()),
            vertex_imbalance: p.vertices_per_partition().as_deref().map(load_imbalance),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Partitioning;
    use crate::config::PartitionerConfig;
    use crate::edge_cut::HashVertex;
    use crate::streaming::{run_edge_stream, run_vertex_stream};
    use crate::vertex_cut::HashEdge;
    use sgp_graph::generators::{erdos_renyi, ErdosRenyiConfig};
    use sgp_graph::{GraphBuilder, StreamOrder};
    use sgp_trace::NullSink;

    #[test]
    fn edge_cut_ratio_of_trivial_partitionings() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).build();
        assert_eq!(edge_cut_ratio_from_owner(&g, &[0, 0, 0]), 0.0);
        assert_eq!(edge_cut_ratio_from_owner(&g, &[0, 1, 0]), 1.0);
    }

    #[test]
    fn replication_factor_of_perfect_locality_is_one() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).build();
        let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 0, 0]);
        assert!((replication_factor(&g, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replication_factor_counts_mirrors() {
        // Edge (0,1) on p0, edge (2,1) on p1: vertex 1 spans both.
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(2, 1).build();
        let p = Partitioning::from_edge_parts(&g, 2, vec![0, 1]);
        // A(0)={0}, A(1)={0,1}, A(2)={1} → RF = 4/3.
        assert!((replication_factor(&g, &p) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_basics() {
        assert!((load_imbalance(&[10, 10, 10]) - 1.0).abs() < 1e-12);
        assert!((load_imbalance(&[30, 0, 0]) - 3.0).abs() < 1e-12);
        assert_eq!(load_imbalance(&[]), 1.0);
        assert_eq!(load_imbalance(&[0, 0]), 1.0);
    }

    #[test]
    fn rsd_zero_for_uniform() {
        assert!(relative_std_dev(&[5, 5, 5, 5]) < 1e-12);
        assert!(relative_std_dev(&[10, 0]) > 0.9);
    }

    #[test]
    fn hash_edge_cut_matches_expectation() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 5000, edges: 40_000, seed: 11 });
        let cfg = PartitionerConfig::new(8);
        let p = run_vertex_stream(
            &g,
            &mut HashVertex::new(&cfg),
            8,
            StreamOrder::Natural,
            &mut NullSink,
        );
        let measured = edge_cut_ratio(&g, &p).unwrap();
        let expected = expected_hash_edge_cut(8);
        assert!((measured - expected).abs() < 0.02, "measured {measured} expected {expected}");
    }

    #[test]
    fn hash_vertex_cut_rf_matches_expectation() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 3000, edges: 30_000, seed: 12 });
        let cfg = PartitionerConfig::new(8);
        let p =
            run_edge_stream(&g, &mut HashEdge::new(&cfg), 8, StreamOrder::Natural, &mut NullSink);
        let measured = replication_factor(&g, &p);
        let expected = expected_rf_random_vertex_cut(&g, 8);
        assert!(
            (measured - expected).abs() / expected < 0.05,
            "measured {measured} expected {expected}"
        );
    }

    #[test]
    fn hash_edge_cut_rf_matches_expectation() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 3000, edges: 30_000, seed: 13 });
        let cfg = PartitionerConfig::new(8);
        let p = run_vertex_stream(
            &g,
            &mut HashVertex::new(&cfg),
            8,
            StreamOrder::Natural,
            &mut NullSink,
        );
        let measured = replication_factor(&g, &p);
        let expected = expected_rf_random_edge_cut(&g, 8);
        assert!(
            (measured - expected).abs() / expected < 0.05,
            "measured {measured} expected {expected}"
        );
    }

    #[test]
    fn quality_report_fields_consistent() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 500, edges: 3000, seed: 14 });
        let cfg = PartitionerConfig::new(4);
        let p = run_vertex_stream(
            &g,
            &mut HashVertex::new(&cfg),
            4,
            StreamOrder::Natural,
            &mut NullSink,
        );
        let q = QualityReport::measure(&g, &p);
        assert_eq!(q.k, 4);
        assert!(q.replication_factor >= 1.0);
        assert!(q.edge_cut_ratio.is_some());
        assert!(q.vertex_imbalance.is_some());
        assert!(q.edge_imbalance >= 1.0);
    }

    #[test]
    fn expected_formulas_monotone_in_k() {
        let g = erdos_renyi(ErdosRenyiConfig { vertices: 1000, edges: 8000, seed: 15 });
        assert!(expected_rf_random_vertex_cut(&g, 4) < expected_rf_random_vertex_cut(&g, 16));
        assert!(expected_rf_random_edge_cut(&g, 4) < expected_rf_random_edge_cut(&g, 16));
        assert!(expected_hash_edge_cut(4) < expected_hash_edge_cut(16));
    }
}
