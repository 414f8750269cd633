//! Integration tests for the paper's *online-query* findings (§6.3):
//! Table 4/5 orderings, the Fig. 5 linearity, Fig. 6's load behaviour,
//! and the Fig. 8 workload-aware result.

use sgp_core::runners::{self, online_run, OnlineRunConfig};
use streaming_graph_partitioning::prelude::*;

fn snb() -> Graph {
    Dataset::LdbcSnb.generate(Scale::Tiny)
}

fn cfg(level: LoadLevel) -> OnlineRunConfig {
    OnlineRunConfig { bindings: 300, queries_per_client: 12, ..OnlineRunConfig::for_load(level) }
}

/// Fig. 5: "the total network communication is a linear function of the
/// edge-cut ratio" — Pearson r over algorithms × k must be near 1.
#[test]
fn finding_network_io_linear_in_edge_cut() {
    let g = snb();
    let mut points: Vec<(f64, f64)> = Vec::new();
    for k in [4usize, 8] {
        for &alg in Algorithm::online_suite() {
            let row = online_run("snb", &g, alg, WorkloadKind::OneHop, k, &cfg(LoadLevel::Medium));
            points.push((row.edge_cut_ratio, row.network_bytes as f64));
        }
    }
    let r = runners::pearson(&points);
    assert!(r > 0.9, "edge-cut ratio vs network I/O correlation only {r:.3}");
}

/// Table 5: hash keeps the best 99th-percentile latency; the gap to the
/// greedy SGP algorithms widens under high load.
#[test]
fn finding_hash_has_best_tail_latency() {
    let g = snb();
    let k = 8;
    let p99 = |alg, level| {
        online_run("snb", &g, alg, WorkloadKind::OneHop, k, &cfg(level)).p99_latency_ms
    };
    for level in [LoadLevel::Medium, LoadLevel::High] {
        let ecr = p99(Algorithm::EcrHash, level);
        let fnl = p99(Algorithm::Fennel, level);
        assert!(ecr < fnl, "{level:?}: hash p99 {ecr} must beat FENNEL {fnl}");
    }
    // The ratio grows with load (the paper: up to 3.5x under high load).
    let gap_med =
        p99(Algorithm::Fennel, LoadLevel::Medium) / p99(Algorithm::EcrHash, LoadLevel::Medium);
    let gap_high =
        p99(Algorithm::Fennel, LoadLevel::High) / p99(Algorithm::EcrHash, LoadLevel::High);
    assert!(
        gap_high > 0.8 * gap_med,
        "tail gap should not collapse under load: {gap_med:.2} -> {gap_high:.2}"
    );
}

/// Fig. 6: overload does not increase aggregate throughput (the system
/// saturates), while latency rises.
#[test]
fn finding_overload_saturates_throughput() {
    let g = snb();
    let run =
        |level| online_run("snb", &g, Algorithm::EcrHash, WorkloadKind::OneHop, 8, &cfg(level));
    let medium = run(LoadLevel::Medium);
    let high = run(LoadLevel::High);
    assert!(
        high.throughput_qps < medium.throughput_qps * 1.25,
        "doubling clients must not double throughput: {} -> {}",
        medium.throughput_qps,
        high.throughput_qps
    );
    assert!(high.mean_latency_ms > 1.3 * medium.mean_latency_ms, "overload must raise latency");
}

/// Fig. 8: the access-weighted MTS partitioning beats the structural one
/// on both throughput and balance under a skewed workload.
#[test]
fn finding_weighted_partitioning_wins_under_skew() {
    let g = snb();
    let run_cfg = OnlineRunConfig {
        bindings: 300,
        queries_per_client: 12,
        clients_per_machine: 24,
        skew: Skew::Zipf { theta: 1.1 },
        seed: 0x1A7,
    };
    let rows = runners::workload_aware_suite(&g, 8, &run_cfg);
    let get = |label: &str| rows.iter().find(|r| r.label == label).expect("row");
    let mts = get("MTS");
    let weighted = get("MTS (W)");
    assert!(
        weighted.throughput_qps > mts.throughput_qps,
        "weighted {} must beat structural {}",
        weighted.throughput_qps,
        mts.throughput_qps
    );
    assert!(weighted.load_rsd < mts.load_rsd, "weighted must balance the load");
}

/// Fig. 12: adding machines yields diminishing returns per machine (our
/// documented softening of the paper's outright decline).
#[test]
fn finding_diminishing_returns_with_cluster_size() {
    let g = snb();
    let total_clients = 96usize;
    let thr_per_machine = |k: usize| {
        let c = OnlineRunConfig {
            bindings: 300,
            queries_per_client: 12,
            clients_per_machine: (total_clients / k).max(1),
            ..OnlineRunConfig::for_load(LoadLevel::Medium)
        };
        online_run("snb", &g, Algorithm::EcrHash, WorkloadKind::OneHop, k, &c).throughput_qps
            / k as f64
    };
    let at4 = thr_per_machine(4);
    let at16 = thr_per_machine(16);
    assert!(
        at16 < at4,
        "throughput per machine must fall as the cluster grows: {at4:.0} -> {at16:.0}"
    );
}

/// Table 4 at the store level: the store's edge-cut ratio equals the
/// partitioner's metric (the store installs the partitioning verbatim).
#[test]
fn store_edge_cut_matches_partitioning_metric() {
    let g = snb();
    for &alg in Algorithm::online_suite() {
        let cfg = PartitionerConfig::new(8);
        let p = partition(&g, alg, &cfg, runners::default_order());
        let expected = sgp_partition::metrics::edge_cut_ratio(&g, &p).unwrap();
        let store = PartitionedStore::new(g.clone(), &p);
        assert!((store.edge_cut_ratio() - expected).abs() < 1e-12, "{alg}");
    }
}

/// 2-hop queries move more data than 1-hop on the same store and
/// workload seeds (the paper's throughput ordering between Fig. 6's
/// panels).
#[test]
fn two_hop_costs_more_than_one_hop() {
    let g = snb();
    let one =
        online_run("snb", &g, Algorithm::EcrHash, WorkloadKind::OneHop, 4, &cfg(LoadLevel::Medium));
    let two =
        online_run("snb", &g, Algorithm::EcrHash, WorkloadKind::TwoHop, 4, &cfg(LoadLevel::Medium));
    assert!(two.network_bytes > one.network_bytes);
    assert!(two.throughput_qps < one.throughput_qps);
}
