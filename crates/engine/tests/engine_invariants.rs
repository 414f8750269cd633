//! Engine invariants across placements: conservation laws of the
//! message accounting and the Appendix-B communication identities.

use sgp_engine::apps::{PageRank, Sssp, Wcc};
use sgp_engine::{reference, run_program, EngineOptions, Placement};
use sgp_graph::generators::{rmat, RmatConfig};
use sgp_graph::{Graph, GraphBuilder, StreamOrder};
use sgp_partition::{partition, Algorithm, PartitionerConfig, Partitioning};

fn graph() -> Graph {
    rmat(RmatConfig { scale: 9, edge_factor: 8, ..RmatConfig::default() })
}

fn placement(g: &Graph, alg: Algorithm, k: usize) -> Placement {
    let cfg = PartitionerConfig::new(k);
    Placement::build(g, &partition(g, alg, &cfg, StreamOrder::Random { seed: 3 }))
}

/// For an all-active PageRank iteration with aggregation, the gather
/// message count per iteration equals exactly Σ_v |gather mirrors of v|
/// — i.e. it is iteration-invariant.
#[test]
fn pagerank_message_count_is_iteration_invariant() {
    let g = graph();
    for alg in [Algorithm::EcrHash, Algorithm::Hdrf] {
        let pl = placement(&g, alg, 4);
        let (_, report) = run_program(&g, &pl, &PageRank::new(5), &EngineOptions::default());
        let first = report.iterations[0].gather_messages;
        for it in &report.iterations {
            assert_eq!(it.gather_messages, first, "{alg:?}");
        }
    }
}

/// The Appendix-B identity: for edge-cut placements, the PageRank
/// per-iteration gather message count equals n·(RF − 1).
#[test]
fn edge_cut_gather_messages_equal_mirror_count() {
    let g = graph();
    let pl = placement(&g, Algorithm::Ldg, 8);
    let total_mirrors: usize = g.vertices().map(|v| pl.replica_count(v) - 1).sum();
    let (_, report) = run_program(&g, &pl, &PageRank::new(2), &EngineOptions::default());
    assert_eq!(report.iterations[0].gather_messages as usize, total_mirrors);
    assert_eq!(report.iterations[0].update_messages, 0);
}

/// Messages without aggregation for edge-cut PageRank equal the number
/// of cut edges (Fig. 10(a)'s semantics).
#[test]
fn unaggregated_messages_equal_cut_edges() {
    let g = graph();
    let cfg = PartitionerConfig::new(8);
    let p = partition(&g, Algorithm::Ldg, &cfg, StreamOrder::Random { seed: 3 });
    let owner = p.vertex_owner.clone().unwrap();
    let cut_edges = g.edges().filter(|e| owner[e.src as usize] != owner[e.dst as usize]).count();
    let pl = Placement::build(&g, &p);
    let opts = EngineOptions { sender_side_aggregation: false, ..Default::default() };
    let (_, report) = run_program(&g, &pl, &PageRank::new(1), &opts);
    assert_eq!(report.iterations[0].gather_messages as usize, cut_edges);
}

/// Wall time is monotone in the barrier constant; bytes are invariant.
#[test]
fn cost_model_scales_time_not_bytes() {
    let g = graph();
    let pl = placement(&g, Algorithm::VcrHash, 4);
    let mut slow = EngineOptions::default();
    slow.cost.barrier_ns *= 100.0;
    let (_, fast_report) = run_program(&g, &pl, &PageRank::new(3), &EngineOptions::default());
    let (_, slow_report) = run_program(&g, &pl, &PageRank::new(3), &slow);
    assert!(slow_report.total_wall_ns > fast_report.total_wall_ns);
    assert_eq!(slow_report.total_network_bytes(), fast_report.total_network_bytes());
    assert_eq!(slow_report.total_messages(), fast_report.total_messages());
}

/// k = n placements (one vertex's edges everywhere) still compute
/// correctly.
#[test]
fn extreme_k_still_correct() {
    let g = GraphBuilder::new()
        .add_edge(0, 1)
        .add_edge(1, 2)
        .add_edge(2, 3)
        .add_edge(3, 0)
        .add_edge(0, 2)
        .build();
    let k = g.num_edges();
    let parts: Vec<u32> = (0..k as u32).collect();
    let p = Partitioning::from_edge_parts(&g, k, parts);
    let pl = Placement::build(&g, &p);
    let (wcc, _) = run_program(&g, &pl, &Wcc::new(), &EngineOptions::default());
    assert_eq!(wcc, reference::wcc(&g));
    let (dist, _) = run_program(&g, &pl, &Sssp::new(0), &EngineOptions::default());
    assert_eq!(dist, reference::sssp(&g, 0));
}

/// SSSP from an isolated source terminates after one iteration.
#[test]
fn sssp_isolated_source_terminates() {
    let g = GraphBuilder::new().add_edge(0, 1).ensure_vertices(4).build();
    let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 0, 1]);
    let pl = Placement::build(&g, &p);
    let (dist, report) = run_program(&g, &pl, &Sssp::new(3), &EngineOptions::default());
    assert_eq!(dist[3], 0);
    assert!(dist[0] == u64::MAX && dist[1] == u64::MAX);
    assert!(report.num_iterations() <= 2);
}

/// WCC on a graph with an isolated vertex labels it as itself.
#[test]
fn wcc_isolated_vertex_self_labelled() {
    let g = GraphBuilder::new().add_edge(0, 1).ensure_vertices(3).build();
    let p = Partitioning::from_vertex_owners(&g, 2, vec![0, 1, 1]);
    let pl = Placement::build(&g, &p);
    let (labels, _) = run_program(&g, &pl, &Wcc::new(), &EngineOptions::default());
    assert_eq!(labels, vec![0, 0, 2]);
}

/// The per-iteration machine byte accounting sums to twice the total
/// (every byte is counted at its sender and its receiver).
#[test]
fn byte_accounting_balances() {
    let g = graph();
    let pl = placement(&g, Algorithm::Hdrf, 4);
    let (_, report) = run_program(&g, &pl, &PageRank::new(3), &EngineOptions::default());
    for it in &report.iterations {
        let machine_sum: u64 = it.machine_bytes.iter().sum();
        assert_eq!(machine_sum, 2 * it.network_bytes);
    }
}

/// Hybrid placements (Ginger) sit between the cut models on PageRank
/// update traffic: fewer updates than vertex-cut, more than edge-cut.
#[test]
fn hybrid_updates_between_cut_models() {
    let g = graph();
    let updates = |alg| {
        let pl = placement(&g, alg, 8);
        let (_, r) = run_program(&g, &pl, &PageRank::new(2), &EngineOptions::default());
        r.iterations.iter().map(|i| i.update_messages).sum::<u64>()
    };
    let ec = updates(Algorithm::Ldg);
    let hy = updates(Algorithm::Ginger);
    let vc = updates(Algorithm::VcrHash);
    assert_eq!(ec, 0);
    assert!(hy > ec, "hybrid must pay some updates");
    assert!(hy < vc, "hybrid updates {hy} should undercut vertex-cut {vc}");
}
