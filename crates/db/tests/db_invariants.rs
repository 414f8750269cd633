//! Online-substrate invariants: query results are placement-invariant,
//! traces account exactly, and the DES conserves queries.

use sgp_db::query::{execute, Query, QueryResult};
use sgp_db::workload::{run_workload, Skew};
use sgp_db::{
    ClusterSim, FaultSimConfig, MirrorDirectory, PartitionedStore, SimConfig, SimError, Workload,
    WorkloadKind,
};
use sgp_fault::FaultPlan;
use sgp_graph::generators::{snb_social, SnbConfig};
use sgp_graph::{Graph, StreamOrder};
use sgp_partition::{partition, Algorithm, PartitionerConfig};

fn graph() -> Graph {
    snb_social(SnbConfig {
        persons: 800,
        communities: 10,
        avg_friends: 8.0,
        ..SnbConfig::default()
    })
}

fn store(g: &Graph, alg: Algorithm, k: usize) -> PartitionedStore {
    let cfg = PartitionerConfig::new(k);
    let p = partition(g, alg, &cfg, StreamOrder::Random { seed: 11 });
    PartitionedStore::new(g.clone(), &p)
}

/// Query *results* must not depend on the partitioning — only traces do.
#[test]
fn results_are_placement_invariant() {
    let g = graph();
    let stores: Vec<PartitionedStore> = [Algorithm::EcrHash, Algorithm::Fennel, Algorithm::Metis]
        .iter()
        .map(|&a| store(&g, a, 4))
        .collect();
    let queries = [
        Query::OneHop { start: 5 },
        Query::TwoHop { start: 17 },
        Query::ShortestPath { src: 3, dst: 90 },
    ];
    for q in queries {
        let results: Vec<QueryResult> = stores.iter().map(|s| execute(s, q).1).collect();
        assert_eq!(results[0], results[1], "{q:?}");
        assert_eq!(results[1], results[2], "{q:?}");
    }
}

/// 1-hop results equal the store's adjacency; round-1 read is exactly 1.
#[test]
fn one_hop_trace_exact() {
    let g = graph();
    let s = store(&g, Algorithm::EcrHash, 4);
    for start in [0u32, 13, 201] {
        let (t, result) = execute(&s, Query::OneHop { start });
        match &result {
            QueryResult::Vertices(vs) => assert_eq!(vs, &s.neighbors(start)),
            other => panic!("unexpected result {other:?}"),
        }
        assert_eq!(t.rounds[0].reads.iter().sum::<u32>(), 1);
        assert_eq!(t.rounds[1].reads.iter().sum::<u32>() as usize, s.neighbors(start).len());
    }
}

/// Shortest-path lengths agree with a reference BFS on the undirected
/// view.
#[test]
fn shortest_path_matches_reference_bfs() {
    let g = graph();
    let s = store(&g, Algorithm::Ldg, 4);
    let bfs = |src: u32, dst: u32| -> Option<u32> {
        let mut dist = vec![u32::MAX; g.num_vertices()];
        let mut q = std::collections::VecDeque::new();
        dist[src as usize] = 0;
        q.push_back(src);
        while let Some(v) = q.pop_front() {
            if v == dst {
                return Some(dist[v as usize]);
            }
            for w in s.neighbors(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    q.push_back(w);
                }
            }
        }
        None
    };
    for (src, dst) in [(0u32, 50u32), (7, 700), (100, 101), (3, 3)] {
        let (_, result) = execute(&s, Query::ShortestPath { src, dst });
        assert_eq!(result, QueryResult::PathLength(bfs(src, dst)), "{src}->{dst}");
    }
}

/// Total reads across a workload equal the sum over traces, and remote
/// reads are bounded by total reads.
#[test]
fn workload_trace_accounting() {
    let g = graph();
    let s = store(&g, Algorithm::Fennel, 8);
    let w = Workload::generate(&g, WorkloadKind::TwoHop, 100, Skew::Zipf { theta: 0.8 }, 5);
    let traces = run_workload(&s, &w, None);
    for t in &traces {
        let per_machine = t.reads_per_machine(8);
        let total: u64 = per_machine.iter().sum();
        let per_round: u64 = t.rounds.iter().flat_map(|r| &r.reads).map(|&c| c as u64).sum();
        assert_eq!(total, per_round);
        assert!(total - per_machine[t.coordinator as usize] <= per_round);
    }
}

/// The DES conserves queries: completed = issued − warm-up, regardless
/// of load level, and simulated time advances.
#[test]
fn des_conserves_queries() {
    let g = graph();
    let s = store(&g, Algorithm::EcrHash, 4);
    let w = Workload::generate(&g, WorkloadKind::OneHop, 100, Skew::Uniform, 6);
    let sim = ClusterSim::prepare(&s, &w);
    for clients in [1usize, 6, 20] {
        let cfg = SimConfig {
            clients_per_machine: clients,
            queries_per_client: 12,
            warmup_fraction: 0.25,
            ..Default::default()
        };
        let r = sim.run(&cfg);
        let total = clients * 4 * 12;
        let warmup = (total as f64 * 0.25) as usize;
        assert_eq!(r.completed, total - warmup, "clients={clients}");
        assert!(r.sim_seconds > 0.0);
        assert!(r.throughput_qps.is_finite());
    }
}

/// More cores strictly help (or at least never hurt) under load.
#[test]
fn more_cores_do_not_hurt() {
    let g = graph();
    let s = store(&g, Algorithm::EcrHash, 4);
    let w = Workload::generate(&g, WorkloadKind::TwoHop, 150, Skew::Zipf { theta: 0.8 }, 7);
    let sim = ClusterSim::prepare(&s, &w);
    let run = |cores: usize| {
        sim.run(&SimConfig {
            clients_per_machine: 16,
            cores_per_machine: cores,
            queries_per_client: 12,
            ..Default::default()
        })
    };
    let few = run(2);
    let many = run(16);
    assert!(
        many.mean_latency_ms <= few.mean_latency_ms * 1.05,
        "16 cores ({} ms) must not be slower than 2 ({} ms)",
        many.mean_latency_ms,
        few.mean_latency_ms
    );
}

/// Degenerate fault plan: a cluster with every machine permanently dead
/// from t = 0 is rejected with a typed error, not a hang or a panic.
#[test]
fn all_machines_dead_is_a_typed_sim_error() {
    let g = graph();
    let s = store(&g, Algorithm::EcrHash, 4);
    let w = Workload::generate(&g, WorkloadKind::OneHop, 50, Skew::Uniform, 9);
    let sim = ClusterSim::prepare(&s, &w);
    let mut plan = FaultPlan::healthy(4, 1);
    for m in 0..4u32 {
        plan = plan.with_crash(m, 0);
    }
    let err = sim
        .run_faulted(&FaultSimConfig::default(), &plan, &MirrorDirectory::edge_cut(4))
        .unwrap_err();
    assert_eq!(err, SimError::NoLiveMachines);
    // One survivor is enough to run.
    let mut plan = FaultPlan::healthy(4, 1);
    for m in 0..3u32 {
        plan = plan.with_crash(m, 0);
    }
    let cfg = FaultSimConfig {
        base: SimConfig { clients_per_machine: 2, queries_per_client: 5, ..Default::default() },
        ..Default::default()
    };
    let r = sim.run_faulted(&cfg, &plan, &MirrorDirectory::edge_cut(4)).expect("one machine up");
    assert!(r.availability <= 1.0);
}

/// The faulted DES conserves queries too: ok + failed completions equal
/// issued − warm-up.
#[test]
fn faulted_des_conserves_queries() {
    let g = graph();
    let s = store(&g, Algorithm::EcrHash, 4);
    let w = Workload::generate(&g, WorkloadKind::OneHop, 100, Skew::Uniform, 6);
    let sim = ClusterSim::prepare(&s, &w);
    let cfg = FaultSimConfig {
        base: SimConfig {
            clients_per_machine: 6,
            queries_per_client: 12,
            warmup_fraction: 0.25,
            ..Default::default()
        },
        ..Default::default()
    };
    let plan = FaultPlan::healthy(4, 21)
        .with_recovering_crash(2, 1_000_000, 20_000_000)
        .with_straggler(0, 0, 40_000_000, 2.0)
        .with_message_loss(0.01);
    let r = sim.run_faulted(&cfg, &plan, &MirrorDirectory::edge_cut(4)).expect("plan is valid");
    let total = 6 * 4 * 12;
    let warmup = (total as f64 * 0.25) as usize;
    assert_eq!(r.completed_ok + r.failed, total - warmup);
    assert!(r.sim_seconds > 0.0);
    assert!(r.goodput_qps.is_finite() && r.offered_qps >= r.goodput_qps);
}

/// Remote-read pricing: a store with a worse edge-cut ratio moves more
/// bytes for the same workload.
#[test]
fn worse_cut_more_bytes() {
    let g = graph();
    let good = store(&g, Algorithm::Metis, 8);
    let bad = store(&g, Algorithm::EcrHash, 8);
    assert!(good.edge_cut_ratio() < bad.edge_cut_ratio());
    let w = Workload::generate(&g, WorkloadKind::OneHop, 200, Skew::Uniform, 8);
    let bytes = |s: &PartitionedStore| -> u64 {
        run_workload(s, &w, None).iter().map(|t| t.network_bytes()).sum()
    };
    assert!(bytes(&good) < bytes(&bad));
}
