//! Elasticity property tests: snapshot→restore→continue is bit-identical
//! to an uninterrupted run for every algorithm × chunking, same-seed
//! membership plans reproduce byte-identical recovery reports, and
//! bounded-movement migration never exceeds its budget while restoring
//! balance whenever the budget allows.

use sgp_graph::sampling::check_cases;
use std::sync::OnceLock;
use streaming_graph_partitioning::prelude::*;

#[path = "../crates/partition/tests/support/mod.rs"]
mod support;
use support::{drive_facade, facade_run};

static GRAPH: OnceLock<Graph> = OnceLock::new();

fn graph() -> &'static Graph {
    GRAPH.get_or_init(|| Dataset::LdbcSnb.generate(Scale::Tiny))
}

/// A store/workload fixture shared across cases (the membership plan
/// under test varies; the cluster does not).
static FIXTURE: OnceLock<(ClusterSim, MirrorDirectory)> = OnceLock::new();

fn fixture() -> &'static (ClusterSim, MirrorDirectory) {
    FIXTURE.get_or_init(|| {
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let p = partition(g, Algorithm::VcrHash, &cfg, StreamOrder::Random { seed: 7 });
        let store = PartitionedStore::from_owner(g.clone(), 4, p.masters(g));
        let mirrors = MirrorDirectory::for_model(g, &p);
        let w = Workload::generate(g, WorkloadKind::OneHop, 80, Skew::Uniform, 3);
        (ClusterSim::prepare(&store, &w), mirrors)
    })
}

/// Streams `g` into a fresh machine, snapshotting after `cut` chunks
/// and restoring into a new machine mid-stream, then finishes the
/// stream there. Returns the sealed result and whether the cut point
/// was actually crossed (offline algorithms round-trip immediately).
fn interrupted(
    g: &Graph,
    alg: Algorithm,
    cfg: &PartitionerConfig,
    order: StreamOrder,
    chunk: usize,
    cut: usize,
) -> (Partitioning, bool) {
    let mut crossed = false;
    let p = drive_facade(g, alg, cfg, order, chunk, |sp, fed| {
        if fed == cut || sp.input() == StreamInput::Offline {
            let snap = sp.snapshot();
            *sp = StreamingPartitioner::restore(g, alg, cfg, &snap).expect("own snapshot restores");
            crossed = true;
        }
    });
    (p, crossed)
}

/// The dynamic-tier machine states added in DESIGN.md §12 round-trip:
/// 2PS interrupted inside its clustering pass and inside its placement
/// pass, and a windowed machine with a non-empty look-ahead buffer,
/// all restore and continue bit-identically to the uninterrupted run.
#[test]
fn dynamic_tier_snapshots_round_trip() {
    let g = graph();
    let order = StreamOrder::Random { seed: 23 };
    let chunk = 16;
    let chunks_per_pass = g.num_edges().div_ceil(chunk);

    // 2PS: cut 2 lands mid-pass-1 (clustering), cut chunks_per_pass + 2
    // lands mid-pass-2 (cluster-aware placement).
    let cfg = PartitionerConfig::new(4);
    let whole = facade_run(g, Algorithm::TwoPhaseHdrf, &cfg, order, chunk);
    for cut in [2, chunks_per_pass + 2] {
        let (resumed, crossed) = interrupted(g, Algorithm::TwoPhaseHdrf, &cfg, order, chunk, cut);
        assert!(crossed, "cut {cut} never reached");
        assert_eq!(whole.edge_parts, resumed.edge_parts, "2PS diverged after cut {cut}");
    }

    // Windowed machines snapshot their look-ahead buffers (`wv`/`we`
    // records) and continue bit-identically after restore.
    let wcfg = PartitionerConfig::new(4).with_window(7);
    for alg in [Algorithm::Ldg, Algorithm::Hdrf] {
        let mut sp = StreamingPartitioner::init(g, alg, &wcfg);
        match sp.input() {
            StreamInput::Vertices => {
                let mut source = VertexStreamSource::new(g, order);
                let mut buf = Vec::new();
                source.next_chunk(chunk, &mut buf);
                sp.ingest_vertices(&buf).expect("vertex chunk");
                assert!(sp.snapshot().contains("\nwv "), "{alg}: buffer must serialize");
            }
            _ => {
                let mut source = EdgeStreamSource::new(g, order);
                let mut buf = Vec::new();
                source.next_chunk(chunk, &mut buf);
                sp.ingest_edges(&buf).expect("edge chunk");
                assert!(sp.snapshot().contains("\nwe "), "{alg}: buffer must serialize");
            }
        }
        let whole = facade_run(g, alg, &wcfg, order, chunk);
        let (resumed, crossed) = interrupted(g, alg, &wcfg, order, chunk, 3);
        assert!(crossed, "{alg}: cut never reached");
        assert_eq!(whole.vertex_owner, resumed.vertex_owner, "{alg}: owners diverged");
        assert_eq!(whole.edge_parts, resumed.edge_parts, "{alg}: edge parts diverged");
    }
}

fn sim_cfg() -> FaultSimConfig {
    FaultSimConfig {
        base: SimConfig { clients_per_machine: 2, queries_per_client: 6, ..Default::default() },
        degraded: DegradedConfig { shed_queue_depth: 2, migration_ns_per_record: 1_000 },
        ..Default::default()
    }
}

/// Interrupting any algorithm at any chunk boundary, serializing,
/// restoring into a fresh machine, and finishing the stream there
/// yields exactly the partitioning of the uninterrupted run.
#[test]
fn restore_then_continue_matches_uninterrupted() {
    check_cases(8, |rng| {
        let seed = rng.next_u64();
        let chunk = rng.range(8..48);
        let cut = rng.range(1..5);
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let order = StreamOrder::Random { seed };
        for &alg in Algorithm::all() {
            let whole = facade_run(g, alg, &cfg, order, chunk);
            let (resumed, crossed) = interrupted(g, alg, &cfg, order, chunk, cut);
            assert!(crossed, "cut {} never reached for {}", cut, alg);
            assert_eq!(&whole.vertex_owner, &resumed.vertex_owner, "owners differ: {}", alg);
            assert_eq!(&whole.edge_parts, &resumed.edge_parts, "edge parts differ: {}", alg);
        }
    });
}

/// Same membership plan + same elastic record counts ⇒ the recovery
/// DES reproduces bit-for-bit: two runs print identical `{:?}`
/// reports, for every event kind, schedule, and data volume.
#[test]
fn same_seed_membership_plan_reproduces_report() {
    check_cases(16, |rng| {
        let seed = rng.next_u64();
        let kind = rng.below(3);
        let at_ns = 1 + rng.below(2_999_999);
        let records = rng.below(4_000);
        let (sim, mirrors) = fixture();
        let machine = 3u32;
        let plan = match kind {
            0 => FaultPlan::healthy(4, seed).with_scale_out(machine, at_ns),
            1 => FaultPlan::healthy(4, seed).with_scale_in(machine, at_ns),
            _ => FaultPlan::healthy(4, seed).with_crash_rejoin(machine, at_ns, 500_000),
        };
        let cfg = sim_cfg();
        let elastic = ElasticPlan { records_per_event: vec![records] };
        let run = || {
            sim.run_elastic_traced(&cfg, &plan, mirrors, &elastic, &mut NullSink)
                .expect("three machines survive")
        };
        let (a, b) = (run(), run());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    });
}

/// The migration planner never exceeds its movement budget; with an
/// unconstrained budget it always restores balance — the evacuated
/// partition ends empty and the reported loads match replaying the
/// move list.
#[test]
fn migration_budget_is_respected_and_balance_restored_when_feasible() {
    check_cases(16, |rng| {
        let seed = rng.next_u64();
        let k = rng.range(2..6);
        let victim = rng.index(k);
        let budget = rng.range(0..64);
        let g = graph();
        let cfg = PartitionerConfig::new(k);
        let p = partition(g, Algorithm::Ldg, &cfg, StreamOrder::Random { seed });
        let owner = p.masters(g);
        let mut live = vec![true; k];
        live[victim] = false;

        let bounded =
            plan_rebalance(g, &owner, &live, &MigrationConfig { budget, ..Default::default() });
        assert!(
            bounded.moves.len() <= budget,
            "{} moves exceed budget {}",
            bounded.moves.len(),
            budget
        );

        let unbounded = plan_rebalance(g, &owner, &live, &MigrationConfig::default());
        assert!(unbounded.balance_restored, "unbounded plan must restore balance");
        let replanned = plan_rebalance(g, &owner, &live, &MigrationConfig::default());
        assert_eq!(&unbounded.moves, &replanned.moves, "re-planning must be deterministic");

        let after = unbounded.apply(&owner);
        assert!(
            after.iter().all(|&q| (q as usize) != victim),
            "evacuated partition still owns vertices"
        );
        let mut loads = vec![0u64; k];
        for &q in &after {
            loads[q as usize] += 1;
        }
        assert_eq!(&loads, &unbounded.loads_after, "reported loads disagree with the moves");
    });
}
