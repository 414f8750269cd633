//! Differential and property tests locking down the dynamic-graph
//! partitioning tier (DESIGN.md §12):
//!
//! * **Degeneracy differentials** — a look-ahead window of `W = 1` is
//!   bit-identical to the one-pass entry point for every Table 2
//!   algorithm; 2PS with its clustering pass disabled is bit-identical
//!   to plain HDRF; a restream repair with a zero movement budget is
//!   the identity partitioning.
//! * **Properties** — restream repairs never exceed their movement
//!   budget; accepted restream rounds never increase the cut on a
//!   fixed stream; the churn suite's report is a pure function of its
//!   seeds (identical `{:?}` run to run).

use sgp_graph::sampling::check_cases;
use std::sync::OnceLock;
use streaming_graph_partitioning::prelude::*;

#[path = "../crates/partition/tests/support/mod.rs"]
mod support;
use support::facade_run;

static GRAPH: OnceLock<Graph> = OnceLock::new();

fn graph() -> &'static Graph {
    GRAPH.get_or_init(|| Dataset::LdbcSnb.generate(Scale::Tiny))
}

/// `W = 1` degenerates exactly to one-pass streaming: the buffer never
/// holds an element across a placement, and ties in the affinity rule
/// resolve to arrival order — so the chunked windowed machine must
/// reproduce the one-shot entry point bit for bit, for every Table 2
/// algorithm.
#[test]
fn window_of_one_is_bit_identical_to_one_pass_for_every_algorithm() {
    let g = graph();
    let order = StreamOrder::Random { seed: 41 };
    for &alg in Algorithm::all() {
        let cfg = PartitionerConfig::new(4).with_window(1);
        let windowed = facade_run(g, alg, &cfg, order, 19);
        let one_pass = partition(g, alg, &PartitionerConfig::new(4), order);
        assert_eq!(one_pass.vertex_owner, windowed.vertex_owner, "{alg}: owners diverged");
        assert_eq!(one_pass.edge_parts, windowed.edge_parts, "{alg}: edge parts diverged");
    }
}

/// The one-shot entry point honours the window: `partition` at `W = 7`
/// is the facade driven by hand at `W = 7`, and not the one-pass run
/// (it used to drop `cfg.window`, which made the churn suite's W-LDG
/// plain LDG).
#[test]
fn one_shot_partition_honours_the_window() {
    let g = graph();
    let order = StreamOrder::Random { seed: 41 };
    let windowed_cfg = PartitionerConfig::new(4).with_window(7);
    let windowed = partition(g, Algorithm::Ldg, &windowed_cfg, order);
    let by_hand = facade_run(g, Algorithm::Ldg, &windowed_cfg, order, 19);
    assert_eq!(by_hand.vertex_owner, windowed.vertex_owner, "W = 7 must match the facade");
    let one_pass = partition(g, Algorithm::Ldg, &PartitionerConfig::new(4), order);
    assert_ne!(one_pass.vertex_owner, windowed.vertex_owner, "W = 7 must not be one-pass LDG");
}

/// With the clustering pass disabled, 2PS's second pass *is* HDRF: the
/// affinity targets are all `None`, the scoring arithmetic is
/// untouched, and the placement must be bit-identical.
#[test]
fn two_phase_without_clustering_is_bit_identical_to_hdrf() {
    let g = graph();
    let order = StreamOrder::Random { seed: 43 };
    let mut cfg = PartitionerConfig::new(4);
    cfg.two_phase_clustering = false;
    let degenerate = partition(g, Algorithm::TwoPhaseHdrf, &cfg, order);
    let baseline = partition(g, Algorithm::Hdrf, &PartitionerConfig::new(4), order);
    assert_eq!(baseline.edge_parts, degenerate.edge_parts);
}

/// A restream repair with a zero movement budget must be the identity:
/// no moves, owner map unchanged.
#[test]
fn zero_budget_restream_is_identity() {
    let g = graph();
    let cfg = PartitionerConfig::new(4);
    let owner = partition(g, Algorithm::Ldg, &cfg, StreamOrder::Natural).masters(g);
    let live = vec![true; 4];
    let mcfg = MigrationConfig {
        budget: 0,
        strategy: MigrationStrategy::Restream {
            algorithm: Algorithm::Ldg,
            order: StreamOrder::Natural,
            rounds: 3,
        },
        ..Default::default()
    };
    let plan = plan_rebalance(g, &owner, &live, &mcfg);
    assert!(plan.moves.is_empty(), "zero budget must plan zero moves");
    assert_eq!(plan.apply(&owner), owner, "zero budget must leave every owner in place");
}

/// Greedy and restream planning under the same budget: both respect
/// it, both are deterministic, and both converge to the same empty
/// plan at budget zero.
#[test]
fn greedy_and_restream_strategies_respect_the_same_budget() {
    let g = graph();
    let cfg = PartitionerConfig::new(4);
    let owner = partition(g, Algorithm::Ldg, &cfg, StreamOrder::Random { seed: 5 }).masters(g);
    let live = vec![true, true, true, false];
    for budget in [0usize, 8, 64] {
        let greedy =
            plan_rebalance(g, &owner, &live, &MigrationConfig { budget, ..Default::default() });
        let restream = plan_rebalance(
            g,
            &owner,
            &live,
            &MigrationConfig {
                budget,
                strategy: MigrationStrategy::Restream {
                    algorithm: Algorithm::Ldg,
                    order: StreamOrder::Random { seed: 5 },
                    rounds: 2,
                },
                ..Default::default()
            },
        );
        assert!(greedy.moves.len() <= budget, "greedy exceeds budget {budget}");
        assert!(restream.moves.len() <= budget, "restream exceeds budget {budget}");
        if budget == 0 {
            assert_eq!(greedy.moves, restream.moves, "both must be empty at budget 0");
        }
        let again = plan_rebalance(
            g,
            &owner,
            &live,
            &MigrationConfig {
                budget,
                strategy: MigrationStrategy::Restream {
                    algorithm: Algorithm::Ldg,
                    order: StreamOrder::Random { seed: 5 },
                    rounds: 2,
                },
                ..Default::default()
            },
        );
        assert_eq!(restream.moves, again.moves, "restream planning must be deterministic");
    }
}

/// However the stream is ordered and however many rounds run, a
/// restream repair never plans more moves than its budget.
#[test]
fn restream_never_exceeds_movement_budget() {
    check_cases(12, |rng| {
        let seed = rng.next_u64();
        let budget = rng.range(0..128);
        let rounds = rng.range(1..4);
        let victim = rng.range(0..4);
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let owner = partition(g, Algorithm::Ldg, &cfg, StreamOrder::Random { seed }).masters(g);
        let mut live = vec![true; 4];
        live[victim] = false;
        let plan = plan_rebalance(
            g,
            &owner,
            &live,
            &MigrationConfig {
                budget,
                strategy: MigrationStrategy::Restream {
                    algorithm: Algorithm::Ldg,
                    order: StreamOrder::Random { seed },
                    rounds,
                },
                ..Default::default()
            },
        );
        assert!(plan.moves.len() <= budget, "{} moves > budget {}", plan.moves.len(), budget);
    });
}

/// Restreaming only ever accepts rounds that do not increase the
/// cut: over K rounds on a fixed stream the recorded cut sequence
/// is monotonically non-increasing, starting at or below the
/// initial cut.
#[test]
fn restream_rounds_never_increase_the_cut() {
    check_cases(12, |rng| {
        let seed = rng.next_u64();
        let rounds = rng.range(1..5);
        let g = graph();
        let cfg = PartitionerConfig::new(4);
        let order = StreamOrder::Random { seed };
        let initial = partition(g, Algorithm::Ldg, &cfg, order).masters(g);
        let outcome =
            restream_rounds(g, Algorithm::Ldg, &cfg, order, &initial, rounds, &mut NullSink)
                .expect("LDG consumes vertex streams");
        let mut last = outcome.initial_cut_edges;
        for (i, round) in outcome.rounds.iter().enumerate() {
            assert!(
                round.cut_edges <= last,
                "round {} raised the cut: {} > {}",
                i,
                round.cut_edges,
                last
            );
            last = round.cut_edges;
        }
        assert_eq!(cut_edges(g, &outcome.owner), last, "final owner disagrees with log");
    });
}

/// The churn suite is a pure function of its seeds: two runs with
/// the same config print identical `{:?}` reports.
#[test]
fn same_seed_churn_suite_reports_are_identical() {
    check_cases(12, |rng| {
        let seed = rng.next_u64();
        let batches = rng.range(1..5);
        let g = graph();
        let cfg = ChurnSuiteConfig {
            churn: ChurnConfig { batches, inserts_per_batch: 48, deletes_per_batch: 32, seed },
            ..Default::default()
        };
        let a = churn_suite("snb", g, ChurnMethod::all(), &cfg);
        let b = churn_suite("snb", g, ChurnMethod::all(), &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    });
}
