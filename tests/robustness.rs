//! Robustness property tests: fault plans are deterministic in their seed,
//! the fault-injected DES reproduces bit-for-bit, and the retry policy's
//! backoff is monotone and capped.

use sgp_graph::sampling::check_cases;
use std::sync::OnceLock;
use streaming_graph_partitioning::prelude::*;

/// A store/workload fixture shared across cases (the plan under test
/// varies; the cluster does not).
static FIXTURE: OnceLock<(ClusterSim, MirrorDirectory)> = OnceLock::new();

fn fixture() -> &'static (ClusterSim, MirrorDirectory) {
    FIXTURE.get_or_init(|| {
        let g = Dataset::LdbcSnb.generate(Scale::Tiny);
        let cfg = PartitionerConfig::new(4);
        let p = partition(&g, Algorithm::VcrHash, &cfg, StreamOrder::Random { seed: 7 });
        let store = PartitionedStore::from_owner(g.clone(), 4, p.masters(&g));
        let mirrors = MirrorDirectory::for_model(&g, &p);
        let w = Workload::generate(&g, WorkloadKind::OneHop, 80, Skew::Uniform, 3);
        (ClusterSim::prepare(&store, &w), mirrors)
    })
}

fn sim_cfg() -> FaultSimConfig {
    FaultSimConfig {
        base: SimConfig { clients_per_machine: 2, queries_per_client: 6, ..Default::default() },
        ..Default::default()
    }
}

/// Same plan ⇒ the fault-injected DES reproduces bit-for-bit: two
/// runs give equal reports, down to every float's printed digits, for
/// any plan seed and any message-loss probability.
#[test]
fn same_fault_plan_seed_gives_identical_report() {
    check_cases(16, |rng| {
        let seed = rng.next_u64();
        let loss = 0.05 * rng.unit();
        let (sim, mirrors) = fixture();
        let plan_cfg = FaultPlanConfig { message_loss: loss, ..Default::default() };
        let plan = FaultPlan::generate(&plan_cfg, 4, seed);
        let cfg = sim_cfg();
        let a = sim.run_faulted(&cfg, &plan, mirrors).expect("generated plans keep one survivor");
        let b = sim.run_faulted(&cfg, &plan, mirrors).expect("generated plans keep one survivor");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    });
}

/// Plan generation is pure in the seed, and different seeds yield
/// different plans (the seed drives both the schedule and every
/// runtime draw, so it is part of the plan's identity).
#[test]
fn generated_plans_are_seed_deterministic() {
    check_cases(16, |rng| {
        let s1 = rng.next_u64();
        let s2 = rng.next_u64();
        let cfg = FaultPlanConfig::default();
        assert_eq!(FaultPlan::generate(&cfg, 8, s1), FaultPlan::generate(&cfg, 8, s1));
        if s1 != s2 {
            assert_ne!(FaultPlan::generate(&cfg, 8, s1), FaultPlan::generate(&cfg, 8, s2));
        }
    });
}

/// Backoff grows monotonically with the attempt number and never
/// exceeds the cap, for any policy.
#[test]
fn backoff_is_monotone_and_capped() {
    check_cases(16, |rng| {
        let base = 1 + rng.below(10_000_000);
        let cap = 1 + rng.below(100_000_000);
        let attempts = rng.range(2..81) as u32;
        let policy =
            RetryPolicy { base_backoff_ns: base, backoff_cap_ns: cap, ..Default::default() };
        let mut prev = 0u64;
        for attempt in 1..=attempts {
            let b = policy.backoff_ns(attempt);
            assert!(b >= prev, "backoff shrank: {} after {}", b, prev);
            assert!(b <= cap, "backoff {} above cap {}", b, cap);
            prev = b;
        }
        assert_eq!(policy.backoff_ns(1), base.min(cap));
    });
}
