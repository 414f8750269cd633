//! Canonical traced scenarios (DESIGN.md §9).
//!
//! Two fixed workloads exercise every instrumented layer end to end:
//!
//! * **Engine scenario** — partition LDBC SNB with HDRF (vertex-cut, so
//!   mirror-creation counters fire), then run PageRank on a simulated
//!   4-machine cluster. Produces `partition.*` and `engine.*` events
//!   with simulated-nanosecond stamps.
//! * **DES scenario** — partition the same graph with hybrid-random,
//!   then drive the 1-hop query workload through the fault-injected
//!   cluster simulator under a crash-plus-straggler plan, so the
//!   failover/retry/drop lifecycle events all fire.
//!
//! Both are pure functions of `(Scale, seed constants)`: every stamp is
//! simulated time or a logical sequence number, so the rendered trace
//! JSON is byte-identical run to run. The `trace` experiment, the
//! `--trace <path>` flag of the experiments binary (whose dump `sgp
//! trace-summary` renders) and the golden-snapshot tests all consume
//! these scenarios.

use crate::config::{Dataset, Scale};
use crate::runners::{default_order, RobustnessConfig};
use sgp_db::{
    ClusterSim, ElasticPlan, FaultSimConfig, FaultSimReport, MirrorDirectory, PartitionedStore,
    SimConfig, SimError, Workload, WorkloadKind,
};
use sgp_engine::apps::PageRank;
use sgp_engine::{run_program_with, EngineOptions, Placement, RunReport};
use sgp_graph::Graph;
use sgp_partition::{Algorithm, Exec, PartitionerConfig, Partitioning, Run};
use sgp_trace::{CollectingSink, TraceSink};

/// Algorithm of the engine scenario: vertex-cut, so the partitioner
/// emits mirror-creation and replica counters.
pub(crate) const ENGINE_SCENARIO_ALGORITHM: Algorithm = Algorithm::Hdrf;

/// Algorithm of the DES scenario: hybrid-cut, so crashed masters fail
/// reads over to live mirrors (the failover counters fire).
pub(crate) const DB_SCENARIO_ALGORITHM: Algorithm = Algorithm::HybridRandom;

/// Machines simulated by both scenarios.
pub const SCENARIO_MACHINES: usize = 4;

/// PageRank supersteps in the engine scenario (kept short so the golden
/// trace stays reviewable).
pub(crate) const ENGINE_SCENARIO_ITERATIONS: usize = 8;

/// Fault-plan and load parameters of the DES scenario — a deliberately
/// small robustness configuration (fewer bindings/clients than the
/// `robustness` experiment) so the golden trace stays small while the
/// crash, straggler and message-loss paths all fire.
pub fn db_scenario_config() -> RobustnessConfig {
    RobustnessConfig {
        bindings: 60,
        sim: FaultSimConfig {
            base: SimConfig { clients_per_machine: 2, queries_per_client: 5, ..Default::default() },
            ..Default::default()
        },
        crash_at_ns: 500_000,
        ..Default::default()
    }
}

/// The scenarios' traced sequential partitioning over
/// [`SCENARIO_MACHINES`] partitions.
#[expect(
    clippy::expect_used,
    reason = "RunError refuses loader windows and FENNEL gamma < 1; this is a sequential run under the default gamma 1.5"
)]
fn traced_partition<S: TraceSink>(g: &Graph, algorithm: Algorithm, sink: &mut S) -> Partitioning {
    let cfg = PartitionerConfig::new(SCENARIO_MACHINES);
    Run { algorithm, cfg: &cfg, order: default_order(), exec: Exec::Sequential }
        .execute(g, sink)
        .expect("a sequential run cannot be refused")
}

/// Runs the engine scenario, recording `partition.*` and `engine.*`
/// events into `sink`; returns the run report.
#[expect(
    clippy::expect_used,
    reason = "EngineError refuses fault plans and initial frontiers outside the graph; no plan is passed, and PageRank starts from every vertex"
)]
pub fn record_engine_scenario<S: TraceSink>(scale: Scale, sink: &mut S) -> RunReport {
    let g = Dataset::LdbcSnb.generate(scale);
    let p = traced_partition(&g, ENGINE_SCENARIO_ALGORITHM, sink);
    let placement = Placement::build(&g, &p);
    let prog = PageRank::new(ENGINE_SCENARIO_ITERATIONS);
    run_program_with(&g, &placement, &prog, &EngineOptions::default(), None, sink)
        .expect("an all-vertex frontier without a fault plan cannot be refused")
        .1
}

/// Runs the DES scenario, recording `partition.*` and `db.*` events
/// into `sink`; returns the fault-sim report.
pub fn record_db_scenario<S: TraceSink>(
    scale: Scale,
    sink: &mut S,
) -> Result<FaultSimReport, SimError> {
    let g = Dataset::LdbcSnb.generate(scale);
    let cfg = db_scenario_config();
    let k = SCENARIO_MACHINES;
    let plan = cfg.build_plan(k);
    let p = traced_partition(&g, DB_SCENARIO_ALGORITHM, sink);
    let store = PartitionedStore::from_owner(g.clone(), k, p.masters(&g));
    let mirrors = MirrorDirectory::for_model(&g, &p);
    let workload =
        Workload::generate(&g, WorkloadKind::OneHop, cfg.bindings, cfg.skew, cfg.workload_seed);
    let sim = ClusterSim::prepare(&store, &workload);
    sim.run_elastic_traced(&cfg.sim, &plan, &mirrors, &ElasticPlan::default(), sink)
}

/// Canonical trace JSON of the engine scenario (the first golden).
pub fn engine_trace_json(scale: Scale) -> String {
    let mut sink = CollectingSink::new();
    record_engine_scenario(scale, &mut sink);
    sink.to_json()
}

/// Canonical trace JSON of the DES scenario (the second golden).
pub fn db_trace_json(scale: Scale) -> Result<String, SimError> {
    let mut sink = CollectingSink::new();
    record_db_scenario(scale, &mut sink)?;
    Ok(sink.to_json())
}

/// One document holding both scenarios back to back (the engine run
/// closes before the DES opens, so the stream stays well-nested) —
/// what `experiments --trace <path>` writes.
pub fn combined_trace_json(scale: Scale) -> Result<String, SimError> {
    let mut sink = CollectingSink::new();
    record_engine_scenario(scale, &mut sink);
    record_db_scenario(scale, &mut sink)?;
    Ok(sink.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgp_trace::{parse_trace, Log2Histogram, SpanStat, SummarySink};
    use std::borrow::Borrow;

    /// Everything a summary aggregates, under owned names.
    type View = (Vec<(String, u64, u64)>, Vec<(String, Log2Histogram)>, Vec<(String, SpanStat)>);

    fn view<N: Ord + Clone + Borrow<str>>(s: &SummarySink<N>) -> View {
        let name = |n: &N| n.borrow().to_string();
        (
            s.counters().iter().map(|((n, k), v)| (name(n), *k, *v)).collect(),
            s.histograms().iter().map(|(n, h)| (name(n), h.clone())).collect(),
            s.spans_by_self_cost().iter().map(|(n, stat)| (name(n), *stat)).collect(),
        )
    }

    /// A dump read back folds to the live aggregate of the same
    /// scenario: every counter, histogram and span statistic.
    #[test]
    fn a_replayed_dump_folds_to_the_live_summary() {
        let mut live = SummarySink::new();
        record_engine_scenario(Scale::Tiny, &mut live);
        let dump = parse_trace(&engine_trace_json(Scale::Tiny)).expect("canonical JSON parses");
        let replayed = SummarySink::of(&dump);
        assert_eq!(view(&live), view(&replayed), "engine scenario");
        assert!(!view(&live).2.is_empty(), "the engine scenario has spans");

        let mut live = SummarySink::new();
        record_db_scenario(Scale::Tiny, &mut live).expect("valid plan");
        let dump = parse_trace(&db_trace_json(Scale::Tiny).expect("valid plan"))
            .expect("canonical JSON parses");
        let replayed = SummarySink::of(&dump);
        assert_eq!(view(&live), view(&replayed), "DES scenario");
        assert!(!view(&live).1.is_empty(), "the DES scenario has histograms");
        assert_eq!((live.open_spans(), replayed.open_spans()), (0, 0));
    }

    #[test]
    fn engine_scenario_trace_is_deterministic_and_well_nested() {
        let mut sink = CollectingSink::new();
        let report = record_engine_scenario(Scale::Tiny, &mut sink);
        assert_eq!(report.num_iterations(), ENGINE_SCENARIO_ITERATIONS);
        sink.check_nesting().expect("well-nested engine scenario");
        assert_eq!(
            sink.counter_total("engine.gather_messages"),
            report.total_messages() - sink.counter_total("engine.update_messages")
        );
        let again = engine_trace_json(Scale::Tiny);
        assert_eq!(sink.to_json(), again, "same seed+config must give identical trace bytes");
        let parsed = parse_trace(&again).expect("canonical JSON parses");
        assert_eq!(parsed.events.len(), sink.len());
    }

    #[test]
    fn db_scenario_trace_is_deterministic_and_exercises_faults() {
        let mut sink = CollectingSink::new();
        let report = record_db_scenario(Scale::Tiny, &mut sink).expect("valid plan");
        sink.check_nesting().expect("well-nested DES scenario");
        assert!(report.failed > 0 || report.completed_ok > 0);
        assert_eq!(sink.counter_total("db.crashes"), 1, "the plan crashes one machine");
        assert_eq!(sink.counter_total("db.failovers"), report.failovers);
        let again = db_trace_json(Scale::Tiny).expect("valid plan");
        assert_eq!(sink.to_json(), again, "same seed+config must give identical trace bytes");
    }
}
