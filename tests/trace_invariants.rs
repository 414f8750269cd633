//! Differential harness for the observability layer (DESIGN.md §9).
//!
//! The tracer must *observe, never perturb*: for every algorithm, on
//! both execution substrates, a traced run has to produce bit-identical
//! results to the untraced run, and the trace's aggregate counters have
//! to equal the untraced report's fields exactly — not approximately.
//! Any drift here means the instrumentation leaked into the simulation.

use streaming_graph_partitioning::core::runners::default_order;
use streaming_graph_partitioning::core::trace_scenarios::db_scenario_config;
use streaming_graph_partitioning::db::MirrorDirectory;
use streaming_graph_partitioning::prelude::*;

const K: usize = 4;

fn graph() -> Graph {
    Dataset::LdbcSnb.generate(Scale::Tiny)
}

#[test]
fn traced_partitioning_is_identical_for_every_algorithm() {
    let g = graph();
    let cfg = PartitionerConfig::new(K);
    for &alg in Algorithm::all() {
        let untraced = partition(&g, alg, &cfg, default_order());
        let mut sink = CollectingSink::new();
        let run = Run { algorithm: alg, cfg: &cfg, order: default_order(), exec: Exec::Sequential };
        let traced = run.execute(&g, &mut sink).expect("sequential runs are never refused");
        assert_eq!(untraced.masters(&g), traced.masters(&g), "{alg:?}: masters diverged");
        assert_eq!(
            untraced.edges_per_partition(),
            traced.edges_per_partition(),
            "{alg:?}: edge loads diverged"
        );
        sink.check_nesting().unwrap_or_else(|e| panic!("{alg:?}: bad span nesting: {e}"));
        // The streaming element-at-a-time runners report per-partition
        // load counters that must mirror the placement itself — HG's
        // vertex phase included (the offline multilevel baseline has no
        // stream, and sequential HCR hashes its owners without one).
        if !matches!(alg, Algorithm::Metis | Algorithm::HybridRandom) {
            let loads: Vec<u64> =
                (0..K as u64).map(|i| sink.counter_total_keyed("partition.load", i)).collect();
            match traced.vertices_per_partition() {
                Some(v) => {
                    let expect: Vec<u64> = v.iter().map(|&x| x as u64).collect();
                    assert_eq!(loads, expect, "{alg:?}: vertex load counters");
                }
                None => {
                    let expect: Vec<u64> =
                        traced.edges_per_partition().iter().map(|&x| x as u64).collect();
                    assert_eq!(loads, expect, "{alg:?}: edge load counters");
                }
            }
        }
    }
}

#[test]
fn engine_trace_counters_match_untraced_report_for_every_algorithm() {
    let g = graph();
    let cfg = PartitionerConfig::new(K);
    let opts = EngineOptions::default();
    for &alg in Algorithm::all() {
        let p = partition(&g, alg, &cfg, default_order());
        let placement = Placement::build(&g, &p);
        let prog = PageRank::new(5);
        let (data_untraced, untraced) = run_program(&g, &placement, &prog, &opts);
        let mut sink = CollectingSink::new();
        let (data_traced, traced) =
            run_program_with(&g, &placement, &prog, &opts, None, &mut sink).expect("no plan");

        assert_eq!(data_untraced, data_traced, "{alg:?}: computed ranks diverged");
        assert_eq!(
            untraced.replication_factor.to_bits(),
            traced.replication_factor.to_bits(),
            "{alg:?}: replication factor diverged"
        );
        assert_eq!(
            untraced.total_seconds().to_bits(),
            traced.total_seconds().to_bits(),
            "{alg:?}: simulated time diverged"
        );

        // Aggregate counters == untraced report fields, exactly.
        let messages = sink.counter_total("engine.gather_messages")
            + sink.counter_total("engine.update_messages");
        assert_eq!(messages, untraced.total_messages(), "{alg:?}: message counters");
        assert_eq!(
            sink.counter_total("engine.network_bytes"),
            untraced.total_network_bytes(),
            "{alg:?}: byte counters"
        );

        // Per-superstep and per-machine keyed counters line up with the
        // report's iteration stats.
        for (i, it) in untraced.iterations.iter().enumerate() {
            assert_eq!(
                sink.counter_total_keyed("engine.active_vertices", i as u64),
                it.active_vertices as u64,
                "{alg:?}: active vertices, superstep {i}"
            );
            assert_eq!(
                sink.counter_total_keyed("engine.gather_messages", i as u64),
                it.gather_messages,
                "{alg:?}: gather messages, superstep {i}"
            );
        }
        for m in 0..K {
            let bytes: u64 = untraced.iterations.iter().map(|it| it.machine_bytes[m]).sum();
            assert_eq!(
                sink.counter_total_keyed("engine.machine_bytes", m as u64),
                bytes,
                "{alg:?}: machine {m} bytes"
            );
        }
        assert_eq!(
            sink.histogram_of("engine.barrier_wait_ns").count(),
            (untraced.num_iterations() * K) as u64,
            "{alg:?}: one barrier-wait sample per machine per superstep"
        );
        sink.check_nesting().unwrap_or_else(|e| panic!("{alg:?}: bad span nesting: {e}"));
    }
}

/// The activation-driven programs spend their tails in the engine's
/// per-vertex superstep body and their peaks in the edge scan; the
/// tracer must stay invisible in both, and its per-superstep counters
/// must still add up to the untraced report.
#[test]
fn engine_trace_matches_untraced_report_for_activation_driven_programs() {
    fn check<P: streaming_graph_partitioning::engine::VertexProgram>(
        g: &Graph,
        placement: &Placement,
        prog: &P,
        what: &str,
    ) {
        let opts = EngineOptions::default();
        let (data_untraced, untraced) = run_program(g, placement, prog, &opts);
        let mut sink = CollectingSink::new();
        let (data_traced, traced) =
            run_program_with(g, placement, prog, &opts, None, &mut sink).expect("no plan");
        assert_eq!(data_untraced, data_traced, "{what}: results diverged");
        assert_eq!(
            untraced.total_wall_ns.to_bits(),
            traced.total_wall_ns.to_bits(),
            "{what}: simulated time diverged"
        );
        assert_eq!(untraced.num_iterations(), traced.num_iterations(), "{what}: supersteps");
        for (i, it) in untraced.iterations.iter().enumerate() {
            let key = i as u64;
            assert_eq!(
                sink.counter_total_keyed("engine.active_vertices", key),
                it.active_vertices as u64,
                "{what}: active vertices, superstep {i}"
            );
            assert_eq!(
                sink.counter_total_keyed("engine.gather_messages", key),
                it.gather_messages,
                "{what}: gather messages, superstep {i}"
            );
            assert_eq!(
                sink.counter_total_keyed("engine.update_messages", key),
                it.update_messages,
                "{what}: update messages, superstep {i}"
            );
            assert_eq!(
                sink.counter_total_keyed("engine.network_bytes", key),
                it.network_bytes,
                "{what}: bytes, superstep {i}"
            );
        }
        for m in 0..K {
            let bytes: u64 = untraced.iterations.iter().map(|it| it.machine_bytes[m]).sum();
            assert_eq!(
                sink.counter_total_keyed("engine.machine_bytes", m as u64),
                bytes,
                "{what}: machine {m} bytes"
            );
        }
        sink.check_nesting().unwrap_or_else(|e| panic!("{what}: bad span nesting: {e}"));
        let mut again = CollectingSink::new();
        run_program_with(g, placement, prog, &opts, None, &mut again).expect("no plan");
        assert_eq!(sink.to_json(), again.to_json(), "{what}: trace bytes not reproducible");
    }

    let g = graph();
    let cfg = PartitionerConfig::new(K);
    let source = g.vertices().max_by_key(|&v| g.out_degree(v)).expect("non-empty graph");
    for &alg in Algorithm::all() {
        let placement = Placement::build(&g, &partition(&g, alg, &cfg, default_order()));
        check(&g, &placement, &Sssp::new(source), &format!("{alg:?} SSSP"));
        check(&g, &placement, &Wcc::new(), &format!("{alg:?} WCC"));
    }
}

#[test]
fn db_trace_counters_match_untraced_report_for_every_algorithm() {
    let g = graph();
    let cfg = db_scenario_config();
    // The one event loop under the scenario's fault plan and under a
    // plan with no faults (the healthy run).
    let plans = [("faulted", cfg.build_plan(K)), ("healthy", FaultPlan::healthy(K, cfg.plan_seed))];
    for &alg in Algorithm::all() {
        let p = partition(&g, alg, &PartitionerConfig::new(K), default_order());
        let store = PartitionedStore::from_owner(g.clone(), K, p.masters(&g));
        let mirrors = MirrorDirectory::for_model(&g, &p);
        let workload =
            Workload::generate(&g, WorkloadKind::OneHop, cfg.bindings, cfg.skew, cfg.workload_seed);
        let sim = ClusterSim::prepare(&store, &workload);
        for (name, plan) in &plans {
            let untraced = sim.run_faulted(&cfg.sim, plan, &mirrors).expect("valid plan");
            let mut sink = CollectingSink::new();
            let traced = sim
                .run_elastic_traced(&cfg.sim, plan, &mirrors, &ElasticPlan::default(), &mut sink)
                .expect("valid plan");
            assert_eq!(
                format!("{untraced:?}"),
                format!("{traced:?}"),
                "{alg:?} {name}: tracing changed the report"
            );

            for (key, want) in [
                ("db.queries_ok", untraced.completed_ok as u64),
                ("db.queries_failed", untraced.failed as u64),
                ("db.retries", untraced.retries),
                ("db.dropped_messages", untraced.dropped_messages),
                ("db.failovers", untraced.failovers),
            ] {
                assert_eq!(sink.counter_total(key), want, "{alg:?} {name}: {key}");
            }
            for m in 0..K {
                assert_eq!(
                    sink.counter_total_keyed("db.reads", m as u64),
                    untraced.reads_per_machine[m],
                    "{alg:?} {name}: machine {m} reads"
                );
            }
            assert_eq!(
                sink.histogram_of("db.query_latency_ns").count(),
                untraced.completed_ok as u64,
                "{alg:?} {name}: one latency sample per counted successful query"
            );
            sink.check_nesting()
                .unwrap_or_else(|e| panic!("{alg:?} {name}: bad span nesting: {e}"));
        }
    }
}
