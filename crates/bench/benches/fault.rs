//! Criterion benchmarks of the fault-injection path: the fault-injected
//! DES against its healthy baseline, mirror-directory construction, and
//! the engine's fault-inflated PageRank accounting.
//!
//! On top of the criterion groups, the custom `main` below writes
//! `BENCH_fault.json` into the working directory: a best-of-3
//! wall-clock summary of the elastic-recovery DES (crash-then-rejoin
//! with priced migration) per partitioning model, carrying the
//! simulated RTO and data-moved accounting alongside the host seconds.
//! CI uploads that file as the recovery-bench artifact, and the copy at
//! the repo root records the perf trajectory point for this machine.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use sgp_core::config::{Dataset, Scale};
use sgp_core::runners::{build_store, default_order};
use sgp_db::workload::Skew;
use sgp_db::{
    ClusterSim, DegradedConfig, ElasticPlan, FaultSimConfig, MirrorDirectory, PartitionedStore,
    SimConfig, Workload, WorkloadKind,
};
use sgp_engine::apps::PageRank;
use sgp_engine::{run_program, run_program_with_faults, EngineOptions, Placement};
use sgp_fault::FaultPlan;
use sgp_partition::{partition, plan_rebalance, Algorithm, MigrationConfig, PartitionerConfig};
use sgp_trace::NullSink;

const K: usize = 8;

fn sim_cfg(clients: usize) -> FaultSimConfig {
    FaultSimConfig {
        base: SimConfig {
            clients_per_machine: clients,
            queries_per_client: 20,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn plan() -> FaultPlan {
    FaultPlan::healthy(K, 0xBE_EF)
        .with_crash(K as u32 - 1, 2_000_000)
        .with_straggler(0, 0, u64::MAX, 2.0)
        .with_message_loss(0.005)
}

fn bench_faulted_des(c: &mut Criterion) {
    let g = Dataset::LdbcSnb.generate(Scale::Tiny);
    let store = build_store(&g, Algorithm::EcrHash, K);
    let w = Workload::generate(&g, WorkloadKind::OneHop, 200, Skew::Zipf { theta: 0.9 }, 2);
    let sim = ClusterSim::prepare(&store, &w);
    let cfg = sim_cfg(12);
    let plan = plan();
    let healthy = FaultPlan::healthy(K, 0xBE_EF);
    let mirrors = MirrorDirectory::edge_cut(K);
    let total = (12 * K * 20) as u64;
    let mut group = c.benchmark_group("faulted_des");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));
    group.bench_function("healthy_plan", |b| {
        b.iter(|| sim.run_faulted(&cfg, &healthy, &mirrors).expect("valid plan"));
    });
    group.bench_function("crash_straggler_loss", |b| {
        b.iter(|| sim.run_faulted(&cfg, &plan, &mirrors).expect("valid plan"));
    });
    group.finish();
}

fn bench_mirror_directory(c: &mut Criterion) {
    let g = Dataset::LdbcSnb.generate(Scale::Tiny);
    let mut group = c.benchmark_group("mirror_directory");
    group.sample_size(10);
    for alg in [Algorithm::VcrHash, Algorithm::HybridRandom] {
        let p = partition(&g, alg, &PartitionerConfig::new(K), default_order());
        group.bench_with_input(BenchmarkId::from_parameter(alg.short_name()), &p, |b, p| {
            b.iter(|| MirrorDirectory::for_model(&g, p));
        });
    }
    group.finish();
}

fn bench_engine_fault_accounting(c: &mut Criterion) {
    let g = Dataset::Twitter.generate(Scale::Tiny);
    let p = partition(&g, Algorithm::Hdrf, &PartitionerConfig::new(K), default_order());
    let placement = Placement::build(&g, &p);
    let opts = EngineOptions::default();
    let prog = PageRank::new(20);
    let plan = plan();
    let mut group = c.benchmark_group("engine_fault_accounting");
    group.sample_size(10);
    group.bench_function("pagerank_healthy", |b| {
        b.iter(|| run_program(&g, &placement, &prog, &opts));
    });
    group.bench_function("pagerank_faulted", |b| {
        b.iter(|| run_program_with_faults(&g, &placement, &prog, &opts, &plan));
    });
    group.finish();
}

/// Best-of-3 wall-clock seconds for one run of `f`.
fn best_of_3<F: FnMut()>(mut f: F) -> f64 {
    (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Writes the `BENCH_fault.json` recovery summary: the elastic DES
/// (crash-then-rejoin of one machine, migration priced from a real
/// rebalance plan) for one algorithm of each partitioning model. Hand-
/// rendered JSON so the artifact shape is pinned by this function
/// alone.
fn emit_fault_json() {
    let g = Dataset::LdbcSnb.generate(Scale::Tiny);
    let k = K;
    let cfg = FaultSimConfig {
        base: SimConfig { clients_per_machine: 8, queries_per_client: 20, ..Default::default() },
        degraded: DegradedConfig { shed_queue_depth: 4, migration_ns_per_record: 2_000 },
        ..Default::default()
    };
    let queries = (8 * k * 20) as u64;
    let mut rows = Vec::new();
    for alg in [Algorithm::EcrHash, Algorithm::VcrHash, Algorithm::HybridRandom] {
        let p = partition(&g, alg, &PartitionerConfig::new(k), default_order());
        let owner = p.masters(&g);
        let store = PartitionedStore::from_owner(g.clone(), k, owner.clone());
        let mirrors = MirrorDirectory::for_model(&g, &p);
        let w = Workload::generate(&g, WorkloadKind::OneHop, 400, Skew::Zipf { theta: 0.6 }, 3);
        let sim = ClusterSim::prepare(&store, &w);
        let victim = k as u32 - 1;
        let mut live = vec![true; k];
        live[victim as usize] = false;
        let mplan = plan_rebalance(&g, &owner, &live, &MigrationConfig::default());
        let plan = FaultPlan::healthy(k, 0xE1A_57).with_crash_rejoin(victim, 2_000_000, 10_000_000);
        let elastic = ElasticPlan { records_per_event: vec![mplan.data_moved] };
        let run = || {
            sim.run_elastic_traced(&cfg, &plan, &mirrors, &elastic, &mut NullSink)
                .expect("k-1 machines survive")
        };
        let report = run();
        let secs = best_of_3(|| {
            run();
        });
        rows.push(format!(
            "    {{\"algorithm\": \"{}\", \"queries\": {}, \"secs\": {:.6}, \"queries_per_sec\": {:.1}, \"rto_ms\": {:.3}, \"data_moved\": {}, \"shed_queries\": {}}}",
            alg.short_name(),
            queries,
            secs,
            queries as f64 / secs.max(1e-9),
            report.rto_ms,
            report.data_moved,
            report.shed_queries
        ));
    }
    let json = format!(
        "{{\n  \"version\": 1,\n  \"dataset\": \"ldbc_snb\", \"scale\": \"tiny\",\n  \"k\": {k},\n  \"runs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    match std::fs::write("BENCH_fault.json", &json) {
        Ok(()) => println!("wrote BENCH_fault.json"),
        Err(e) => eprintln!("could not write BENCH_fault.json: {e}"),
    }
}

criterion_group!(benches, bench_faulted_des, bench_mirror_directory, bench_engine_fault_accounting);

fn main() {
    benches();
    Criterion::default().configure_from_args().final_summary();
    emit_fault_json();
}
