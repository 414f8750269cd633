//! Suite runners: each function regenerates the measurements behind one
//! family of tables/figures, returning typed rows the `experiments`
//! binary renders.

use sgp_db::workload::{run_workload, Skew};
use sgp_db::{
    ClusterSim, DegradedConfig, ElasticPlan, FaultSimConfig, LoadLevel, MirrorDirectory,
    PartitionedStore, SimConfig, SimError, Workload, WorkloadKind,
};
use sgp_engine::apps::{PageRank, Sssp, Wcc};
use sgp_engine::cost::five_number_summary;
use sgp_engine::{run_program, run_program_with, EngineError, EngineOptions, Placement, RunReport};
use sgp_fault::FaultPlan;
use sgp_graph::{ChurnConfig, ChurnStream, Graph, StreamOrder};
use sgp_partition::metis::MultilevelPartitioner;
use sgp_partition::metrics::{edge_cut_ratio_from_owner, QualityReport};
use sgp_partition::{
    partition, partition_multi_loader, plan_rebalance, run_vertex_stream, Algorithm, LoaderConfig,
    MigrationConfig, MigrationStrategy, PartitionId, PartitionerConfig, Partitioning,
};
use sgp_trace::{keys, NullSink, TraceSink};

/// Default stream order used by every experiment (a fixed seeded random
/// permutation, the paper's loading protocol).
pub fn default_order() -> StreamOrder {
    StreamOrder::Random { seed: 0x51C9_2019 }
}

/// The paper's offline analytic workloads (§5.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfflineWorkload {
    /// PageRank, 20 fixed iterations, all-active.
    PageRank,
    /// Weakly connected components, activation-driven.
    Wcc,
    /// Single-source shortest path from the max-out-degree vertex.
    Sssp,
}

impl OfflineWorkload {
    /// All three workloads in the paper's order.
    pub fn all() -> &'static [OfflineWorkload] {
        &[OfflineWorkload::PageRank, OfflineWorkload::Wcc, OfflineWorkload::Sssp]
    }

    /// Short name as used in Fig. 3's panels.
    pub fn name(&self) -> &'static str {
        match self {
            OfflineWorkload::PageRank => "PageRank",
            OfflineWorkload::Wcc => "WCC",
            OfflineWorkload::Sssp => "SSSP",
        }
    }
}

impl std::fmt::Display for OfflineWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// Runs one offline workload over a placement, discarding vertex data.
pub fn run_offline_workload(
    g: &Graph,
    placement: &Placement,
    workload: OfflineWorkload,
    opts: &EngineOptions,
) -> RunReport {
    match workload {
        OfflineWorkload::PageRank => run_program(g, placement, &PageRank::new(20), opts).1,
        OfflineWorkload::Wcc => run_program(g, placement, &Wcc::new(), opts).1,
        OfflineWorkload::Sssp => {
            #[expect(
                clippy::expect_used,
                reason = "every Dataset::generate graph is non-empty (asserted by config tests), so vertices() yields at least one item"
            )]
            let source = g.vertices().max_by_key(|&v| g.out_degree(v)).expect("non-empty graph");
            run_program(g, placement, &Sssp::new(source), opts).1
        }
    }
}

// ---------------------------------------------------------------------------
// Quality suite (Fig. 2, Table 4)
// ---------------------------------------------------------------------------

/// One partitioning-quality measurement.
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Number of partitions.
    pub k: usize,
    /// Structural quality metrics.
    pub quality: QualityReport,
    /// Wall-clock partitioning time on the host, seconds (the resource
    /// comparison of §4.1.1: streaming beats METIS by ~10×).
    pub partition_seconds: f64,
}

/// Measures partitioning quality for every (algorithm, k) combination on
/// one graph.
pub fn quality_suite(
    dataset_name: &str,
    g: &Graph,
    algorithms: &[Algorithm],
    ks: &[usize],
) -> Vec<QualityRow> {
    let mut rows = Vec::with_capacity(algorithms.len() * ks.len());
    for &k in ks {
        let cfg = PartitionerConfig::new(k);
        for &alg in algorithms {
            #[expect(
                clippy::disallowed_types,
                clippy::disallowed_methods,
                reason = "partition_seconds is an explicitly host-dependent resource measurement (§4.1.1); it is never rendered into the bit-for-bit results files"
            )]
            let start = std::time::Instant::now();
            let p = partition(g, alg, &cfg, default_order());
            let partition_seconds = start.elapsed().as_secs_f64();
            rows.push(QualityRow {
                dataset: dataset_name.to_string(),
                algorithm: alg,
                k,
                quality: QualityReport::measure(g, &p),
                partition_seconds,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Multi-loader ablation (Table 1 "Parallelization"; beyond the paper)
// ---------------------------------------------------------------------------

/// One multi-loader measurement: the structural quality of the placement
/// produced when the input stream is split across `loaders` parallel
/// loaders that synchronize shared state every `sync_interval` elements.
#[derive(Debug, Clone)]
pub struct LoaderRow {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Stream-order label ("random", "bfs", ...).
    pub order: String,
    /// Number of partitions.
    pub k: usize,
    /// Number of parallel loaders `L`.
    pub loaders: usize,
    /// Elements each loader places between synchronization barriers.
    pub sync_interval: usize,
    /// Structural quality of the resulting placement.
    pub quality: QualityReport,
}

/// Runs the multi-loader grid: every `(order, algorithm, L, T)` cell on
/// one graph. `L = 1` cells are measured once per order (the sync
/// interval is irrelevant when the local state *is* the global state)
/// and serve as the sequential baseline rows.
pub fn loaders_suite(
    dataset_name: &str,
    g: &Graph,
    algorithms: &[Algorithm],
    k: usize,
    orders: &[(&str, StreamOrder)],
    loader_counts: &[usize],
    sync_intervals: &[usize],
) -> Vec<LoaderRow> {
    let cfg = PartitionerConfig::new(k);
    let mut rows = Vec::new();
    for &(order_name, order) in orders {
        for &alg in algorithms {
            for &loaders in loader_counts {
                let intervals: &[usize] = if loaders <= 1 {
                    &sync_intervals[..sync_intervals.len().min(1)]
                } else {
                    sync_intervals
                };
                for &sync_interval in intervals {
                    let lc = LoaderConfig::new(loaders).with_sync_interval(sync_interval);
                    let p = partition_multi_loader(g, alg, &cfg, order, &lc);
                    rows.push(LoaderRow {
                        dataset: dataset_name.to_string(),
                        algorithm: alg,
                        order: order_name.to_string(),
                        k,
                        loaders,
                        sync_interval,
                        quality: QualityReport::measure(g, &p),
                    });
                }
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Offline analytics suite (Fig. 1, 3, 4, 13)
// ---------------------------------------------------------------------------

/// One offline-analytics measurement.
#[derive(Debug, Clone)]
pub struct OfflineRow {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Workload.
    pub workload: OfflineWorkload,
    /// Number of machines.
    pub k: usize,
    /// Replication factor of the placement.
    pub replication_factor: f64,
    /// Total network bytes during execution (Fig. 1's y-axis).
    pub network_bytes: u64,
    /// Total messages during execution.
    pub messages: u64,
    /// Simulated execution time in seconds (Fig. 3's y-axis).
    pub exec_seconds: f64,
    /// Supersteps executed.
    pub iterations: usize,
    /// Per-machine compute-time five-number summary in seconds
    /// (min, p25, median, p75, max — Fig. 4's lines).
    pub compute_dist: [f64; 5],
}

/// Runs the offline grid: every (algorithm, workload, k) on one graph.
pub fn offline_suite(
    dataset_name: &str,
    g: &Graph,
    algorithms: &[Algorithm],
    workloads: &[OfflineWorkload],
    ks: &[usize],
) -> Vec<OfflineRow> {
    let opts = EngineOptions::default();
    let mut rows = Vec::new();
    for &k in ks {
        let cfg = PartitionerConfig::new(k);
        for &alg in algorithms {
            let p = partition(g, alg, &cfg, default_order());
            let placement = Placement::build(g, &p);
            for &w in workloads {
                let report = run_offline_workload(g, &placement, w, &opts);
                rows.push(OfflineRow {
                    dataset: dataset_name.to_string(),
                    algorithm: alg,
                    workload: w,
                    k,
                    replication_factor: report.replication_factor,
                    network_bytes: report.total_network_bytes(),
                    messages: report.total_messages(),
                    exec_seconds: report.total_seconds(),
                    iterations: report.num_iterations(),
                    compute_dist: report.compute_time_distribution(),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Online query suite (Table 4, 5; Fig. 5, 6, 7, 12, 14, 15)
// ---------------------------------------------------------------------------

/// One online-query measurement.
#[derive(Debug, Clone)]
pub struct OnlineRow {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm (edge-cut only; §5.2.2).
    pub algorithm: Algorithm,
    /// Query class.
    pub workload: WorkloadKind,
    /// Number of machines.
    pub k: usize,
    /// Clients per machine in this run.
    pub clients_per_machine: usize,
    /// Store-level edge-cut ratio (Table 4's metric).
    pub edge_cut_ratio: f64,
    /// Aggregate throughput, queries/second (Fig. 6/12/14).
    pub throughput_qps: f64,
    /// Mean latency, ms (Table 5).
    pub mean_latency_ms: f64,
    /// 99th-percentile latency, ms (Table 5).
    pub p99_latency_ms: f64,
    /// Total network bytes of one pass over the bindings (Fig. 5).
    pub network_bytes: u64,
    /// Per-machine vertex reads during the simulation (Fig. 7/15).
    pub reads_per_machine: Vec<u64>,
    /// Five-number summary of `reads_per_machine` (Fig. 7/15's lines).
    pub reads_dist: [f64; 5],
    /// Relative std-dev of the read distribution (Fig. 8's metric).
    pub load_rsd: f64,
}

/// Parameters of an online run.
#[derive(Debug, Clone, Copy)]
pub struct OnlineRunConfig {
    /// Query bindings generated (the paper uses 1000).
    pub bindings: usize,
    /// Start-vertex skew.
    pub skew: Skew,
    /// Queries per client in the simulation.
    pub queries_per_client: usize,
    /// Clients per machine.
    pub clients_per_machine: usize,
    /// Binding-generation seed.
    pub seed: u64,
}

impl OnlineRunConfig {
    /// Paper-like defaults at the given load level.
    pub fn for_load(level: LoadLevel) -> Self {
        OnlineRunConfig {
            bindings: 1000,
            skew: Skew::Zipf { theta: 0.6 },
            queries_per_client: 40,
            clients_per_machine: level.clients_per_machine(),
            seed: 0x0_1A7,
        }
    }
}

/// Builds the store for an online experiment (edge-cut algorithms only).
pub fn build_store(g: &Graph, alg: Algorithm, k: usize) -> PartitionedStore {
    let cfg = PartitionerConfig::new(k);
    let p = partition(g, alg, &cfg, default_order());
    PartitionedStore::new(g.clone(), &p)
}

/// Runs one online measurement.
pub fn online_run(
    dataset_name: &str,
    g: &Graph,
    alg: Algorithm,
    kind: WorkloadKind,
    k: usize,
    run_cfg: &OnlineRunConfig,
) -> OnlineRow {
    let store = build_store(g, alg, k);
    online_run_on_store(dataset_name, &store, alg, kind, run_cfg)
}

/// Runs one online measurement against a pre-built store (used by the
/// workload-aware experiment to install custom ownership maps).
pub(crate) fn online_run_on_store(
    dataset_name: &str,
    store: &PartitionedStore,
    alg: Algorithm,
    kind: WorkloadKind,
    run_cfg: &OnlineRunConfig,
) -> OnlineRow {
    let workload =
        Workload::generate(store.graph(), kind, run_cfg.bindings, run_cfg.skew, run_cfg.seed);
    let traces = run_workload(store, &workload, None);
    let network_bytes: u64 = traces.iter().map(|t| t.network_bytes()).sum();
    let sim = ClusterSim::from_traces(store.machines(), traces);
    let sim_cfg = SimConfig {
        clients_per_machine: run_cfg.clients_per_machine,
        queries_per_client: run_cfg.queries_per_client,
        ..Default::default()
    };
    let r = sim.run(&sim_cfg);
    let mut sorted: Vec<f64> = r.reads_per_machine.iter().map(|&x| x as f64).collect();
    #[expect(
        clippy::expect_used,
        reason = "operands are u64 counts cast to f64 on the line above, so partial_cmp is total here"
    )]
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    OnlineRow {
        dataset: dataset_name.to_string(),
        algorithm: alg,
        workload: kind,
        k: store.machines(),
        clients_per_machine: run_cfg.clients_per_machine,
        edge_cut_ratio: store.edge_cut_ratio(),
        throughput_qps: r.throughput_qps,
        mean_latency_ms: r.mean_latency_ms,
        p99_latency_ms: r.p99_latency_ms,
        network_bytes,
        reads_dist: five_number_summary(&sorted),
        load_rsd: r.load_rsd,
        reads_per_machine: r.reads_per_machine,
    }
}

// ---------------------------------------------------------------------------
// Workload-aware repartitioning (Fig. 8)
// ---------------------------------------------------------------------------

/// Result of the Fig. 8 experiment: the named configuration, its
/// throughput and its load RSD.
#[derive(Debug, Clone)]
pub struct WorkloadAwareRow {
    /// Configuration label (`ECR`, `LDG`, `FNL`, `MTS`, `MTS (W)`).
    pub label: String,
    /// Aggregate throughput, queries/second.
    pub throughput_qps: f64,
    /// Relative std-dev of per-machine reads.
    pub load_rsd: f64,
}

/// Reproduces Fig. 8: runs the 1-hop workload over the online suite plus
/// a weighted MTS partitioning computed from recorded access counts.
pub fn workload_aware_suite(
    g: &Graph,
    k: usize,
    run_cfg: &OnlineRunConfig,
) -> Vec<WorkloadAwareRow> {
    let mut rows = Vec::new();
    for &alg in Algorithm::online_suite() {
        let row = online_run("workload-aware", g, alg, WorkloadKind::OneHop, k, run_cfg);
        rows.push(WorkloadAwareRow {
            label: alg.short_name().to_string(),
            throughput_qps: row.throughput_qps,
            load_rsd: row.load_rsd,
        });
    }
    // Record accesses under the baseline (MTS) partitioning, then
    // repartition the weighted graph with the same multilevel code.
    let baseline = build_store(g, Algorithm::Metis, k);
    let workload =
        Workload::generate(g, WorkloadKind::OneHop, run_cfg.bindings, run_cfg.skew, run_cfg.seed);
    let mut recorder = sgp_db::AccessRecorder::new(g.num_vertices());
    run_workload(&baseline, &workload, Some(&mut recorder));
    let weights = recorder.vertex_weights();
    let owner = MultilevelPartitioner::default().partition_weighted(g, k, Some(&weights));
    let weighted_store = PartitionedStore::from_owner(g.clone(), k, owner);
    let row = online_run_on_store(
        "workload-aware",
        &weighted_store,
        Algorithm::Metis,
        WorkloadKind::OneHop,
        run_cfg,
    );
    rows.push(WorkloadAwareRow {
        label: "MTS (W)".to_string(),
        throughput_qps: row.throughput_qps,
        load_rsd: row.load_rsd,
    });
    // Extension beyond the paper: the *streaming* workload-aware variant
    // (attribute-balanced LDG, Appendix A) fed with the same recorded
    // access counts — no offline repartitioning required.
    let cfg = PartitionerConfig::new(k);
    let mut aldg = sgp_partition::attribute::AttributeLdg::new(&cfg, weights);
    let p = run_vertex_stream(g, &mut aldg, k, default_order(), &mut NullSink);
    let streaming_store = PartitionedStore::new(g.clone(), &p);
    let row = online_run_on_store(
        "workload-aware",
        &streaming_store,
        Algorithm::Ldg,
        WorkloadKind::OneHop,
        run_cfg,
    );
    rows.push(WorkloadAwareRow {
        label: "aLDG (W)".to_string(),
        throughput_qps: row.throughput_qps,
        load_rsd: row.load_rsd,
    });
    rows
}

// ---------------------------------------------------------------------------
// Fig. 1 / Fig. 5 scatter series
// ---------------------------------------------------------------------------

/// One (cut-size, network I/O) scatter point, grouped by cut model.
#[derive(Debug, Clone)]
pub struct ScatterPoint {
    /// Cut-model label ("Edge-cut", "Vertex-cut", "Hybrid-cut").
    pub series: String,
    /// Algorithm behind the point.
    pub algorithm: Algorithm,
    /// Number of machines.
    pub k: usize,
    /// X value: replication factor (Fig. 1) or edge-cut ratio (Fig. 5).
    pub x: f64,
    /// Y value: total network bytes.
    pub y_bytes: u64,
}

/// Fig. 1 data: RF vs total network I/O per workload per cut model.
pub fn fig1_scatter(
    g: &Graph,
    workload: OfflineWorkload,
    ks: &[usize],
    algorithms: &[Algorithm],
) -> Vec<ScatterPoint> {
    let opts = EngineOptions::default();
    let mut points = Vec::new();
    for &k in ks {
        let cfg = PartitionerConfig::new(k);
        for &alg in algorithms {
            let p = partition(g, alg, &cfg, default_order());
            let placement = Placement::build(g, &p);
            let report = run_offline_workload(g, &placement, workload, &opts);
            points.push(ScatterPoint {
                series: alg.info().model.to_string(),
                algorithm: alg,
                k,
                x: report.replication_factor,
                y_bytes: report.total_network_bytes(),
            });
        }
    }
    points
}

/// Least-squares slope through the origin for a scatter series — used to
/// compare the per-cut-model slopes of Fig. 1.
pub fn series_slope(points: &[ScatterPoint]) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for p in points {
        // Slope vs mirrors (x − 1): a placement with RF = 1 moves nothing.
        let x = (p.x - 1.0).max(0.0);
        num += x * p.y_bytes as f64;
        den += x * x;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pearson correlation of `(x, y)` points — Fig. 5's "linear function"
/// of the edge-cut ratio.
pub fn pearson(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let vx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let vy: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
}

// ---------------------------------------------------------------------------
// Robustness suite (fault injection; beyond the paper — DESIGN.md §7)
// ---------------------------------------------------------------------------

/// Parameters of a robustness (fault-injection) experiment: one shared
/// [`FaultPlan`] applied to every algorithm under test, so availability
/// differences are attributable to the cut model alone.
#[derive(Debug, Clone)]
pub struct RobustnessConfig {
    /// Query bindings generated for the 1-hop workload.
    pub bindings: usize,
    /// Start-vertex skew of the workload.
    pub skew: Skew,
    /// Binding-generation seed.
    pub workload_seed: u64,
    /// DES base parameters plus the retry/backoff policy.
    pub sim: FaultSimConfig,
    /// Seed of the fault plan (drives message-loss and failover draws).
    pub plan_seed: u64,
    /// Simulated time at which the victim machine (index `k − 1`)
    /// crashes permanently. Skipped for single-machine clusters.
    pub crash_at_ns: u64,
    /// Whole-run straggler slowdown on machine 0; values ≤ 1 disable it.
    pub straggler_factor: f64,
    /// Per-message drop probability on cross-machine traffic.
    pub message_loss: f64,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            bindings: 400,
            skew: Skew::Zipf { theta: 0.6 },
            workload_seed: 0x0_1A7,
            sim: FaultSimConfig::default(),
            plan_seed: 0xFA_17,
            crash_at_ns: 2_000_000,
            straggler_factor: 2.0,
            message_loss: 0.002,
        }
    }
}

impl RobustnessConfig {
    /// Builds the fault plan shared by every algorithm in the suite: a
    /// permanent crash of machine `k − 1`, a whole-run straggler on
    /// machine 0, and uniform message loss.
    pub fn build_plan(&self, k: usize) -> FaultPlan {
        let mut plan = FaultPlan::healthy(k, self.plan_seed).with_message_loss(self.message_loss);
        if k > 1 {
            plan = plan.with_crash(k as u32 - 1, self.crash_at_ns);
        }
        if self.straggler_factor > 1.0 {
            plan = plan.with_straggler(0, 0, u64::MAX, self.straggler_factor);
        }
        plan
    }
}

/// One online (DES) robustness measurement.
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm whose placement defines masters and mirrors.
    pub algorithm: Algorithm,
    /// Cut-model label (mirrors exist only for vertex/hybrid cuts).
    pub cut_model: String,
    /// Number of machines.
    pub k: usize,
    /// Fraction of post-warm-up queries that completed successfully.
    pub availability: f64,
    /// Successful queries per second.
    pub goodput_qps: f64,
    /// Offered load: all completions (success + failure) per second.
    pub offered_qps: f64,
    /// Sub-request re-sends over the whole run.
    pub retries: u64,
    /// Cross-machine messages dropped by the plan.
    pub dropped_messages: u64,
    /// Sub-requests redirected to a live mirror.
    pub failovers: u64,
    /// Failed post-warm-up queries.
    pub failed: usize,
    /// Median latency of successful queries, ms.
    pub p50_latency_ms: f64,
    /// 99th-percentile latency of successful queries, ms.
    pub p99_latency_ms: f64,
}

/// Runs the online robustness suite: every algorithm's placement is
/// subjected to the *same* fault plan, and availability/goodput are
/// measured by the fault-injected DES. Edge-cut placements have no
/// mirrors, so a crashed master is simply unavailable; vertex-cut and
/// hybrid-cut placements fail reads over to live mirrors.
pub fn robustness_suite(
    dataset_name: &str,
    g: &Graph,
    algorithms: &[Algorithm],
    k: usize,
    cfg: &RobustnessConfig,
) -> Result<Vec<RobustnessRow>, SimError> {
    let plan = cfg.build_plan(k);
    let pcfg = PartitionerConfig::new(k);
    let mut rows = Vec::with_capacity(algorithms.len());
    for &alg in algorithms {
        let p = partition(g, alg, &pcfg, default_order());
        let store = PartitionedStore::from_owner(g.clone(), k, p.masters(g));
        let mirrors = MirrorDirectory::for_model(g, &p);
        let workload =
            Workload::generate(g, WorkloadKind::OneHop, cfg.bindings, cfg.skew, cfg.workload_seed);
        let sim = ClusterSim::prepare(&store, &workload);
        let r = sim.run_faulted(&cfg.sim, &plan, &mirrors)?;
        rows.push(RobustnessRow {
            dataset: dataset_name.to_string(),
            algorithm: alg,
            cut_model: alg.info().model.to_string(),
            k,
            availability: r.availability,
            goodput_qps: r.goodput_qps,
            offered_qps: r.offered_qps,
            retries: r.retries,
            dropped_messages: r.dropped_messages,
            failovers: r.failovers,
            failed: r.failed,
            p50_latency_ms: r.p50_latency_ms,
            p99_latency_ms: r.p99_latency_ms,
        });
    }
    Ok(rows)
}

/// One engine (offline analytics) robustness measurement: the same
/// PageRank run healthy and under the fault plan.
#[derive(Debug, Clone)]
pub struct EngineRobustnessRow {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm behind the placement.
    pub algorithm: Algorithm,
    /// Cut-model label.
    pub cut_model: String,
    /// Number of machines.
    pub k: usize,
    /// Simulated healthy execution time, seconds.
    pub healthy_seconds: f64,
    /// Simulated execution time under the fault plan, seconds.
    pub faulted_seconds: f64,
    /// Master vertices restored from a live mirror after the crash.
    pub recovered_vertices: usize,
    /// Master vertices recomputed from scratch (no mirror).
    pub recomputed_vertices: usize,
    /// Bytes shipped to restore mirrored state.
    pub recovery_bytes: u64,
    /// Extra seconds attributable to straggler slowdowns.
    pub straggler_extra_seconds: f64,
}

/// Runs the engine robustness suite: PageRank over each algorithm's
/// placement, healthy and fault-inflated, under one shared plan. The
/// computed ranks are identical in both runs (pause-and-recover model);
/// only the cost accounting differs. Errors when `cfg` builds a plan the
/// engine refuses.
pub fn engine_robustness_suite(
    dataset_name: &str,
    g: &Graph,
    algorithms: &[Algorithm],
    k: usize,
    cfg: &RobustnessConfig,
) -> Result<Vec<EngineRobustnessRow>, EngineError> {
    let opts = EngineOptions::default();
    let plan = cfg.build_plan(k);
    let pcfg = PartitionerConfig::new(k);
    let mut rows = Vec::with_capacity(algorithms.len());
    for &alg in algorithms {
        let p = partition(g, alg, &pcfg, default_order());
        let placement = Placement::build(g, &p);
        let prog = PageRank::new(20);
        let healthy = run_program(g, &placement, &prog, &opts).1;
        let faulted = run_program_with(g, &placement, &prog, &opts, Some(&plan), &mut NullSink)?.1;
        let summary = faulted.fault.clone().unwrap_or_default();
        rows.push(EngineRobustnessRow {
            dataset: dataset_name.to_string(),
            algorithm: alg,
            cut_model: alg.info().model.to_string(),
            k,
            healthy_seconds: healthy.total_seconds(),
            faulted_seconds: faulted.total_seconds(),
            recovered_vertices: summary.recovered_vertices,
            recomputed_vertices: summary.recomputed_vertices,
            recovery_bytes: summary.recovery_bytes,
            straggler_extra_seconds: summary.straggler_extra_ns / 1e9,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Elasticity suite (membership changes + bounded migration; DESIGN.md §11)
// ---------------------------------------------------------------------------

/// Parameters of an elasticity experiment: one crash-rejoin membership
/// disruption of the last machine, with the rejoin's state restore
/// priced by [`plan_rebalance`] over the algorithm's own placement and
/// charged to the DES, so RTO / data-moved / shed-query differences are
/// attributable to the cut model alone.
#[derive(Debug, Clone)]
pub struct ElasticityConfig {
    /// Query bindings generated for the 1-hop workload.
    pub bindings: usize,
    /// Start-vertex skew of the workload.
    pub skew: Skew,
    /// Binding-generation seed.
    pub workload_seed: u64,
    /// DES base parameters, retry policy, and degraded-mode knobs.
    pub sim: FaultSimConfig,
    /// Seed of the fault plan (drives message-loss and failover draws).
    pub plan_seed: u64,
    /// Simulated time at which machine `k − 1` drops out of the
    /// cluster. Skipped for single-machine clusters.
    pub disrupt_at_ns: u64,
    /// Downtime before the machine rejoins, stale.
    pub rejoin_after_ns: u64,
    /// Bounds on the rebalance that restores the rejoined machine.
    pub migration: MigrationConfig,
}

impl Default for ElasticityConfig {
    fn default() -> Self {
        ElasticityConfig {
            bindings: 400,
            skew: Skew::Zipf { theta: 0.6 },
            workload_seed: 0x0_1A7,
            sim: FaultSimConfig {
                degraded: DegradedConfig { shed_queue_depth: 4, migration_ns_per_record: 2_000 },
                ..FaultSimConfig::default()
            },
            plan_seed: 0x000E_1A57,
            disrupt_at_ns: 2_000_000,
            rejoin_after_ns: 10_000_000,
            migration: MigrationConfig::default(),
        }
    }
}

/// One elasticity measurement: availability and tail latency while the
/// cluster rides out a membership change, plus the recovery accounting.
#[derive(Debug, Clone)]
pub struct ElasticityRow {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm whose placement defines masters, mirrors, and the
    /// migration cost.
    pub algorithm: Algorithm,
    /// Cut-model label.
    pub cut_model: String,
    /// Number of machines.
    pub k: usize,
    /// Fraction of post-warm-up queries that completed successfully.
    pub availability: f64,
    /// 99th-percentile latency of successful queries, ms.
    pub p99_latency_ms: f64,
    /// Recovery time objective: disruption to full service, ms.
    pub rto_ms: f64,
    /// Migration records shipped to restore the rejoined machine.
    pub data_moved: u64,
    /// Vertices the rebalance plan relocates.
    pub vertices_moved: usize,
    /// Whether the bounded rebalance fully restored balance.
    pub balance_restored: bool,
    /// Shares fast-rejected by admission control while degraded.
    pub shed_queries: u64,
    /// Sub-requests redirected to a live mirror.
    pub failovers: u64,
}

/// Runs the elasticity suite: every algorithm's placement rides the
/// *same* crash-rejoin disruption of machine `k − 1`; the state restore
/// is priced by the bounded-movement rebalance over that placement and
/// charged to the DES cost model, degrading the cluster while the
/// transfer drains (DESIGN.md §11).
pub fn elastic_suite(
    dataset_name: &str,
    g: &Graph,
    algorithms: &[Algorithm],
    k: usize,
    cfg: &ElasticityConfig,
) -> Result<Vec<ElasticityRow>, SimError> {
    let pcfg = PartitionerConfig::new(k);
    let mut rows = Vec::with_capacity(algorithms.len());
    for &alg in algorithms {
        let p = partition(g, alg, &pcfg, default_order());
        let owner = p.masters(g);
        let store = PartitionedStore::from_owner(g.clone(), k, owner.clone());
        let mirrors = MirrorDirectory::for_model(g, &p);
        let workload =
            Workload::generate(g, WorkloadKind::OneHop, cfg.bindings, cfg.skew, cfg.workload_seed);
        let sim = ClusterSim::prepare(&store, &workload);
        let mut plan = FaultPlan::healthy(k, cfg.plan_seed);
        let mut elastic = ElasticPlan::default();
        let mut vertices_moved = 0;
        let mut balance_restored = true;
        if k > 1 {
            let victim = k - 1;
            let live: Vec<bool> = (0..k).map(|m| m != victim).collect();
            let mplan = plan_rebalance(g, &owner, &live, &cfg.migration);
            vertices_moved = mplan.moves.len();
            balance_restored = mplan.balance_restored;
            plan = plan.with_crash_rejoin(victim as u32, cfg.disrupt_at_ns, cfg.rejoin_after_ns);
            // Restoring the rejoined machine ships the same records its
            // evacuation would have: the data it masters.
            elastic.records_per_event.push(mplan.data_moved);
        }
        let r = sim.run_elastic_traced(&cfg.sim, &plan, &mirrors, &elastic, &mut NullSink)?;
        rows.push(ElasticityRow {
            dataset: dataset_name.to_string(),
            algorithm: alg,
            cut_model: alg.info().model.to_string(),
            k,
            availability: r.availability,
            p99_latency_ms: r.p99_latency_ms,
            rto_ms: r.rto_ms,
            data_moved: r.data_moved,
            vertices_moved,
            balance_restored,
            shed_queries: r.shed_queries,
            failovers: r.failovers,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Churn suite (dynamic graphs: quality vs movement; DESIGN.md §12)
// ---------------------------------------------------------------------------

/// A maintenance strategy under edge churn: how the cluster reacts when
/// a repartitioning trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnMethod {
    /// Full repartition with two-phase streaming (2PS) on every trigger.
    TwoPhase,
    /// Full repartition with LDG behind a `W`-element look-ahead window.
    Windowed,
    /// Bounded-movement repair: restream LDG over the current owner map
    /// via [`plan_rebalance`] with the `Restream` strategy.
    Restream,
}

impl ChurnMethod {
    /// The three methods in report order.
    pub fn all() -> &'static [ChurnMethod] {
        &[ChurnMethod::TwoPhase, ChurnMethod::Windowed, ChurnMethod::Restream]
    }

    /// Label rendered into the churn report.
    pub fn name(&self) -> &'static str {
        match self {
            ChurnMethod::TwoPhase => "2PS",
            ChurnMethod::Windowed => "W-LDG",
            ChurnMethod::Restream => "reLDG",
        }
    }

    fn algorithm(&self) -> Algorithm {
        match self {
            ChurnMethod::TwoPhase => Algorithm::TwoPhaseHdrf,
            ChurnMethod::Windowed | ChurnMethod::Restream => Algorithm::Ldg,
        }
    }

    fn partitioner_config(&self, cfg: &ChurnSuiteConfig) -> PartitionerConfig {
        let pcfg = PartitionerConfig::new(cfg.k);
        match self {
            ChurnMethod::Windowed => pcfg.with_window(cfg.window),
            _ => pcfg,
        }
    }
}

impl std::fmt::Display for ChurnMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// Parameters of a churn experiment: the edge-churn workload plus the
/// repartitioning triggers and the per-method knobs.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSuiteConfig {
    /// Number of partitions.
    pub k: usize,
    /// Seeded insert/delete stream applied to the dataset graph.
    pub churn: ChurnConfig,
    /// Repartition when max/avg per-partition *edge* load exceeds this.
    pub imbalance_trigger: f64,
    /// Repartition when the cut ratio exceeds this multiple of the cut
    /// ratio measured right after the previous repartition.
    pub cut_degradation_trigger: f64,
    /// Look-ahead window `W` of the windowed method.
    pub window: usize,
    /// Per-trigger movement budget of the restream method.
    pub restream_budget: usize,
    /// Restream rounds attempted per trigger.
    pub restream_rounds: usize,
}

impl Default for ChurnSuiteConfig {
    fn default() -> Self {
        ChurnSuiteConfig {
            k: 4,
            churn: ChurnConfig {
                batches: 8,
                inserts_per_batch: 64,
                deletes_per_batch: 48,
                seed: 0xC0_2019,
            },
            imbalance_trigger: 1.25,
            cut_degradation_trigger: 1.05,
            window: 8,
            restream_budget: 256,
            restream_rounds: 2,
        }
    }
}

/// One churn measurement: how one maintenance method traded movement for
/// quality over the whole churn stream.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Dataset name.
    pub dataset: String,
    /// Maintenance method.
    pub method: ChurnMethod,
    /// Number of partitions.
    pub k: usize,
    /// Churn batches applied.
    pub batches: usize,
    /// Times a trigger fired and the method repartitioned/repaired.
    pub repartitions: usize,
    /// Vertices whose owner changed across all repartitions.
    pub vertices_moved: u64,
    /// Structural quality of the final owner map on the final graph
    /// (edge-cut view, so the three methods are directly comparable).
    pub final_quality: QualityReport,
    /// Cut ratio of the final owner map on the final graph.
    pub final_cut_ratio: f64,
}

/// Max/avg per-partition edge load, charging each edge to its source's
/// partition (the edge-cut store's placement rule). Insertions and
/// deletions shift this without any owner changing, so it is the
/// imbalance signal that actually moves under churn.
fn churn_edge_imbalance(g: &Graph, owner: &[PartitionId], k: usize) -> f64 {
    let mut loads = vec![0u64; k];
    for e in g.edges() {
        loads[owner[e.src as usize] as usize] += 1;
    }
    let max = loads.iter().copied().max().unwrap_or(0);
    if g.num_edges() == 0 {
        1.0
    } else {
        max as f64 * k as f64 / g.num_edges() as f64
    }
}

/// Runs the churn suite: each method starts from its own initial
/// partition of `g`, then rides the same seeded insert/delete stream;
/// whenever the edge-imbalance or cut-degradation trigger fires, the
/// method repartitions (2PS, windowed LDG) or repairs under a movement
/// budget (restreamed LDG), and the suite accounts every owner change.
/// Pure function of its inputs — same seeds, same rows, bit for bit.
pub fn churn_suite(
    dataset_name: &str,
    g: &Graph,
    methods: &[ChurnMethod],
    cfg: &ChurnSuiteConfig,
) -> Vec<ChurnRow> {
    churn_suite_traced(dataset_name, g, methods, cfg, &mut NullSink)
}

/// [`churn_suite`] with trace instrumentation: per method (counter key =
/// method index) it emits the batches applied, the repartitions
/// triggered, and the vertices moved.
pub(crate) fn churn_suite_traced<S: TraceSink>(
    dataset_name: &str,
    g: &Graph,
    methods: &[ChurnMethod],
    cfg: &ChurnSuiteConfig,
    sink: &mut S,
) -> Vec<ChurnRow> {
    let mut rows = Vec::with_capacity(methods.len());
    for (mi, &method) in methods.iter().enumerate() {
        let pcfg = method.partitioner_config(cfg);
        let alg = method.algorithm();
        let mut owner = partition(g, alg, &pcfg, default_order()).masters(g);
        let mut cur = g.clone();
        let mut baseline_cut = edge_cut_ratio_from_owner(&cur, &owner);
        let mut repartitions = 0usize;
        let mut moved = 0u64;
        let mut batches = 0usize;
        let mut stream = ChurnStream::new(g, cfg.churn);
        while let Some(batch) = stream.next_batch() {
            cur = batch.graph;
            batches += 1;
            let imbalance = churn_edge_imbalance(&cur, &owner, cfg.k);
            let cut = edge_cut_ratio_from_owner(&cur, &owner);
            if imbalance <= cfg.imbalance_trigger
                && cut <= baseline_cut * cfg.cut_degradation_trigger
            {
                continue;
            }
            repartitions += 1;
            match method {
                ChurnMethod::TwoPhase | ChurnMethod::Windowed => {
                    let next = partition(&cur, alg, &pcfg, default_order()).masters(&cur);
                    moved += owner.iter().zip(&next).filter(|(a, b)| a != b).count() as u64;
                    owner = next;
                }
                ChurnMethod::Restream => {
                    let live = vec![true; cfg.k];
                    let mcfg = MigrationConfig {
                        budget: cfg.restream_budget,
                        strategy: MigrationStrategy::Restream {
                            algorithm: alg,
                            order: default_order(),
                            rounds: cfg.restream_rounds,
                        },
                        ..MigrationConfig::default()
                    };
                    let plan = plan_rebalance(&cur, &owner, &live, &mcfg);
                    moved += plan.moves.len() as u64;
                    owner = plan.apply(&owner);
                }
            }
            baseline_cut = edge_cut_ratio_from_owner(&cur, &owner);
        }
        sink.counter_add(keys::PARTITION_CHURN_BATCHES, mi as u64, batches as u64);
        sink.counter_add(keys::PARTITION_CHURN_REPARTITIONS, mi as u64, repartitions as u64);
        sink.counter_add(keys::PARTITION_CHURN_MOVED, mi as u64, moved);
        let final_cut_ratio = edge_cut_ratio_from_owner(&cur, &owner);
        let final_quality =
            QualityReport::measure(&cur, &Partitioning::from_vertex_owners(&cur, cfg.k, owner));
        rows.push(ChurnRow {
            dataset: dataset_name.to_string(),
            method,
            k: cfg.k,
            batches,
            repartitions,
            vertices_moved: moved,
            final_quality,
            final_cut_ratio,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataset, Scale};

    fn tiny_graph(d: Dataset) -> Graph {
        d.generate(Scale::Tiny)
    }

    #[test]
    fn quality_suite_produces_full_grid() {
        let g = tiny_graph(Dataset::LdbcSnb);
        let rows = quality_suite("test", &g, &[Algorithm::EcrHash, Algorithm::Ldg], &[2, 4]);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.quality.replication_factor >= 1.0));
        assert!(rows.iter().all(|r| r.partition_seconds >= 0.0));
    }

    #[test]
    fn loaders_suite_grid_and_baseline_rows() {
        let g = tiny_graph(Dataset::Twitter);
        let rows = loaders_suite(
            "twitter",
            &g,
            &[Algorithm::Ldg, Algorithm::Hdrf],
            4,
            &[("random", StreamOrder::Random { seed: 3 })],
            &[1, 4],
            &[16, 256],
        );
        // L=1 collapses to one interval: 2 algs × (1 + 2) cells.
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.quality.replication_factor >= 1.0));
        // The L=1 baseline must equal the sequential registry result.
        let cfg = PartitionerConfig::new(4);
        let seq = partition(&g, Algorithm::Ldg, &cfg, StreamOrder::Random { seed: 3 });
        let seq_quality = QualityReport::measure(&g, &seq);
        let base = rows
            .iter()
            .find(|r| r.algorithm == Algorithm::Ldg && r.loaders == 1)
            .expect("baseline row");
        assert_eq!(base.quality.replication_factor, seq_quality.replication_factor);
        assert_eq!(base.quality.edge_cut_ratio, seq_quality.edge_cut_ratio);
    }

    #[test]
    fn offline_suite_rows_are_consistent() {
        let g = tiny_graph(Dataset::Twitter);
        let rows = offline_suite(
            "twitter",
            &g,
            &[Algorithm::EcrHash, Algorithm::Hdrf],
            &[OfflineWorkload::PageRank],
            &[4],
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.iterations, 20, "{:?}", r.algorithm);
            assert!(r.exec_seconds > 0.0);
            assert!(r.compute_dist[0] <= r.compute_dist[4]);
        }
    }

    #[test]
    fn sssp_row_has_fewer_messages_than_pagerank() {
        // Fig. 1: PageRank is the communication-heaviest workload.
        let g = tiny_graph(Dataset::Twitter);
        let rows = offline_suite(
            "twitter",
            &g,
            &[Algorithm::Hdrf],
            &[OfflineWorkload::PageRank, OfflineWorkload::Sssp],
            &[4],
        );
        let pr = &rows[0];
        let sssp = &rows[1];
        assert!(pr.network_bytes > sssp.network_bytes);
    }

    #[test]
    fn online_run_produces_sane_row() {
        let g = tiny_graph(Dataset::LdbcSnb);
        let cfg = OnlineRunConfig {
            bindings: 100,
            queries_per_client: 10,
            clients_per_machine: 4,
            ..OnlineRunConfig::for_load(LoadLevel::Medium)
        };
        let row = online_run("snb", &g, Algorithm::EcrHash, WorkloadKind::OneHop, 4, &cfg);
        assert!(row.throughput_qps > 0.0);
        assert!(row.p99_latency_ms >= row.mean_latency_ms * 0.5);
        assert_eq!(row.reads_per_machine.len(), 4);
        assert!(row.edge_cut_ratio > 0.5, "hash ECR should be ~1-1/k");
    }

    #[test]
    fn fig1_scatter_slopes_order_edge_cut_below_vertex_cut() {
        let g = tiny_graph(Dataset::Twitter);
        let points = fig1_scatter(
            &g,
            OfflineWorkload::PageRank,
            &[4, 8],
            &[Algorithm::EcrHash, Algorithm::Ldg, Algorithm::VcrHash, Algorithm::Hdrf],
        );
        let ec: Vec<ScatterPoint> =
            points.iter().filter(|p| p.series == "edge-cut").cloned().collect();
        let vc: Vec<ScatterPoint> =
            points.iter().filter(|p| p.series == "vertex-cut").cloned().collect();
        assert!(!ec.is_empty() && !vc.is_empty());
        assert!(
            series_slope(&ec) < series_slope(&vc),
            "edge-cut slope must undercut vertex-cut for PageRank (Fig. 1a)"
        );
    }

    #[test]
    fn robustness_replicating_cuts_beat_edge_cut_availability() {
        // Acceptance: under one shared crash plan, placements that give
        // the DES mirrors (vertex-cut, hybrid-cut) keep strictly more
        // queries alive than the mirror-less edge-cut placement.
        let g = tiny_graph(Dataset::LdbcSnb);
        let cfg = RobustnessConfig {
            bindings: 200,
            sim: FaultSimConfig {
                base: SimConfig {
                    clients_per_machine: 4,
                    queries_per_client: 12,
                    ..Default::default()
                },
                ..Default::default()
            },
            crash_at_ns: 0,
            straggler_factor: 1.0,
            message_loss: 0.0,
            ..Default::default()
        };
        let algs = [Algorithm::EcrHash, Algorithm::VcrHash, Algorithm::HybridRandom];
        let rows = robustness_suite("snb", &g, &algs, 4, &cfg).expect("valid plan");
        assert_eq!(rows.len(), 3);
        let avail = |a: Algorithm| {
            rows.iter().find(|r| r.algorithm == a).expect("row for algorithm").availability
        };
        assert!(avail(Algorithm::EcrHash) < 1.0, "edge-cut must lose queries to the dead master");
        assert!(
            avail(Algorithm::VcrHash) > avail(Algorithm::EcrHash),
            "vertex-cut mirrors must buy availability: {} vs {}",
            avail(Algorithm::VcrHash),
            avail(Algorithm::EcrHash)
        );
        assert!(
            avail(Algorithm::HybridRandom) > avail(Algorithm::EcrHash),
            "hybrid-cut mirrors must buy availability: {} vs {}",
            avail(Algorithm::HybridRandom),
            avail(Algorithm::EcrHash)
        );
        let ec = rows.iter().find(|r| r.algorithm == Algorithm::EcrHash).expect("edge-cut row");
        assert_eq!(ec.failovers, 0, "edge-cut has no mirrors to fail over to");
    }

    #[test]
    fn engine_robustness_reports_fault_inflation() {
        let g = tiny_graph(Dataset::Twitter);
        let cfg = RobustnessConfig { crash_at_ns: 0, straggler_factor: 3.0, ..Default::default() };
        let rows = engine_robustness_suite(
            "twitter",
            &g,
            &[Algorithm::EcrHash, Algorithm::VcrHash],
            4,
            &cfg,
        )
        .expect("the stock plan fits the placement");
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.faulted_seconds > r.healthy_seconds,
                "{:?}: faults must inflate runtime ({} vs {})",
                r.algorithm,
                r.faulted_seconds,
                r.healthy_seconds
            );
            assert!(r.straggler_extra_seconds > 0.0, "{:?}", r.algorithm);
        }
        let vc = rows.iter().find(|r| r.cut_model == "vertex-cut").expect("vertex-cut row");
        assert!(vc.recovered_vertices > 0, "vertex-cut masters recover from mirrors");
        assert!(vc.recovery_bytes > 0);
    }

    #[test]
    fn elastic_suite_reports_recovery_accounting() {
        let g = tiny_graph(Dataset::LdbcSnb);
        let cfg = ElasticityConfig {
            bindings: 200,
            sim: FaultSimConfig {
                base: SimConfig {
                    clients_per_machine: 4,
                    queries_per_client: 12,
                    ..Default::default()
                },
                ..ElasticityConfig::default().sim
            },
            ..Default::default()
        };
        let algs = [Algorithm::EcrHash, Algorithm::VcrHash, Algorithm::HybridRandom];
        let rows = elastic_suite("snb", &g, &algs, 4, &cfg).expect("valid plan");
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.data_moved > 0, "{:?}: the rejoin must ship state", r.algorithm);
            assert!(r.vertices_moved > 0, "{:?}: the rebalance must move vertices", r.algorithm);
            assert!(r.balance_restored, "{:?}: an unbounded budget restores balance", r.algorithm);
            // The RTO covers at least the 10 ms of downtime.
            assert!(r.rto_ms >= 10.0, "{:?}: rto {}", r.algorithm, r.rto_ms);
        }
        let again = elastic_suite("snb", &g, &algs, 4, &cfg).expect("valid plan");
        assert_eq!(
            format!("{rows:?}"),
            format!("{again:?}"),
            "same seed must reproduce the suite bit-for-bit"
        );
    }

    #[test]
    fn churn_suite_is_deterministic_and_accounts_movement() {
        let g = tiny_graph(Dataset::Twitter);
        let cfg = ChurnSuiteConfig::default();
        let rows = churn_suite("twitter", &g, ChurnMethod::all(), &cfg);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.batches, cfg.churn.batches, "{}", r.method);
            assert!((0.0..=1.0).contains(&r.final_cut_ratio), "{}", r.method);
            if r.repartitions == 0 {
                assert_eq!(r.vertices_moved, 0, "{}: no trigger, no movement", r.method);
            }
        }
        // The bounded-repair method can never move more than its budget
        // allows per trigger.
        let re = rows.iter().find(|r| r.method == ChurnMethod::Restream).expect("reLDG row");
        assert!(
            re.vertices_moved <= re.repartitions as u64 * cfg.restream_budget as u64,
            "movement {} exceeds budget × triggers",
            re.vertices_moved
        );
        let again = churn_suite("twitter", &g, ChurnMethod::all(), &cfg);
        assert_eq!(
            format!("{rows:?}"),
            format!("{again:?}"),
            "same seed must reproduce the suite bit-for-bit"
        );
    }

    #[test]
    fn churn_suite_traced_counters_match_rows() {
        let g = tiny_graph(Dataset::LdbcSnb);
        let cfg = ChurnSuiteConfig::default();
        let mut sink = sgp_trace::CollectingSink::new();
        let rows = churn_suite_traced("snb", &g, ChurnMethod::all(), &cfg, &mut sink);
        assert_eq!(
            sink.counter_total(keys::PARTITION_CHURN_BATCHES.name()),
            rows.iter().map(|r| r.batches as u64).sum::<u64>()
        );
        assert_eq!(
            sink.counter_total(keys::PARTITION_CHURN_REPARTITIONS.name()),
            rows.iter().map(|r| r.repartitions as u64).sum::<u64>()
        );
        assert_eq!(
            sink.counter_total(keys::PARTITION_CHURN_MOVED.name()),
            rows.iter().map(|r| r.vertices_moved).sum::<u64>()
        );
    }

    #[test]
    fn workload_aware_weighted_partition_balances_load() {
        let g = tiny_graph(Dataset::LdbcSnb);
        let cfg = OnlineRunConfig {
            bindings: 200,
            queries_per_client: 8,
            clients_per_machine: 4,
            skew: Skew::Zipf { theta: 1.1 },
            ..OnlineRunConfig::for_load(LoadLevel::Medium)
        };
        let rows = workload_aware_suite(&g, 4, &cfg);
        assert_eq!(rows.len(), 6);
        let mts = rows.iter().find(|r| r.label == "MTS").expect("MTS row");
        let weighted = rows.iter().find(|r| r.label == "MTS (W)").expect("weighted row");
        assert!(
            weighted.load_rsd <= mts.load_rsd + 0.05,
            "weighted partitioning should balance load: {} vs {}",
            weighted.load_rsd,
            mts.load_rsd
        );
    }
}
