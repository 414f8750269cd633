//! One function per table/figure of the paper, plus the opt-in suites.
//! Each returns a [`Report`] of tables and notes, and
//! [`EXPERIMENTS`] lists them by id. See DESIGN.md §4 for the
//! experiment index.

use sgp_core::config::{Dataset, Scale};
use sgp_core::decision::{recommend, OnlineObjective, WorkloadClass};
use sgp_core::error::SgpError;
use sgp_core::report::{f2, f3, human_bytes, trace_summary, Report, Section, TextTable};
use sgp_core::runners::{
    churn_suite, elastic_suite, engine_robustness_suite, fig1_scatter, loaders_suite,
    offline_suite, online_run, pearson, quality_suite, robustness_suite, series_slope,
    workload_aware_suite, ChurnMethod, ChurnSuiteConfig, ElasticityConfig, OfflineRow,
    OfflineWorkload, OnlineRunConfig, RobustnessConfig,
};
use sgp_core::trace_scenarios::{record_db_scenario, record_engine_scenario, SCENARIO_MACHINES};
use sgp_db::workload::Skew;
use sgp_db::{FaultSimConfig, LoadLevel, SimConfig, WorkloadKind};
use sgp_engine::apps::PageRank;
use sgp_engine::{run_program, EngineOptions, Placement};
use sgp_graph::{ChurnConfig, Graph, GraphBuilder, StreamOrder};
use sgp_partition::metrics::{edge_cut_ratio, load_imbalance, replication_factor};
use sgp_partition::{partition, Algorithm, PartitionerConfig, Partitioning};
use sgp_trace::SummarySink;

/// Scale-dependent experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Dataset/graph scale.
    pub scale: Scale,
    /// Partition counts for the quality sweeps (paper: 8..128).
    pub ks_quality: Vec<usize>,
    /// Partition counts for offline execution (paper: 8..128).
    pub ks_offline: Vec<usize>,
    /// Partition counts for online execution (paper: 4..32).
    pub ks_online: Vec<usize>,
    /// Machines for the Fig. 4 load-distribution panels (paper: 64).
    pub fig4_k: usize,
    /// Machines for Table 5 / Fig. 7 (paper: 16).
    pub online_k: usize,
    /// Query bindings per workload (paper: 1000).
    pub bindings: usize,
    /// Queries per client in the cluster simulation.
    pub queries_per_client: usize,
}

impl Params {
    /// Parameters for a given scale (smaller scales shrink the sweep so
    /// smoke runs stay fast).
    pub(crate) fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Params {
                scale,
                ks_quality: vec![4, 8, 16],
                ks_offline: vec![4, 8],
                ks_online: vec![4, 8],
                fig4_k: 16,
                online_k: 8,
                bindings: 200,
                queries_per_client: 15,
            },
            Scale::Small => Params {
                scale,
                ks_quality: vec![8, 16, 32, 64],
                ks_offline: vec![8, 16, 32],
                ks_online: vec![4, 8, 16],
                fig4_k: 32,
                online_k: 16,
                bindings: 500,
                queries_per_client: 25,
            },
            Scale::Default | Scale::Large => Params {
                scale,
                ks_quality: vec![8, 16, 32, 64, 128],
                ks_offline: vec![8, 16, 32, 64, 128],
                ks_online: vec![4, 8, 16, 32],
                fig4_k: 64,
                online_k: 16,
                bindings: 1000,
                queries_per_client: 40,
            },
        }
    }

    /// Parameters from `SGP_SCALE`. A set-but-unknown value is an error
    /// so a typo (`SGP_SCALE=smal`) aborts instead of silently running
    /// the default scale.
    pub fn from_env() -> Result<Self, SgpError> {
        Ok(Self::for_scale(Scale::try_from_env()?))
    }

    fn online_cfg(&self, level: LoadLevel) -> OnlineRunConfig {
        OnlineRunConfig {
            bindings: self.bindings,
            skew: Skew::Zipf { theta: 0.6 },
            queries_per_client: self.queries_per_client,
            clients_per_machine: level.clients_per_machine(),
            seed: 0x0_1A7,
        }
    }
}

/// An experiment: its id, whether `all` runs it, and the function that
/// produces its report.
pub type Experiment = (&'static str, bool, fn(&Params) -> Report);

/// Every experiment in paper order. The ones `all` skips are opt-in: the
/// checked-in results files, which must stay byte-identical release to
/// release, leave them out too. They run when named.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", true, table1),
    ("table2", true, table2),
    ("table3", true, table3),
    ("table4", true, table4),
    ("table5", true, table5),
    ("fig1", true, fig1),
    ("fig2", true, fig2),
    ("fig3", true, fig3),
    ("fig4", true, fig4),
    ("fig5", true, fig5),
    ("fig6", true, fig6),
    ("fig7", true, fig7),
    ("fig8", true, fig8),
    ("fig9", true, fig9),
    ("fig10", true, fig10),
    ("fig11", true, fig11),
    ("fig12", true, fig12),
    ("fig13", true, fig13),
    ("fig14", true, fig14),
    ("fig15", true, fig15),
    ("appendixA", true, appendix_a),
    ("robustness", false, robustness),
    ("trace", false, trace_demo),
    ("loaders", false, loaders),
    ("elastic", false, elastic),
    ("churn", false, churn),
    ("ablations", false, ablations),
];

/// A `k × algorithm` grid: a row per `k`, a column per algorithm, each
/// cell `cell(k, alg)`.
fn k_grid(
    ks: &[usize],
    algs: &[Algorithm],
    mut cell: impl FnMut(usize, Algorithm) -> String,
) -> TextTable {
    let mut t = TextTable::new(std::iter::once("k").chain(algs.iter().map(|a| a.short_name())));
    for &k in ks {
        t.row(std::iter::once(k.to_string()).chain(algs.iter().map(|&alg| cell(k, alg))));
    }
    t
}

/// The `k × algorithm` grid of one offline workload's execution time (ms).
fn exec_ms_grid(rows: &[OfflineRow], ks: &[usize], workload: OfflineWorkload) -> TextTable {
    k_grid(ks, Algorithm::offline_suite(), |k, alg| {
        rows.iter()
            .find(|r| r.k == k && r.algorithm == alg && r.workload == workload)
            .map(|r| f3(r.exec_seconds * 1e3))
            .unwrap_or_default()
    })
}

// ---------------------------------------------------------------------------

/// Table 1: characteristics of the streaming graph partitioning
/// algorithms.
fn table1(_: &Params) -> Report {
    let mut t = TextTable::new([
        "Algorithm",
        "Model",
        "Stream",
        "Cost Metric",
        "Parallelization",
        "Method",
    ]);
    for alg in Algorithm::all() {
        let i = alg.info();
        t.row([
            i.short_name.to_string(),
            i.model.to_string(),
            format!("{:?}", i.stream),
            i.cost_metric.to_string(),
            i.parallelization.to_string(),
            i.method.to_string(),
        ]);
    }
    Report::new("Table 1 — Characteristics of SGP algorithms").section(t)
}

/// Table 2: the experiment dimensions of the reproduction.
fn table2(params: &Params) -> Report {
    let names =
        |algs: &[Algorithm]| algs.iter().map(|a| a.short_name()).collect::<Vec<_>>().join(", ");
    let (offline, online) = (names(Algorithm::offline_suite()), names(Algorithm::online_suite()));
    let ks_offline = format!("{:?}", params.ks_offline);
    let ks_online = format!("{:?}", params.ks_online);
    let mut t = TextTable::new(["Workload", "Parameter", "Values"]);
    for row in [
        ["Offline Analytics", "System", "sgp-engine (PowerLyra-like GAS simulator)"],
        ["", "Algorithms", offline.as_str()],
        ["", "Workloads", "PageRank, WCC, SSSP"],
        ["", "Cluster Size", ks_offline.as_str()],
        ["", "Datasets", "Twitter, UK2007-05, USA-Road (stand-ins)"],
        ["Online Queries", "System", "sgp-db (JanusGraph-like store + DES cluster)"],
        ["", "Algorithms", online.as_str()],
        ["", "Workloads", "1-hop, 2-hop, SPSP"],
        ["", "Cluster Size", ks_online.as_str()],
        ["", "Datasets", "all four stand-ins"],
    ] {
        t.row(row);
    }
    Report::new("Table 2 — Experiment dimensions").section(t)
}

/// Table 3: dataset characteristics — paper's originals vs our measured
/// stand-ins.
fn table3(params: &Params) -> Report {
    let mut t = TextTable::new([
        "Dataset",
        "Paper |E|",
        "Paper |V|",
        "Paper Avg/Max",
        "Ours |E|",
        "Ours |V|",
        "Ours Avg/Max",
        "Type (measured)",
    ]);
    for &d in Dataset::all() {
        let paper = d.paper_row();
        let s = d.stats(params.scale);
        t.row([
            d.name().to_string(),
            paper.edges.to_string(),
            paper.vertices.to_string(),
            paper.degrees.to_string(),
            s.edges.to_string(),
            s.vertices.to_string(),
            format!("{:.1} / {}", s.avg_degree, s.max_degree),
            s.classify().to_string(),
        ]);
    }
    Report::new("Table 3 — Graph datasets (paper vs stand-ins)").section(t)
}

/// Table 4: edge-cut ratio for the SNB-like graph, ECR/LDG/FNL/MTS.
fn table4(params: &Params) -> Report {
    let g = Dataset::LdbcSnb.generate(params.scale);
    let mut t = TextTable::new(["Partitions", "ECR", "LDG", "FNL", "MTS"]);
    for &k in &params.ks_online {
        let rows = quality_suite(Dataset::LdbcSnb.name(), &g, Algorithm::online_suite(), &[k]);
        let get = |alg: Algorithm| {
            rows.iter()
                .find(|r| r.algorithm == alg)
                .and_then(|r| r.quality.edge_cut_ratio)
                .map(f2)
                .unwrap_or_default()
        };
        t.row([
            k.to_string(),
            get(Algorithm::EcrHash),
            get(Algorithm::Ldg),
            get(Algorithm::Fennel),
            get(Algorithm::Metis),
        ]);
    }
    Report::new("Table 4 — Edge-cut ratio, LDBC-SNB-like graph")
        .section(t)
        .note("(paper at SF-1000: 4→0.75/0.74/0.47/0.31 ... 32→0.97/0.84/0.66/0.51)")
}

/// Table 5: mean and p99 1-hop latencies under medium and high load.
fn table5(params: &Params) -> Report {
    let g = Dataset::LdbcSnb.generate(params.scale);
    let mut t = TextTable::new([
        "Algorithm",
        "Medium Mean (ms)",
        "Medium 99th (ms)",
        "High Mean (ms)",
        "High 99th (ms)",
    ]);
    for &alg in Algorithm::online_suite() {
        let mut row = vec![alg.short_name().to_string()];
        for level in [LoadLevel::Medium, LoadLevel::High] {
            let cfg = params.online_cfg(level);
            let r = online_run(
                Dataset::LdbcSnb.name(),
                &g,
                alg,
                WorkloadKind::OneHop,
                params.online_k,
                &cfg,
            );
            row.extend([f2(r.mean_latency_ms), f2(r.p99_latency_ms)]);
        }
        t.row(row);
    }
    Report::new(format!("Table 5 — 1-hop latency, {} machines", params.online_k)).section(t).note(
        "(paper, 16 machines: locality-seeking SGP inflates the high-load tail — FNL's p99 up \
         to 3.5x ECR's)",
    )
}

/// Fig. 1: replication factor vs total network I/O per workload, per cut
/// model, on the Twitter-like graph.
fn fig1(params: &Params) -> Report {
    let g = Dataset::Twitter.generate(params.scale);
    let algs = [
        Algorithm::EcrHash,
        Algorithm::Ldg,
        Algorithm::Fennel,
        Algorithm::VcrHash,
        Algorithm::Dbh,
        Algorithm::Hdrf,
        Algorithm::HybridRandom,
        Algorithm::Ginger,
    ];
    let mut report = Report::new("Fig. 1 — Replication factor vs total network I/O (Twitter-like)");
    for workload in OfflineWorkload::all() {
        let points = fig1_scatter(&g, *workload, &params.ks_offline, &algs);
        let mut t = TextTable::new(["Series", "Alg", "k", "RF", "Network I/O"]);
        for p in &points {
            t.row([
                p.series.clone(),
                p.algorithm.short_name().to_string(),
                p.k.to_string(),
                f2(p.x),
                human_bytes(p.y_bytes),
            ]);
        }
        let slope = |series: &str| {
            let pts: Vec<_> = points.iter().filter(|p| p.series == series).cloned().collect();
            series_slope(&pts)
        };
        report.sections.push(Section {
            lines: vec![format!(
                "slopes (bytes per mirror): edge-cut {:.0}, vertex-cut {:.0}, hybrid-cut {:.0}",
                slope("edge-cut"),
                slope("vertex-cut"),
                slope("hybrid-cut"),
            )],
            ..Section::captioned(workload.to_string(), t)
        });
    }
    report.note(
        "(paper: linear in RF for every workload; edge-cut's slope lowest for PageRank's \
         uni-directional communication; PageRank moves the most data)",
    )
}

/// Fig. 2: replication factors of all algorithms over all graphs and
/// partition counts.
fn fig2(params: &Params) -> Report {
    let algs = Algorithm::offline_suite();
    let mut report = Report::new("Fig. 2 — Replication factors (all algorithms x datasets x k)");
    for &dataset in Dataset::offline_set() {
        let g = dataset.generate(params.scale);
        let rows = quality_suite(dataset.name(), &g, algs, &params.ks_quality);
        let t = k_grid(&params.ks_quality, algs, |k, alg| {
            rows.iter()
                .find(|r| r.k == k && r.algorithm == alg)
                .map(|r| f2(r.quality.replication_factor))
                .unwrap_or_default()
        });
        report.sections.push(Section::captioned(dataset.to_string(), t));
    }
    report.note(
        "(paper: no single winner — FNL/LDG lowest on USA-Road, HDRF/DBH/HG lowest on \
         Twitter, HDRF lowest vertex-cut on UK2007-05)",
    )
}

/// Fig. 3: execution time of the offline workloads on the Twitter-like
/// graph across cluster sizes.
fn fig3(params: &Params) -> Report {
    let g = Dataset::Twitter.generate(params.scale);
    let rows = offline_suite(
        Dataset::Twitter.name(),
        &g,
        Algorithm::offline_suite(),
        OfflineWorkload::all(),
        &params.ks_offline,
    );
    let mut report = Report::new("Fig. 3 — Offline workload execution time (Twitter-like, ms)");
    for &workload in OfflineWorkload::all() {
        let t = exec_ms_grid(&rows, &params.ks_offline, workload);
        report.sections.push(Section::captioned(workload.to_string(), t));
    }
    report.note(
        "(paper: edge-cut SGP slow on Twitter; vertex/hybrid-cut fastest, HDRF best; \
         differences shrink for WCC/SSSP; scaling flattens at high k)",
    )
}

/// Fig. 4: distribution of per-worker computation time during PageRank.
fn fig4(params: &Params) -> Report {
    let k = params.fig4_k;
    let mut report = Report::new(format!(
        "Fig. 4 — Per-worker PageRank compute time, {k} machines (min/p25/med/p75/max, ms)"
    ));
    for &dataset in Dataset::offline_set() {
        let g = dataset.generate(params.scale);
        let rows = offline_suite(
            dataset.name(),
            &g,
            Algorithm::offline_suite(),
            &[OfflineWorkload::PageRank],
            &[k],
        );
        let mut t = TextTable::new(["Alg", "min", "p25", "median", "p75", "max", "max/med"]);
        for r in &rows {
            let d = r.compute_dist;
            t.row([
                r.algorithm.short_name().to_string(),
                f3(d[0] * 1e3),
                f3(d[1] * 1e3),
                f3(d[2] * 1e3),
                f3(d[3] * 1e3),
                f3(d[4] * 1e3),
                f2(d[4] / d[2].max(1e-12)),
            ]);
        }
        report.sections.push(Section::captioned(dataset.to_string(), t));
    }
    report.note(
        "(paper: balanced partition sizes do not imply balanced computation — edge-cut \
         spreads widest on the skewed graphs, tightest on USA-Road)",
    )
}

/// Fig. 5: edge-cut ratio vs network I/O for the 1-hop workload on the
/// SNB-like graph.
fn fig5(params: &Params) -> Report {
    let g = Dataset::LdbcSnb.generate(params.scale);
    let mut t = TextTable::new(["Alg", "k", "Edge-cut ratio", "Network I/O"]);
    let mut points = Vec::new();
    for &k in &params.ks_online {
        for &alg in Algorithm::online_suite() {
            let row = online_run(
                Dataset::LdbcSnb.name(),
                &g,
                alg,
                WorkloadKind::OneHop,
                k,
                &params.online_cfg(LoadLevel::Medium),
            );
            points.push((row.edge_cut_ratio, row.network_bytes as f64));
            t.row([
                alg.short_name().to_string(),
                k.to_string(),
                f3(row.edge_cut_ratio),
                human_bytes(row.network_bytes),
            ]);
        }
    }
    Report::new("Fig. 5 — Edge-cut ratio vs network I/O, 1-hop on SNB-like").section(t).note(
        format!(
            "correlation(edge-cut ratio, network I/O) = {:.3}   (paper: linear, all \
             algorithms on one trend)",
            pearson(&points)
        ),
    )
}

/// Fig. 6: aggregate throughput for 1-hop and 2-hop workloads under
/// medium and high load across cluster sizes.
fn fig6(params: &Params) -> Report {
    let g = Dataset::LdbcSnb.generate(params.scale);
    let mut report = Report::new("Fig. 6 — Aggregate throughput (queries/s), SNB-like");
    for kind in [WorkloadKind::OneHop, WorkloadKind::TwoHop] {
        for level in [LoadLevel::Medium, LoadLevel::High] {
            let t = k_grid(&params.ks_online, Algorithm::online_suite(), |k, alg| {
                let cfg = params.online_cfg(level);
                let r = online_run(Dataset::LdbcSnb.name(), &g, alg, kind, k, &cfg);
                format!("{:.0}", r.throughput_qps)
            });
            report.sections.push(Section::captioned(format!("{kind}, {level} load"), t));
        }
    }
    report.note(
        "(paper: partitioning matters less than offline — MTS best, ~25%/18% over hash for \
         1-hop/2-hop; SGP gains evaporate under high load)",
    )
}

/// Fig. 7: per-worker vertex-read distribution for the 1-hop workload.
fn fig7(params: &Params) -> Report {
    fig_reads_distribution(
        params,
        &[Dataset::LdbcSnb],
        format!("Fig. 7 — Per-worker vertex reads, 1-hop, {} machines (SNB-like)", params.online_k),
    )
}

fn fig_reads_distribution(params: &Params, datasets: &[Dataset], title: String) -> Report {
    let mut report = Report::new(title);
    for &dataset in datasets {
        let g = dataset.generate(params.scale);
        let mut t = TextTable::new(["Alg", "min", "p25", "median", "p75", "max", "RSD"]);
        for &alg in Algorithm::online_suite() {
            let row = online_run(
                dataset.name(),
                &g,
                alg,
                WorkloadKind::OneHop,
                params.online_k,
                &params.online_cfg(LoadLevel::Medium),
            );
            let d = row.reads_dist;
            t.row([
                alg.short_name().to_string(),
                format!("{:.0}", d[0]),
                format!("{:.0}", d[1]),
                format!("{:.0}", d[2]),
                format!("{:.0}", d[3]),
                format!("{:.0}", d[4]),
                f3(row.load_rsd),
            ]);
        }
        report.sections.push(Section::captioned(dataset.to_string(), t));
    }
    report.note(
        "(paper: unlike offline analytics, FNL and LDG suffer read imbalance on every \
         dataset once the workload is skewed)",
    )
}

/// Fig. 8: workload-aware weighted repartitioning.
fn fig8(params: &Params) -> Report {
    let g = Dataset::LdbcSnb.generate(params.scale);
    let run_cfg =
        OnlineRunConfig { skew: Skew::Zipf { theta: 1.1 }, ..params.online_cfg(LoadLevel::High) };
    let rows = workload_aware_suite(&g, params.online_k, &run_cfg);
    let mut t = TextTable::new(["Config", "Throughput (q/s)", "Load RSD"]);
    for r in &rows {
        t.row([r.label.clone(), format!("{:.0}", r.throughput_qps), f3(r.load_rsd)]);
    }
    Report::new("Fig. 8 — Workload-aware repartitioning, 1-hop on SNB-like").section(t).note(
        "(paper: complete workload information gives 13%–35% more throughput and a \
         balanced read distribution — 'MTS (W)' is the weighted configuration; \
         'aLDG (W)' is this reproduction's streaming extension, Appendix A)",
    )
}

/// Fig. 9: the decision tree, exercised over every input combination.
fn fig9(_: &Params) -> Report {
    use sgp_graph::stats::GraphClass;
    let mut t = TextTable::new(["Workload", "Graph / objective", "Recommendation"]);
    for class in [GraphClass::LowDegree, GraphClass::PowerLaw, GraphClass::HeavyTailed] {
        let r = recommend(WorkloadClass::OfflineAnalytics, Some(class), None);
        t.row(["Analytics".to_string(), class.to_string(), r.algorithm.to_string()]);
    }
    for obj in [OnlineObjective::TailLatency, OnlineObjective::Throughput] {
        let r = recommend(WorkloadClass::OnlineQueries, None, Some(obj));
        t.row(["Online Queries".to_string(), format!("{obj:?}"), r.algorithm.to_string()]);
    }
    Report::new("Fig. 9 — Decision tree for picking an SGP algorithm").section(t)
}

/// Fig. 10 (Appendix B): message counts on the worked 6-vertex example
/// under the three placement schemes.
fn fig10(_: &Params) -> Report {
    // The example of Fig. 10: five edges into vertex 5, one chain edge.
    let g: Graph = GraphBuilder::new()
        .add_edge(0, 5)
        .add_edge(1, 5)
        .add_edge(2, 5)
        .add_edge(3, 5)
        .add_edge(4, 5)
        .add_edge(0, 1)
        .build();
    let owner = vec![0u32, 0, 1, 1, 2, 2];
    let edge_cut = Partitioning::from_vertex_owners(&g, 3, owner);
    let vertex_cut = Partitioning::from_edge_parts(&g, 3, vec![0, 1, 0, 1, 1, 2]);
    let pr = PageRank::new(1);
    let mut t = TextTable::new(["Placement", "Gather msgs", "Update msgs", "Total"]);
    for (label, p, aggregation) in [
        ("edge-cut, no aggregation (10a)", &edge_cut, false),
        ("edge-cut, sender-side agg (10b)", &edge_cut, true),
        ("vertex-cut, src-grouped (10c)", &vertex_cut, true),
    ] {
        let placement = Placement::build(&g, p);
        let opts = EngineOptions { sender_side_aggregation: aggregation, ..Default::default() };
        let (_, report) = run_program(&g, &placement, &pr, &opts);
        let gather: u64 = report.iterations.iter().map(|i| i.gather_messages).sum();
        let update: u64 = report.iterations.iter().map(|i| i.update_messages).sum();
        t.row([
            label.to_string(),
            gather.to_string(),
            update.to_string(),
            (gather + update).to_string(),
        ]);
    }
    Report::new("Fig. 10 — Cut models and inter-machine communication (worked example)")
        .section(t)
        .note(
            "(Appendix B: aggregation collapses per-edge messages to per-mirror ones; the \
             edge-cut placement never sends vertex updates for PageRank)",
        )
}

/// Fig. 11 (Appendix C): the architecture this reproduction simulates.
fn fig11(_: &Params) -> Report {
    Report::new("Fig. 11 — JanusGraph-like architecture of the online substrate").section(
        Section::text(
            None,
            [
                "clients → partitioning-aware query router → worker machines",
                "each worker = query-execution instance (sgp-db::query) co-located with its",
                "storage shard (sgp-db::store); shards are an adjacency list cut by a",
                "vertex-ownership map; the working set is memory-resident; closed-loop",
                "clients drive the discrete-event simulation (sgp-db::sim).",
            ],
        ),
    )
}

/// Fig. 12: aggregate throughput with a *fixed* client population as the
/// cluster grows (the paper's 192 clients over 4..32 machines).
fn fig12(params: &Params) -> Report {
    let g = Dataset::LdbcSnb.generate(params.scale);
    let total_clients = 24 * params.ks_online.iter().min().copied().unwrap_or(4);
    let t = k_grid(&params.ks_online, Algorithm::online_suite(), |k, alg| {
        let cfg = OnlineRunConfig {
            clients_per_machine: (total_clients / k).max(1),
            ..params.online_cfg(LoadLevel::Medium)
        };
        let r = online_run(Dataset::LdbcSnb.name(), &g, alg, WorkloadKind::OneHop, k, &cfg);
        format!("{:.0}", r.throughput_qps)
    });
    Report::new("Fig. 12 — Throughput vs cluster size, fixed client population").section(t).note(
        format!(
            "({total_clients} fixed clients; paper: throughput degrades beyond 16 workers as \
             communication overhead dominates. Our simulator reproduces the diminishing \
             returns — throughput per added machine falls steadily — but not the outright \
             decline, which stems from Cassandra cluster-coordination costs outside the \
             model; see EXPERIMENTS.md)"
        ),
    )
}

/// Fig. 13: the full offline grid — all workloads x datasets x k.
fn fig13(params: &Params) -> Report {
    let mut report = Report::new("Fig. 13 — Full offline grid (execution ms)");
    for &dataset in Dataset::offline_set() {
        let g = dataset.generate(params.scale);
        let rows = offline_suite(
            dataset.name(),
            &g,
            Algorithm::offline_suite(),
            OfflineWorkload::all(),
            &params.ks_offline,
        );
        for &workload in OfflineWorkload::all() {
            let t = exec_ms_grid(&rows, &params.ks_offline, workload);
            report.sections.push(Section::captioned(format!("{dataset} / {workload}"), t));
        }
    }
    report
}

/// Fig. 14: 1-hop throughput on the real-world-like graphs.
fn fig14(params: &Params) -> Report {
    let mut report = Report::new(format!(
        "Fig. 14 — 1-hop throughput on real-world-like graphs, {} machines",
        params.online_k
    ));
    for &dataset in Dataset::offline_set() {
        let g = dataset.generate(params.scale);
        let mut t = TextTable::new(["Alg", "Medium (q/s)", "High (q/s)"]);
        for &alg in Algorithm::online_suite() {
            let mut row = vec![alg.short_name().to_string()];
            for level in [LoadLevel::Medium, LoadLevel::High] {
                let cfg = params.online_cfg(level);
                let r = online_run(
                    dataset.name(),
                    &g,
                    alg,
                    WorkloadKind::OneHop,
                    params.online_k,
                    &cfg,
                );
                row.push(format!("{:.0}", r.throughput_qps));
            }
            t.row(row);
        }
        report.sections.push(Section::captioned(dataset.to_string(), t));
    }
    report
}

/// Fig. 15: per-worker read distributions on every dataset.
fn fig15(params: &Params) -> Report {
    fig_reads_distribution(
        params,
        Dataset::all(),
        format!(
            "Fig. 15 — Per-worker vertex reads, 1-hop, {} machines (all datasets)",
            params.online_k
        ),
    )
}

/// Appendix A showcase: the generalized-cost-model algorithms the paper
/// surveys but does not evaluate — heterogeneous capacities
/// (LeBeane/BMI), attribute balancing (re-streaming on `a(u)`), and
/// edge-cut on edge streams (IOGP-class).
fn appendix_a(params: &Params) -> Report {
    use sgp_core::runners::default_order;
    use sgp_partition::attribute::AttributeLdg;
    use sgp_partition::edge_stream_cut::IogpStyle;
    use sgp_partition::hetero::{ClusterProfile, HeteroHdrf};
    use sgp_partition::metrics;
    use sgp_partition::{run_edge_stream, run_vertex_stream, PartitionerConfig};
    use sgp_trace::NullSink;

    let report =
        Report::new("Appendix A — generalized cost models (survey algorithms, implemented)");

    // 1. Heterogeneous cluster: one machine with 4x capacity.
    let g = Dataset::Twitter.generate(params.scale);
    let k = 4;
    let cfg = PartitionerConfig::new(k);
    let profile = ClusterProfile::new(&[4.0, 1.0, 1.0, 1.0]);
    let mut hdrf = HeteroHdrf::new(&cfg, profile.clone(), g.num_edges());
    let p = run_edge_stream(&g, &mut hdrf, k, default_order(), &mut NullSink);
    let counts = p.edges_per_partition();
    let total: usize = counts.iter().sum();
    let mut t = TextTable::new(["Machine", "Capacity share", "Edge share"]);
    for (i, &c) in counts.iter().enumerate() {
        t.row([i.to_string(), f3(profile.share(i)), f3(c as f64 / total as f64)]);
    }
    let report = report.section(Section::captioned(
        "heterogeneous HDRF (LeBeane-style), Twitter-like, machine 0 has 4x capacity",
        t,
    ));

    // 2. Attribute balancing vs plain LDG under skewed access weights.
    let g = Dataset::LdbcSnb.generate(params.scale);
    let cfg = PartitionerConfig::new(8);
    let weights: Vec<u64> = g.vertices().map(|v| 1 + (g.degree(v) as u64).pow(2) / 8).collect();
    let mut aldg = AttributeLdg::new(&cfg, weights.clone());
    let aware = run_vertex_stream(&g, &mut aldg, 8, default_order(), &mut NullSink);
    let plain = sgp_partition::partition(&g, Algorithm::Ldg, &cfg, default_order());
    let load_imb = |p: &Partitioning| {
        let mut loads = [0u64; 8];
        for (v, &part) in p.vertex_owner.as_ref().unwrap().iter().enumerate() {
            loads[part as usize] += weights[v];
        }
        let avg = loads.iter().sum::<u64>() as f64 / 8.0;
        *loads.iter().max().unwrap() as f64 / avg
    };
    let report = report.section(Section::text(
        Some("attribute-balanced LDG (x_i = sum a(u)), SNB-like, degree^2 weights".to_string()),
        [format!(
            "plain LDG weight imbalance: {:.2}   attribute LDG: {:.2}   (slack 1.05)",
            load_imb(&plain),
            load_imb(&aware)
        )],
    ));

    // 3. Edge-cut on edge streams (IOGP-class): the quality gap of §4.1.2.
    let iogp = IogpStyle::new(&cfg, g.num_vertices()).run(&g, default_order());
    let ldg = plain;
    let hash = sgp_partition::partition(&g, Algorithm::EcrHash, &cfg, default_order());
    report.section(Section::text(
        Some("edge-cut on edge streams (IOGP-style), SNB-like, k=8".to_string()),
        [
            format!(
                "edge-cut ratio: hash {:.3}, IOGP-style {:.3}, LDG (vertex stream) {:.3}",
                metrics::edge_cut_ratio(&g, &hash).unwrap(),
                metrics::edge_cut_ratio(&g, &iogp).unwrap(),
                metrics::edge_cut_ratio(&g, &ldg).unwrap(),
            ),
            "(§4.1.2 expects vertex-stream < edge-stream < hash; IOGP's periodic".to_string(),
            "reassessment can close the gap to LDG on small community graphs)".to_string(),
        ],
    ))
}

/// The placements the robustness and elasticity suites compare: two
/// edge-cut, two vertex-cut and two hybrid-cut.
const FAULT_SUITE: [Algorithm; 6] = [
    Algorithm::EcrHash,
    Algorithm::Ldg,
    Algorithm::VcrHash,
    Algorithm::Hdrf,
    Algorithm::HybridRandom,
    Algorithm::Ginger,
];

/// Robustness suite (opt-in; see [`EXPERIMENTS`]): availability,
/// goodput and fault-inflated runtime under one shared deterministic
/// fault plan — a permanent crash of machine `k − 1`, a 2× straggler on
/// machine 0, and 0.2% message loss. Mirror-bearing cuts (vertex,
/// hybrid) fail reads over to live mirrors; edge-cut cannot.
fn robustness(params: &Params) -> Report {
    let k = params.online_k;
    let cfg = RobustnessConfig {
        bindings: params.bindings,
        sim: FaultSimConfig {
            base: SimConfig {
                clients_per_machine: LoadLevel::Medium.clients_per_machine(),
                queries_per_client: params.queries_per_client,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let g = Dataset::LdbcSnb.generate(params.scale);
    // A failed run prints a blank line and its error where its table would be.
    let failed = |error: String| Section::text(None, [String::new(), error]);
    let online = match robustness_suite(Dataset::LdbcSnb.name(), &g, &FAULT_SUITE, k, &cfg) {
        Ok(rows) => {
            let mut t = TextTable::new([
                "Alg",
                "Cut",
                "Avail",
                "Goodput q/s",
                "Offered q/s",
                "Retries",
                "Drops",
                "Failovers",
                "p50 ms",
                "p99 ms",
            ]);
            for r in &rows {
                t.row([
                    r.algorithm.short_name().to_string(),
                    r.cut_model.clone(),
                    f3(r.availability),
                    format!("{:.0}", r.goodput_qps),
                    format!("{:.0}", r.offered_qps),
                    r.retries.to_string(),
                    r.dropped_messages.to_string(),
                    r.failovers.to_string(),
                    f2(r.p50_latency_ms),
                    f2(r.p99_latency_ms),
                ]);
            }
            Section::captioned("online (DES): availability and goodput under faults", t)
        }
        Err(e) => failed(format!("online robustness run failed: {e}")),
    };
    let engine = match engine_robustness_suite(Dataset::LdbcSnb.name(), &g, &FAULT_SUITE, k, &cfg) {
        Ok(rows) => {
            let mut t = TextTable::new([
                "Alg",
                "Cut",
                "Healthy ms",
                "Faulted ms",
                "Recovered",
                "Recomputed",
                "Recovery bytes",
                "Straggler ms",
            ]);
            for r in &rows {
                t.row([
                    r.algorithm.short_name().to_string(),
                    r.cut_model.clone(),
                    f3(r.healthy_seconds * 1e3),
                    f3(r.faulted_seconds * 1e3),
                    r.recovered_vertices.to_string(),
                    r.recomputed_vertices.to_string(),
                    human_bytes(r.recovery_bytes),
                    f3(r.straggler_extra_seconds * 1e3),
                ]);
            }
            Section::captioned("engine: PageRank under the same plan", t)
        }
        Err(e) => failed(format!("engine robustness run failed: {e}")),
    };
    Report::new(format!(
        "Robustness — fault injection, {k} machines (crash + straggler + message loss)"
    ))
    .section(online)
    .section(engine)
    .note(
        "(replication pays under faults: vertex/hybrid-cut placements redirect reads to \
         live mirrors and restore crashed masters from mirror state, while edge-cut \
         placements lose the dead machine's masters and recompute them from scratch)",
    )
}

/// Multi-loader ablation (opt-in; see [`EXPERIMENTS`]): quality
/// versus the number of parallel loaders `L` and the state
/// synchronization interval `T` — Table 1's "Parallelization" column
/// made measurable. Each loader streams its stride of the input against
/// shared state that is stale between barriers; everything is seeded and
/// deterministic, so the same invocation always renders byte-identical
/// output.
fn loaders(params: &Params) -> Report {
    let k = params.online_k;
    let g = Dataset::Twitter.generate(params.scale);
    let algs = [Algorithm::Ldg, Algorithm::Dbh, Algorithm::PowerGraphGreedy, Algorithm::Hdrf];
    let orders = [("random", StreamOrder::Random { seed: 0x51C9_2019 }), ("bfs", StreamOrder::Bfs)];
    let loader_counts = [1usize, 2, 4, 8];
    let sync_intervals = [64usize, 1024];
    let rows = loaders_suite(
        Dataset::Twitter.name(),
        &g,
        &algs,
        k,
        &orders,
        &loader_counts,
        &sync_intervals,
    );
    let mut report = Report::new(format!(
        "Multi-loader ablation — {k} partitions, quality vs loaders and staleness"
    ));
    for (order_name, _) in &orders {
        let mut t = TextTable::new(["Alg", "Loaders", "Sync T", "RF", "Edge-cut", "Edge imb."]);
        for r in rows.iter().filter(|r| r.order == *order_name) {
            t.row([
                r.algorithm.short_name().to_string(),
                r.loaders.to_string(),
                r.sync_interval.to_string(),
                f2(r.quality.replication_factor),
                r.quality.edge_cut_ratio.map(f3).unwrap_or_else(|| "n/a".to_string()),
                f2(r.quality.edge_imbalance),
            ]);
        }
        report.sections.push(Section::captioned(format!("{order_name} stream order"), t));
    }
    report.note(
        "(hash methods are loader-count-invariant; greedy methods place against stale \
         state, so their quality degrades as L and the sync interval grow — the BFS \
         advantage of PowerGraph's greedy collapses fastest, while HDRF's partial-degree \
         scoring stays comparatively robust)",
    )
}

/// Elasticity suite (opt-in; see [`EXPERIMENTS`]): availability,
/// p99 latency and recovery accounting while the cluster rides out a
/// crash-rejoin of machine `k − 1`. The rejoined machine's state
/// restore is priced by the bounded-movement rebalance over each
/// algorithm's own placement and charged to the DES, so the RTO and
/// data-moved columns separate the cut models (DESIGN.md §11).
fn elastic(params: &Params) -> Report {
    let k = params.online_k;
    let cfg = ElasticityConfig {
        bindings: params.bindings,
        sim: FaultSimConfig {
            base: SimConfig {
                clients_per_machine: LoadLevel::Medium.clients_per_machine(),
                queries_per_client: params.queries_per_client,
                ..Default::default()
            },
            ..ElasticityConfig::default().sim
        },
        ..Default::default()
    };
    let g = Dataset::LdbcSnb.generate(params.scale);
    let report = Report::new(format!(
        "Elasticity — crash-rejoin of machine {}, bounded-movement recovery",
        k - 1
    ));
    let rows = match elastic_suite(Dataset::LdbcSnb.name(), &g, &FAULT_SUITE, k, &cfg) {
        Ok(rows) => rows,
        Err(e) => return report.note(format!("elastic run failed: {e}")),
    };
    let mut t = TextTable::new([
        "Alg",
        "Cut",
        "Avail",
        "p99 ms",
        "RTO ms",
        "Data moved",
        "Moves",
        "Balanced",
        "Shed",
        "Failovers",
    ]);
    for r in &rows {
        t.row([
            r.algorithm.short_name().to_string(),
            r.cut_model.clone(),
            f3(r.availability),
            f2(r.p99_latency_ms),
            f2(r.rto_ms),
            r.data_moved.to_string(),
            r.vertices_moved.to_string(),
            if r.balance_restored { "yes" } else { "no" }.to_string(),
            r.shed_queries.to_string(),
            r.failovers.to_string(),
        ]);
    }
    report.section(Section::captioned("online (DES): riding out a membership change", t)).note(
        "(mirror-bearing cuts keep serving through the outage, so their availability \
         dip is the admission-control shedding during restore; edge-cut loses the dead \
         machine's masters outright. Data moved follows each placement's balance: the \
         more even the masters, the less the rebalance ships)",
    )
}

/// Churn suite (opt-in; see [`EXPERIMENTS`]): dynamic-graph
/// maintenance under a seeded edge insert/delete stream over every
/// dataset family. Each method starts from its own initial partition
/// and reacts to imbalance/cut-degradation triggers — 2PS and windowed
/// LDG repartition from scratch, restreamed LDG repairs under a
/// movement budget — so the table is the quality-vs-movement tradeoff
/// curve of DESIGN.md §12. Deterministic: same scale, same bytes.
fn churn(params: &Params) -> Report {
    let k = 4;
    let mut t =
        TextTable::new(["Dataset", "Method", "Batches", "Repart", "Moved", "Cut", "RF", "Imbal"]);
    for &d in Dataset::all() {
        let g = d.generate(params.scale);
        let cfg = ChurnSuiteConfig {
            k,
            churn: ChurnConfig {
                batches: 6,
                inserts_per_batch: (g.num_edges() / 16).max(8),
                deletes_per_batch: (g.num_edges() / 20).max(6),
                seed: 0xC0_2019,
            },
            restream_budget: (g.num_vertices() / 8).max(16),
            ..ChurnSuiteConfig::default()
        };
        for r in churn_suite(d.name(), &g, ChurnMethod::all(), &cfg) {
            t.row([
                r.dataset.clone(),
                r.method.name().to_string(),
                r.batches.to_string(),
                r.repartitions.to_string(),
                r.vertices_moved.to_string(),
                f3(r.final_cut_ratio),
                f2(r.final_quality.replication_factor),
                f2(r.final_quality.edge_imbalance),
            ]);
        }
    }
    Report::new("Churn — dynamic-graph maintenance: quality vs movement").section(t).note(
        "(quality vs movement: full repartitioning — 2PS, windowed LDG — buys the lowest \
         final cut at the price of relocating a large share of the graph on every trigger; \
         the budgeted restream holds movement at its cap and pays a modest cut penalty)",
    )
}

/// The swept HDRF λ values of [`ablations`].
const ABLATION_HDRF_LAMBDAS: [f64; 6] = [0.0, 0.5, 1.0, 1.1, 2.0, 4.0];
/// The swept FENNEL γ values of [`ablations`].
const ABLATION_FENNEL_GAMMAS: [f64; 5] = [1.1, 1.3, 1.5, 1.8, 2.0];
/// The swept Ginger high-degree threshold factors of [`ablations`].
const ABLATION_GINGER_FACTORS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Parameter ablations (opt-in; see [`EXPERIMENTS`]) over the
/// design choices DESIGN.md §8 calls out: HDRF's λ, FENNEL's γ,
/// Ginger's high-degree threshold, and the stream-order sensitivity of
/// greedy vertex-cut placement (§4.2.2: plain greedy degenerates under
/// BFS order, HDRF does not). Quality columns only — no timing — so the
/// same invocation always renders byte-identical output.
fn ablations(params: &Params) -> Report {
    let twitter = Dataset::Twitter.generate(params.scale);
    let snb = Dataset::LdbcSnb.generate(params.scale);
    let edge_imbalance = |p: &Partitioning| f3(load_imbalance(&p.edges_per_partition()));
    let report =
        Report::new("Parameter ablations — quality vs HDRF λ, FENNEL γ, Ginger threshold, order");

    let mut t = TextTable::new(["λ", "RF", "Edge imb."]);
    for lambda in ABLATION_HDRF_LAMBDAS {
        let mut cfg = PartitionerConfig::new(16);
        cfg.hdrf_lambda = lambda;
        let p = partition(&twitter, Algorithm::Hdrf, &cfg, StreamOrder::Bfs);
        t.row([lambda.to_string(), f3(replication_factor(&twitter, &p)), edge_imbalance(&p)]);
    }
    let report = report.section(Section::captioned("HDRF λ (k=16, Twitter-like, BFS order)", t));

    let mut t = TextTable::new(["γ", "Edge-cut", "Vertex imb."]);
    for gamma in ABLATION_FENNEL_GAMMAS {
        let mut cfg = PartitionerConfig::new(8);
        cfg.fennel_gamma = gamma;
        let p = partition(&snb, Algorithm::Fennel, &cfg, StreamOrder::Random { seed: 1 });
        let cut = edge_cut_ratio(&snb, &p).map(f3);
        let imbalance = p.vertices_per_partition().map(|v| f3(load_imbalance(&v)));
        let na = || "n/a".to_string();
        t.row([gamma.to_string(), cut.unwrap_or_else(na), imbalance.unwrap_or_else(na)]);
    }
    let report = report.section(Section::captioned("FENNEL γ (k=8, SNB-like, random order)", t));

    let mut t = TextTable::new(["Threshold ×", "RF"]);
    for factor in ABLATION_GINGER_FACTORS {
        let mut cfg = PartitionerConfig::new(8);
        cfg.ginger_threshold_factor = factor;
        let p = partition(&twitter, Algorithm::Ginger, &cfg, StreamOrder::Random { seed: 2 });
        t.row([factor.to_string(), f3(replication_factor(&twitter, &p))]);
    }
    let report = report.section(Section::captioned(
        "Ginger high-degree threshold (k=8, Twitter-like, random order)",
        t,
    ));

    let cfg = PartitionerConfig::new(8);
    let mut t = TextTable::new(["Order", "Alg", "RF", "Edge imb."]);
    for (label, order) in [
        ("random", StreamOrder::Random { seed: 4 }),
        ("bfs", StreamOrder::Bfs),
        ("dfs", StreamOrder::Dfs),
        ("natural", StreamOrder::Natural),
    ] {
        for alg in [Algorithm::PowerGraphGreedy, Algorithm::Hdrf] {
            let p = partition(&twitter, alg, &cfg, order);
            t.row([
                label.to_string(),
                alg.short_name().to_string(),
                f3(replication_factor(&twitter, &p)),
                edge_imbalance(&p),
            ]);
        }
    }
    report.section(Section::captioned("Stream-order sensitivity (k=8, Twitter-like)", t))
}

/// Trace demo (opt-in; see [`EXPERIMENTS`]): runs the canonical
/// traced scenarios through a streaming [`SummarySink`] and renders it
/// with [`trace_summary`] — the renderer `sgp trace-summary` applies to
/// the same event streams dumped by `experiments --trace <path>` — plus
/// the traced counters against the untraced report fields.
fn trace_demo(params: &Params) -> Report {
    let k = SCENARIO_MACHINES;
    let mut sink = SummarySink::new();
    let engine_report = record_engine_scenario(params.scale, &mut sink);
    let db_report = record_db_scenario(params.scale, &mut sink);

    let mut t = TextTable::new(["Counter", "Total", "Report field"]);
    let traced_messages =
        sink.counter_total("engine.gather_messages") + sink.counter_total("engine.update_messages");
    t.row([
        "engine messages".to_string(),
        traced_messages.to_string(),
        engine_report.total_messages().to_string(),
    ]);
    let mut fields =
        vec![("engine.network_bytes", engine_report.total_network_bytes().to_string())];
    match &db_report {
        Ok(r) => fields.extend([
            ("db.queries_ok", r.completed_ok.to_string()),
            ("db.queries_failed", r.failed.to_string()),
            ("db.failovers", r.failovers.to_string()),
            ("db.retries", r.retries.to_string()),
            ("db.dropped_messages", r.dropped_messages.to_string()),
        ]),
        Err(e) => {
            t.row(["db scenario".to_string(), format!("failed: {e}"), String::new()]);
        }
    }
    for (name, field) in fields {
        t.row([name.to_string(), sink.counter_total(name).to_string(), field]);
    }

    Report::new(format!(
        "Trace — observability demo (HDRF→PageRank engine run + {k}-machine faulted DES)"
    ))
    .section(Section::text(None, trace_summary(&sink, 8).lines()))
    .section(Section::captioned(
        "counters vs untraced report fields (must match exactly; the differential tests \
         enforce this)",
        t,
    ))
    .note(
        "(every stamp above is simulated time (engine and db: ns) or a logical sequence \
         number (partition: stream elements) — rerunning this experiment at the same scale \
         reproduces it byte for byte)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params::for_scale(Scale::Tiny)
    }

    /// The experiment `id` at tiny scale.
    fn run(id: &str) -> Report {
        let (_, _, experiment) = EXPERIMENTS.iter().find(|e| e.0 == id).expect("a known id");
        experiment(&tiny())
    }

    /// The rows of the table whose caption starts with `caption`.
    fn rows<'r>(report: &'r Report, caption: &str) -> &'r [Vec<String>] {
        report
            .sections
            .iter()
            .find(|s| s.caption.as_deref().is_some_and(|c| c.starts_with(caption)))
            .and_then(|s| s.table.as_ref())
            .unwrap_or_else(|| panic!("no table captioned `{caption}` in {report:?}"))
            .rows()
    }

    #[test]
    fn static_experiments_render() {
        for id in ["table1", "fig9", "fig10", "fig11"] {
            let out = run(id).render();
            assert!(out.len() > 100, "{id} output too short");
        }
    }

    #[test]
    fn experiment_ids_are_unique_and_all_is_the_results_file() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "an id is listed twice");
        // `all` runs exactly the experiments of the checked-in results
        // file, in its order: the ids of its `[id completed in …]` footers.
        let results = include_str!("../../../results_small.txt");
        let footers: Vec<&str> = results
            .lines()
            .filter_map(|l| l.strip_prefix('[')?.split_once(" completed in ").map(|(id, _)| id))
            .collect();
        let in_all: Vec<&str> = EXPERIMENTS.iter().filter(|e| e.1).map(|e| e.0).collect();
        assert_eq!(in_all, footers);
        assert_eq!(in_all.len(), 21);
    }

    #[test]
    fn table3_includes_every_dataset() {
        let out = run("table3").render();
        for d in Dataset::all() {
            assert!(out.contains(d.name()), "missing {d}");
        }
    }

    #[test]
    fn table4_has_expected_ordering_columns() {
        let out = run("table4").render();
        assert!(out.contains("ECR") && out.contains("MTS"));
    }

    #[test]
    fn fig10_shows_aggregation_savings() {
        let report = run("fig10");
        let rows = report.sections[0].table.as_ref().expect("one table").rows();
        assert!(rows.iter().any(|r| r[0].contains("no aggregation")), "{rows:?}");
        // Edge-cut with aggregation must show 0 updates.
        let with_agg =
            rows.iter().find(|r| r[0].contains("sender-side agg")).expect("aggregated row present");
        assert_eq!(with_agg[2], "0", "update column: {with_agg:?}");
    }

    #[test]
    fn robustness_renders() {
        let out = run("robustness").render();
        assert!(out.contains("availability and goodput"), "{out}");
        assert!(out.contains("PageRank under the same plan"), "{out}");
        assert!(out.contains("edge-cut") && out.contains("vertex-cut"), "{out}");
    }

    #[test]
    fn loaders_is_deterministic_and_renders() {
        // Bit-stable: the same seeded invocation must render identical
        // output.
        let out = run("loaders").render();
        assert!(out.contains("Multi-loader ablation"), "{out}");
        assert!(out.contains("random stream order"), "{out}");
        assert!(out.contains("bfs stream order"), "{out}");
        for alg in ["LDG", "DBH", "PGG", "HDRF"] {
            assert!(out.contains(alg), "missing {alg} in {out}");
        }
        assert_eq!(out, run("loaders").render(), "loaders report must be deterministic");
    }

    #[test]
    fn ablations_is_deterministic_and_renders() {
        // Quality columns only, no timing: bit-stable across runs.
        let report = run("ablations");
        assert_eq!(report.render(), run("ablations").render(), "ablations must be deterministic");
        // One section per sweep, one row per swept value.
        let sweeps = [
            ("HDRF λ", ABLATION_HDRF_LAMBDAS.len(), 16.0, 1),
            ("Ginger high-degree threshold", ABLATION_GINGER_FACTORS.len(), 8.0, 1),
            ("Stream-order sensitivity", 4 * 2, 8.0, 2),
        ];
        for (caption, want_rows, k, rf_col) in sweeps {
            let rows = rows(&report, caption);
            assert_eq!(rows.len(), want_rows, "{caption}: {rows:?}");
            for row in rows {
                let rf: f64 = row[rf_col].parse().unwrap_or_else(|_| panic!("RF in {row:?}"));
                assert!((1.0..=k).contains(&rf), "{caption}: RF {rf} outside [1, {k}]");
            }
        }
        assert_eq!(rows(&report, "FENNEL γ").len(), ABLATION_FENNEL_GAMMAS.len());
    }

    #[test]
    fn elastic_is_deterministic_and_renders() {
        let out = run("elastic").render();
        assert!(out.contains("Elasticity"), "{out}");
        assert!(out.contains("RTO ms"), "{out}");
        assert!(out.contains("Data moved"), "{out}");
        assert!(out.contains("edge-cut") && out.contains("vertex-cut"), "{out}");
        assert_eq!(out, run("elastic").render(), "elastic report must be deterministic");
    }

    #[test]
    fn churn_is_deterministic() {
        let out = run("churn").render();
        assert!(out.contains("quality vs movement"), "{out}");
        for label in ["2PS", "W-LDG", "reLDG"] {
            assert!(out.contains(label), "missing method {label} in {out}");
        }
        for dataset in ["Twitter", "UK2007-05", "USA-Road", "LDBC"] {
            assert!(out.contains(dataset), "missing dataset {dataset} in {out}");
        }
        assert_eq!(out, run("churn").render(), "churn report must be deterministic");
    }

    #[test]
    fn trace_demo_renders_all_layers() {
        let out = run("trace").render();
        assert!(out.contains("top spans by self cost"), "{out}");
        for span in ["partition.run", "engine.superstep", "db.run"] {
            assert!(out.contains(span), "missing span {span} in {out}");
        }
        assert!(out.contains("per-machine load"), "{out}");
        assert!(out.contains("db.queries_ok"), "{out}");
        assert!(out.contains("engine.barrier_wait_ns"), "{out}");
    }
}
