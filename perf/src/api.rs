//! The one adapter between the harness and the program.
//!
//! Every call into `sgp-graph`, `sgp-partition`, `sgp-engine`, `sgp-db`
//! and `sgp-fault` goes through this file, and what comes back is either
//! an opaque program value (passed on to the next call here) or a
//! harness-owned summary. A PR that renames or merges the program's entry
//! points (ROADMAP item 2) therefore changes this file and nothing else
//! of the benchmark.

use crate::trace::Recorder;
use sgp_db::workload::{run_workload, Skew};
use sgp_db::{
    ClusterSim, FaultSimConfig, MirrorDirectory, PartitionedStore, QueryTrace, SimConfig, Workload,
    WorkloadKind,
};
use sgp_engine::apps::{PageRank, Sssp, Wcc};
use sgp_engine::{reference, run_program, EngineOptions, Placement, RunReport};
use sgp_fault::FaultPlan;
use sgp_graph::generators::{rmat, road_grid, snb_social, RmatConfig, RoadConfig, SnbConfig};
use sgp_graph::stream::VertexRecord;
use sgp_graph::{Edge, EdgeStreamSource, VertexStreamSource};
use sgp_partition::metrics::QualityReport;
use sgp_partition::{
    partition, partition_multi_loader, partition_threaded, LoaderConfig, PartitionerConfig,
    StreamInput, StreamingPartitioner, DEFAULT_CHUNK,
};

pub use sgp_graph::{Graph, StreamOrder, VertexId};
pub use sgp_partition::{Algorithm, Partitioning};

// ---------------------------------------------------------------------
// sgp-graph
// ---------------------------------------------------------------------

/// An input graph, by generator and size.
#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    /// Power-law R-MAT graph with `2^scale` vertices.
    Rmat { scale: u32, edge_factor: usize },
    /// Perturbed road lattice.
    Road { width: usize, height: usize },
    /// LDBC-SNB-like social graph.
    Snb { persons: usize, communities: usize, avg_friends: f64 },
}

impl GraphSpec {
    /// Generator → `GraphBuilder` → CSR.
    pub fn build(&self, seed: u64) -> Graph {
        match *self {
            GraphSpec::Rmat { scale, edge_factor } => {
                rmat(RmatConfig { scale, edge_factor, seed, ..RmatConfig::default() })
            }
            GraphSpec::Road { width, height } => {
                road_grid(RoadConfig { width, height, seed, ..RoadConfig::default() })
            }
            GraphSpec::Snb { persons, communities, avg_friends } => snb_social(SnbConfig {
                persons,
                communities,
                avg_friends,
                seed,
                ..SnbConfig::default()
            }),
        }
    }
}

/// The vertex with the largest out-degree (lowest id on ties).
pub fn max_out_degree_vertex(g: &Graph) -> VertexId {
    let mut best = 0;
    for v in g.vertices() {
        if g.out_degree(v) > g.out_degree(best) {
            best = v;
        }
    }
    best
}

/// The lowest-id vertex with at least `min` out-edges (vertex 0 if
/// there is none): on a lattice, a well-connected vertex next to the
/// corner, whose eccentricity barely moves with the seed.
pub fn first_vertex_with_out_degree(g: &Graph, min: usize) -> VertexId {
    g.vertices().find(|&v| g.out_degree(v) >= min).unwrap_or(0)
}

/// Drains a bare `EdgeStreamSource` in `DEFAULT_CHUNK` chunks; returns
/// the number of elements seen.
pub fn drain_edge_source(g: &Graph, order: StreamOrder) -> usize {
    let mut source = EdgeStreamSource::new(g, order);
    let mut chunk: Vec<Edge> = Vec::new();
    let mut seen = 0;
    while source.next_chunk(DEFAULT_CHUNK, &mut chunk) > 0 {
        seen += std::hint::black_box(&chunk).len();
    }
    seen
}

/// Drains a bare `VertexStreamSource`; returns the records seen.
pub fn drain_vertex_source(g: &Graph, order: StreamOrder) -> usize {
    let mut source = VertexStreamSource::new(g, order);
    let mut chunk: Vec<VertexRecord> = Vec::new();
    let mut seen = 0;
    while source.next_chunk(DEFAULT_CHUNK, &mut chunk) > 0 {
        seen += std::hint::black_box(&chunk).len();
    }
    seen
}

// ---------------------------------------------------------------------
// sgp-partition
// ---------------------------------------------------------------------

/// One partitioning request.
#[derive(Debug, Clone, Copy)]
pub struct PartitionJob {
    pub algorithm: Algorithm,
    pub k: usize,
    pub order: StreamOrder,
    /// Seeds every hash and tie-break of the partitioner.
    pub seed: u64,
}

impl PartitionJob {
    fn config(&self) -> PartitionerConfig {
        PartitionerConfig::new(self.k).with_seed(self.seed)
    }

    /// The sequential single-loader run every end-to-end number uses.
    pub fn run(&self, g: &Graph) -> Partitioning {
        partition(g, self.algorithm, &self.config(), self.order)
    }

    /// `loaders` real OS threads (`sgp-partition::exec`).
    pub fn run_threaded(&self, g: &Graph, loaders: usize) -> Partitioning {
        let lc = LoaderConfig { seed: self.seed, ..LoaderConfig::new(loaders) };
        partition_threaded(g, self.algorithm, &self.config(), self.order, &lc)
    }

    /// `loaders` modelled loaders on one thread (`sgp-partition::loaders`).
    pub fn run_multi_loader(&self, g: &Graph, loaders: usize) -> Partitioning {
        let lc = LoaderConfig { seed: self.seed, ..LoaderConfig::new(loaders) };
        partition_multi_loader(g, self.algorithm, &self.config(), self.order, &lc)
    }

    /// Replays `partition_chunked`'s loop with a span round each stage,
    /// so source, kernel (`ingest_*`) and seal time separate. Returns the
    /// partitioning and the number of elements ingested over all passes.
    pub fn run_staged(&self, g: &Graph, rec: &mut Recorder) -> (Partitioning, u64) {
        let cfg = self.config();
        let mut sp =
            rec.span("partition.init", |_| StreamingPartitioner::init(g, self.algorithm, &cfg));
        match sp.input() {
            StreamInput::Vertices => {
                let mut source =
                    rec.span("graph.vertex_source", |_| VertexStreamSource::new(g, self.order));
                let mut chunk = Vec::new();
                for _ in 0..sp.passes() {
                    source.restart();
                    while rec.span("graph.vertex_source", |_| {
                        source.next_chunk(DEFAULT_CHUNK, &mut chunk) > 0
                    }) {
                        rec.span("partition.ingest", |_| {
                            sp.ingest_vertices(&chunk)
                                .expect("vertex machine accepts vertex chunks")
                        });
                    }
                    rec.span("partition.flush_window", |_| sp.flush_window());
                }
            }
            StreamInput::Edges => {
                let mut source =
                    rec.span("graph.edge_source", |_| EdgeStreamSource::new(g, self.order));
                let mut chunk = Vec::new();
                for _ in 0..sp.passes() {
                    source.restart();
                    while rec.span("graph.edge_source", |_| {
                        source.next_chunk(DEFAULT_CHUNK, &mut chunk) > 0
                    }) {
                        rec.span("partition.ingest", |_| {
                            sp.ingest_edges(&chunk).expect("edge machine accepts edge chunks")
                        });
                    }
                    rec.span("partition.flush_window", |_| sp.flush_window());
                }
            }
            StreamInput::Offline => {}
        }
        let elements = sp.elements_ingested();
        (rec.span("partition.seal", |_| sp.seal()), elements)
    }
}

/// Stream passes `algorithm` makes (5 for the restreaming variants, at
/// least 1) and whether its machine consumes vertex records (else edges
/// or nothing).
pub fn stream_shape(g: &Graph, algorithm: Algorithm, k: usize) -> (usize, bool) {
    let sp = StreamingPartitioner::init(g, algorithm, &PartitionerConfig::new(k));
    (sp.passes().max(1), sp.input() == StreamInput::Vertices)
}

/// Structural quality of one partitioning; lower is better throughout.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub replication_factor: f64,
    /// `None` for pure vertex-cut placements.
    pub edge_cut_ratio: Option<f64>,
    /// Owned-vertex imbalance when vertex-disjoint, else edge imbalance.
    pub load_imbalance: f64,
}

pub fn measure_quality(g: &Graph, p: &Partitioning) -> Quality {
    let q = QualityReport::measure(g, p);
    Quality {
        replication_factor: q.replication_factor,
        edge_cut_ratio: q.edge_cut_ratio,
        load_imbalance: q.vertex_imbalance.unwrap_or(q.edge_imbalance),
    }
}

/// Every edge placed, every id below `k`, owners (if any) cover `V`.
pub fn well_formed(g: &Graph, p: &Partitioning, k: usize) -> bool {
    p.k == k
        && p.edge_parts.len() == g.num_edges()
        && p.edge_parts.iter().all(|&part| (part as usize) < k)
        && p.vertex_owner.as_ref().is_none_or(|owner| {
            owner.len() == g.num_vertices() && owner.iter().all(|&part| (part as usize) < k)
        })
}

/// FNV-1a over the edge placement and the owner map.
pub fn partitioning_checksum(p: &Partitioning) -> u64 {
    let mut h = Fnv::new();
    p.edge_parts.iter().for_each(|&x| h.u32(x));
    if let Some(owner) = &p.vertex_owner {
        owner.iter().for_each(|&x| h.u32(x));
    }
    h.finish()
}

// ---------------------------------------------------------------------
// sgp-engine
// ---------------------------------------------------------------------

/// Opaque master/mirror layout.
pub struct Placed(Placement);

pub fn build_placement(g: &Graph, p: &Partitioning) -> Placed {
    Placed(Placement::build(g, p))
}

/// The three analytics programs of §5.1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    PageRank { iterations: usize },
    Wcc,
    Sssp { source: VertexId },
}

impl App {
    pub fn name(&self) -> &'static str {
        match self {
            App::PageRank { .. } => "pagerank",
            App::Wcc => "wcc",
            App::Sssp { .. } => "sssp",
        }
    }
}

/// Final vertex data of one engine or reference run.
#[derive(Debug, Clone, PartialEq)]
pub enum VertexData {
    Ranks(Vec<f64>),
    Labels(Vec<u32>),
    Distances(Vec<u64>),
}

impl VertexData {
    /// Equal to `reference`: exactly, or within 1e-9 relative for ranks.
    pub fn matches(&self, reference: &VertexData) -> bool {
        match (self, reference) {
            (VertexData::Ranks(a), VertexData::Ranks(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-9 * y.abs().max(1.0))
            }
            (a, b) => a == b,
        }
    }
}

/// What one engine run did.
#[derive(Debug, Clone)]
pub struct EngineRun {
    pub data: VertexData,
    pub supersteps: u64,
    pub messages: u64,
    /// FNV-1a over the report's exact counts (not the float results).
    pub checksum: u64,
}

pub fn run_app(g: &Graph, placed: &Placed, app: App) -> EngineRun {
    let opts = EngineOptions::default();
    let (data, report) = match app {
        App::PageRank { iterations } => {
            let (d, r) = run_program(g, &placed.0, &PageRank::new(iterations), &opts);
            (VertexData::Ranks(d), r)
        }
        App::Wcc => {
            let (d, r) = run_program(g, &placed.0, &Wcc::new(), &opts);
            (VertexData::Labels(d), r)
        }
        App::Sssp { source } => {
            let (d, r) = run_program(g, &placed.0, &Sssp::new(source), &opts);
            (VertexData::Distances(d), r)
        }
    };
    EngineRun {
        data,
        supersteps: report.num_iterations() as u64,
        messages: report.total_messages(),
        checksum: run_report_checksum(&report),
    }
}

fn run_report_checksum(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.num_iterations() as u64);
    h.u64(r.total_messages());
    h.u64(r.total_network_bytes());
    h.u64(r.total_wall_ns.to_bits());
    h.finish()
}

/// Single-machine reference result for `app`.
pub fn reference_result(g: &Graph, app: App) -> VertexData {
    match app {
        App::PageRank { iterations } => VertexData::Ranks(reference::pagerank(g, iterations)),
        App::Wcc => VertexData::Labels(reference::wcc(g)),
        App::Sssp { source } => VertexData::Distances(reference::sssp(g, source)),
    }
}

// ---------------------------------------------------------------------
// sgp-db (+ sgp-fault)
// ---------------------------------------------------------------------

/// Opaque sharded adjacency store.
pub struct Store(PartitionedStore);
/// Opaque failover directory.
pub struct Mirrors(MirrorDirectory);
/// Opaque bound query workload.
pub struct Bindings(Workload);
/// Opaque per-query execution traces.
pub struct Traces(Vec<QueryTrace>);
/// Opaque prepared discrete-event simulation.
pub struct Sim(ClusterSim);
/// Opaque fault plan.
pub struct Plan(FaultPlan);

/// The two online query classes the benchmark issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    OneHop,
    TwoHop,
}

impl QueryKind {
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::OneHop => "onehop",
            QueryKind::TwoHop => "twohop",
        }
    }
}

/// Copies the graph into a store sharded by `p`'s owner map.
pub fn build_store(g: &Graph, p: &Partitioning) -> Store {
    Store(PartitionedStore::new(g.clone(), p))
}

pub fn build_mirrors(g: &Graph, p: &Partitioning) -> Mirrors {
    Mirrors(MirrorDirectory::for_model(g, p))
}

/// `count` Zipf(`theta`)-skewed parameter bindings.
pub fn generate_bindings(
    g: &Graph,
    kind: QueryKind,
    count: usize,
    theta: f64,
    seed: u64,
) -> Bindings {
    let kind = match kind {
        QueryKind::OneHop => WorkloadKind::OneHop,
        QueryKind::TwoHop => WorkloadKind::TwoHop,
    };
    Bindings(Workload::generate(g, kind, count, Skew::Zipf { theta }, seed))
}

/// Executes every binding once against the store.
pub fn execute_bindings(store: &Store, bindings: &Bindings) -> Traces {
    Traces(run_workload(&store.0, &bindings.0, None))
}

pub fn prepare_sim(machines: usize, traces: Traces) -> Sim {
    Sim(ClusterSim::from_traces(machines, traces.0))
}

/// Closed-loop load of one DES run.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub clients_per_machine: usize,
    pub queries_per_client: usize,
}

impl Load {
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            clients_per_machine: self.clients_per_machine,
            queries_per_client: self.queries_per_client,
            ..SimConfig::default()
        }
    }

    /// Queries the DES must report once warm-up completions are dropped.
    pub fn counted_queries(&self, machines: usize) -> u64 {
        let cfg = self.sim_config();
        let total = machines * self.clients_per_machine * self.queries_per_client;
        (total - (total as f64 * cfg.warmup_fraction) as usize) as u64
    }
}

/// What one DES run reported.
#[derive(Debug, Clone, Copy)]
pub struct DesRun {
    /// Post-warm-up completions, successful or not.
    pub completed: u64,
    pub retries: u64,
    pub failovers: u64,
    pub availability: f64,
    pub sim_p99_ms: f64,
    /// FNV-1a over every field of the report.
    pub checksum: u64,
}

pub fn run_healthy(sim: &Sim, load: Load) -> DesRun {
    let r = sim.0.run(&load.sim_config());
    let mut h = Fnv::new();
    [r.throughput_qps, r.mean_latency_ms, r.p50_latency_ms, r.p99_latency_ms, r.max_latency_ms]
        .iter()
        .for_each(|x| h.u64(x.to_bits()));
    h.u64(r.completed as u64);
    r.reads_per_machine.iter().for_each(|&x| h.u64(x));
    h.u64(r.sim_seconds.to_bits());
    DesRun {
        completed: r.completed as u64,
        retries: 0,
        failovers: 0,
        availability: 1.0,
        sim_p99_ms: r.p99_latency_ms,
        checksum: h.finish(),
    }
}

/// `Err` carries the simulator's typed refusal as text.
pub fn run_faulted(
    sim: &Sim,
    load: Load,
    plan: &Plan,
    mirrors: &Mirrors,
) -> Result<DesRun, String> {
    let cfg = FaultSimConfig { base: load.sim_config(), ..FaultSimConfig::default() };
    let r = sim.0.run_faulted(&cfg, &plan.0, &mirrors.0).map_err(|e| e.to_string())?;
    let mut h = Fnv::new();
    [r.availability, r.goodput_qps, r.offered_qps, r.mean_latency_ms, r.p99_latency_ms]
        .iter()
        .for_each(|x| h.u64(x.to_bits()));
    [r.completed_ok as u64, r.failed as u64, r.retries, r.dropped_messages, r.failovers]
        .iter()
        .for_each(|&x| h.u64(x));
    r.reads_per_machine.iter().for_each(|&x| h.u64(x));
    h.u64(r.sim_seconds.to_bits());
    Ok(DesRun {
        completed: (r.completed_ok + r.failed) as u64,
        retries: r.retries,
        failovers: r.failovers,
        availability: r.availability,
        sim_p99_ms: r.p99_latency_ms,
        checksum: h.finish(),
    })
}

/// A plan with no faults at all.
pub fn healthy_plan(machines: usize, seed: u64) -> Plan {
    Plan(FaultPlan::healthy(machines, seed))
}

/// The robustness suite's plan: uniform message loss, a permanent crash
/// of the last machine, and a whole-run straggler on machine 0.
pub fn robustness_plan(
    machines: usize,
    seed: u64,
    loss: f64,
    crash_at_ns: u64,
    slowdown: f64,
) -> Plan {
    Plan(
        FaultPlan::healthy(machines, seed)
            .with_message_loss(loss)
            .with_crash(machines as u32 - 1, crash_at_ns)
            .with_straggler(0, 0, u64::MAX, slowdown),
    )
}

// ---------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
