//! The six workloads. Each drives the real pipeline through `api.rs`
//! and is built from one of four families that differ in which layer
//! does the work.

mod analytics;
mod ingest;
mod offline;
mod online;

use crate::api::{
    well_formed, Algorithm, Graph, GraphSpec, PartitionJob, Partitioning, StreamOrder,
};
use crate::facts::Facts;
use crate::trace::Recorder;

/// Span keys at or above this belong to the traced run's probes, below
/// it to iterations.
pub const PROBE_KEY_BASE: u64 = 1_000_000;

/// What one iteration did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells executed.
    pub ops: u64,
    /// Cells that panicked, returned `Err` or failed their check.
    pub failed: u64,
    /// Why, one line per failed cell.
    pub failures: Vec<String>,
    /// The workload's unit of work done (edges, records, supersteps …).
    pub work: u64,
    pub facts: Facts,
}

impl Outcome {
    /// Counts one cell; `check` is `Err(why)` when it failed.
    pub fn op(&mut self, cell: &str, check: Result<(), String>) {
        self.ops += 1;
        if let Err(why) = check {
            self.failed += 1;
            self.failures.push(format!("{cell}: {why}"));
        }
    }

    /// Counts one partitioning cell, failed unless `p` is well-formed.
    pub fn partition_op(&mut self, cell: &str, g: &Graph, p: &Partitioning, k: usize) {
        let ok = well_formed(g, p, k);
        self.op(cell, if ok { Ok(()) } else { Err("malformed partitioning".into()) });
    }
}

/// The sequential job every workload but the ingest lattice and METIS
/// runs: a seeded random stream order and a seeded partitioner.
pub fn random_order_job(algorithm: Algorithm, k: usize, seed: u64) -> PartitionJob {
    PartitionJob {
        algorithm,
        k,
        order: StreamOrder::Random { seed: subseed(seed, tag::ORDER) },
        seed: subseed(seed, tag::PARTITIONER),
    }
}

/// `(metric name, value)` pairs a workload contributes to the per-layer report.
pub type LayerValues = Vec<(String, f64)>;

/// One benchmark workload.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// What `work_per_s` counts.
    fn work_unit(&self) -> &'static str;
    /// Final calibrated sizes, for the report header.
    fn sizes(&self) -> String;
    /// The input graphs; building all of them once is one set-up.
    fn inputs(&self) -> Vec<GraphSpec>;
    /// Takes the built inputs and prepares what checking needs
    /// (single-machine references); untimed.
    fn prepare(&mut self, graphs: Vec<Graph>, seed: u64);
    /// One pass over every cell, input graph → last report.
    fn iteration(&mut self, rec: &mut Recorder) -> Outcome;
    /// Traced run only: finer-grained or off-path measurements that
    /// never enter an end-to-end number.
    fn probes(&mut self, rec: &mut Recorder) -> LayerValues;
    /// Per-layer metrics from the traced iterations' spans and facts.
    fn layer_values(&self, rec: &Recorder, facts: &Facts) -> LayerValues;
}

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: &[&str] = &[
    "ingest-edge-powerlaw",
    "ingest-vertex-lattice",
    "analytics-dense",
    "analytics-sparse",
    "online-des",
    "offline-metis",
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    use Algorithm::*;
    Some(match name {
        "ingest-edge-powerlaw" => Box::new(ingest::Ingest::new(
            "ingest-edge-powerlaw",
            GraphSpec::Rmat { scale: 16, edge_factor: 12 },
            32,
            ingest::Order::Random,
            &[VcrHash, Grid, Dbh, PowerGraphGreedy, Hdrf, TwoPhaseHdrf, HybridRandom, Ginger],
        )),
        "ingest-vertex-lattice" => Box::new(ingest::Ingest::new(
            "ingest-vertex-lattice",
            GraphSpec::Road { width: 320, height: 320 },
            64,
            ingest::Order::Bfs,
            &[EcrHash, Ldg, Fennel, RestreamLdg, RestreamFennel],
        )),
        "analytics-dense" => Box::new(analytics::Analytics::dense(
            GraphSpec::Rmat { scale: 16, edge_factor: 12 },
            16,
            &[EcrHash, Dbh, HybridRandom],
        )),
        "analytics-sparse" => Box::new(analytics::Analytics::sparse(
            GraphSpec::Road { width: 352, height: 352 },
            16,
            &[Ldg, Dbh],
        )),
        "online-des" => Box::new(online::Online::new()),
        "offline-metis" => Box::new(offline::Offline::new()),
        _ => return None,
    })
}

/// Median over the traced iterations of the per-iteration time in span
/// `name`, seconds; 0 when the span never ran.
pub fn median_span_s(rec: &Recorder, name: &str) -> f64 {
    crate::metrics::median(&rec.per_iteration_s(name, 0..PROBE_KEY_BASE))
}

/// `count / seconds`, or 0 when nothing was timed.
pub fn rate(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// An independent seed for purpose `tag`, derived from the run's seed
/// (splitmix64 finalizer).
pub fn subseed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed tags, one per consumer of randomness.
pub mod tag {
    pub const GRAPH: u64 = 1;
    pub const ORDER: u64 = 2;
    pub const PARTITIONER: u64 = 3;
    pub const BINDINGS: u64 = 4;
    pub const FAULT_PLAN: u64 = 5;
}

/// Median wall time in seconds of `reps` runs of `body`, each inside a
/// span named `name`.
pub fn median_of_runs<T>(
    rec: &mut Recorder,
    name: &'static str,
    reps: usize,
    mut body: impl FnMut() -> T,
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            rec.span(name, |_| std::hint::black_box(body()));
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::metrics::median(&times)
}

/// The facts named `<ALG>.<figure>` that `PER_LAYER` declares as
/// `partition.<ALG>.<figure>`.
pub fn declared_partition_facts(facts: &Facts) -> LayerValues {
    facts
        .iter()
        .filter_map(|(name, fact)| {
            let metric = format!("partition.{name}");
            let declared = crate::metrics::PER_LAYER.iter().any(|m| m.name == metric);
            fact.value().filter(|_| declared).map(|v| (metric, v))
        })
        .collect()
}
