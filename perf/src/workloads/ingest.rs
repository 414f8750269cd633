//! Ingest workloads: `partition()` then `QualityReport::measure` for a
//! list of streaming partitioners over one graph. `sgp-partition` (and
//! the stream sources of `sgp-graph` it pulls from) does all the work;
//! `sgp-engine` and `sgp-db` do nothing.

use super::{
    declared_partition_facts, median_of_runs, median_span_s, random_order_job, rate, LayerValues,
    Outcome, Workload, PROBE_KEY_BASE,
};
use crate::api::{
    drain_edge_source, drain_vertex_source, measure_quality, partitioning_checksum, stream_shape,
    Algorithm, Graph, GraphSpec, PartitionJob, StreamOrder,
};
use crate::facts::{Fact, Facts};
use crate::metrics::median;
use crate::trace::Recorder;

/// Arrival order of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Seeded shuffle; the workload counts edges.
    Random,
    /// Breadth-first from vertex 0; the workload counts vertex records
    /// per pass.
    Bfs,
}

pub struct Ingest {
    name: &'static str,
    spec: GraphSpec,
    k: usize,
    order: Order,
    algorithms: &'static [Algorithm],
    graph: Option<Graph>,
    seed: u64,
    /// Per algorithm, filled by `prepare`.
    cells: Vec<Cell>,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    algorithm: Algorithm,
    /// Stream passes the algorithm makes.
    passes: usize,
    /// Whether its machine consumes vertex records.
    from_vertices: bool,
    /// The workload's unit of work one run of this cell does.
    work: u64,
    /// Checksum of the latest iteration's assignment, which the staged
    /// replay of the probes must reproduce.
    assignment: u64,
}

impl Ingest {
    pub fn new(
        name: &'static str,
        spec: GraphSpec,
        k: usize,
        order: Order,
        algorithms: &'static [Algorithm],
    ) -> Self {
        Ingest { name, spec, k, order, algorithms, graph: None, seed: 0, cells: Vec::new() }
    }

    fn graph(&self) -> &Graph {
        self.graph.as_ref().expect("prepare() ran before the first iteration")
    }

    fn job(&self, algorithm: Algorithm) -> PartitionJob {
        let job = random_order_job(algorithm, self.k, self.seed);
        match self.order {
            Order::Random => job,
            Order::Bfs => PartitionJob { order: StreamOrder::Bfs, ..job },
        }
    }

    /// `parallel ÷ sequential` wall time of `algorithm`, medians of three.
    fn over_sequential(
        &self,
        rec: &mut Recorder,
        span: &'static str,
        algorithm: Algorithm,
        parallel: impl Fn(&PartitionJob, &Graph) -> crate::api::Partitioning,
    ) -> f64 {
        let (g, job) = (self.graph(), self.job(algorithm));
        let seq = median_of_runs(rec, "partition.probe.sequential", 3, || job.run(g));
        let par = median_of_runs(rec, span, 3, || parallel(&job, g));
        rate(par, seq)
    }
}

impl Workload for Ingest {
    fn name(&self) -> &'static str {
        self.name
    }

    fn work_unit(&self) -> &'static str {
        match self.order {
            Order::Random => "edges ingested",
            Order::Bfs => "vertex records ingested (all passes)",
        }
    }

    fn sizes(&self) -> String {
        let names: Vec<&str> = self.algorithms.iter().map(|a| a.short_name()).collect();
        format!("{:?}, k={}, {:?} order, cells {}", self.spec, self.k, self.order, names.join(" "))
    }

    fn inputs(&self) -> Vec<GraphSpec> {
        vec![self.spec]
    }

    fn prepare(&mut self, mut graphs: Vec<Graph>, seed: u64) {
        self.graph = graphs.pop();
        self.seed = seed;
        let g = self.graph();
        self.cells = self
            .algorithms
            .iter()
            .map(|&algorithm| {
                let (passes, from_vertices) = stream_shape(g, algorithm, self.k);
                let work = match self.order {
                    Order::Random => g.num_edges(),
                    Order::Bfs => g.num_vertices() * passes,
                };
                Cell { algorithm, passes, from_vertices, work: work as u64, assignment: 0 }
            })
            .collect();
    }

    fn iteration(&mut self, rec: &mut Recorder) -> Outcome {
        let g = self.graph.as_ref().expect("prepare() ran before the first iteration");
        let mut out = Outcome::default();
        for i in 0..self.cells.len() {
            let cell = self.cells[i];
            let short = cell.algorithm.short_name();
            let job = self.job(cell.algorithm);
            let span = rec.intern(&format!("partition.{short}"));
            let p = rec.span(span, |_| job.run(g));
            let q = rec.span("partition.quality_measure", |_| measure_quality(g, &p));
            out.partition_op(short, g, &p, self.k);
            out.work += cell.work;
            out.facts
                .push(format!("{short}.replication_factor"), Fact::Quality(q.replication_factor));
            if let Some(cut) = q.edge_cut_ratio {
                out.facts.push(format!("{short}.edge_cut_ratio"), Fact::Quality(cut));
            }
            out.facts.push(format!("{short}.load_imbalance"), Fact::Quality(q.load_imbalance));
            self.cells[i].assignment = partitioning_checksum(&p);
            out.facts.push(format!("{short}.assignment"), Fact::Hash(self.cells[i].assignment));
        }
        out
    }

    fn probes(&mut self, rec: &mut Recorder) -> LayerValues {
        let g = self.graph();
        let mut values = LayerValues::new();
        let (mut init_s, mut seal_s) = (0.0, 0.0);
        let mut source_s = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            let short = cell.algorithm.short_name();
            let key = PROBE_KEY_BASE + i as u64;
            rec.begin_iteration(key);
            let job = self.job(cell.algorithm);
            let (staged, elements) = job.run_staged(g, rec);
            assert_eq!(
                partitioning_checksum(&staged),
                cell.assignment,
                "{short}: the staged replay must place exactly like partition()"
            );
            values.push((
                format!("partition.{short}.ingest_ns_per_element"),
                rate(rec.total_s("partition.ingest", key) * 1e9, elements as f64),
            ));
            init_s += rec.total_s("partition.init", key);
            seal_s += rec.total_s("partition.seal", key);
            if cell.from_vertices == (self.order == Order::Bfs) {
                let name =
                    if cell.from_vertices { "graph.vertex_source" } else { "graph.edge_source" };
                source_s.push(rec.total_s(name, key) / cell.passes as f64);
            }
        }
        values.push(("partition.init_s".into(), init_s));
        values.push(("partition.seal_s".into(), seal_s));

        rec.begin_iteration(PROBE_KEY_BASE + self.algorithms.len() as u64);
        let order = self.job(self.algorithms[0]).order;
        match self.order {
            Order::Random => {
                let drain = median_of_runs(rec, "graph.edge_source.drain", 3, || {
                    drain_edge_source(g, order)
                });
                values.push((
                    "graph.edge_source.elements_per_s".into(),
                    rate(g.num_edges() as f64, drain),
                ));
                values.push((
                    "partition.exec.threads2_over_seq.HDRF".into(),
                    self.over_sequential(
                        rec,
                        "partition.exec.threads2",
                        Algorithm::Hdrf,
                        |j, g| j.run_threaded(g, 2),
                    ),
                ));
                values.push((
                    "partition.loaders.l4_over_seq.HDRF".into(),
                    self.over_sequential(rec, "partition.loaders.l4", Algorithm::Hdrf, |j, g| {
                        j.run_multi_loader(g, 4)
                    }),
                ));
            }
            Order::Bfs => {
                let drain = median_of_runs(rec, "graph.vertex_source.drain", 3, || {
                    drain_vertex_source(g, order)
                });
                values.push((
                    "graph.vertex_source.records_per_s".into(),
                    rate(g.num_vertices() as f64, drain),
                ));
                values.push((
                    "partition.exec.threads2_over_seq.LDG".into(),
                    self.over_sequential(rec, "partition.exec.threads2", Algorithm::Ldg, |j, g| {
                        j.run_threaded(g, 2)
                    }),
                ));
            }
        }
        // How much of a cell the stream source is, seen from inside the
        // staged replay (printed, not a declared metric).
        println!(
            "  staged source pass: median {:.1} ms over {} cells",
            median(&source_s) * 1e3,
            source_s.len()
        );
        values
    }

    fn layer_values(&self, rec: &Recorder, facts: &Facts) -> LayerValues {
        let mut values = declared_partition_facts(facts);
        for cell in &self.cells {
            let short = cell.algorithm.short_name();
            values.push((
                format!("partition.{short}.elements_per_s"),
                rate(cell.work as f64, median_span_s(rec, &format!("partition.{short}"))),
            ));
        }
        values.push((
            "partition.quality_measure_s".into(),
            median_span_s(rec, "partition.quality_measure"),
        ));
        values
    }
}
