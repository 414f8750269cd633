//! Offline workload: the multilevel METIS-like baseline alone, on
//! power-law and lattice graphs. It is the dearest row of the cost
//! ranking and the only super-linear one, so it has its own row and
//! stays out of the ingest numbers.

use super::{median_span_s, rate, subseed, tag, LayerValues, Outcome, Workload};
use crate::api::{
    measure_quality, partitioning_checksum, Algorithm, Graph, GraphSpec, PartitionJob, StreamOrder,
};
use crate::facts::{Fact, Facts};
use crate::trace::Recorder;

const K: usize = 16;
/// Three small graphs of each class rather than one large one: the
/// multilevel partitioner's time on a single lattice swings by a quarter
/// from one seed to the next (±7 % on a power-law graph), so independent
/// ones are summed to steady the iteration.
const POWERLAW: GraphSpec = GraphSpec::Rmat { scale: 11, edge_factor: 12 };
const LATTICE: GraphSpec = GraphSpec::Road { width: 128, height: 128 };
/// `(cell name, graph class, spec)`; the class names the span and the metric.
const INPUTS: [(&str, &str, GraphSpec); 6] = [
    ("powerlaw1", "powerlaw", POWERLAW),
    ("powerlaw2", "powerlaw", POWERLAW),
    ("powerlaw3", "powerlaw", POWERLAW),
    ("lattice1", "lattice", LATTICE),
    ("lattice2", "lattice", LATTICE),
    ("lattice3", "lattice", LATTICE),
];

pub struct Offline {
    graphs: Vec<Graph>,
    seed: u64,
}

impl Offline {
    pub fn new() -> Self {
        Offline { graphs: Vec::new(), seed: 0 }
    }
}

impl Workload for Offline {
    fn name(&self) -> &'static str {
        "offline-metis"
    }

    fn work_unit(&self) -> &'static str {
        "edges partitioned"
    }

    fn sizes(&self) -> String {
        format!("MTS on 3 x {POWERLAW:?} and 3 x {LATTICE:?}, k={K}")
    }

    fn inputs(&self) -> Vec<GraphSpec> {
        INPUTS.iter().map(|&(_, _, spec)| spec).collect()
    }

    fn prepare(&mut self, graphs: Vec<Graph>, seed: u64) {
        self.graphs = graphs;
        self.seed = seed;
    }

    fn iteration(&mut self, rec: &mut Recorder) -> Outcome {
        let mut out = Outcome::default();
        for (&(label, class, _), g) in INPUTS.iter().zip(&self.graphs) {
            let job = PartitionJob {
                algorithm: Algorithm::Metis,
                k: K,
                order: StreamOrder::Natural,
                seed: subseed(self.seed, tag::PARTITIONER),
            };
            let span = rec.intern(&format!("partition.MTS.{class}"));
            let p = rec.span(span, |_| job.run(g));
            let q = rec.span("partition.quality_measure", |_| measure_quality(g, &p));
            out.partition_op(label, g, &p, K);
            out.work += g.num_edges() as u64;
            if let Some(cut) = q.edge_cut_ratio {
                out.facts.push(format!("MTS.{label}.edge_cut_ratio"), Fact::Quality(cut));
            }
            out.facts.push(format!("MTS.{label}.load_imbalance"), Fact::Quality(q.load_imbalance));
            out.facts
                .push(format!("MTS.{label}.assignment"), Fact::Hash(partitioning_checksum(&p)));
        }
        out
    }

    fn probes(&mut self, _rec: &mut Recorder) -> LayerValues {
        LayerValues::new()
    }

    fn layer_values(&self, rec: &Recorder, facts: &Facts) -> LayerValues {
        let mut values = LayerValues::new();
        for class in ["powerlaw", "lattice"] {
            let edges: usize = INPUTS
                .iter()
                .zip(&self.graphs)
                .filter(|((_, c, _), _)| *c == class)
                .map(|(_, g)| g.num_edges())
                .sum();
            values.push((
                format!("partition.MTS.{class}_edges_per_s"),
                rate(edges as f64, median_span_s(rec, &format!("partition.MTS.{class}"))),
            ));
        }
        values.push((
            "partition.MTS.edge_cut_ratio".into(),
            facts.value("MTS.powerlaw1.edge_cut_ratio"),
        ));
        values.push((
            "partition.quality_measure_s".into(),
            median_span_s(rec, "partition.quality_measure"),
        ));
        values
    }
}
