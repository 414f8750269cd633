//! Analytics workloads: `partition` → `Placement::build` →
//! `run_program` for the three GAS apps. Partitioning is a hash-family
//! or one-pass cell per cut model so that `sgp-engine` does the work —
//! all-active dense supersteps on the power-law graph, hundreds of
//! tiny-frontier supersteps on the road lattice.

use super::{median_span_s, random_order_job, rate, LayerValues, Outcome, Workload};
use crate::api::{
    build_placement, first_vertex_with_out_degree, max_out_degree_vertex, partitioning_checksum,
    reference_result, run_app, Algorithm, App, Graph, GraphSpec, VertexData,
};
use crate::facts::{Fact, Facts};
use crate::trace::Recorder;

pub struct Analytics {
    name: &'static str,
    spec: GraphSpec,
    k: usize,
    algorithms: &'static [Algorithm],
    /// All three apps, or SSSP alone.
    all_apps: bool,
    /// Distinguishes the two workloads' metric names: `""` or `"_road"`.
    suffix: &'static str,
    graph: Option<Graph>,
    seed: u64,
    /// Each app with its single-machine reference result.
    apps: Vec<(App, VertexData)>,
}

impl Analytics {
    /// PageRank(20), WCC and SSSP on every placement.
    pub fn dense(spec: GraphSpec, k: usize, algorithms: &'static [Algorithm]) -> Self {
        Self::new("analytics-dense", spec, k, algorithms, true, "")
    }

    /// SSSP alone: long diameter, per-superstep overhead dominates.
    pub fn sparse(spec: GraphSpec, k: usize, algorithms: &'static [Algorithm]) -> Self {
        Self::new("analytics-sparse", spec, k, algorithms, false, "_road")
    }

    fn new(
        name: &'static str,
        spec: GraphSpec,
        k: usize,
        algorithms: &'static [Algorithm],
        all_apps: bool,
        suffix: &'static str,
    ) -> Self {
        Analytics {
            name,
            spec,
            k,
            algorithms,
            all_apps,
            suffix,
            graph: None,
            seed: 0,
            apps: Vec::new(),
        }
    }

    fn graph(&self) -> &Graph {
        self.graph.as_ref().expect("prepare() ran before the first iteration")
    }
}

impl Workload for Analytics {
    fn name(&self) -> &'static str {
        self.name
    }

    fn work_unit(&self) -> &'static str {
        "supersteps executed"
    }

    fn sizes(&self) -> String {
        let names: Vec<&str> = self.algorithms.iter().map(|a| a.short_name()).collect();
        let apps = if self.all_apps { "PageRank(20) WCC SSSP" } else { "SSSP" };
        format!("{:?}, k={}, placements {}, apps {apps}", self.spec, self.k, names.join(" "))
    }

    fn inputs(&self) -> Vec<GraphSpec> {
        vec![self.spec]
    }

    fn prepare(&mut self, mut graphs: Vec<Graph>, seed: u64) {
        self.graph = graphs.pop();
        self.seed = seed;
        let g = self.graph();
        // Dense: start at the biggest hub. Sparse: start beside the
        // lattice corner, so the superstep count (the diameter) is about
        // the same for every seed.
        let apps = if self.all_apps {
            let sssp = App::Sssp { source: max_out_degree_vertex(g) };
            vec![App::PageRank { iterations: 20 }, App::Wcc, sssp]
        } else {
            vec![App::Sssp { source: first_vertex_with_out_degree(g, 3) }]
        };
        self.apps = apps.into_iter().map(|app| (app, reference_result(g, app))).collect();
    }

    fn iteration(&mut self, rec: &mut Recorder) -> Outcome {
        let g = self.graph();
        let mut out = Outcome::default();
        let mut mismatches = 0;
        for &algorithm in self.algorithms {
            let short = algorithm.short_name();
            let job = random_order_job(algorithm, self.k, self.seed);
            let span = rec.intern(&format!("partition.{short}"));
            let p = rec.span(span, |_| job.run(g));
            out.partition_op(short, g, &p, self.k);
            out.facts.push(format!("{short}.assignment"), Fact::Hash(partitioning_checksum(&p)));
            let placed = rec.span("engine.placement", |_| build_placement(g, &p));
            for (app, reference) in &self.apps {
                let span = rec.intern(&format!("engine.{}", app.name()));
                let run = rec.span(span, |_| run_app(g, &placed, *app));
                let cell = format!("{short}.{}", app.name());
                let ok = run.data.matches(reference);
                mismatches += u64::from(!ok);
                out.op(&cell, if ok { Ok(()) } else { Err("differs from the reference".into()) });
                out.work += run.supersteps;
                out.facts.push(format!("{cell}.supersteps"), Fact::Count(run.supersteps));
                out.facts.push(format!("{cell}.messages"), Fact::Count(run.messages));
                out.facts.push(format!("{cell}.report"), Fact::Hash(run.checksum));
            }
        }
        out.facts.push("reference_mismatches", Fact::Count(mismatches));
        out
    }

    fn probes(&mut self, _rec: &mut Recorder) -> LayerValues {
        LayerValues::new()
    }

    fn layer_values(&self, rec: &Recorder, facts: &Facts) -> LayerValues {
        let cells = self.algorithms.len() as f64;
        let edges = self.graph().num_edges() as f64;
        let sfx = self.suffix;
        let mut values = vec![
            (
                format!("engine.placement{sfx}.edges_per_s"),
                rate(edges * cells, median_span_s(rec, "engine.placement")),
            ),
            ("engine.reference_mismatches".into(), facts.value("reference_mismatches")),
        ];
        for (app, _) in &self.apps {
            let name = app.name();
            // Supersteps of this app over every placement of one iteration.
            let supersteps: f64 = self
                .algorithms
                .iter()
                .map(|a| facts.value(&format!("{}.{name}.supersteps", a.short_name())))
                .sum();
            let seconds = median_span_s(rec, &format!("engine.{name}"));
            if self.all_apps {
                values.push((format!("engine.{name}.supersteps_per_s"), rate(supersteps, seconds)));
            } else {
                values.push((
                    format!("engine.{name}{sfx}.us_per_superstep"),
                    rate(seconds * 1e6, supersteps),
                ));
                values.push((format!("engine.{name}{sfx}.supersteps"), supersteps));
            }
        }
        if self.all_apps {
            for a in self.algorithms {
                let short = a.short_name();
                values.push((
                    format!("engine.pagerank.messages.{short}"),
                    facts.value(&format!("{short}.pagerank.messages")),
                ));
            }
        }
        values
    }
}
