//! Online workload: the JanusGraph-style path. LDG shards a social
//! graph; one-hop and two-hop bindings are executed for their traces;
//! the discrete-event simulator replays them healthy (`sim.rs`) and
//! under the robustness suite's fault plan (`fault_sim.rs`). `sgp-db`
//! does the work, split between the two event loops ROADMAP item 2a
//! wants to merge.

use super::{
    median_of_runs, median_span_s, random_order_job, rate, subseed, tag, LayerValues, Outcome,
    Workload, PROBE_KEY_BASE,
};
use crate::api::{
    build_mirrors, build_store, execute_bindings, generate_bindings, healthy_plan, measure_quality,
    partitioning_checksum, prepare_sim, robustness_plan, run_faulted, run_healthy, Algorithm,
    DesRun, Graph, GraphSpec, Load, Mirrors, QueryKind, Sim,
};
use crate::facts::{Fact, Facts};
use crate::trace::Recorder;

const SPEC: GraphSpec = GraphSpec::Snb { persons: 32_768, communities: 327, avg_friends: 22.0 };
const MACHINES: usize = 8;
const CLIENTS_PER_MACHINE: usize = 24;
const BINDINGS: usize = 1000;
const ZIPF_THETA: f64 = 0.6;
const MESSAGE_LOSS: f64 = 0.002;
const CRASH_AT_NS: u64 = 50_000_000;
const STRAGGLER_SLOWDOWN: f64 = 2.0;

/// One query class with its healthy and faulted simulation lengths.
struct Class {
    kind: QueryKind,
    healthy_queries_per_client: usize,
    faulted_queries_per_client: usize,
}

const CLASSES: [Class; 2] = [
    Class {
        kind: QueryKind::OneHop,
        healthy_queries_per_client: 320,
        faulted_queries_per_client: 160,
    },
    Class {
        kind: QueryKind::TwoHop,
        healthy_queries_per_client: 160,
        faulted_queries_per_client: 80,
    },
];

fn load(queries_per_client: usize) -> Load {
    Load { clients_per_machine: CLIENTS_PER_MACHINE, queries_per_client }
}

pub struct Online {
    graph: Option<Graph>,
    seed: u64,
    /// The one-hop simulation and the mirror directory of the latest
    /// iteration, kept for the empty-plan probe.
    probe_inputs: Option<(Sim, Mirrors)>,
}

impl Online {
    pub fn new() -> Self {
        Online { graph: None, seed: 0, probe_inputs: None }
    }
}

fn des_facts(facts: &mut Facts, cell: &str, run: &DesRun) {
    facts.push(format!("{cell}.completed"), Fact::Count(run.completed));
    facts.push(format!("{cell}.retries"), Fact::Count(run.retries));
    facts.push(format!("{cell}.failovers"), Fact::Count(run.failovers));
    facts.push(format!("{cell}.availability"), Fact::Float(run.availability));
    facts.push(format!("{cell}.sim_p99_ms"), Fact::Float(run.sim_p99_ms));
    facts.push(format!("{cell}.report"), Fact::Hash(run.checksum));
}

fn completed_check(run: &DesRun, want: u64) -> Result<(), String> {
    if run.completed == want {
        Ok(())
    } else {
        Err(format!("completed {} of {want} counted queries", run.completed))
    }
}

impl Workload for Online {
    fn name(&self) -> &'static str {
        "online-des"
    }

    fn work_unit(&self) -> &'static str {
        "simulated queries completed"
    }

    fn sizes(&self) -> String {
        let lengths: Vec<String> = CLASSES
            .iter()
            .map(|c| {
                format!(
                    "{} x{} healthy x{} faulted",
                    c.kind.name(),
                    c.healthy_queries_per_client,
                    c.faulted_queries_per_client
                )
            })
            .collect();
        format!(
            "{SPEC:?}, k={MACHINES}, LDG, {BINDINGS} Zipf({ZIPF_THETA}) bindings, \
             {CLIENTS_PER_MACHINE} clients/machine, queries/client {}; plan: loss {MESSAGE_LOSS}, \
             crash of machine {} at {} ms, {STRAGGLER_SLOWDOWN}x straggler on machine 0",
            lengths.join(", "),
            MACHINES - 1,
            CRASH_AT_NS / 1_000_000
        )
    }

    fn inputs(&self) -> Vec<GraphSpec> {
        vec![SPEC]
    }

    fn prepare(&mut self, mut graphs: Vec<Graph>, seed: u64) {
        self.graph = graphs.pop();
        self.seed = seed;
    }

    fn iteration(&mut self, rec: &mut Recorder) -> Outcome {
        let g = self.graph.as_ref().expect("prepare() ran before the first iteration");
        let mut out = Outcome::default();
        let job = random_order_job(Algorithm::Ldg, MACHINES, self.seed);
        let p = rec.span("partition.LDG", |_| job.run(g));
        out.partition_op("LDG", g, &p, MACHINES);
        let q = measure_quality(g, &p);
        if let Some(cut) = q.edge_cut_ratio {
            out.facts.push("LDG.edge_cut_ratio", Fact::Quality(cut));
        }
        out.facts.push("LDG.load_imbalance", Fact::Quality(q.load_imbalance));
        out.facts.push("LDG.assignment", Fact::Hash(partitioning_checksum(&p)));

        let store = rec.span("db.store_build", |_| build_store(g, &p));
        let mirrors = rec.span("db.mirror_directory_build", |_| build_mirrors(g, &p));
        let plan = robustness_plan(
            MACHINES,
            subseed(self.seed, tag::FAULT_PLAN),
            MESSAGE_LOSS,
            CRASH_AT_NS,
            STRAGGLER_SLOWDOWN,
        );
        let mut onehop_sim = None;
        for (i, class) in CLASSES.iter().enumerate() {
            let kind = class.kind.name();
            let binding_seed = subseed(self.seed, tag::BINDINGS + 100 * i as u64);
            let bindings = rec.span("db.workload_generate", |_| {
                generate_bindings(g, class.kind, BINDINGS, ZIPF_THETA, binding_seed)
            });
            let span = rec.intern(&format!("db.query_exec.{kind}"));
            let traces = rec.span(span, |_| execute_bindings(&store, &bindings));
            let sim = rec.span("db.sim_prepare", |_| prepare_sim(MACHINES, traces));

            let healthy_load = load(class.healthy_queries_per_client);
            let span = rec.intern(&format!("db.des.healthy.{kind}"));
            let healthy = rec.span(span, |_| run_healthy(&sim, healthy_load));
            let cell = format!("healthy.{kind}");
            out.op(&cell, completed_check(&healthy, healthy_load.counted_queries(MACHINES)));
            out.work += healthy.completed;
            des_facts(&mut out.facts, &cell, &healthy);

            let faulted_load = load(class.faulted_queries_per_client);
            let span = rec.intern(&format!("db.des.faulted.{kind}"));
            let faulted = rec.span(span, |_| run_faulted(&sim, faulted_load, &plan, &mirrors));
            let cell = format!("faulted.{kind}");
            match faulted {
                Ok(run) => {
                    out.op(&cell, completed_check(&run, faulted_load.counted_queries(MACHINES)));
                    out.work += run.completed;
                    des_facts(&mut out.facts, &cell, &run);
                }
                Err(why) => out.op(&cell, Err(why)),
            }
            if class.kind == QueryKind::OneHop {
                onehop_sim = Some(sim);
            }
        }
        self.probe_inputs = onehop_sim.map(|sim| (sim, mirrors));
        out
    }

    fn probes(&mut self, rec: &mut Recorder) -> LayerValues {
        // The price of the second event loop: the faulted loop under a
        // plan with no faults against the healthy loop, same traces.
        let (sim, mirrors) =
            self.probe_inputs.as_ref().expect("an iteration ran before the probes");
        let plan = healthy_plan(MACHINES, subseed(self.seed, tag::FAULT_PLAN));
        let probe_load = load(CLASSES[0].healthy_queries_per_client);
        rec.begin_iteration(PROBE_KEY_BASE);
        let healthy =
            median_of_runs(rec, "db.des.probe.healthy", 3, || run_healthy(sim, probe_load));
        let empty = median_of_runs(rec, "db.des.probe.empty_plan", 3, || {
            run_faulted(sim, probe_load, &plan, mirrors)
        });
        vec![("db.des.empty_plan_over_healthy".into(), rate(empty, healthy))]
    }

    fn layer_values(&self, rec: &Recorder, facts: &Facts) -> LayerValues {
        let mut values = vec![
            ("db.store_build_s".into(), median_span_s(rec, "db.store_build")),
            ("db.mirror_directory_build_s".into(), median_span_s(rec, "db.mirror_directory_build")),
            ("db.workload_generate_s".into(), median_span_s(rec, "db.workload_generate")),
            ("partition.LDG.edge_cut_ratio".into(), facts.value("LDG.edge_cut_ratio")),
        ];
        let (mut retries, mut failovers) = (0.0, 0.0);
        for class in &CLASSES {
            let kind = class.kind.name();
            values.push((
                format!("db.query_exec.{kind}_queries_per_s"),
                rate(BINDINGS as f64, median_span_s(rec, &format!("db.query_exec.{kind}"))),
            ));
            for (mode, per_client) in [
                ("healthy", class.healthy_queries_per_client),
                ("faulted", class.faulted_queries_per_client),
            ] {
                let simulated = (MACHINES * CLIENTS_PER_MACHINE * per_client) as f64;
                values.push((
                    format!("db.des.{mode}.{kind}_queries_per_s"),
                    rate(simulated, median_span_s(rec, &format!("db.des.{mode}.{kind}"))),
                ));
            }
            retries += facts.value(&format!("faulted.{kind}.retries"));
            failovers += facts.value(&format!("faulted.{kind}.failovers"));
        }
        values.push(("db.des.faulted.retries".into(), retries));
        values.push(("db.des.faulted.failovers".into(), failovers));
        values.push((
            "db.des.faulted.availability".into(),
            facts.value("faulted.onehop.availability"),
        ));
        values.push(("db.des.healthy.sim_p99_ms".into(), facts.value("healthy.onehop.sim_p99_ms")));
        values
    }
}
