//! One workload in this process: set-up, warm-up, timed iterations,
//! checks, and the result line the driver reads.

use crate::facts::{Expected, Facts};
use crate::json::Json;
use crate::metrics::{iqr_pct, median, MetricDef, END_TO_END, PER_LAYER};
use crate::trace::Recorder;
use crate::workloads::{self, rate, subseed, tag, Outcome, Workload, PROBE_KEY_BASE};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The seed `perf/expected/*.json` is blessed for.
pub const DEFAULT_SEED: u64 = 42;

/// `setup_s` is the median of repeated cold builds of the input graphs:
/// at least `SETUP_MIN_BUILDS`, then more until `SETUP_MIN_SECONDS` have
/// gone into them (small inputs build in milliseconds and need the
/// extra samples), `SETUP_MAX_BUILDS` at most.
const SETUP_MIN_BUILDS: usize = 5;
const SETUP_MAX_BUILDS: usize = 25;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// How long the timed phase lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Length {
    /// Start iterations until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many iterations.
    Iterations(usize),
}

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub length: Length,
    pub traced: bool,
    /// Write `perf/expected/<workload>.json` from this run.
    pub bless: bool,
}

/// Fewest timed iterations a time-boxed run makes, however slow.
const MIN_ITERATIONS: usize = 3;

fn keep_going(length: Length, started: Instant, done: usize) -> bool {
    match length {
        Length::Seconds(s) => done < MIN_ITERATIONS || started.elapsed().as_secs_f64() < s,
        Length::Iterations(n) => done < n,
    }
}

/// Runs one iteration, turning a panic inside the program into a
/// failed cell.
fn guarded_iteration(w: &mut dyn Workload, rec: &mut Recorder, id: u64) -> Outcome {
    rec.begin_iteration(id);
    catch_unwind(AssertUnwindSafe(|| w.iteration(rec))).unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        let mut out = Outcome::default();
        out.op("iteration", Err(format!("panicked: {why}")));
        out
    })
}

/// Totals over the timed iterations.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    failures: Vec<String>,
    /// Facts of the first timed iteration; later ones must repeat them.
    facts: Option<Facts>,
    work: u64,
}

impl Tally {
    fn add(&mut self, out: Outcome) {
        self.ops += out.ops;
        self.failed += out.failed;
        self.failures.extend(out.failures);
        self.work = out.work;
        match &self.facts {
            None => self.facts = Some(out.facts),
            Some(first) if *first != out.facts => {
                self.failed += 1;
                self.failures.push("reports differ between iterations".to_string());
            }
            Some(_) => {}
        }
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn host_line(seed: u64) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} kernel={kernel} rustc=\"{}\" git={} seed={seed}",
        env("SGP_PERF_RUSTC"),
        env("SGP_PERF_GIT_REV")
    )
}

fn result_line(
    correct: bool,
    tally: &Tally,
    defs: &[MetricDef],
    values: &[(String, f64)],
) -> String {
    let metrics = defs
        .iter()
        .map(|def| {
            let value = values.iter().find(|(n, _)| n == def.name).map_or(0.0, |&(_, v)| v);
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(def.unit.into())),
            ]);
            (def.name.to_string(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(tally.ops.max(1) as f64)),
        ("failed".into(), Json::Num(tally.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_line()
}

/// Runs `args.workload` and prints its report; the last line printed is
/// the result object. `Err` is a usage error (unknown workload).
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let mut w = workloads::by_name(&args.workload).ok_or_else(|| {
        format!("unknown workload '{}'; one of: {}", args.workload, workloads::NAMES.join(", "))
    })?;
    println!(
        "workload: {} ({})",
        w.name(),
        if args.traced { "traced run" } else { "end-to-end run" }
    );
    println!("{}", host_line(args.seed));
    println!("sizes: {}", w.sizes());

    // Set-up: cold builds of every input graph; the last set is used.
    let specs = w.inputs();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut graphs = Vec::new();
    while setup_s.len() < SETUP_MIN_BUILDS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS && setup_s.len() < SETUP_MAX_BUILDS)
    {
        graphs.clear();
        let started = Instant::now();
        for (i, spec) in specs.iter().enumerate() {
            graphs.push(spec.build(subseed(args.seed, tag::GRAPH + 100 * i as u64)));
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let input_edges: usize = graphs.iter().map(|g| g.num_edges()).sum();
    let input_vertices: usize = graphs.iter().map(|g| g.num_vertices()).sum();
    println!(
        "setup_s: median {:.4} s of {} builds (IQR {:.1} %), {input_vertices} vertices / {input_edges} edges",
        median(&setup_s),
        setup_s.len(),
        iqr_pct(&setup_s)
    );
    w.prepare(graphs, args.seed);

    // Warm-up, then the timed phase. A traced run alternates plain and
    // traced iterations, so the tracing overhead compares like with like.
    let mut rec = Recorder::new(false);
    let warmup = guarded_iteration(w.as_mut(), &mut rec, 0);
    let mut tally = Tally::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut id = 0;
    if warmup.failed == 0 {
        while keep_going(args.length, started, plain_s.len()) {
            id += 1;
            rec.set_enabled(false);
            tally.add(guarded_iteration(w.as_mut(), &mut rec, id));
            plain_s.push(rec.busy_ns() as f64 / 1e9);
            if args.traced {
                id += 1;
                rec.set_enabled(true);
                tally.add(guarded_iteration(w.as_mut(), &mut rec, id));
                traced_s.push(rec.busy_ns() as f64 / 1e9);
            }
        }
    } else {
        tally.add(warmup);
    }
    let facts = tally.facts.clone().unwrap_or_default();

    // Reference comparison: only for the seed the reference was blessed for.
    let reference = Expected::load(w.name()).filter(|e| e.seed == args.seed);
    let bit_identical = match &reference {
        Some(expected) => {
            for regression in facts.quality_regressions(&expected.facts) {
                tally.failed += 1;
                tally.failures.push(format!("quality worse than reference: {regression}"));
            }
            (expected.facts == facts).to_string()
        }
        None => "n/a".to_string(),
    };

    let iter_wall_s = median(&plain_s);
    let mut correct = tally.failed == 0 && tally.ops > 0;
    println!(
        "iter_wall_s: median {iter_wall_s:.4} s of {} timed iterations (IQR {:.1} %)",
        plain_s.len(),
        iqr_pct(&plain_s)
    );
    println!("work: {} {} per iteration", tally.work, w.work_unit());
    println!("ops: {}  failed_ops: {}  bit_identical: {bit_identical}", tally.ops, tally.failed);
    for why in &tally.failures {
        println!("  FAILED {why}");
    }

    let values = if args.traced {
        let mut values = w.layer_values(&rec, &facts);
        rec.set_enabled(true);
        match catch_unwind(AssertUnwindSafe(|| w.probes(&mut rec))) {
            Ok(probe_values) => values.extend(probe_values),
            Err(_) => {
                println!("  FAILED probes panicked");
                correct = false;
            }
        }
        values.push((
            "graph.generate.edges_per_s".into(),
            rate(input_edges as f64, median(&setup_s)),
        ));
        values.push((
            "bench.tracing_overhead_pct".into(),
            100.0 * (rate(median(&traced_s), iter_wall_s) - 1.0),
        ));
        values.push(("bench.iterations".into(), traced_s.len() as f64));
        for (name, _) in &values {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "undeclared per-layer metric {name}");
        }
        print_self_times(&rec, "traced iterations", 0..PROBE_KEY_BASE);
        print_self_times(
            &rec,
            "probes (staged replays, bare drains, off-path runs)",
            PROBE_KEY_BASE..u64::MAX,
        );
        match write_trace(w.name(), &rec) {
            Ok(path) => println!("trace: {path}"),
            Err(why) => {
                println!("  FAILED trace: {why}");
                correct = false;
            }
        }
        values
    } else {
        vec![
            ("setup_s".to_string(), median(&setup_s)),
            ("iter_wall_s".to_string(), iter_wall_s),
            ("work_per_s".to_string(), rate(tally.work as f64, iter_wall_s)),
            ("peak_rss_mib".to_string(), peak_rss_mib()),
        ]
    };

    if args.bless {
        Expected { seed: args.seed, facts: facts.clone() }
            .store(w.name())
            .map_err(|e| format!("bless: {e}"))?;
        println!("blessed {} for seed {}", Expected::path(w.name()), args.seed);
    }

    let defs = if args.traced { PER_LAYER } else { END_TO_END };
    for def in defs {
        if let Some((_, v)) = values.iter().find(|(n, _)| n == def.name) {
            println!("  {:<44} {:>16.6} {}", def.name, v, def.unit);
        }
    }
    println!("{}", result_line(correct, &tally, defs, &values));
    Ok(correct)
}

/// Where the traced iterations' time went: self time per span and per
/// layer (the span name's first component).
fn print_self_times(rec: &Recorder, what: &str, keys: std::ops::Range<u64>) {
    let spans = rec.self_times(keys);
    let total: u64 = spans.iter().map(|(_, s)| s.self_total).sum();
    if total == 0 {
        return;
    }
    let mut layers: Vec<(&str, u64)> = Vec::new();
    for (name, stat) in &spans {
        let layer = name.split('.').next().unwrap_or(name);
        match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, ns)) => *ns += stat.self_total,
            None => layers.push((layer, stat.self_total)),
        }
    }
    println!("self time of the {what}, by layer:");
    for (layer, ns) in &layers {
        println!("  {:<44} {:>6.1} %", layer, 100.0 * *ns as f64 / total as f64);
    }
    println!("by span:");
    for (name, stat) in &spans {
        println!(
            "  {:<44} {:>6.1} %  ({} spans)",
            name,
            100.0 * stat.self_total as f64 / total as f64,
            stat.count
        );
    }
}

fn write_trace(workload: &str, rec: &Recorder) -> Result<String, String> {
    let path = format!("perf/out/trace-{workload}.json");
    let json = rec.to_json()?;
    std::fs::create_dir_all("perf/out").map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    Ok(path)
}
