//! Every workload, each in a fresh process of this executable; and the
//! self-check that runs the set twice and holds the two sets against the
//! benchmark's own bounds.

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::NAMES;
use std::process::{Command, Stdio};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end runs of every workload.
    EndToEnd,
    /// Traced runs of every workload.
    Traced,
    /// Both kinds, one warm-up and two iterations each, no bounds.
    Quick,
    /// Both kinds twice; fail on any difference beyond the bounds.
    SelfCheck,
}

pub struct SuiteArgs {
    pub mode: Mode,
    pub seed: u64,
    /// Overrides `run_seconds` of `BENCHMARK.json`.
    pub seconds: Option<f64>,
}

/// One child run's parsed result line.
struct RunResult {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// `run_seconds` and the end-to-end bounds of `BENCHMARK.json`.
struct Contract {
    run_seconds: f64,
    bounds: Vec<(String, f64)>,
}

fn load_contract() -> Result<Contract, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let run_seconds =
        doc.get("run_seconds").and_then(Json::as_f64).ok_or("BENCHMARK.json: no run_seconds")?;
    let bounds = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end")?
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect();
    Ok(Contract { run_seconds, bounds })
}

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub fn contract_run_seconds() -> Result<f64, String> {
    load_contract().map(|c| c.run_seconds)
}

fn run_child(workload: &str, traced: bool, extra: &[String]) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", if traced { "1" } else { "0" }])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().ok_or_else(|| format!("{workload}: no output"))?;
    let doc = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
            && output.status.success(),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        metrics,
    })
}

/// One pass over every workload: `[workload][0 = end-to-end, 1 = traced]`.
type Set = Vec<[Option<RunResult>; 2]>;

fn run_set(kinds: [bool; 2], extra: &[String]) -> Result<Set, String> {
    NAMES
        .iter()
        .map(|name| {
            let mut pair = [None, None];
            for (slot, traced) in [false, true].into_iter().enumerate() {
                if kinds[slot] {
                    println!();
                    pair[slot] = Some(run_child(name, traced, extra)?);
                }
            }
            Ok(pair)
        })
        .collect()
}

fn value(run: &Option<RunResult>, name: &str) -> Option<f64> {
    run.as_ref()?.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

fn print_summary(set: &Set) -> bool {
    let mut all_correct = true;
    println!("\n== summary ==");
    println!(
        "{:<24} {:>10} {:>12} {:>14} {:>13} {:>10}  status",
        "workload", "setup_s", "iter_wall_s", "work_per_s", "peak_rss_mib", "trace_ovh%"
    );
    for (name, pair) in NAMES.iter().zip(set) {
        let cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
        let runs = pair.iter().flatten();
        let ok = runs.clone().all(|r| r.correct);
        let failed: u64 = runs.map(|r| r.failed).sum();
        all_correct &= ok;
        println!(
            "{:<24} {:>10} {:>12} {:>14} {:>13} {:>10}  {}",
            name,
            cell(value(&pair[0], "setup_s")),
            cell(value(&pair[0], "iter_wall_s")),
            cell(value(&pair[0], "work_per_s")),
            cell(value(&pair[0], "peak_rss_mib")),
            cell(value(&pair[1], "bench.tracing_overhead_pct")),
            if ok { "ok".to_string() } else { format!("FAILED ({failed} ops)") }
        );
    }
    all_correct
}

/// Prints both sets side by side; true when every end-to-end metric of
/// the second is within its bound of the first and every exact
/// per-layer metric is identical.
fn compare_sets(first: &Set, second: &Set, contract: &Contract) -> bool {
    let mut agree = true;
    println!("\n== self-check: two sets of runs of the same code ==");
    println!(
        "{:<24} {:<44} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "first", "second", "diff %"
    );
    for ((name, a), b) in NAMES.iter().zip(first).zip(second) {
        for def in END_TO_END {
            let (Some(x), Some(y)) = (value(&a[0], def.name), value(&b[0], def.name)) else {
                continue;
            };
            let bound =
                contract.bounds.iter().find(|(n, _)| n == def.name).map_or(0.0, |&(_, b)| b);
            let diff = if x == 0.0 { 0.0 } else { (y - x) / x };
            let within = diff.abs() <= bound;
            agree &= within;
            println!(
                "{:<24} {:<44} {:>16.6} {:>16.6} {:>+9.2}  {}",
                name,
                def.name,
                x,
                y,
                100.0 * diff,
                if within { "ok".to_string() } else { format!("EXCEEDS {:.0} %", 100.0 * bound) }
            );
        }
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let (Some(x), Some(y)) = (value(&a[1], def.name), value(&b[1], def.name)) else {
                continue;
            };
            if x == 0.0 && y == 0.0 {
                continue;
            }
            let same = x.to_bits() == y.to_bits();
            agree &= same;
            println!(
                "{:<24} {:<44} {:>16.6} {:>16.6} {:>9}  {}",
                name,
                def.name,
                x,
                y,
                "",
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    agree
}

/// Runs the suite; `Ok(true)` when everything passed.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let contract = load_contract()?;
    let mut extra = vec!["--seed".to_string(), args.seed.to_string()];
    if args.mode == Mode::Quick {
        extra.extend(["--iterations".to_string(), "2".to_string()]);
    } else {
        let seconds = args.seconds.unwrap_or(contract.run_seconds);
        extra.extend(["--seconds".to_string(), seconds.to_string()]);
    }
    match args.mode {
        Mode::EndToEnd => Ok(print_summary(&run_set([true, false], &extra)?)),
        Mode::Traced => Ok(print_summary(&run_set([false, true], &extra)?)),
        Mode::Quick => Ok(print_summary(&run_set([true, true], &extra)?)),
        Mode::SelfCheck => {
            let first = run_set([true, true], &extra)?;
            let second = run_set([true, true], &extra)?;
            let correct = print_summary(&first) & print_summary(&second);
            let agree = compare_sets(&first, &second, &contract);
            println!("\nself-check: {}", if correct && agree { "PASS" } else { "FAIL" });
            Ok(correct && agree)
        }
    }
}
