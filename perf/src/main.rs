//! `sgp-perf`: the repository's benchmark (see `perf/README.md`).
//!
//! With `--workload` it runs that workload in this process and ends its
//! output with the one-line JSON result `BENCHMARK.json`'s contract
//! describes. Without, it runs every workload, each in a fresh process.

use sgp_perf::run::{self, Length, RunArgs, DEFAULT_SEED};
use sgp_perf::suite::{self, Mode, SuiteArgs};
use std::process::ExitCode;

const USAGE: &str = "\
usage: sgp-perf --workload <name> [--seed N] [--seconds S | --iterations N] [--trace 0|1] [--bless]
       sgp-perf [--traced | --quick | --selfcheck] [--seed N] [--seconds S]

  --workload <name>  run one workload in this process and end with the JSON result line
  --seed N           seeds every generator, stream order, binding set and fault plan (default 42)
  --seconds S        start timed iterations for S seconds (default: run_seconds of BENCHMARK.json)
  --iterations N     run exactly N timed iterations instead
  --trace 0|1        0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run
  --bless            rewrite perf/expected/<name>.json from this run
  --traced           every workload, traced runs
  --quick            every workload, both kinds, 1 warm-up + 2 iterations (smoke test)
  --selfcheck        every workload, both kinds, twice; fail beyond the benchmark's bounds";

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag}: cannot read '{value}'"))
}

fn real_main() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: Option<f64> = None;
    let mut iterations: Option<usize> = None;
    let mut traced = false;
    let mut bless = false;
    let mut mode = Mode::EndToEnd;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = Some(parse::<String>(&flag, args.next())?),
            "--seed" => seed = parse(&flag, args.next())?,
            "--seconds" => seconds = Some(parse(&flag, args.next())?),
            "--iterations" => iterations = Some(parse(&flag, args.next())?),
            "--trace" => traced = parse::<u8>(&flag, args.next())? != 0,
            "--bless" => bless = true,
            "--traced" => mode = Mode::Traced,
            "--quick" => mode = Mode::Quick,
            "--selfcheck" => mode = Mode::SelfCheck,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if seconds.is_some_and(|s| s.is_nan() || s <= 0.0) || iterations == Some(0) {
        return Err("--seconds and --iterations must be positive".to_string());
    }
    match workload {
        Some(workload) => {
            let length = match (iterations, seconds) {
                (Some(n), _) => Length::Iterations(n),
                (None, Some(s)) => Length::Seconds(s),
                (None, None) => Length::Seconds(suite::contract_run_seconds()?),
            };
            // A printed result line is a zero exit; whether the run was
            // correct is in the line.
            run::run(&RunArgs { workload, seed, length, traced, bless }).map(|_| true)
        }
        None => suite::run(&SuiteArgs { mode, seed, seconds }),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("sgp-perf: {why}");
            ExitCode::from(2)
        }
    }
}
