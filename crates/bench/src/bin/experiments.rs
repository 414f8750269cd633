//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!   experiments `<id>`...      run specific experiments (table1..table5, fig1..fig15)
//!   experiments all            run everything (opt-in extras like `robustness` excluded)
//!   experiments --list         list experiment ids
//!   experiments --trace `<path>`  also write the canonical trace JSON to `<path>`
//!
//! `--trace` records the canonical traced scenarios (DESIGN.md §9) —
//! the HDRF→PageRank engine run and the fault-injected DES — into one
//! schema-versioned JSON document. It never changes the experiment
//! output on stdout: results files stay byte-identical with tracing on
//! or off. Render the dump with `cargo run --bin sgp -- trace-summary <path>`.
//!
//! Scale via SGP_SCALE=tiny|small|default|large (default: default).
//!
//! Exit codes: 2 for a usage error (an unknown id names it), 1 when
//! stdout cannot be written (a closed pipe) or the trace fails.

use sgp_bench::experiments::{Params, EXPERIMENTS};
use sgp_core::trace_scenarios::combined_trace_json;
use std::io::Write;

/// Writes to stdout; a write that fails (a closed pipe, a full disk) is
/// an error message and exit 1, not a panic.
fn emit(write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = write(&mut out).and_then(|()| out.flush()) {
        eprintln!("error: cannot write output: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_path: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        if i + 1 >= args.len() {
            eprintln!("error: --trace requires a file path");
            std::process::exit(2);
        }
        trace_path = Some(args.remove(i + 1));
        args.remove(i);
    }
    let ids = |in_all: bool| {
        EXPERIMENTS.iter().filter(|e| e.1 == in_all).map(|e| e.0).collect::<Vec<_>>().join(", ")
    };
    let (all_ids, opt_in_ids) = (ids(true), ids(false));
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: experiments [--trace <path>] <id>... | all | --list");
        eprintln!("ids: {all_ids}");
        eprintln!("opt-in (excluded from `all`): {opt_in_ids}");
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        emit(|out| {
            for (id, in_all, _) in EXPERIMENTS {
                writeln!(out, "{id}{}", if *in_all { "" } else { " (opt-in)" })?;
            }
            Ok(())
        });
        return;
    }
    let params = match Params::from_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let experiments: Vec<_> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().filter(|e| e.1).collect()
    } else {
        let mut experiments = Vec::new();
        for a in &args {
            match EXPERIMENTS.iter().find(|e| e.0 == a) {
                Some(e) => experiments.push(e),
                None => {
                    eprintln!("unknown experiment id: {a}");
                    eprintln!("known ids: {all_ids} (opt-in: {opt_in_ids})");
                    std::process::exit(2);
                }
            }
        }
        experiments
    };
    emit(|out| {
        writeln!(
            out,
            "streaming-graph-partitioning experiment harness (scale: {:?})",
            params.scale
        )?;
        for (id, _, experiment) in experiments {
            #[expect(
                clippy::disallowed_types,
                clippy::disallowed_methods,
                reason = "the wall-clock footer is host-dependent and excluded from the bit-for-bit comparison"
            )]
            let start = std::time::Instant::now();
            let report = experiment(&params);
            writeln!(out, "{}", report.render())?;
            writeln!(out, "[{id} completed in {:.1}s]", start.elapsed().as_secs_f64())?;
        }
        Ok(())
    });
    if let Some(path) = trace_path {
        // Written after the experiment output and reported on stderr so
        // stdout (the results files) is byte-identical with and without
        // tracing.
        let json = match combined_trace_json(params.scale) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: trace scenario failed: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[trace written to {path} ({} bytes)]", json.len());
    }
}
