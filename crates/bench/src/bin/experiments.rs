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

use sgp_bench::experiments::{run, Params, ALL_EXPERIMENTS, EXTRA_EXPERIMENTS};
use sgp_core::trace_scenarios::combined_trace_json;

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
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: experiments [--trace <path>] <id>... | all | --list");
        eprintln!("ids: {}", ALL_EXPERIMENTS.join(", "));
        eprintln!("opt-in (excluded from `all`): {}", EXTRA_EXPERIMENTS.join(", "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        for id in EXTRA_EXPERIMENTS {
            println!("{id} (opt-in)");
        }
        return;
    }
    let params = match Params::from_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        let mut ids = Vec::new();
        for a in &args {
            let known = ALL_EXPERIMENTS.iter().chain(EXTRA_EXPERIMENTS.iter()).find(|&&id| id == a);
            match known {
                Some(&id) => ids.push(id),
                None => {
                    eprintln!("unknown experiment id: {a}");
                    eprintln!(
                        "known ids: {} (opt-in: {})",
                        ALL_EXPERIMENTS.join(", "),
                        EXTRA_EXPERIMENTS.join(", ")
                    );
                    std::process::exit(2);
                }
            }
        }
        ids
    };
    println!("streaming-graph-partitioning experiment harness (scale: {:?})", params.scale);
    for id in ids {
        #[expect(
            clippy::disallowed_types,
            clippy::disallowed_methods,
            reason = "the wall-clock footer is host-dependent and excluded from the bit-for-bit comparison"
        )]
        let start = std::time::Instant::now();
        let report = run(id, &params);
        println!("{report}");
        println!("[{id} completed in {:.1}s]", start.elapsed().as_secs_f64());
    }
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
