//! `sgp-xtask` — workspace automation for the streaming graph
//! partitioning repo.
//!
//! ```text
//! cargo run -p sgp-xtask -- lint [--root DIR] [--format text|json]
//! cargo run -p sgp-xtask -- rules
//! cargo run -p sgp-xtask -- trace-summary <trace.json> [--top N]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or environment error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sgp_xtask::{render_json, render_text, rules, run_lint, summarize};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
sgp-xtask — in-tree workspace automation

USAGE:
    sgp-xtask lint [--root DIR] [--format text|json]
    sgp-xtask rules
    sgp-xtask trace-summary <trace.json> [--top N]
    sgp-xtask help

COMMANDS:
    lint           Run the cross-file rules the compiler cannot express
                   (the rest of the policy is `cargo clippy --workspace
                   --all-targets -- -D warnings`; DESIGN.md §6)
    rules          List the rules
    trace-summary  Render a trace dump (from `experiments --trace <path>`):
                   top spans by self cost, per-machine load, counters,
                   histogram quantiles
    help           Show this message

LINT OPTIONS:
    --root DIR          Workspace root (default: ascend from cwd to the
                        nearest Cargo.toml with a [workspace] section)
    --format FORMAT     text (default) or json (stable schema v2)

TRACE-SUMMARY OPTIONS:
    --top N             Span rows to show (default: 10)

EXIT CODES:
    0  no findings
    1  findings reported
    2  usage or environment error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("rules") => {
            for rule in rules::RULES {
                println!("{}\n    {}", rule.id, rule.description);
            }
            ExitCode::SUCCESS
        }
        Some("trace-summary") => cmd_trace_summary(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!("unknown command `{other}`")),
        None => usage_error("missing command"),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root requires a directory"),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => json = false,
                Some("json") => json = true,
                Some(other) => {
                    return usage_error(&format!("unknown format `{other}` (text|json)"))
                }
                None => return usage_error("--format requires text|json"),
            },
            other => return usage_error(&format!("unknown lint option `{other}`")),
        }
    }
    let root = match root {
        Some(r) => Ok(r),
        None => std::env::current_dir()
            .map_err(|e| format!("cannot determine current directory: {e}"))
            .and_then(|cwd| sgp_xtask::workspace::find_workspace_root(&cwd)),
    };
    match root.and_then(|r| run_lint(&r)) {
        Ok(report) => {
            print!("{}", if json { render_json(&report) } else { render_text(&report) });
            ExitCode::from(report.exit_code())
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_trace_summary(args: &[String]) -> ExitCode {
    let mut path: Option<&str> = None;
    let mut top = 10usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => top = n,
                _ => return usage_error("--top requires a positive integer"),
            },
            other if path.is_none() && !other.starts_with("--") => path = Some(other),
            other => return usage_error(&format!("unexpected trace-summary argument `{other}`")),
        }
    }
    let Some(path) = path else {
        return usage_error("trace-summary requires a trace file path");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match summarize(&text, top) {
        Ok(summary) => {
            print!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path} is not a valid trace document: {e}");
            ExitCode::from(1)
        }
    }
}
