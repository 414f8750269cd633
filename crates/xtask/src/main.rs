//! `sgp-xtask` — workspace automation for the streaming graph
//! partitioning repo.
//!
//! ```text
//! cargo run -p sgp-xtask -- lint [--root DIR] [--format text|json|sarif] [--strict] [--diff REF] [--emit-callgraph PATH]
//! cargo run -p sgp-xtask -- rules
//! cargo run -p sgp-xtask -- trace-summary <trace.json> [--top N]
//! ```
//!
//! Exit codes: `0` clean, `1` findings (warnings count only under
//! `--strict`), `2` usage or environment error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sgp_xtask::{render_json, render_sarif, render_text, rules, run_lint, summarize, LintConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
sgp-xtask — in-tree workspace automation

USAGE:
    sgp-xtask lint [--root DIR] [--format text|json|sarif] [--strict] [--diff REF] [--emit-callgraph PATH]
    sgp-xtask rules
    sgp-xtask trace-summary <trace.json> [--top N]
    sgp-xtask help

COMMANDS:
    lint           Run the static-analysis rule catalogue over the workspace
    rules          List the rules and the allow-directive attachment semantics
    trace-summary  Render a trace dump (from `experiments --trace <path>`):
                   top spans by self cost, per-machine load, counters,
                   histogram quantiles
    help           Show this message

LINT OPTIONS:
    --root DIR          Workspace root (default: ascend from cwd to the
                        nearest Cargo.toml with a [workspace] section)
    --format FORMAT     text (default), json (stable schema v1), or
                        sarif (SARIF 2.1.0 for CI annotation)
    --strict            Warnings also fail the run
    --diff REF          Report only findings in files changed vs. the git
                        ref (plus untracked files). The whole workspace is
                        still scanned so cross-file rules stay sound; this
                        filters the *report*, so keep a full-workspace
                        strict run as the merge gate.
    --emit-callgraph PATH
                        Also write the reachability call graph (the
                        subgraph reachable from the public entry points
                        of the determinism-scope crates) as Graphviz DOT

TRACE-SUMMARY OPTIONS:
    --top N             Span rows to show (default: 10)

EXIT CODES:
    0  no findings (warnings allowed unless --strict)
    1  findings reported
    2  usage or environment error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("rules") => cmd_rules(),
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut strict = false;
    let mut diff_ref: Option<String> = None;
    let mut emit_callgraph: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root requires a directory"),
            },
            "--emit-callgraph" => match it.next() {
                Some(p) => emit_callgraph = Some(PathBuf::from(p)),
                None => return usage_error("--emit-callgraph requires an output path"),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                Some(other) => {
                    return usage_error(&format!("unknown format `{other}` (text|json|sarif)"))
                }
                None => return usage_error("--format requires text|json|sarif"),
            },
            "--strict" => strict = true,
            "--diff" => match it.next() {
                Some(r) => diff_ref = Some(r.clone()),
                None => return usage_error("--diff requires a git ref (e.g. origin/main)"),
            },
            other => return usage_error(&format!("unknown lint option `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match sgp_xtask::workspace::find_workspace_root(&cwd) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let mut cfg = LintConfig::new(&root);
    cfg.strict = strict;
    cfg.emit_callgraph = emit_callgraph;
    if let Some(r) = &diff_ref {
        match changed_files(&root, r) {
            Ok(files) => cfg.only_files = Some(files),
            Err(e) => {
                eprintln!("error: --diff {r}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let report = match run_lint(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match format {
        Format::Text => print!("{}", render_text(&report)),
        Format::Json => print!("{}", render_json(&report)),
        Format::Sarif => print!("{}", render_sarif(&report)),
    }
    ExitCode::from(u8::try_from(report.exit_code()).unwrap_or(1))
}

/// Lists workspace-relative files changed vs. `git_ref`, plus untracked
/// files, via the `git` CLI (the only place the linter shells out).
/// Uses `--name-status -M` so renames resolve to their *new* path and
/// deletions drop out entirely — a `--name-only` diff would report
/// paths that no longer exist, silently filtering every finding away.
fn changed_files(root: &Path, git_ref: &str) -> Result<Vec<String>, String> {
    let mut files: Vec<String> = git_lines(root, &["diff", "--name-status", "-M", git_ref])?
        .iter()
        .filter_map(|l| sgp_xtask::workspace::parse_name_status_line(l))
        .collect();
    files.extend(git_lines(root, &["ls-files", "--others", "--exclude-standard"])?);
    files.sort();
    files.dedup();
    Ok(files)
}

fn git_lines(root: &Path, args: &[&str]) -> Result<Vec<String>, String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect())
}

fn cmd_rules() -> ExitCode {
    for rule in rules::RULES {
        println!("{}\n    {}", rule.id, rule.description);
    }
    println!(
        "\nallow directives (plain line comments only; doc comments never count):\n\
         \x20   // sgp-lint: allow(<rule>): <justification>\n\
         \x20       attaches to the directive's own line or the line immediately\n\
         \x20       after it (trailing-comment or line-above placement)\n\
         \x20   // sgp-lint: allow-scope(<rule>): <justification>\n\
         \x20       on its own line above an item (at module level or between the\n\
         \x20       members of an impl/mod/trait), covers it through its closing\n\
         \x20       brace (or the `;` of a braceless item)\n\
         \x20   // sgp-lint: allow-file(<rule>): <justification>\n\
         \x20       covers the whole file\n\
         \x20   The justification is mandatory. A line-scoped allow whose rule no\n\
         \x20   longer fires on its span is a stale-allow ERROR; unused scope/file\n\
         \x20   allows are unused-allow warnings."
    );
    ExitCode::SUCCESS
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
