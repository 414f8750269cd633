//! `sgp trace-summary` end to end: the binary renders a real dump of the
//! canonical traced scenarios, deterministically, and its exit codes tell
//! a rendered summary (0) from an invalid trace document (1) and a usage
//! error or an unreadable file (2).

use std::path::PathBuf;
use std::process::{Command, Output};
use streaming_graph_partitioning::core::report::trace_summary;
use streaming_graph_partitioning::core::trace_scenarios::combined_trace_json;
use streaming_graph_partitioning::prelude::*;
use streaming_graph_partitioning::trace::parse_trace;

fn sgp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sgp")).args(args).output().expect("sgp runs")
}

/// Writes `text` to a file of this test's scratch directory.
fn scratch_file(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("scratch directory is writable");
    path
}

#[test]
fn trace_summary_renders_a_real_dump_deterministically() {
    let json = combined_trace_json(Scale::Tiny).expect("the DES scenario's plan is valid");
    let path = scratch_file("trace_summary_dump.json", &json);
    let path = path.to_str().expect("UTF-8 path");

    let out = sgp(&["trace-summary", path, "--top", "8"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout.clone()).expect("UTF-8 output");
    for section in [
        "== top spans by self cost (stamp units) ==",
        "== per-machine load ==",
        "== counter totals ==",
        "== histograms (log2-bucket quantiles) ==",
    ] {
        assert!(text.contains(section), "missing {section}:\n{text}");
    }
    let trace = parse_trace(&json).expect("canonical JSON parses");
    let header = format!("trace summary (schema_version 1, {} events)\n", trace.events.len());
    let summary = trace_summary(&SummarySink::of(&trace), 8);
    assert_eq!(text, header + &summary, "the binary prints the header and the renderer");
    assert_eq!(sgp(&["trace-summary", path, "--top", "8"]).stdout, out.stdout, "same bytes twice");
    assert_eq!(sgp(&["trace-summary", "--top", "8", path]).stdout, out.stdout, "flag first");
}

#[test]
fn trace_summary_exit_codes_tell_bad_documents_from_usage_errors() {
    let garbage = scratch_file("trace_summary_garbage.json", "garbage\n");
    let garbage = garbage.to_str().expect("UTF-8 path");
    assert_eq!(sgp(&["trace-summary", garbage]).status.code(), Some(1), "invalid document");

    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace_summary_missing.json");
    let missing = missing.to_str().expect("UTF-8 path");
    assert_eq!(sgp(&["trace-summary", missing]).status.code(), Some(2), "unreadable file");
    assert_eq!(sgp(&["trace-summary", garbage, "--top", "0"]).status.code(), Some(2), "--top 0");
    assert_eq!(sgp(&["trace-summary", garbage, "--top"]).status.code(), Some(2), "--top alone");
    assert_eq!(sgp(&["trace-summary"]).status.code(), Some(2), "no path");
    assert_eq!(sgp(&["trace-summary", garbage, "--tpo", "3"]).status.code(), Some(2), "--tpo");
    assert_eq!(sgp(&["trace-summary", garbage, garbage]).status.code(), Some(2), "two paths");
}
