//! Runs the linter over the seeded fixture workspace and asserts the
//! exact (rule, file, line) set of findings — no more, no less.
//!
//! Line numbers are located by MARK tokens in the fixture sources, so
//! the assertions survive fixture edits.

use sgp_xtask::run_lint;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini")
}

/// 1-based line of the first line containing `mark` in `rel` (relative
/// to the fixture root).
fn mark_line(rel: &str, mark: &str) -> usize {
    let path = fixture_root().join(rel);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    text.lines()
        .position(|l| l.contains(mark))
        .unwrap_or_else(|| panic!("no line contains {mark} in {rel}"))
        + 1
}

const ENGINE_TOML: &str = "crates/engine/Cargo.toml";
const ENGINE_SPANS: &str = "crates/engine/src/spans.rs";
const FAULT_LIB: &str = "crates/fault/src/lib.rs";
const PARTITION_EXEC: &str = "crates/partition/src/exec.rs";
const PARTITION_LIB: &str = "crates/partition/src/lib.rs";
const SEND_REGISTRY: &str = "tests/goldens/SEND_REGISTRY";
const TRACE_KEYS: &str = "crates/trace/src/keys.rs";

#[test]
fn fixture_findings_match_exactly() {
    let report = run_lint(&fixture_root()).expect("fixture lints");
    let seed = |rule: &str, file: &str, mark: &str| {
        (rule.to_string(), file.to_string(), mark_line(file, mark))
    };
    let mut expected = vec![
        // A member that does not opt into the workspace lint table.
        ("workspace-dep-hygiene".to_string(), ENGINE_TOML.to_string(), 0),
        // A hardcoded key, a registry constant no crate references, and
        // a hardcoded key that is also never exited.
        seed("trace-key-registry", PARTITION_LIB, "MARK-hardcoded-key"),
        seed("trace-key-registry", TRACE_KEYS, "MARK-registry-unused"),
        seed("trace-key-registry", ENGINE_SPANS, "MARK-span-adhoc"),
        // Double enter, stray exit, never-exited key.
        seed("span-guard-balance", ENGINE_SPANS, "MARK-span-double-enter"),
        seed("span-guard-balance", ENGINE_SPANS, "MARK-span-stray-exit"),
        seed("span-guard-balance", ENGINE_SPANS, "MARK-span-adhoc"),
        // A schema constant that drifted ahead of its pin.
        seed("schema-version-sync", FAULT_LIB, "MARK-schema-drift"),
        // An unaudited payload, an inference-typed constructor, and the
        // stale registry entry.
        seed("send-bound-registry", PARTITION_EXEC, "MARK-unregistered-send"),
        seed("send-bound-registry", PARTITION_EXEC, "MARK-untyped-ctor"),
        seed("send-bound-registry", SEND_REGISTRY, "MARK-stale-send"),
    ];
    expected.sort();

    let mut actual: Vec<(String, String, usize)> =
        report.findings.iter().map(|f| (f.rule.clone(), f.file.clone(), f.line)).collect();
    actual.sort();
    assert_eq!(actual, expected, "finding set mismatch");
    assert_eq!(report.exit_code(), 1, "seeded fixture must fail the lint");
}

#[test]
fn json_output_is_sorted_and_wellformed() {
    let report = run_lint(&fixture_root()).expect("fixture lints");
    let json = sgp_xtask::render_json(&report);
    assert!(json.starts_with("{\n  \"version\": 2,\n  \"errors\": 11,\n"));
    // Findings arrive sorted by (file, line, rule): engine < fault <
    // partition < tests/goldens < trace.
    let pos = |needle: &str| json.find(needle).unwrap_or_else(|| panic!("{needle} missing"));
    let order = [ENGINE_TOML, ENGINE_SPANS, FAULT_LIB, PARTITION_EXEC, SEND_REGISTRY, TRACE_KEYS];
    assert!(order.windows(2).all(|w| pos(w[0]) < pos(w[1])), "sorted by file");
    assert!(report.findings.iter().all(|f| !f.file.starts_with("crates/util/")));
}
