//! Runs the linter over the seeded fixture workspace and asserts the
//! exact (rule, file, line) set of findings — no more, no less.
//!
//! Line numbers are located by MARK tokens in the fixture sources, so
//! the assertions survive fixture edits.

use sgp_xtask::{run_lint, LintConfig, Severity};
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

const GRAPH_LIB: &str = "crates/graph/src/lib.rs";
const CORE_LIB: &str = "crates/core/src/lib.rs";
const PARTITION_EXEC: &str = "crates/partition/src/exec.rs";
const SEND_REGISTRY: &str = "tests/goldens/SEND_REGISTRY";
const ENGINE_LIB: &str = "crates/engine/src/lib.rs";
const ENGINE_TOML: &str = "crates/engine/Cargo.toml";
const ENGINE_SMOKE: &str = "crates/engine/tests/smoke.rs";
const DB_SIM: &str = "crates/db/src/sim.rs";
const GRAPH_PIPELINE: &str = "crates/graph/src/pipeline.rs";
const ENGINE_SPANS: &str = "crates/engine/src/spans.rs";
const ENGINE_GATES: &str = "crates/engine/src/gates.rs";
const PARTITION_REGISTRY: &str = "crates/partition/src/registry.rs";
const SURFACES_REGISTRY: &str = "tests/goldens/ALGORITHM_SURFACES";
const PANIC_AUDIT: &str = "tests/goldens/PANIC_AUDIT";
const RECOVERY_LIB: &str = "crates/recovery/src/lib.rs";
const FAULT_LIB: &str = "crates/fault/src/lib.rs";
const PARTITION_LIB: &str = "crates/partition/src/lib.rs";
const TRACE_LIB: &str = "crates/trace/src/lib.rs";
const TRACE_KEYS: &str = "crates/trace/src/keys.rs";
const WINDOWED_LIB: &str = "crates/windowed/src/lib.rs";

#[test]
fn fixture_findings_match_exactly() {
    let report = run_lint(&LintConfig::new(fixture_root())).expect("fixture lints");

    let mut expected: Vec<(String, String, usize)> = vec![
        // Manifest hygiene.
        (
            "workspace-dep-hygiene".into(),
            ENGINE_TOML.into(),
            mark_line(ENGINE_TOML, "MARK-inline-version"),
        ),
        ("workspace-dep-hygiene".into(), ENGINE_TOML.into(), 0),
        (
            "workspace-dep-hygiene".into(),
            "Cargo.toml".into(),
            mark_line("Cargo.toml", "MARK-registry-dep"),
        ),
        // Crate-root attribute policy (reported at line 1).
        ("crate-attr-policy".into(), ENGINE_LIB.into(), 1),
        // Hash containers, including use-declarations and test files.
        ("no-hash-iteration".into(), ENGINE_LIB.into(), mark_line(ENGINE_LIB, "MARK-hash-use")),
        ("no-hash-iteration".into(), ENGINE_LIB.into(), mark_line(ENGINE_LIB, "MARK-hashset-use")),
        ("no-hash-iteration".into(), ENGINE_LIB.into(), mark_line(ENGINE_LIB, "MARK-hash-local")),
        (
            "no-hash-iteration".into(),
            ENGINE_LIB.into(),
            mark_line(ENGINE_LIB, "MARK-hashset-local"),
        ),
        (
            "no-hash-iteration".into(),
            ENGINE_SMOKE.into(),
            mark_line(ENGINE_SMOKE, "MARK-test-hashset"),
        ),
        // Wall-clock and ambient randomness.
        ("no-wallclock-in-sim".into(), ENGINE_LIB.into(), mark_line(ENGINE_LIB, "MARK-instant")),
        ("no-wallclock-in-sim".into(), ENGINE_LIB.into(), mark_line(ENGINE_LIB, "MARK-rng")),
        // Panic-capable constructs in library code.
        ("no-panic-in-lib".into(), ENGINE_LIB.into(), mark_line(ENGINE_LIB, "MARK-unwrap")),
        ("no-panic-in-lib".into(), ENGINE_LIB.into(), mark_line(ENGINE_LIB, "MARK-panic")),
        // An unjustified allow both fires itself and fails to suppress.
        ("bad-allow-directive".into(), ENGINE_LIB.into(), mark_line(ENGINE_LIB, "MARK-bad-allow")),
        ("no-panic-in-lib".into(), ENGINE_LIB.into(), mark_line(ENGINE_LIB, "MARK-unsuppressed")),
        // A justified line allow whose rule no longer fires is a
        // stale-allow ERROR — the allowlist cannot rot silently.
        ("stale-allow".into(), ENGINE_LIB.into(), mark_line(ENGINE_LIB, "MARK-stale-allow")),
        // A justified file-scoped allow that suppresses nothing is only
        // a warning (file allows cover future code by design).
        ("unused-allow".into(), FAULT_LIB.into(), mark_line(FAULT_LIB, "MARK-unused-file-allow")),
        // The elastic recovery path is determinism-scoped: RTO comes
        // from simulated time, migration targets from seeded order.
        (
            "no-wallclock-in-sim".into(),
            RECOVERY_LIB.into(),
            mark_line(RECOVERY_LIB, "MARK-recovery-instant"),
        ),
        (
            "no-hash-iteration".into(),
            RECOVERY_LIB.into(),
            mark_line(RECOVERY_LIB, "MARK-recovery-hash"),
        ),
        // Float arithmetic in the simulated-time accounting scope.
        ("no-float-accounting".into(), DB_SIM.into(), mark_line(DB_SIM, "MARK-float-cast")),
        // A hardcoded trace-key string bypassing the registry.
        (
            "trace-key-registry".into(),
            PARTITION_LIB.into(),
            mark_line(PARTITION_LIB, "MARK-hardcoded-key"),
        ),
        // A registry constant no crate references.
        (
            "trace-key-registry".into(),
            TRACE_KEYS.into(),
            mark_line(TRACE_KEYS, "MARK-registry-unused"),
        ),
        // A schema constant that drifted ahead of the goldens pin.
        ("schema-version-sync".into(), FAULT_LIB.into(), mark_line(FAULT_LIB, "MARK-schema-drift")),
        // The fault-plan crate is determinism-scoped too: seeded plans
        // must not read ambient randomness or iterate hash containers.
        ("no-wallclock-in-sim".into(), FAULT_LIB.into(), mark_line(FAULT_LIB, "MARK-fault-rng")),
        ("no-hash-iteration".into(), FAULT_LIB.into(), mark_line(FAULT_LIB, "MARK-fault-hash")),
        // The partitioner crate is determinism-scoped too: the
        // multi-loader merge path must replay decision logs in seeded
        // rotation order, never hash-iteration order.
        (
            "no-hash-iteration".into(),
            PARTITION_LIB.into(),
            mark_line(PARTITION_LIB, "MARK-loader-merge-hash"),
        ),
        // A per-element allocation inside a placement kernel — advisory
        // only: the hot path wants a struct-owned scratch buffer, but a
        // justified allow can keep a deliberate allocation.
        (
            "no-alloc-in-place-loop".into(),
            PARTITION_LIB.into(),
            mark_line(PARTITION_LIB, "MARK-place-alloc"),
        ),
        // The windowed look-ahead buffer is determinism-scoped too: the
        // buffer must flush in arrival order, never hash-iteration
        // order, or `W = 1` stops degenerating to one-pass streaming.
        (
            "no-hash-iteration".into(),
            WINDOWED_LIB.into(),
            mark_line(WINDOWED_LIB, "MARK-window-hash"),
        ),
        // The observability crate is determinism-scoped too: stamps come
        // from simulated time or sequence numbers, never the wall clock.
        (
            "no-wallclock-in-sim".into(),
            TRACE_LIB.into(),
            mark_line(TRACE_LIB, "MARK-trace-instant"),
        ),
        // Thread discipline: lock types and spawn-shaped calls are
        // confined to the designated execution backend.
        ("thread-discipline".into(), GRAPH_LIB.into(), mark_line(GRAPH_LIB, "MARK-thread-mutex")),
        ("thread-discipline".into(), GRAPH_LIB.into(), mark_line(GRAPH_LIB, "MARK-thread-spawn")),
        // Atomic ordering policy: bare ordering names and unjustified
        // strong orderings fire; a stale justification fires too.
        (
            "atomic-ordering-policy".into(),
            CORE_LIB.into(),
            mark_line(CORE_LIB, "MARK-bare-ordering"),
        ),
        ("atomic-ordering-policy".into(), CORE_LIB.into(), mark_line(CORE_LIB, "MARK-seqcst")),
        ("stale-allow".into(), CORE_LIB.into(), mark_line(CORE_LIB, "MARK-stale-ordering-allow")),
        // send-bound-registry: unaudited payload, inference-typed
        // constructor, and the stale registry entry.
        (
            "send-bound-registry".into(),
            PARTITION_EXEC.into(),
            mark_line(PARTITION_EXEC, "MARK-unregistered-send"),
        ),
        (
            "send-bound-registry".into(),
            PARTITION_EXEC.into(),
            mark_line(PARTITION_EXEC, "MARK-untyped-ctor"),
        ),
        (
            "send-bound-registry".into(),
            SEND_REGISTRY.into(),
            mark_line(SEND_REGISTRY, "MARK-stale-send"),
        ),
        // panic-reachability is the indexing class only: the site below
        // is reachable through a *method* edge. (The partition lib.rs
        // indexing is suppressed by the used PANIC_AUDIT entry.)
        (
            "panic-reachability".into(),
            GRAPH_PIPELINE.into(),
            mark_line(GRAPH_PIPELINE, "MARK-method-indexing"),
        ),
        // Reachable unwrap/panic! sites are no-panic-in-lib findings like
        // any other — once per line, with the call path in the message
        // (asserted below). The pipeline seeds prove depth ≥ 2 chains;
        // the orphan fn's expect fires too, without a path.
        (
            "no-panic-in-lib".into(),
            GRAPH_PIPELINE.into(),
            mark_line(GRAPH_PIPELINE, "MARK-deep-unwrap"),
        ),
        (
            "no-panic-in-lib".into(),
            GRAPH_PIPELINE.into(),
            mark_line(GRAPH_PIPELINE, "MARK-deep-panic"),
        ),
        (
            "no-panic-in-lib".into(),
            GRAPH_PIPELINE.into(),
            mark_line(GRAPH_PIPELINE, "MARK-orphan-expect"),
        ),
        // cfg gates: an item is test code only when its predicate
        // *requires* `test`. `not(test)` and `any(test, …)` ship, so
        // their unwraps fire; the `all(test, …)` and multi-line
        // `cfg(test)` items beside them stay silent.
        (
            "no-panic-in-lib".into(),
            ENGINE_GATES.into(),
            mark_line(ENGINE_GATES, "MARK-cfg-not-test"),
        ),
        (
            "no-panic-in-lib".into(),
            ENGINE_GATES.into(),
            mark_line(ENGINE_GATES, "MARK-cfg-any-test"),
        ),
        // ...and the stale PANIC_AUDIT entry (db has no indexing).
        (
            "panic-reachability".into(),
            PANIC_AUDIT.into(),
            mark_line(PANIC_AUDIT, "MARK-stale-audit"),
        ),
        // algorithm-surface-exhaustiveness: gaps anchor at the missing
        // variant's declaration line. Delta is missing on three
        // surfaces (stream-dispatch, threaded-loaders, table-all);
        // Alpha and Gamma only on threaded-loaders. Gamma's absence
        // from stream-dispatch is excused by the used registry entry.
        (
            "algorithm-surface-exhaustiveness".into(),
            PARTITION_REGISTRY.into(),
            mark_line(PARTITION_REGISTRY, "MARK-alpha-variant"),
        ),
        (
            "algorithm-surface-exhaustiveness".into(),
            PARTITION_REGISTRY.into(),
            mark_line(PARTITION_REGISTRY, "MARK-gamma-variant"),
        ),
        (
            "algorithm-surface-exhaustiveness".into(),
            PARTITION_REGISTRY.into(),
            mark_line(PARTITION_REGISTRY, "MARK-delta-variant"),
        ),
        (
            "algorithm-surface-exhaustiveness".into(),
            PARTITION_REGISTRY.into(),
            mark_line(PARTITION_REGISTRY, "MARK-delta-variant"),
        ),
        (
            "algorithm-surface-exhaustiveness".into(),
            PARTITION_REGISTRY.into(),
            mark_line(PARTITION_REGISTRY, "MARK-delta-variant"),
        ),
        // ...and the registry's own rot: stale, unknown variant,
        // unknown surface.
        (
            "algorithm-surface-exhaustiveness".into(),
            SURFACES_REGISTRY.into(),
            mark_line(SURFACES_REGISTRY, "MARK-stale-surface"),
        ),
        (
            "algorithm-surface-exhaustiveness".into(),
            SURFACES_REGISTRY.into(),
            mark_line(SURFACES_REGISTRY, "MARK-unknown-variant"),
        ),
        (
            "algorithm-surface-exhaustiveness".into(),
            SURFACES_REGISTRY.into(),
            mark_line(SURFACES_REGISTRY, "MARK-unknown-surface"),
        ),
        // span-guard-balance: double enter, stray exit, unbound guard,
        // and a never-exited hardcoded key (which also fires the
        // key-registry rule on the same line).
        (
            "span-guard-balance".into(),
            ENGINE_SPANS.into(),
            mark_line(ENGINE_SPANS, "MARK-span-double-enter"),
        ),
        (
            "span-guard-balance".into(),
            ENGINE_SPANS.into(),
            mark_line(ENGINE_SPANS, "MARK-span-stray-exit"),
        ),
        (
            "span-guard-balance".into(),
            ENGINE_SPANS.into(),
            mark_line(ENGINE_SPANS, "MARK-span-unbound-guard"),
        ),
        (
            "span-guard-balance".into(),
            ENGINE_SPANS.into(),
            mark_line(ENGINE_SPANS, "MARK-span-adhoc"),
        ),
        (
            "trace-key-registry".into(),
            ENGINE_SPANS.into(),
            mark_line(ENGINE_SPANS, "MARK-span-adhoc"),
        ),
    ];
    expected.sort();

    let mut actual: Vec<(String, String, usize)> =
        report.findings.iter().map(|f| (f.rule.clone(), f.file.clone(), f.line)).collect();
    actual.sort();

    assert_eq!(
        actual, expected,
        "finding set mismatch\nactual:\n{:#?}\nexpected:\n{:#?}",
        actual, expected
    );
    assert_eq!(report.errors(), 55);
    assert_eq!(report.warnings(), 2);
    assert_eq!(report.exit_code(), 1, "seeded fixture must fail the lint");

    // A reachable site says how it is reached; an unreached one does not.
    let message = |file: &str, mark: &str| {
        let line = mark_line(file, mark);
        let hit = report
            .findings
            .iter()
            .find(|f| f.rule == "no-panic-in-lib" && f.file == file && f.line == line);
        &hit.unwrap_or_else(|| panic!("no no-panic-in-lib finding at {mark}")).message
    };
    let deep = message(GRAPH_PIPELINE, "MARK-deep-unwrap");
    assert!(
        deep.contains("sgp-graph::run_pipeline -> sgp-graph::stage_one -> sgp-graph::stage_two"),
        "{deep}"
    );
    let orphan = message(GRAPH_PIPELINE, "MARK-orphan-expect");
    assert!(!orphan.contains("->") && !orphan.contains("reachable"), "{orphan}");
}

#[test]
fn fixture_warn_counts_only_under_strict() {
    let mut cfg = LintConfig::new(fixture_root());
    let lenient = run_lint(&cfg).expect("fixture lints");
    cfg.strict = true;
    let strict = run_lint(&cfg).expect("fixture lints");
    // Both fail here (errors exist), but strict counts the warning too.
    assert_eq!(lenient.errors(), strict.errors());
    assert_eq!(strict.warnings(), 2);
    assert_eq!(strict.exit_code(), 1);
}

#[test]
fn out_of_scope_fixture_crate_is_clean() {
    let report = run_lint(&LintConfig::new(fixture_root())).expect("fixture lints");
    assert!(
        report.findings.iter().all(|f| !f.file.starts_with("crates/util/")),
        "mini-util is outside every scope and satisfies the policies: {:#?}",
        report.findings
    );
}

#[test]
fn severities_are_as_catalogued() {
    let report = run_lint(&LintConfig::new(fixture_root())).expect("fixture lints");
    for f in &report.findings {
        let advisory = f.rule == "unused-allow" || f.rule == "no-alloc-in-place-loop";
        let want = if advisory { Severity::Warn } else { Severity::Error };
        assert_eq!(f.severity, want, "{}: {}", f.rule, f.file);
    }
}

#[test]
fn json_output_is_stable_and_wellformed() {
    let report = run_lint(&LintConfig::new(fixture_root())).expect("fixture lints");
    let a = sgp_xtask::render_json(&report);
    let b = sgp_xtask::render_json(&report);
    assert_eq!(a, b, "rendering is deterministic");
    assert!(a.starts_with("{\n  \"version\": 1,\n"));
    assert!(a.contains("\"errors\": 55"));
    assert!(a.contains("\"warnings\": 2"));
    assert!(a.contains("\"rule\": \"no-hash-iteration\""));
    // Findings arrive sorted by (file, line, rule): the manifest file
    // sorts before src/lib.rs, which sorts before tests/smoke.rs, and
    // the crates sort engine < fault < partition < trace.
    let toml_pos = a.find("crates/engine/Cargo.toml").expect("manifest finding present");
    let lib_pos = a.find("crates/engine/src/lib.rs").expect("lib finding present");
    let smoke_pos = a.find("crates/engine/tests/smoke.rs").expect("test finding present");
    let fault_pos = a.find("crates/fault/src/lib.rs").expect("fault finding present");
    let partition_pos = a.find("crates/partition/src/lib.rs").expect("partition finding present");
    let trace_pos = a.find("crates/trace/src/lib.rs").expect("trace finding present");
    assert!(toml_pos < lib_pos && lib_pos < smoke_pos, "sorted by file");
    assert!(smoke_pos < fault_pos, "engine files sort before fault files");
    assert!(fault_pos < partition_pos, "fault files sort before partition files");
    assert!(partition_pos < trace_pos, "partition files sort before trace files");
}
