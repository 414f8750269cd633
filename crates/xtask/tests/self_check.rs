//! The linter's own acceptance gate: the *real* workspace must be
//! completely clean — zero errors, zero warnings. Every historical
//! violation is either fixed or carries a justified allow directive.

use sgp_xtask::{run_lint, LintConfig};
use std::path::PathBuf;

/// The real workspace root: `SGP_LINT_ROOT` when set (used by build
/// harnesses that relocate the crate), else two levels up from this
/// crate's manifest.
fn workspace_root() -> PathBuf {
    match std::env::var_os("SGP_LINT_ROOT") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    }
}

#[test]
fn real_workspace_is_lint_clean() {
    let mut cfg = LintConfig::new(workspace_root());
    cfg.strict = true;
    let report = run_lint(&cfg).expect("workspace lints");
    assert!(
        report.findings.is_empty(),
        "the workspace must stay lint-clean; run `cargo run -p sgp-xtask -- lint` and fix:\n{}",
        sgp_xtask::render_text(&report)
    );
    assert_eq!(report.exit_code(), 0);
    // Sanity: the scan actually visited the workspace, not an empty dir.
    assert!(report.files_scanned > 50, "scanned {} files", report.files_scanned);
    assert!(report.manifests_scanned >= 8, "checked {} manifests", report.manifests_scanned);
}

#[test]
fn every_rule_is_described_and_catalogued() {
    use sgp_xtask::rules::RULES;

    // The `rules` subcommand and the SARIF catalogue both promise a
    // human explanation per rule id; an empty description would render
    // as a blank row in one and an empty shortDescription in the other.
    for rule in RULES {
        assert!(!rule.description.trim().is_empty(), "rule `{}` has no description", rule.id);
    }

    // The SARIF driver catalogue must carry every rule id even when a
    // run has zero findings — CI annotation resolves results against it.
    let report = run_lint(&LintConfig::new(workspace_root())).expect("workspace lints");
    let sarif = sgp_xtask::render_sarif(&report);
    for rule in RULES {
        assert!(
            sarif.contains(&format!("\"id\": \"{}\"", rule.id)),
            "rule `{}` missing from the SARIF catalogue",
            rule.id
        );
    }
    for id in ["panic-reachability", "algorithm-surface-exhaustiveness", "span-guard-balance"] {
        assert!(RULES.iter().any(|r| r.id == id), "semantic-tier rule `{id}` not registered");
    }
    // `unsafe` is the compiler's job now (`unsafe_code = "forbid"` plus
    // `#![forbid(unsafe_code)]` on every crate root): the rule is gone
    // from the table and from what SARIF advertises.
    assert!(RULES.iter().all(|r| r.id != "no-unsafe"));
    assert!(!sarif.contains("no-unsafe"));
}
