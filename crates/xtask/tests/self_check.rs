//! The linter's own acceptance gate: the *real* workspace must be
//! completely clean.

use sgp_xtask::run_lint;
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
    let report = run_lint(&workspace_root()).expect("workspace lints");
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
