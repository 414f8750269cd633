//! Findings and their human/machine renderings.

/// One diagnostic produced by a rule. Every finding fails the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `trace-key-registry`).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (0 for file-level findings such as a missing
    /// manifest section).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// Constructs a finding.
    pub fn new(rule: &str, file: &str, line: usize, message: impl Into<String>) -> Self {
        Finding { rule: rule.to_string(), file: file.to_string(), line, message: message.into() }
    }
}

/// The result of one lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `Cargo.toml` manifests checked.
    pub manifests_scanned: usize,
}

impl LintReport {
    /// Process exit code: 0 when clean, 1 when findings remain.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.findings.is_empty())
    }
}

/// Renders findings as human diagnostics with `file:line` spans plus a
/// summary line.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let at = if f.line > 0 { format!("{}:{}", f.file, f.line) } else { f.file.clone() };
        out.push_str(&format!("error[{}] {at} — {}\n", f.rule, f.message));
    }
    out.push_str(&format!(
        "sgp-xtask lint: {} finding(s) across {} file(s), {} manifest(s)\n",
        report.findings.len(),
        report.files_scanned,
        report.manifests_scanned,
    ));
    out
}

/// Renders the report as stable machine-readable JSON.
///
/// Schema (version 2):
///
/// ```json
/// {
///   "version": 2,
///   "errors": 2,
///   "files_scanned": 120,
///   "manifests_scanned": 8,
///   "findings": [
///     {"rule": "...", "file": "...", "line": 32, "message": "..."}
///   ]
/// }
/// ```
///
/// Findings are sorted by `(file, line, rule)`, so output is stable
/// across runs and machines.
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n");
    out.push_str(&format!("  \"errors\": {},\n", report.findings.len()));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"manifests_scanned\": {},\n", report.manifests_scanned));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    {" } else { "\n    {" });
        out.push_str(&format!("\"rule\": {}, ", json_string(&f.rule)));
        out.push_str(&format!("\"file\": {}, ", json_string(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"message\": {}}}", json_string(&f.message)));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(findings: Vec<Finding>) -> LintReport {
        LintReport { findings, files_scanned: 3, manifests_scanned: 2 }
    }

    #[test]
    fn exit_code_reflects_findings() {
        assert_eq!(report(vec![]).exit_code(), 0);
        assert_eq!(report(vec![Finding::new("r", "f.rs", 1, "m")]).exit_code(), 1);
    }

    #[test]
    fn json_escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_render_is_wellformed_for_empty_and_nonempty() {
        let empty = render_json(&report(vec![]));
        assert!(empty.contains("\"findings\": []"));
        let two = render_json(&report(vec![
            Finding::new("trace-key-registry", "crates/db/src/store.rs", 32, "msg"),
            Finding::new("workspace-dep-hygiene", "crates/db/Cargo.toml", 0, "msg"),
        ]));
        assert!(two.contains("\"errors\": 2"));
        assert!(two.contains("{\"rule\": \"trace-key-registry\", \"file\": \"crates/db/src/store.rs\", \"line\": 32, \"message\": \"msg\"},\n    {"));
        assert!(two.ends_with("\"message\": \"msg\"}\n  ]\n}\n"));
    }

    #[test]
    fn text_render_has_spans_and_summary() {
        let r = report(vec![
            Finding::new("x", "a.rs", 7, "boom"),
            Finding::new("y", "Cargo.toml", 0, "file-level"),
        ]);
        let s = render_text(&r);
        assert!(s.contains("error[x] a.rs:7 — boom\n"));
        assert!(s.contains("error[y] Cargo.toml — file-level\n"));
        assert!(s.contains("2 finding(s) across 3 file(s), 2 manifest(s)"));
    }
}
