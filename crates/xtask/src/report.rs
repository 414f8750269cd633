//! Findings and their human/machine renderings.

use std::fmt;

/// How severe a finding is. `Error` findings fail the run; `Warn`
/// findings fail it only under `--strict`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; does not fail the run unless `--strict`.
    Warn,
    /// Fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `no-panic-in-lib`).
    pub rule: String,
    /// Severity of this finding.
    pub severity: Severity,
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
    pub fn new(
        rule: &str,
        severity: Severity,
        file: &str,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule: rule.to_string(),
            severity,
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }

    /// A finding representing a file the linter could not read.
    pub fn io_error(file: &str, err: &str) -> Self {
        Finding::new("io-error", Severity::Error, file, 0, format!("cannot scan file: {err}"))
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
    /// Whether warnings count toward the exit code.
    pub strict: bool,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warn).count()
    }

    /// Process exit code: 0 when clean, 1 when violations remain.
    pub fn exit_code(&self) -> i32 {
        let failing = self.errors() + if self.strict { self.warnings() } else { 0 };
        i32::from(failing > 0)
    }
}

/// Renders findings as human diagnostics with `file:line` spans plus a
/// summary line.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        if f.line > 0 {
            out.push_str(&format!(
                "{}[{}] {}:{} — {}\n",
                f.severity, f.rule, f.file, f.line, f.message
            ));
        } else {
            out.push_str(&format!("{}[{}] {} — {}\n", f.severity, f.rule, f.file, f.message));
        }
    }
    out.push_str(&format!(
        "sgp-xtask lint: {} error(s), {} warning(s) across {} file(s), {} manifest(s)\n",
        report.errors(),
        report.warnings(),
        report.files_scanned,
        report.manifests_scanned,
    ));
    out
}

/// Renders the report as stable machine-readable JSON.
///
/// Schema (version 1):
///
/// ```json
/// {
///   "version": 1,
///   "errors": 2,
///   "warnings": 1,
///   "files_scanned": 120,
///   "manifests_scanned": 8,
///   "findings": [
///     {"rule": "...", "severity": "error", "file": "...", "line": 32, "message": "..."}
///   ]
/// }
/// ```
///
/// Findings are sorted by `(file, line, rule)`, so output is stable
/// across runs and machines.
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"errors\": {},\n", report.errors()));
    out.push_str(&format!("  \"warnings\": {},\n", report.warnings()));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"manifests_scanned\": {},\n", report.manifests_scanned));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", json_string(&f.rule)));
        out.push_str(&format!("\"severity\": {}, ", json_string(&f.severity.to_string())));
        out.push_str(&format!("\"file\": {}, ", json_string(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"message\": {}", json_string(&f.message)));
        out.push('}');
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Renders the report as a SARIF 2.1.0 document for CI annotation
/// (GitHub code scanning understands this directly).
///
/// The emitter is deliberately minimal and deterministic: one run, the
/// full rule catalogue under `tool.driver.rules`, and one `result` per
/// finding **in the same `(file, line, rule)` order as [`render_json`]**
/// — the `emitter_properties` test pins that agreement. Findings with
/// line 0 (file-level) omit the `region`.
pub fn render_sarif(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"sgp-xtask\",\n");
    out.push_str("          \"rules\": [");
    for (i, rule) in crate::rules::RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n            {");
        out.push_str(&format!("\"id\": {}, ", json_string(rule.id)));
        out.push_str(&format!(
            "\"shortDescription\": {{\"text\": {}}}",
            json_string(rule.description)
        ));
        out.push('}');
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let level = match f.severity {
            Severity::Error => "error",
            Severity::Warn => "warning",
        };
        out.push_str("\n        {");
        out.push_str(&format!("\"ruleId\": {}, ", json_string(&f.rule)));
        out.push_str(&format!("\"level\": \"{level}\", "));
        out.push_str(&format!("\"message\": {{\"text\": {}}}, ", json_string(&f.message)));
        out.push_str("\"locations\": [{\"physicalLocation\": {");
        out.push_str(&format!("\"artifactLocation\": {{\"uri\": {}}}", json_string(&f.file)));
        if f.line > 0 {
            out.push_str(&format!(", \"region\": {{\"startLine\": {}}}", f.line));
        }
        out.push_str("}}]}");
    }
    if !report.findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
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
        LintReport { findings, files_scanned: 3, manifests_scanned: 2, strict: false }
    }

    #[test]
    fn exit_code_reflects_errors() {
        let clean = report(vec![]);
        assert_eq!(clean.exit_code(), 0);
        let bad = report(vec![Finding::new("r", Severity::Error, "f.rs", 1, "m")]);
        assert_eq!(bad.exit_code(), 1);
    }

    #[test]
    fn warnings_only_fail_in_strict_mode() {
        let mut r = report(vec![Finding::new("r", Severity::Warn, "f.rs", 1, "m")]);
        assert_eq!(r.exit_code(), 0);
        r.strict = true;
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_render_is_wellformed_for_empty_and_nonempty() {
        let empty = render_json(&report(vec![]));
        assert!(empty.contains("\"findings\": []"));
        let one = render_json(&report(vec![Finding::new(
            "no-panic-in-lib",
            Severity::Error,
            "crates/db/src/store.rs",
            32,
            "msg",
        )]));
        assert!(one.contains("\"rule\": \"no-panic-in-lib\""));
        assert!(one.contains("\"line\": 32"));
    }

    #[test]
    fn sarif_render_is_wellformed_and_ordered() {
        let r = report(vec![
            Finding::new("no-hash-iteration", Severity::Error, "a.rs", 3, "first"),
            Finding::new("unused-allow", Severity::Warn, "b.rs", 0, "file-level"),
        ]);
        let s = render_sarif(&r);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"sgp-xtask\""));
        let first = s.find("\"ruleId\": \"no-hash-iteration\"").expect("first result");
        let second = s.find("\"ruleId\": \"unused-allow\"").expect("second result");
        assert!(first < second, "results keep report order");
        assert!(s.contains("\"level\": \"warning\""));
        assert!(s.contains("\"startLine\": 3"));
        // Line-0 findings carry no region.
        let b_loc = s.find("\"uri\": \"b.rs\"").expect("b.rs location");
        assert!(!s[b_loc..].contains("startLine"), "file-level finding has no region");
    }

    #[test]
    fn text_render_has_spans_and_summary() {
        let r = report(vec![Finding::new("x", Severity::Error, "a.rs", 7, "boom")]);
        let s = render_text(&r);
        assert!(s.contains("error[x] a.rs:7 — boom"));
        assert!(s.contains("1 error(s), 0 warning(s)"));
    }
}
