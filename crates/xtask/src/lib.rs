//! # sgp-xtask
//!
//! The workspace's in-tree lint for what the compiler cannot see. The
//! headline claim of this repository (EXPERIMENTS.md) is that every
//! table and figure is reproduced **bit-for-bit** from one deterministic
//! run. Most invariants behind it are compiler lints — hash containers,
//! the host clock, threads and atomics (`clippy.toml`), panics and
//! unchecked indexing in library code (the crate roots), integral
//! accounting (five module roots); DESIGN.md §6 maps each old rule to
//! its lint. `sgp-xtask lint` keeps the rules that correlate a source
//! file with another file:
//!
//! * [`crossfile`] — `trace-key-registry` (every `TraceSink` key is a
//!   `sgp_trace::keys` constant, every constant is used),
//!   `schema-version-sync` (schema constants agree with
//!   `tests/goldens/SCHEMA_VERSIONS`) and `send-bound-registry` (channel
//!   payload types in the execution backend are pinned by turbofish and
//!   audited in `tests/goldens/SEND_REGISTRY`; stale entries are errors).
//! * [`spans`] — `span-guard-balance` (every `span_enter` of a key is
//!   matched by a `span_exit` in the same fn body).
//! * [`rules`] — the rule table, the findings collector and
//!   `workspace-dep-hygiene` (every member opts into `[workspace.lints]`).
//!
//! Underneath: [`lexer`] (a lossless, dependency-free Rust lexer),
//! [`parser`] / [`ast`] (the item tree: fn bodies, consts, test items),
//! [`scan`] (one lex and one parse per file), [`cursor`] (trivia-skipping
//! token helpers), [`workspace`] / [`manifest`] (member discovery),
//! [`report`] (text and JSON). [`trace_summary`] renders the trace dumps
//! written by `experiments --trace <path>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod crossfile;
pub mod cursor;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod report;
pub mod rules;
pub mod scan;
pub mod spans;
pub mod trace_summary;
pub mod workspace;

pub use report::{render_json, render_text, Finding, LintReport};
pub use trace_summary::summarize;

use rules::Findings;
use scan::ParsedFile;
use std::path::Path;
use workspace::{FileKind, Workspace};

/// One parsed source file, paired with the index of its owning member
/// in [`workspace::Workspace::members`].
pub struct ParsedEntry {
    /// Index into `ws.members`.
    pub member: usize,
    /// Target classification of the file.
    pub kind: FileKind,
    /// The file's tokens and item tree.
    pub file: ParsedFile,
}

/// What the rules read: the workspace and its parsed files.
pub struct Analysis<'a> {
    /// The discovered workspace.
    pub ws: &'a Workspace,
    /// Every readable source file, parsed once.
    pub entries: &'a [ParsedEntry],
}

/// Runs every rule over the workspace at `root`.
///
/// Each source file is read, lexed and parsed once; the rules then run
/// over the same parsed files. Returns an error string only for
/// environmental failures (unreadable root, missing root manifest);
/// findings — including broken fixture code — are data, not errors.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let ws = workspace::discover(root)?;
    let mut out = Findings::default();
    let mut entries: Vec<ParsedEntry> = Vec::new();
    for (member, m) in ws.members.iter().enumerate() {
        rules::check_member_manifest(m, &mut out);
        for f in &m.files {
            match ParsedFile::read(&f.path, &f.rel) {
                Ok(file) => entries.push(ParsedEntry { member, kind: f.kind, file }),
                Err(e) => out.io_error(&f.rel, &e),
            }
        }
    }
    let cx = Analysis { ws: &ws, entries: &entries };
    crossfile::check_all(&cx, &mut out);
    spans::check(&cx, &mut out);

    let mut findings = out.finish();
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    Ok(LintReport {
        findings,
        files_scanned: entries.len(),
        manifests_scanned: 1 + ws.members.len(),
    })
}

/// In-memory fixtures for unit tests: a synthetic workspace with one
/// member per distinct package name and one library source per tuple.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use crate::manifest::parse_manifest;
    use crate::workspace::Member;
    use std::path::PathBuf;

    /// `(package, workspace-relative path, source)`.
    pub(crate) type Source<'s> = (&'s str, &'s str, &'s str);

    /// Runs `check` over in-memory `sources` and returns its findings,
    /// unsorted.
    pub(crate) fn lint(
        sources: &[Source<'_>],
        check: impl FnOnce(&Analysis<'_>, &mut Findings),
    ) -> Vec<Finding> {
        let mut members: Vec<Member> = Vec::new();
        let mut entries = Vec::new();
        for &(pkg, rel, src) in sources {
            let member = members.iter().position(|m| m.name == pkg).unwrap_or_else(|| {
                let manifest = format!("[package]\nname = \"{pkg}\"\n");
                let manifest = parse_manifest(&manifest, &format!("crates/{pkg}/Cargo.toml"));
                members.push(Member { name: pkg.to_string(), manifest, files: Vec::new() });
                members.len() - 1
            });
            let file = ParsedFile::parse(src, rel);
            entries.push(ParsedEntry { member, kind: FileKind::LibSrc, file });
        }
        let ws = Workspace { root: PathBuf::from("."), members };
        let mut out = Findings::default();
        check(&Analysis { ws: &ws, entries: &entries }, &mut out);
        out.finish()
    }
}
