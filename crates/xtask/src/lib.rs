//! # sgp-xtask
//!
//! The workspace's in-tree static-analysis pass. The headline claim of
//! this repository (EXPERIMENTS.md) is that every table and figure is
//! reproduced **bit-for-bit** from one deterministic run; `sgp-xtask
//! lint` is the tool that statically enforces the invariants behind that
//! claim instead of trusting convention:
//!
//! * [`lexer`] — a hand-rolled, dependency-free Rust lexer (raw strings,
//!   nested block comments, char-vs-lifetime disambiguation, doc
//!   comments, float-aware number literals) producing a lossless token
//!   stream with byte offsets and line/column spans.
//! * [`parser`] / [`ast`] — the item-level parser over that stream:
//!   fns with their bodies, consts, enums with their variants, nested
//!   `impl`/`mod`/`trait` members, and which items are test-only.
//! * [`scan`] — [`scan::ParsedFile`]: each file is lexed once and parsed
//!   once in pass 1, and carries its tokens, item tree and `sgp-lint:`
//!   directives. Everything structural a rule needs — test lines,
//!   `allow-scope` ends, `fn place` bodies, schema and trace-key
//!   constants, crate-root attributes — is read off that one parse.
//! * [`cursor`] — the trivia-skipping token helpers every matcher uses.
//! * [`rules`] — the rule table (id, severity, description), the
//!   [`rules::Findings`] collector every rule reports through, and the
//!   per-file rules:
//!   * `no-hash-iteration` — `HashMap`/`HashSet` (nondeterministic
//!     iteration order) are banned in the determinism-scoped crates;
//!     use `BTreeMap`/`BTreeSet` or sort before iterating.
//!   * `no-panic-in-lib` — `unwrap()`/`expect()`/`panic!`/`todo!`/
//!     `unimplemented!`/`dbg!` in non-test library code must be
//!     rewritten as `Result` or carry a justified allow directive; a
//!     site reachable from a public entry point prints its call path.
//!   * `crate-attr-policy` — every crate root must carry
//!     `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`. With
//!     `unsafe_code = "forbid"` in `[workspace.lints.rust]` this is the
//!     whole `unsafe` policy: the compiler enforces it on every target.
//!   * `no-wallclock-in-sim` — `std::time::Instant`, `SystemTime` and
//!     `thread_rng` are forbidden inside the deterministic simulators.
//!   * `thread-discipline` — thread, channel and lock primitives
//!     (`spawn`, `sync_channel`, `Mutex`, `mpsc`, …) are confined to
//!     the designated execution backend (`sgp-partition`
//!     `src/exec.rs`); everywhere else they need a justified allow.
//!   * `atomic-ordering-policy` — atomic orderings are written
//!     `Ordering::X` at the call site, and anything stronger than
//!     `Relaxed` must justify its acquire/release pairing.
//!   * `workspace-dep-hygiene` — member `Cargo.toml`s must inherit
//!     dependencies and opt into the shared `[workspace.lints]` table.
//!   * `no-alloc-in-place-loop` — advisory (warning): Vec/String
//!     construction inside a partitioner `fn place` body allocates per
//!     streamed element; hoist a scratch buffer into the partitioner
//!     struct (DESIGN.md §13) or carry a justified allow.
//! * [`crossfile`] — the whole-workspace rules:
//!   `trace-key-registry` (every `TraceSink` key is a `sgp_trace::keys`
//!   constant, every constant is used), `no-float-accounting` (integral
//!   simulated time and message accounting), `schema-version-sync`
//!   (schema constants agree with `tests/goldens/SCHEMA_VERSIONS`), and
//!   `send-bound-registry` (channel payload types in the execution
//!   backend are pinned by turbofish and audited in
//!   `tests/goldens/SEND_REGISTRY`; stale registry entries are errors).
//! * [`symbols`] / [`callgraph`] / [`semantic`] — the symbol table and
//!   conservative call graph over the item trees, and the families that
//!   need them: `panic-reachability` (reachable unchecked indexing,
//!   audited per file in `tests/goldens/PANIC_AUDIT`),
//!   `algorithm-surface-exhaustiveness` and `span-guard-balance`.
//! * [`manifest`] — a minimal TOML section reader for the hygiene rule.
//! * [`report`] — findings, text diagnostics with `file:line` spans,
//!   stable machine-readable JSON, and a SARIF 2.1.0 emitter for CI
//!   annotation.
//! * [`trace_summary`] — the `sgp-xtask trace-summary` renderer for
//!   trace dumps written by `experiments --trace <path>`.
//!
//! ## Allow directives
//!
//! A violation is suppressed by a justified directive in a plain line
//! comment (doc comments never carry directives):
//!
//! ```text
//! // sgp-lint: allow(<rule>): <justification>        same or next line
//! // sgp-lint: allow-scope(<rule>): <justification>  the next item
//! // sgp-lint: allow-file(<rule>): <justification>   the whole file
//! ```
//!
//! The justification is mandatory; a directive without one is itself a
//! `bad-allow-directive` error and does **not** suppress the finding.
//! A line-scoped allow whose rule no longer fires on its span is a
//! `stale-allow` **error** (the allowlist cannot rot silently);
//! scope/file allows that suppress nothing are `unused-allow` warnings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod crossfile;
pub mod cursor;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod report;
pub mod rules;
pub mod scan;
pub mod semantic;
pub mod symbols;
pub mod trace_summary;
pub mod workspace;

pub use report::{render_json, render_sarif, render_text, Finding, LintReport, Severity};
pub use trace_summary::summarize;

use callgraph::{CallGraph, Reach};
use rules::Findings;
use scan::ParsedFile;
use std::path::PathBuf;
use symbols::SymbolTable;
use workspace::{FileKind, Workspace};

/// Options for one lint run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root (the directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Treat warnings as errors for the exit code.
    pub strict: bool,
    /// When set, only findings in these workspace-relative files are
    /// reported (the `--diff <git-ref>` fast path). The whole workspace
    /// is still scanned — cross-file rules need it — so a finding in an
    /// unchanged file is *suppressed from the report*, not undetected;
    /// the full-workspace strict run remains the merge gate. Findings of
    /// the cross-file exhaustiveness rule are retained whenever any of
    /// its input files (surfaces, registry module, fallback registry)
    /// changed, since the finding anchors at the enum declaration, not
    /// at the file that drifted.
    pub only_files: Option<Vec<String>>,
    /// When set, the reachability call graph is written here as
    /// Graphviz DOT after the run (`--emit-callgraph`).
    pub emit_callgraph: Option<PathBuf>,
}

impl LintConfig {
    /// A config rooted at `root` with default settings.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LintConfig { root: root.into(), strict: false, only_files: None, emit_callgraph: None }
    }
}

/// One parsed source file, paired with the index of its owning member
/// in [`workspace::Workspace::members`].
pub struct ParsedEntry {
    /// Index into `ws.members`.
    pub member: usize,
    /// Target classification of the file.
    pub kind: FileKind,
    /// The file's tokens, item tree and directives.
    pub file: ParsedFile,
}

/// What pass 2 reads: the workspace, its parsed files, and the symbol
/// table, call graph and reachability derived from their item trees.
pub struct Analysis<'a> {
    /// The discovered workspace.
    pub ws: &'a Workspace,
    /// Every readable source file, parsed once.
    pub entries: &'a [ParsedEntry],
    /// Fn and enum definitions across `entries`.
    pub symbols: SymbolTable,
    /// Name-resolved call edges between `symbols.fns`.
    pub graph: CallGraph,
    /// What the determinism-scope public entry points reach.
    pub reach: Reach,
}

impl<'a> Analysis<'a> {
    /// Derives the symbol table, call graph and reachability.
    pub fn new(ws: &'a Workspace, entries: &'a [ParsedEntry]) -> Self {
        let symbols = SymbolTable::build(ws, entries);
        let graph = CallGraph::build(&symbols, entries);
        let reach = graph.reach(semantic::entry_points(ws, entries, &symbols));
        Analysis { ws, entries, symbols, graph, reach }
    }
}

/// Runs the full rule catalogue over the workspace at `cfg.root`.
///
/// The run is two-pass. Pass 1 reads every source file and lexes and
/// parses it exactly once into a [`ParsedFile`]. Pass 2 derives the
/// symbol table and call graph from those item trees and runs the
/// per-file, cross-file and semantic rules over the same parsed files,
/// all reporting through one [`Findings`] collector. Its allow-directive
/// bookkeeping is finalised last, which is what makes `stale-allow`
/// sound: a directive is stale only if *no* rule charged a suppression
/// to it.
///
/// Returns an error string only for environmental failures (unreadable
/// root, missing root manifest); findings — including broken fixture
/// code — are data, not errors.
pub fn run_lint(cfg: &LintConfig) -> Result<LintReport, String> {
    let ws = workspace::discover(&cfg.root)?;

    // Pass 1: one lex and one parse per file.
    let mut entries: Vec<ParsedEntry> = Vec::new();
    let mut unreadable: Vec<(&str, String)> = Vec::new();
    for (member, m) in ws.members.iter().enumerate() {
        for f in &m.files {
            match ParsedFile::read(&f.path, &f.rel) {
                Ok(file) => entries.push(ParsedEntry { member, kind: f.kind, file }),
                Err(e) => unreadable.push((&f.rel, e)),
            }
        }
    }

    // Pass 2: every rule family over the same parsed files.
    let cx = Analysis::new(&ws, &entries);
    let mut out = Findings::new(&entries);
    for (rel, e) in &unreadable {
        out.io_error(rel, e);
    }
    rules::check_root_manifest(&ws, &mut out);
    for (mi, member) in ws.members.iter().enumerate() {
        rules::check_member_manifest(member, &mut out);
        rules::check_crate_root_attrs(&cx, mi, &mut out);
    }
    for ei in 0..entries.len() {
        rules::check_source_file(&cx, ei, &mut out);
    }
    crossfile::check_all(&cx, &mut out);
    semantic::check_all(&cx, &mut out);
    if let Some(path) = &cfg.emit_callgraph {
        std::fs::write(path, cx.graph.to_dot(&cx.symbols, &cx.reach))
            .map_err(|e| format!("cannot write call graph to {}: {e}", path.display()))?;
    }

    let mut findings = out.finish();
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    if let Some(only) = &cfg.only_files {
        let keep: std::collections::BTreeSet<&str> = only.iter().map(String::as_str).collect();
        // The exhaustiveness rule is whole-workspace: a changed surface
        // file produces findings anchored at the enum declaration, so
        // those findings survive the diff filter whenever any of the
        // rule's inputs changed.
        let exhaustiveness_live = only.iter().any(|f| semantic::is_exhaustiveness_input(f));
        findings.retain(|f| {
            keep.contains(f.file.as_str())
                || (exhaustiveness_live && f.rule == rules::ALGORITHM_SURFACE_EXHAUSTIVENESS.id)
        });
    }
    Ok(LintReport {
        findings,
        files_scanned: entries.len(),
        manifests_scanned: 1 + ws.members.len(),
        strict: cfg.strict,
    })
}

/// In-memory fixtures for unit tests: a synthetic workspace with one
/// member per distinct package name and one library source per tuple.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use crate::manifest::parse_manifest;
    use crate::workspace::Member;

    /// `(package, workspace-relative path, source)`.
    pub(crate) type Source<'s> = (&'s str, &'s str, &'s str);

    pub(crate) fn workspace(sources: &[Source<'_>]) -> (Workspace, Vec<ParsedEntry>) {
        let mut members: Vec<Member> = Vec::new();
        let mut entries = Vec::new();
        for &(pkg, rel, src) in sources {
            let member = members.iter().position(|m| m.name == pkg).unwrap_or_else(|| {
                let manifest_rel = format!("crates/{pkg}/Cargo.toml");
                members.push(Member {
                    name: pkg.to_string(),
                    dir: PathBuf::from(format!("crates/{pkg}")),
                    manifest: parse_manifest(
                        &format!("[package]\nname = \"{pkg}\"\n"),
                        &manifest_rel,
                    ),
                    manifest_rel,
                    files: Vec::new(),
                    is_root_package: false,
                });
                members.len() - 1
            });
            let path = PathBuf::from(rel);
            members[member].files.push(workspace::SourceFile {
                path,
                rel: rel.to_string(),
                kind: FileKind::LibSrc,
            });
            entries.push(ParsedEntry {
                member,
                kind: FileKind::LibSrc,
                file: ParsedFile::parse(src, rel),
            });
        }
        let ws = Workspace {
            root: PathBuf::from("."),
            root_manifest: parse_manifest("[workspace]\n", "Cargo.toml"),
            members,
        };
        (ws, entries)
    }

    /// Runs `check` over in-memory `sources` and returns its findings
    /// plus the allow-directive meta findings, unsorted.
    pub(crate) fn lint(
        sources: &[Source<'_>],
        check: impl FnOnce(&Analysis<'_>, &mut Findings<'_>),
    ) -> Vec<Finding> {
        let (ws, entries) = workspace(sources);
        let cx = Analysis::new(&ws, &entries);
        let mut out = Findings::new(&entries);
        check(&cx, &mut out);
        out.finish()
    }
}
