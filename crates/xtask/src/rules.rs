//! The rule catalogue, the findings collector, and the per-file rules.
//!
//! Rules are scoped by *package name*, not path, so the same engine
//! lints the real workspace and the fixture corpus identically:
//!
//! | rule | scope |
//! |------|-------|
//! | `no-hash-iteration`   | `sgp-engine`, `sgp-db`, `sgp-core`, `sgp-partition`, `sgp-fault`, `sgp-trace` — all targets incl. tests |
//! | `no-panic-in-lib`     | the above + `sgp-graph` — library sources only, test items skipped |
//! | `no-wallclock-in-sim` | the above + `sgp-graph` — all targets |
//! | `thread-discipline`   | the `no-panic-in-lib` crates — library sources, test items skipped; `sgp-partition`'s `src/exec.rs`/`src/exec/` is the single designated exemption |
//! | `atomic-ordering-policy` | the `no-panic-in-lib` crates — library sources, test items skipped, **no** exec exemption |
//! | `no-alloc-in-place-loop` | `sgp-partition` — library sources, `fn place` bodies only, test items skipped; **advisory** (warning, not error) |
//! | `crate-attr-policy`   | every member |
//! | `workspace-dep-hygiene` | every member manifest + the root manifest |
//!
//! Cross-file rules (`trace-key-registry`, `no-float-accounting`,
//! `schema-version-sync`, `send-bound-registry`) live in
//! [`crate::crossfile`], the call-graph and item-tree families in
//! [`crate::semantic`]. Every rule reports through one [`Findings`]
//! collector: [`Findings::emit`] for a finding anchored in a source
//! file, which an allow directive there may suppress, and
//! [`Findings::report`] for the ones no directive reaches — manifests,
//! the committed registries under `tests/goldens/`, and the rules whose
//! only audit trail is such a registry.
//!
//! The bench harness (`sgp-bench`) and binary targets are outside the
//! determinism scopes: wall-clock footers and CLI conveniences live
//! there by design.
//!
//! ## Matching is token-based
//!
//! Source rules walk the lexer's token stream ([`crate::lexer`]) with
//! the [`crate::cursor`] helpers, so a `HashMap` in a doc comment, a
//! `panic!` spelled inside a raw string, or an `unwrap` in an error
//! message can never fire. A method-call match (`.unwrap()`) follows the
//! receiver dot across line breaks; the finding lands on the line of the
//! method name itself.

use crate::cursor::{ident, is_call_position, is_macro_bang, is_method_call, qualified_by, spells};
use crate::manifest::Manifest;
use crate::report::{Finding, Severity};
use crate::scan::DirectiveScope;
use crate::workspace::{FileKind, Member, Workspace};
use crate::{Analysis, ParsedEntry};
use std::collections::BTreeSet;

/// One row of the rule catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// The id findings, directives, JSON and SARIF carry.
    pub id: &'static str,
    /// Severity of every finding of this rule.
    pub severity: Severity,
    /// One-line description for `sgp-xtask rules` and the SARIF catalogue.
    pub description: &'static str,
}

/// The rule table: one row per rule, which becomes both a named
/// constant (what rule code passes to [`Findings::emit`]) and an entry
/// of [`RULES`] (what `rules`, SARIF and directive validation read).
macro_rules! rule_table {
    ($($name:ident = $id:literal, $severity:ident, $description:literal;)*) => {
        $(
            #[doc = $description]
            pub const $name: Rule =
                Rule { id: $id, severity: Severity::$severity, description: $description };
        )*
        /// Every enforceable rule (the meta rules included, so
        /// directives can be validated against this list).
        pub const RULES: &[Rule] = &[$($name),*];
    };
}

rule_table! {
    NO_HASH_ITERATION = "no-hash-iteration", Error,
        "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet or sort \
         before iterating (determinism-scoped crates)";
    NO_PANIC_IN_LIB = "no-panic-in-lib", Error,
        "unwrap()/expect()/panic!/todo!/unimplemented!/dbg! in non-test library code must be \
         rewritten as Result or carry a justified allow directive; when the enclosing fn is \
         reachable from a public entry point of the determinism-scope crates the finding prints \
         the call path";
    CRATE_ATTR_POLICY = "crate-attr-policy", Error,
        "every crate root must carry #![forbid(unsafe_code)] and #![warn(missing_docs)]";
    NO_WALLCLOCK_IN_SIM = "no-wallclock-in-sim", Error,
        "std::time::Instant/SystemTime and thread_rng are forbidden in the deterministic \
         simulators; wall-clock belongs to the bench harness only";
    WORKSPACE_DEP_HYGIENE = "workspace-dep-hygiene", Error,
        "crate manifests must inherit dependencies (workspace = true, no inline versions) and \
         opt into [workspace.lints]; every [workspace.dependencies] entry is a path dependency";
    THREAD_DISCIPLINE = "thread-discipline", Error,
        "thread, channel and lock primitives (spawn/sync_channel/Mutex/mpsc/…) are confined \
         to the designated execution backend (sgp-partition src/exec.rs); everywhere else in \
         the determinism-scoped libraries they need a justified allow";
    ATOMIC_ORDERING_POLICY = "atomic-ordering-policy", Error,
        "atomic memory orderings must be spelled `Ordering::X` at the call site (no bare \
         imports), and any ordering stronger than Relaxed must carry an allow justifying the \
         acquire/release pairing it implements";
    SEND_BOUND_REGISTRY = "send-bound-registry", Error,
        "every channel constructor in the execution backend must pin its payload type with a \
         turbofish, and that type must be audited in tests/goldens/SEND_REGISTRY (guards \
         which types may cross the loader-thread boundary)";
    TRACE_KEY_REGISTRY = "trace-key-registry", Error,
        "every TraceSink span/counter/histogram key must be a sgp_trace::keys constant, and \
         every registry constant must be used somewhere (guards the byte-exact trace goldens)";
    NO_FLOAT_ACCOUNTING = "no-float-accounting", Error,
        "f32/f64 literals and casts are banned in the simulated-time and message-accounting \
         paths of sgp-db/sgp-engine; quantile/report rendering may use a scoped allow";
    SCHEMA_VERSION_SYNC = "schema-version-sync", Error,
        "schema-version constants (sgp-trace JSON, sgp-fault FaultPlan) must agree with the \
         single source of truth in tests/goldens/SCHEMA_VERSIONS";
    NO_ALLOC_IN_PLACE_LOOP = "no-alloc-in-place-loop", Warn,
        "advisory: Vec/String construction (vec!/Vec/String/to_vec/to_string/collect/to_owned) \
         inside a partitioner `fn place` body allocates once per streamed element — hoist a \
         scratch buffer into the partitioner struct (DESIGN.md §13) or justify with an allow";
    PANIC_REACHABILITY = "panic-reachability", Error,
        "unchecked indexing in any fn transitively reachable from a public entry point of the \
         determinism-scope crates is an error; the finding prints the call path, and the \
         bounds argument is audited per file in tests/goldens/PANIC_AUDIT (reachable \
         unwrap/expect/panic! sites are no-panic-in-lib findings)";
    ALGORITHM_SURFACE_EXHAUSTIVENESS = "algorithm-surface-exhaustiveness", Error,
        "every Algorithm enum variant must be explicitly handled on every algorithm surface \
         (streaming dispatch, snapshot round-trip, threaded-loader support, churn/elastic \
         suites) — matched, table-listed, or registered as a documented fallback in \
         tests/goldens/ALGORITHM_SURFACES; stale registry entries are errors";
    SPAN_GUARD_BALANCE = "span-guard-balance", Error,
        "every span_enter in a function body must be matched by a span_exit on the \
         fall-through path of the same body, or replaced by a let-bound guard_span guard \
         (guards the byte-exact trace goldens against orphaned spans)";
    BAD_ALLOW_DIRECTIVE = "bad-allow-directive", Error,
        "sgp-lint allow directives must name a known rule and justify it";
    STALE_ALLOW = "stale-allow", Error,
        "a line-scoped allow whose rule no longer fires on its attached span is dead and must \
         be deleted, so the allowlist cannot rot";
    UNUSED_ALLOW = "unused-allow", Warn,
        "allow-scope/allow-file directives that suppress nothing should be removed";
}

/// Crates whose library code must be panic-free, wall-clock-free and
/// free of ad-hoc threads, locks and unreviewed atomic orderings.
const LIB_SCOPE: &[&str] =
    &["sgp-graph", "sgp-engine", "sgp-db", "sgp-core", "sgp-partition", "sgp-fault", "sgp-trace"];
/// Crates whose hash-container use breaks replay determinism:
/// [`LIB_SCOPE`] without the graph substrate.
const HASH_SCOPE: &[&str] =
    &["sgp-engine", "sgp-db", "sgp-core", "sgp-partition", "sgp-fault", "sgp-trace"];

/// Is `rel` part of the designated threaded-execution backend — the one
/// module allowed to own thread/channel primitives? Shared with the
/// cross-file `send-bound-registry` rule, which only scans these files.
pub fn is_exec_backend(member: &Member, rel: &str) -> bool {
    member.name == "sgp-partition" && (rel.ends_with("src/exec.rs") || rel.contains("/src/exec/"))
}

// ---------------------------------------------------------------------------
// The findings collector
// ---------------------------------------------------------------------------

/// Collects the findings of one run and tracks which allow directive
/// suppressed what, so stale and unused ones can be reported once every
/// rule — per-file, cross-file and semantic — has run.
///
/// Attachment semantics, by directive form:
///
/// * `allow(rule)` — suppresses findings on the directive's own line or
///   the line immediately after it (trailing-comment and
///   line-above placements; nothing further).
/// * `allow-scope(rule)` — suppresses findings from the directive line
///   through the end of the next item.
/// * `allow-file(rule)` — suppresses findings anywhere in the file.
pub struct Findings<'a> {
    entries: &'a [ParsedEntry],
    /// Per entry, per directive: did it suppress anything?
    used: Vec<Vec<bool>>,
    /// `(rule, entry, line)` triples already emitted.
    seen: BTreeSet<(&'static str, usize, usize)>,
    out: Vec<Finding>,
}

impl<'a> Findings<'a> {
    /// An empty collector over the run's parsed files; no directive is
    /// used yet.
    pub fn new(entries: &'a [ParsedEntry]) -> Self {
        let used = entries.iter().map(|e| vec![false; e.file.directives.len()]).collect();
        Findings { entries, used, seen: BTreeSet::new(), out: Vec::new() }
    }

    /// Reports `rule` at `line` of source file `entry` — at most once
    /// per `(rule, line)`, and not at all when a well-formed directive
    /// in that file allows it there (the directive is then marked used).
    pub fn emit(&mut self, rule: &Rule, entry: usize, line: usize, message: impl Into<String>) {
        if self.seen.contains(&(rule.id, entry, line)) || self.allows(rule, entry, line) {
            return;
        }
        self.seen.insert((rule.id, entry, line));
        let entries = self.entries;
        self.report(rule, &entries[entry].file.rel, line, message);
    }

    /// Reports `rule` at `file:line` unconditionally: no directive can
    /// suppress it and repeats are kept. For manifests and registries
    /// (which carry no directives) and for the rules whose audit trail
    /// must live in one registry file.
    pub fn report(&mut self, rule: &Rule, file: &str, line: usize, message: impl Into<String>) {
        self.out.push(Finding::new(rule.id, rule.severity, file, line, message));
    }

    /// Records a file the linter could not read.
    pub fn io_error(&mut self, file: &str, err: &str) {
        self.out.push(Finding::io_error(file, err));
    }

    /// Is `(rule, line)` suppressed by a well-formed directive of file
    /// `entry`? Marks every applicable directive used. Malformed
    /// directives (unknown rule, missing justification) never suppress.
    fn allows(&mut self, rule: &Rule, entry: usize, line: usize) -> bool {
        let mut hit = false;
        for (i, d) in self.entries[entry].file.directives.iter().enumerate() {
            if d.rule != rule.id || d.justification.is_empty() {
                continue;
            }
            let applies = match d.scope {
                DirectiveScope::File => true,
                DirectiveScope::Scope { end_line } => d.line <= line && line <= end_line,
                DirectiveScope::Line => d.line == line || d.line + 1 == line,
            };
            if applies {
                self.used[entry][i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Adds the meta findings — `bad-allow-directive` for malformed
    /// directives, `stale-allow` (error) for line-scoped allows that
    /// suppressed nothing, `unused-allow` (warn) for scope/file allows
    /// that suppressed nothing — and returns everything collected.
    pub fn finish(mut self) -> Vec<Finding> {
        for (entry, used) in self.entries.iter().zip(std::mem::take(&mut self.used)) {
            let rel = &entry.file.rel;
            for (d, used) in entry.file.directives.iter().zip(used) {
                if !RULES.iter().any(|r| r.id == d.rule) {
                    let msg = format!(
                        "malformed sgp-lint directive (unknown or missing rule name): `{}`",
                        d.raw.trim()
                    );
                    self.report(&BAD_ALLOW_DIRECTIVE, rel, d.line, msg);
                } else if d.justification.is_empty() {
                    let msg = format!(
                        "allow({}) directive is missing its mandatory justification — write \
                         `// sgp-lint: allow({}): <why this is sound>`",
                        d.rule, d.rule
                    );
                    self.report(&BAD_ALLOW_DIRECTIVE, rel, d.line, msg);
                } else if used {
                    continue;
                } else if d.scope == DirectiveScope::Line {
                    let msg = format!(
                        "allow({}) is stale: the rule no longer fires on line {} or {} — the \
                         violation was fixed, so delete the directive",
                        d.rule,
                        d.line,
                        d.line + 1
                    );
                    self.report(&STALE_ALLOW, rel, d.line, msg);
                } else {
                    let msg = format!("allow({}) directive suppresses nothing; remove it", d.rule);
                    self.report(&UNUSED_ALLOW, rel, d.line, msg);
                }
            }
        }
        self.out
    }
}

// ---------------------------------------------------------------------------
// Source-file rules
// ---------------------------------------------------------------------------

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "dbg"];

/// Synchronisation-primitive type names that fire `thread-discipline`
/// wherever they appear (declaration, import or use — a lock type has
/// no business even being *named* outside the execution backend).
const THREAD_SYNC_TYPES: &[&str] =
    &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc", "crossbeam", "parking_lot"];
/// Function names that fire `thread-discipline` only in call position,
/// since they are common English words in other contexts.
const THREAD_SPAWN_CALLS: &[&str] = &["spawn", "channel", "sync_channel", "bounded", "unbounded"];
/// The atomic memory orderings policed by `atomic-ordering-policy`.
/// `std::cmp::Ordering` variants (Less/Equal/Greater) never collide.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Runs every source-level rule over file `ei` of the analysis.
pub fn check_source_file(cx: &Analysis<'_>, ei: usize, out: &mut Findings<'_>) {
    let entry = &cx.entries[ei];
    let member = &cx.ws.members[entry.member];
    let file = &entry.file;
    let in_lib_scope = LIB_SCOPE.contains(&member.name.as_str());
    let hash_applies = HASH_SCOPE.contains(&member.name.as_str());
    // The library-only rules: scoped crate, library source, and (per
    // token, below) not inside a test item.
    let lib_applies = in_lib_scope && entry.kind == FileKind::LibSrc;
    let thread_applies = lib_applies && !is_exec_backend(member, &file.rel);
    // Bodies of the partitioners' per-element `fn place` hot path. Only
    // the exact name counts; `place_hybrid_edges` and friends are
    // ordinary functions, and a bodiless trait declaration has no span.
    let place_bodies: Vec<(usize, usize)> =
        if member.name == "sgp-partition" && entry.kind == FileKind::LibSrc {
            let fns = cx.symbols.fns.iter().filter(|f| f.entry == ei && f.name == "place");
            fns.filter_map(|f| f.body).collect()
        } else {
            Vec::new()
        };

    let (src, tokens) = (file.source.as_str(), file.tokens.as_slice());
    for (i, t) in tokens.iter().enumerate() {
        let Some(text) = ident(src, tokens, i) else { continue };
        let line = t.line;

        if hash_applies && matches!(text, "HashMap" | "HashSet") {
            let msg = format!(
                "`{text}` has nondeterministic iteration order — use `BTreeMap`/`BTreeSet` or \
                 collect+sort (bit-for-bit reproduction scope)"
            );
            out.emit(&NO_HASH_ITERATION, ei, line, msg);
        }
        if in_lib_scope && matches!(text, "Instant" | "SystemTime" | "thread_rng") {
            let msg = format!(
                "`{text}` reads ambient machine state; deterministic simulators must take \
                 seeds/counters as inputs (wall-clock belongs to sgp-bench footers)"
            );
            out.emit(&NO_WALLCLOCK_IN_SIM, ei, line, msg);
        }
        if !lib_applies || file.is_test_line(line) {
            continue;
        }
        if thread_applies {
            let sync_type = THREAD_SYNC_TYPES.contains(&text);
            let spawn_call = THREAD_SPAWN_CALLS.contains(&text) && is_call_position(src, tokens, i);
            if sync_type || spawn_call {
                let what = if sync_type {
                    format!("synchronisation primitive `{text}`")
                } else {
                    format!("thread/channel constructor `{text}(…)`")
                };
                let msg = format!(
                    "{what} outside the designated execution backend — concurrency lives in \
                     sgp-partition src/exec.rs or carries a justified allow"
                );
                out.emit(&THREAD_DISCIPLINE, ei, line, msg);
            }
        }
        if ATOMIC_ORDERINGS.contains(&text) {
            if !qualified_by(src, tokens, i, "Ordering") {
                let msg = format!(
                    "bare atomic ordering `{text}` — write `Ordering::{text}` at the call site \
                     so every ordering decision is locally visible and grep-able"
                );
                out.emit(&ATOMIC_ORDERING_POLICY, ei, line, msg);
            } else if text != "Relaxed" {
                let msg = format!(
                    "`Ordering::{text}` is stronger than Relaxed — justify the acquire/release \
                     pairing it implements with an allow directive, or relax it"
                );
                out.emit(&ATOMIC_ORDERING_POLICY, ei, line, msg);
            }
        }
        if place_bodies.iter().any(|&(open, close)| open < i && i < close) {
            let method = matches!(text, "to_vec" | "to_string" | "collect" | "to_owned")
                && is_method_call(src, tokens, i);
            if method
                || matches!(text, "Vec" | "String")
                || (text == "vec" && is_macro_bang(src, tokens, i))
            {
                let what = if method { format!("`.{text}()`") } else { format!("`{text}`") };
                let msg = format!(
                    "{what} in a `fn place` body allocates once per streamed element — hoist a \
                     scratch buffer into the partitioner struct (DESIGN.md §13) or justify with \
                     an allow directive"
                );
                out.emit(&NO_ALLOC_IN_PLACE_LOOP, ei, line, msg);
            }
        }
        let method = PANIC_METHODS.contains(&text) && is_method_call(src, tokens, i);
        if method || (PANIC_MACROS.contains(&text) && is_macro_bang(src, tokens, i)) {
            let what = if method { format!("`.{text}()`") } else { format!("`{text}!`") };
            // A reachable site aborts a measurement instead of failing
            // it; say how it is reached.
            let reached = match crate::semantic::call_path_to(cx, ei, i) {
                Some(path) => format!("; reachable from a public entry point via {path}"),
                None => String::new(),
            };
            let msg = format!(
                "{what} can panic mid-experiment — return a `Result` (see sgp_core::SgpError) \
                 or justify with an allow directive{reached}"
            );
            out.emit(&NO_PANIC_IN_LIB, ei, line, msg);
        }
    }
}

/// The attributes every crate root must carry: (lint, accepted levels,
/// what the finding asks for).
const ROOT_ATTRS: &[(&str, &[&str], &str)] = &[
    (
        "unsafe_code",
        &["forbid"],
        "`#![forbid(unsafe_code)]` (`deny` can be re-allowed further down; `forbid` cannot)",
    ),
    ("missing_docs", &["warn", "deny"], "`#![warn(missing_docs)]` (or `deny`)"),
];

/// Checks the crate-root attribute policy for member `mi` by token
/// match on its already-parsed root, so an attribute mentioned in a
/// comment or string does not satisfy the policy.
pub fn check_crate_root_attrs(cx: &Analysis<'_>, mi: usize, out: &mut Findings<'_>) {
    let member = &cx.ws.members[mi];
    let root_of = |name: &str| member.files.iter().find(|f| f.rel.ends_with(name));
    let Some(root) = root_of("src/lib.rs").or_else(|| root_of("src/main.rs")) else {
        let manifest_dir = member.manifest_rel.trim_end_matches("Cargo.toml");
        out.report(
            &CRATE_ATTR_POLICY,
            &format!("{manifest_dir}src/lib.rs"),
            0,
            "crate has neither src/lib.rs nor src/main.rs to carry the policy attributes",
        );
        return;
    };
    // An unreadable root already has its io-error finding from pass 1.
    let Some(file) = cx.entries.iter().map(|e| &e.file).find(|f| f.rel == root.rel) else { return };
    let (src, toks) = (file.source.as_str(), file.tokens.as_slice());
    for (lint, levels, wanted) in ROOT_ATTRS {
        let present = (0..toks.len()).any(|i| {
            levels
                .iter()
                .any(|level| spells(src, toks, i, &["#", "!", "[", level, "(", lint, ")", "]"]))
        });
        if !present {
            out.report(&CRATE_ATTR_POLICY, &file.rel, 1, format!("crate root is missing {wanted}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest rules
// ---------------------------------------------------------------------------

const DEP_SECTIONS: &[&str] = &["dependencies", "dev-dependencies", "build-dependencies"];

/// Checks the root manifest: `[workspace.lints]` must exist so member
/// `[lints] workspace = true` tables have something to inherit, and
/// every `[workspace.dependencies]` entry must be a `path` dependency —
/// members can only inherit, so this is what keeps the workspace
/// buildable with no registry.
pub fn check_root_manifest(ws: &Workspace, out: &mut Findings<'_>) {
    let m = &ws.root_manifest;
    for e in m.section("workspace.dependencies").iter().flat_map(|s| &s.entries) {
        // `name = { path = ".." }` or the dotted `name.path = ".."`.
        if !(e.key.ends_with(".path") || e.value.contains("path")) {
            let msg = format!(
                "[workspace.dependencies] entry `{}` has no `path`: the workspace names no \
                 registry crates, so it builds and tests offline",
                e.key
            );
            out.report(&WORKSPACE_DEP_HYGIENE, &m.rel, e.line, msg);
        }
    }
    let has_lints = m
        .sections
        .iter()
        .any(|s| s.name == "workspace.lints" || s.name.starts_with("workspace.lints."));
    if !has_lints {
        out.report(
            &WORKSPACE_DEP_HYGIENE,
            &m.rel,
            0,
            "root manifest has no [workspace.lints] table for members to inherit",
        );
    }
}

/// Checks one member manifest: workspace-inherited deps, no inline
/// versions, and a `[lints] workspace = true` opt-in.
pub fn check_member_manifest(member: &Member, out: &mut Findings<'_>) {
    let m = &member.manifest;
    check_dep_sections(m, out);
    let lints_ok = m
        .section("lints")
        .map(|s| s.entries.iter().any(|e| e.key == "workspace" && e.value == "true"))
        .unwrap_or(false);
    if !lints_ok {
        out.report(
            &WORKSPACE_DEP_HYGIENE,
            &m.rel,
            0,
            "manifest must opt into the shared lint policy with `[lints]\\nworkspace = true`",
        );
    }
}

fn check_dep_sections(m: &Manifest, out: &mut Findings<'_>) {
    for section in &m.sections {
        if !DEP_SECTIONS.contains(&section.name.as_str()) {
            continue;
        }
        for entry in &section.entries {
            let inherited = entry.key.ends_with(".workspace")
                || entry.value.contains("workspace = true")
                || entry.value.contains("workspace=true");
            if inherited {
                if entry.value.contains("version") {
                    out.report(
                        &WORKSPACE_DEP_HYGIENE,
                        &m.rel,
                        entry.line,
                        format!(
                            "dependency `{}` mixes `workspace = true` with an inline version",
                            entry.key
                        ),
                    );
                }
                continue;
            }
            out.report(
                &WORKSPACE_DEP_HYGIENE,
                &m.rel,
                entry.line,
                format!(
                    "dependency `{}` must be workspace-inherited (`{}.workspace = true` with the \
                     version pinned once in [workspace.dependencies])",
                    entry.key, entry.key
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_tokens_as(pkg: &str, rel: &str, src: &str) -> Vec<(String, usize)> {
        crate::testkit::lint(&[(pkg, rel, src)], |cx, out| check_source_file(cx, 0, out))
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    fn lint_tokens(src: &str) -> Vec<(String, usize)> {
        lint_tokens_as("sgp-engine", "crates/x/src/lib.rs", src)
    }

    #[test]
    fn ident_in_string_or_comment_never_fires() {
        let found = lint_tokens(
            "//! mentions HashMap and panic! freely\nlet s = \"HashMap thread_rng\";\nlet r = r#\"Instant unwrap()\"#;\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn ident_respects_token_boundaries() {
        assert!(lint_tokens("type MyHashMapLike = ();").is_empty());
        assert_eq!(
            lint_tokens("use std::collections::HashMap;"),
            vec![("no-hash-iteration".into(), 1)]
        );
    }

    #[test]
    fn method_call_matcher_follows_line_breaks() {
        let found = lint_tokens("fn f() { x\n    .unwrap();\n}");
        assert_eq!(
            found,
            vec![("no-panic-in-lib".into(), 2)],
            "dot on the previous line still matches"
        );
        assert!(lint_tokens("fn f() { let x = y.unwrap_or(0); }").is_empty());
        assert!(lint_tokens("fn unwrap() {}").is_empty());
    }

    #[test]
    fn macro_matcher() {
        assert_eq!(lint_tokens("fn f() { panic!(\"boom\") }"), vec![("no-panic-in-lib".into(), 1)]);
        assert!(lint_tokens("fn f() { should_panic(expected) }").is_empty());
    }

    #[test]
    fn allow_on_same_line_and_line_above_both_attach() {
        // Trailing-comment placement: directive shares the finding line.
        let same = lint_tokens(
            "fn f() { x.unwrap(); } // sgp-lint: allow(no-panic-in-lib): bounded by caller\n",
        );
        assert!(same.is_empty(), "same-line allow suppresses: {same:?}");
        // Line-above placement: directive is on the preceding line.
        let above = lint_tokens(
            "// sgp-lint: allow(no-panic-in-lib): bounded by caller\nfn f() { x.unwrap(); }\n",
        );
        assert!(above.is_empty(), "line-above allow suppresses: {above:?}");
        // Two lines above does NOT attach: the finding fires and the
        // directive is stale.
        let far = lint_tokens(
            "// sgp-lint: allow(no-panic-in-lib): bounded by caller\n\nfn f() { x.unwrap(); }\n",
        );
        assert!(far.contains(&("no-panic-in-lib".into(), 3)), "{far:?}");
        assert!(far.contains(&("stale-allow".into(), 1)), "{far:?}");
    }

    #[test]
    fn allow_scope_suppresses_whole_item() {
        let found = lint_tokens(
            "// sgp-lint: allow-scope(no-panic-in-lib): rendering helper, panics acceptable\nfn render() {\n    a.unwrap();\n    b.expect(\"x\");\n}\nfn after() { c.unwrap(); }\n",
        );
        assert_eq!(
            found,
            vec![("no-panic-in-lib".into(), 6)],
            "only the item after the scope fires"
        );
    }

    #[test]
    fn stale_line_allow_is_an_error() {
        let found =
            lint_tokens("// sgp-lint: allow(no-panic-in-lib): was needed once\nlet x = 1;\n");
        assert_eq!(found, vec![("stale-allow".into(), 1)]);
    }

    #[test]
    fn unused_file_allow_is_a_warning() {
        let found = lint_tokens(
            "// sgp-lint: allow-file(no-hash-iteration): legacy exemption\nlet x = 1;\n",
        );
        assert_eq!(found, vec![("unused-allow".into(), 1)]);
    }

    #[test]
    fn thread_discipline_flags_sync_types_anywhere() {
        assert_eq!(
            lint_tokens("use std::sync::Mutex;"),
            vec![("thread-discipline".into(), 1)],
            "naming a lock type fires even in an import"
        );
        assert_eq!(
            lint_tokens("fn f() { let b = std::sync::Barrier::new(2); }"),
            vec![("thread-discipline".into(), 1)]
        );
    }

    #[test]
    fn thread_discipline_spawn_needs_call_position() {
        assert_eq!(
            lint_tokens("fn f() { std::thread::spawn(worker); }"),
            vec![("thread-discipline".into(), 1)]
        );
        // Turbofish constructor calls are call position too.
        for ctor in ["bounded", "sync_channel"] {
            assert_eq!(
                lint_tokens(&format!("fn f() {{ let (tx, rx) = {ctor}::<u32>(1); }}")),
                vec![("thread-discipline".into(), 1)]
            );
        }
        // Mere mentions are not: a local named `channel`, a spawn-ish
        // fn name, or `bounded` in prose/comment positions.
        assert!(lint_tokens("fn f() { let channel = 3; }").is_empty());
        assert!(lint_tokens("fn spawn_rate() -> u32 { 7 }").is_empty());
        assert!(lint_tokens("// retries are bounded by the diameter\nfn f() {}").is_empty());
    }

    #[test]
    fn thread_discipline_exempts_the_exec_backend() {
        let src = "fn f() { crossbeam::thread::scope(|s| { s.spawn(|_| {}); }).expect(\"x\"); }";
        let found = lint_tokens_as("sgp-partition", "crates/partition/src/exec.rs", src);
        assert!(
            found.iter().all(|(rule, _)| rule != "thread-discipline"),
            "exec.rs owns concurrency by design: {found:?}"
        );
        // The same tokens in any other partition file do fire.
        let found = lint_tokens_as("sgp-partition", "crates/partition/src/loaders.rs", src);
        assert!(found.iter().any(|(rule, _)| rule == "thread-discipline"), "{found:?}");
    }

    #[test]
    fn ordering_policy_requires_qualification() {
        assert_eq!(
            lint_tokens("fn f(x: &A) { x.0.fetch_add(1, Relaxed); }"),
            vec![("atomic-ordering-policy".into(), 1)],
            "bare ordering fires"
        );
        assert!(
            lint_tokens("fn f(x: &A) { x.0.fetch_add(1, Ordering::Relaxed); }").is_empty(),
            "qualified Relaxed is the blessed default"
        );
    }

    #[test]
    fn ordering_policy_gates_strong_orderings_behind_allows() {
        assert_eq!(
            lint_tokens("fn f(x: &A) { x.0.load(Ordering::SeqCst); }"),
            vec![("atomic-ordering-policy".into(), 1)]
        );
        let allowed = lint_tokens(
            "// sgp-lint: allow(atomic-ordering-policy): acquire pairs with the release in push\n\
             fn f(x: &A) { x.0.load(Ordering::Acquire); }\n",
        );
        assert!(allowed.is_empty(), "justified strong ordering passes: {allowed:?}");
        // std::cmp::Ordering variants never collide with the policy.
        assert!(lint_tokens("fn f() -> Ordering { Ordering::Less }").is_empty());
    }

    #[test]
    fn alloc_in_place_body_warns_in_partition_lib_only() {
        let src = "impl P for X {\n    fn place(&mut self, e: Edge) -> u32 {\n        let h: Vec<usize> = Vec::new();\n        h.len() as u32\n    }\n}\n";
        let found = lint_tokens_as("sgp-partition", "crates/partition/src/vertex_cut.rs", src);
        assert_eq!(found, vec![("no-alloc-in-place-loop".into(), 3)]);
        // Same tokens outside sgp-partition never fire.
        assert!(lint_tokens_as("sgp-engine", "crates/engine/src/lib.rs", src).is_empty());
    }

    #[test]
    fn alloc_rule_matches_macro_and_method_forms() {
        let mac = "fn place(&mut self) -> u32 { let v = vec![0; 4]; v[0] }\n";
        let found = lint_tokens_as("sgp-partition", "crates/partition/src/x.rs", mac);
        assert_eq!(found, vec![("no-alloc-in-place-loop".into(), 1)]);
        let method = "fn place(&mut self, xs: &[u32]) -> u32 {\n    xs.iter().map(|x| x + 1).collect::<Vec<_>>()[0]\n}\n";
        let found = lint_tokens_as("sgp-partition", "crates/partition/src/x.rs", method);
        assert_eq!(found, vec![("no-alloc-in-place-loop".into(), 2)]);
    }

    #[test]
    fn alloc_rule_skips_declarations_and_other_functions() {
        // A bodiless trait declaration has no span to flag.
        let decl = "trait P {\n    fn place(&mut self, e: Edge) -> u32;\n}\nfn helper() -> Vec<u32> { Vec::new() }\n";
        assert!(lint_tokens_as("sgp-partition", "crates/partition/src/x.rs", decl).is_empty());
        // `place_hybrid_edges` is not the hot-path method.
        let other = "fn place_hybrid_edges() -> Vec<u32> { Vec::new() }\n";
        assert!(lint_tokens_as("sgp-partition", "crates/partition/src/x.rs", other).is_empty());
    }

    #[test]
    fn alloc_rule_respects_allow_directives() {
        let src = "fn place(&mut self) -> u32 {\n    // sgp-lint: allow(no-alloc-in-place-loop): cold fallback path, hit once per graph\n    let v: Vec<u32> = Vec::new();\n    v.len() as u32\n}\n";
        let found = lint_tokens_as("sgp-partition", "crates/partition/src/x.rs", src);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn reachable_panic_sites_print_their_call_path() {
        let src = "pub fn entry(v: Option<u32>) -> u32 { helper(v) }\nfn helper(v: Option<u32>) -> u32 { v.unwrap() }\nfn orphan(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let found =
            crate::testkit::lint(&[("sgp-engine", "crates/x/src/lib.rs", src)], |cx, out| {
                check_source_file(cx, 0, out)
            });
        let msg = |line| &found.iter().find(|f| f.line == line).expect("finding").message;
        assert!(msg(2).contains("via sgp-engine::entry -> sgp-engine::helper"), "{}", msg(2));
        assert!(!msg(3).contains("reachable"), "{}", msg(3));
        // sgp-core is panic-scoped but outside the reachability scope.
        let found = crate::testkit::lint(&[("sgp-core", "crates/x/src/lib.rs", src)], |cx, out| {
            check_source_file(cx, 0, out)
        });
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|f| !f.message.contains("reachable")));
    }

    #[test]
    fn crate_root_policy_requires_forbid_and_reads_tokens_not_text() {
        let lint_root = |src: &str| {
            crate::testkit::lint(&[("sgp-util", "crates/x/src/lib.rs", src)], |cx, out| {
                check_crate_root_attrs(cx, 0, out)
            })
            .len()
        };
        assert_eq!(lint_root("#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n"), 0);
        assert_eq!(lint_root("#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n"), 0);
        assert_eq!(
            lint_root("#![deny(unsafe_code)]\n#![warn(missing_docs)]\n"),
            1,
            "deny can be locally re-allowed, so it no longer satisfies the policy"
        );
        assert_eq!(
            lint_root("// #![forbid(unsafe_code)]\nconst S: &str = \"#![warn(missing_docs)]\";\n"),
            2,
            "a comment or a string is not an attribute"
        );
    }

    #[test]
    fn rule_table_is_consistent() {
        for (i, rule) in RULES.iter().enumerate() {
            assert!(!rule.description.trim().is_empty(), "{} lacks a description", rule.id);
            assert!(RULES[..i].iter().all(|r| r.id != rule.id), "{} is listed twice", rule.id);
        }
        assert!(RULES.iter().all(|r| r.id != "no-unsafe"), "retired with the workspace forbid");
    }
}
