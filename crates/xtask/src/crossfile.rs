//! Cross-file semantic rules.
//!
//! These rules need the whole workspace parsed before they can run —
//! they correlate declarations in one crate with uses in another:
//!
//! * [`trace-key-registry`](crate::rules::TRACE_KEY_REGISTRY) — every
//!   key passed to a `TraceSink` method (`span_enter`, `span_exit`,
//!   `counter_add`, `histogram_record`) in the instrumented crates must
//!   be a constant from the canonical `sgp_trace::keys` module, and
//!   every constant in that module must be referenced somewhere. This
//!   pins the trace schema: a renamed or orphaned key would silently
//!   drift the byte-exact trace goldens.
//! * [`no-float-accounting`](crate::rules::NO_FLOAT_ACCOUNTING) — the
//!   simulated-time and message-accounting paths (`sgp-db` simulators,
//!   `sgp-engine` wire/placement accounting) must stay integral: float
//!   literals and `as f32`/`as f64` casts are findings. Real-valued
//!   *algorithm* state (PageRank ranks, the analytic cost model) is out
//!   of scope by design; quantile/report rendering inside scoped files
//!   carries `allow-scope` directives.
//! * [`schema-version-sync`](crate::rules::SCHEMA_VERSION_SYNC) — the
//!   schema-version constants in `sgp-trace` (JSON trace documents) and
//!   `sgp-fault` (FaultPlan) must agree with the single source of truth
//!   committed at `tests/goldens/SCHEMA_VERSIONS`.
//! * [`send-bound-registry`](crate::rules::SEND_BOUND_REGISTRY) — the
//!   threaded execution backend (`sgp-partition` `src/exec.rs`) ships
//!   values across threads, so every channel constructor there must pin
//!   its payload type with a turbofish (`sync_channel::<VertexWork>(1)`),
//!   and each payload type must be audited in
//!   `tests/goldens/SEND_REGISTRY` (one line per type, with the
//!   justification that it is plain owned data). Stale registry entries
//!   are errors.
//!
//! The first three report through [`Findings::emit`], so allow
//! directives and their `stale-allow`/`unused-allow` bookkeeping cover
//! them like the per-file rules. The registry-backed rule deliberately
//! bypasses allow directives ([`Findings::report`]): its audit trail
//! must live in exactly one reviewable file.

use crate::ast::{Item, ItemKind};
use crate::cursor::{
    first_arg, ident, ident_is, is_method_call, next, path_tail, punct, punct_is, str_content,
    turbofish_after,
};
use crate::lexer::TokenKind;
use crate::rules::{
    Findings, Rule, NO_FLOAT_ACCOUNTING, SCHEMA_VERSION_SYNC, SEND_BOUND_REGISTRY,
    TRACE_KEY_REGISTRY,
};
use crate::scan::ParsedFile;
use crate::workspace::{FileKind, Workspace};
use crate::Analysis;
use std::collections::{BTreeMap, BTreeSet};

/// The `TraceSink`/`SpanGuardExt` methods whose first argument is a
/// trace key.
const SINK_METHODS: &[&str] =
    &["span_enter", "span_exit", "counter_add", "histogram_record", "guard_span"];

/// Crates whose library code emits trace events (the registry's crate,
/// `sgp-trace`, is exempt: its sink impls forward caller-supplied
/// names). The span-balance rule checks the same crates' fn bodies.
pub(crate) const SINK_SCOPE: &[&str] = &["sgp-partition", "sgp-engine", "sgp-db", "sgp-core"];

/// Files whose accounting must stay integral: (package, path suffix).
/// `engine.rs`/`cost.rs` hold the paper's real-valued analytic cost
/// model and are deliberately outside this list.
const FLOAT_SCOPE: &[(&str, &str)] = &[
    ("sgp-db", "src/sim.rs"),
    ("sgp-db", "src/fault_sim.rs"),
    ("sgp-engine", "src/wire.rs"),
    ("sgp-engine", "src/placement.rs"),
    ("sgp-partition", "src/migration.rs"),
];

/// Workspace-relative path of the schema-version source of truth.
pub const SCHEMA_VERSIONS_REL: &str = "tests/goldens/SCHEMA_VERSIONS";
/// Workspace-relative path of the channel-payload Send audit registry.
pub const SEND_REGISTRY_REL: &str = "tests/goldens/SEND_REGISTRY";

/// (manifest key, package, constant name) for each pinned schema.
const SCHEMA_SPECS: &[(&str, &str, &str)] = &[
    ("trace", "sgp-trace", "SCHEMA_VERSION"),
    ("fault-plan", "sgp-fault", "FAULT_PLAN_SCHEMA_VERSION"),
    ("send-registry", "sgp-partition", "SEND_REGISTRY_SCHEMA_VERSION"),
    ("snapshot", "sgp-partition", "SNAPSHOT_SCHEMA_VERSION"),
    ("algorithm-surfaces", "sgp-partition", "ALGORITHM_SURFACES_SCHEMA_VERSION"),
];

/// Runs every cross-file rule.
pub fn check_all(cx: &Analysis<'_>, out: &mut Findings<'_>) {
    check_trace_key_registry(cx, out);
    check_float_accounting(cx, out);
    check_schema_version_sync(cx, out);
    check_send_bound_registry(cx, out);
}

/// Every `const` item of `file`, at any module depth, whose
/// declaration holds a literal of the wanted kind: `(name, line, index
/// of the first such literal after the name)`, in source order.
fn const_literals(file: &ParsedFile, wanted: fn(TokenKind) -> bool) -> Vec<(&str, usize, usize)> {
    let (src, toks) = (file.source.as_str(), file.tokens.as_slice());
    let mut out = Vec::new();
    let mut pending: Vec<&Item> = file.items.iter().rev().collect();
    while let Some(item) = pending.pop() {
        pending.extend(item.children.iter().rev());
        if let (ItemKind::Const, Some(name)) = (item.kind, &item.name) {
            // Start at the name so attribute arguments never count.
            let literal = (item.span.0..item.span.1)
                .find(|&i| ident_is(src, toks, Some(i), name))
                .and_then(|at| (at..item.span.1).find(|&i| wanted(toks[i].kind)));
            out.extend(literal.map(|l| (name.as_str(), item.line, l)));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// trace-key-registry
// ---------------------------------------------------------------------------

fn check_trace_key_registry(cx: &Analysis<'_>, out: &mut Findings<'_>) {
    // Locate the canonical registry module and its string constants.
    let registry_idx = cx.entries.iter().position(|e| {
        cx.ws.members[e.member].name == "sgp-trace" && e.file.rel.ends_with("src/keys.rs")
    });
    let registry = registry_idx.map_or_else(Vec::new, |i| {
        const_literals(&cx.entries[i].file, |k| matches!(k, TokenKind::Str { .. }))
    });
    let registry_names: BTreeSet<&str> = registry.iter().map(|&(n, _, _)| n).collect();

    // Pass over every sink call site in the instrumented crates.
    for (ei, e) in cx.entries.iter().enumerate() {
        let member = &cx.ws.members[e.member];
        if !SINK_SCOPE.contains(&member.name.as_str()) || e.kind != FileKind::LibSrc {
            continue;
        }
        let (src, toks) = (e.file.source.as_str(), e.file.tokens.as_slice());
        for i in 0..toks.len() {
            let is_sink_call = ident(src, toks, i).is_some_and(|t| SINK_METHODS.contains(&t))
                && !e.file.is_test_line(toks[i].line)
                && is_method_call(src, toks, i);
            if !is_sink_call {
                continue;
            }
            let Some(arg) = first_arg(src, toks, i) else { continue };
            match toks[arg].kind {
                TokenKind::Str { .. } => {
                    let msg = format!(
                        "hardcoded trace key {} — declare it in sgp_trace::keys and pass the \
                         constant, so the goldens-pinned schema has one source of truth",
                        toks[arg].text(src)
                    );
                    out.emit(&TRACE_KEY_REGISTRY, ei, toks[arg].line, msg);
                }
                TokenKind::Ident => {
                    // Resolve a path like `keys::PARTITION_RUN` to its
                    // final segment.
                    let last = path_tail(src, toks, arg);
                    let name = toks[last].text(src);
                    if registry_idx.is_some() && !registry_names.contains(name) {
                        let msg = format!(
                            "trace key argument `{name}` does not name a sgp_trace::keys \
                             constant — route every key through the registry"
                        );
                        out.emit(&TRACE_KEY_REGISTRY, ei, toks[last].line, msg);
                    }
                }
                _ => {}
            }
        }
    }

    // Every registry constant must be referenced somewhere outside the
    // registry module itself (call sites, re-exports, or tests).
    let Some(ri) = registry_idx else { return };
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for (ei, e) in cx.entries.iter().enumerate() {
        if ei == ri {
            continue;
        }
        let (src, toks) = (e.file.source.as_str(), e.file.tokens.as_slice());
        used.extend((0..toks.len()).filter_map(|i| registry_names.get(ident(src, toks, i)?)));
    }
    let keys = &cx.entries[ri].file;
    for &(name, line, value) in &registry {
        if !used.contains(name) {
            let msg = format!(
                "registry key `{name}` (\"{}\") is never referenced by any crate — delete it or \
                 wire up the instrumentation it promises",
                str_content(&keys.source, &keys.tokens, value)
            );
            out.emit(&TRACE_KEY_REGISTRY, ri, line, msg);
        }
    }
}

// ---------------------------------------------------------------------------
// no-float-accounting
// ---------------------------------------------------------------------------

fn check_float_accounting(cx: &Analysis<'_>, out: &mut Findings<'_>) {
    for (ei, e) in cx.entries.iter().enumerate() {
        let member = &cx.ws.members[e.member];
        let scoped = FLOAT_SCOPE
            .iter()
            .any(|(pkg, suffix)| member.name == *pkg && e.file.rel.ends_with(suffix));
        if !scoped {
            continue;
        }
        let (src, toks) = (e.file.source.as_str(), e.file.tokens.as_slice());
        for (i, t) in toks.iter().enumerate() {
            let is_float_literal = matches!(t.kind, TokenKind::Number { float: true });
            let is_float_cast = ident_is(src, toks, Some(i), "as")
                && next(toks, i)
                    .is_some_and(|n| matches!(ident(src, toks, n), Some("f32") | Some("f64")));
            if (!is_float_literal && !is_float_cast) || e.file.is_test_line(t.line) {
                continue;
            }
            let what = if is_float_cast { "an `as f32`/`as f64` cast" } else { "a float literal" };
            let msg = format!(
                "{what} in a simulated-time/message-accounting path — accounting must stay \
                 integral (ticks, ns, bytes); quantile/report rendering belongs under a scoped \
                 allow"
            );
            out.emit(&NO_FLOAT_ACCOUNTING, ei, t.line, msg);
        }
    }
}

// ---------------------------------------------------------------------------
// schema-version-sync
// ---------------------------------------------------------------------------

fn check_schema_version_sync(cx: &Analysis<'_>, out: &mut Findings<'_>) {
    let Ok(text) = std::fs::read_to_string(cx.ws.root.join(SCHEMA_VERSIONS_REL)) else {
        // Workspaces without a goldens manifest (e.g. ad-hoc fixture
        // trees) simply don't pin schema versions.
        return;
    };
    let mut pinned: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = line
            .split_once('=')
            .and_then(|(k, v)| v.trim().parse::<u64>().ok().map(|v| (k.trim(), v)));
        match parsed {
            Some((key, value)) if SCHEMA_SPECS.iter().any(|(k, _, _)| *k == key) => {
                pinned.insert(key, (value, idx + 1));
            }
            _ => out.report(
                &SCHEMA_VERSION_SYNC,
                SCHEMA_VERSIONS_REL,
                idx + 1,
                format!("unrecognised schema pin `{line}` — expected `<name>=<integer>` with a known name"),
            ),
        }
    }

    for (key, pkg, const_name) in SCHEMA_SPECS {
        // The first library file of the package declaring the constant
        // with an integer value: (entry, value, line).
        let found = cx.entries.iter().enumerate().find_map(|(ei, e)| {
            if cx.ws.members[e.member].name != *pkg || e.kind != FileKind::LibSrc {
                return None;
            }
            let ints = const_literals(&e.file, |k| matches!(k, TokenKind::Number { float: false }));
            let &(_, line, at) = ints.iter().find(|(name, _, _)| name == const_name)?;
            let digits: String = e.file.tokens[at]
                .text(&e.file.source)
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            Some((ei, digits.parse::<u64>().ok()?, line))
        });
        match (found, pinned.get(key)) {
            (Some((ei, value, line)), Some(&(want, _))) if value != want => {
                let msg = format!(
                    "`{const_name}` is {value} but {SCHEMA_VERSIONS_REL} pins `{key}={want}` — bump \
                     the pin and re-bless the goldens in the same change, or revert the constant"
                );
                out.emit(&SCHEMA_VERSION_SYNC, ei, line, msg);
            }
            (Some((ei, value, _)), None) => {
                let rel = &cx.entries[ei].file.rel;
                let msg = format!(
                    "missing pin `{key}={value}` for `{pkg}::{const_name}` (declared in {rel})"
                );
                out.report(&SCHEMA_VERSION_SYNC, SCHEMA_VERSIONS_REL, 0, msg);
            }
            // A pin exists but the constant is gone: only meaningful
            // when the crate itself is present in this workspace.
            (None, Some(&(want, mline))) if cx.ws.members.iter().any(|m| m.name == *pkg) => {
                let msg =
                    format!("pin `{key}={want}` has no matching `{const_name}` constant in {pkg}");
                out.report(&SCHEMA_VERSION_SYNC, SCHEMA_VERSIONS_REL, mline, msg);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Registry files (send-bound-registry, PANIC_AUDIT, ALGORITHM_SURFACES)
// ---------------------------------------------------------------------------

/// Parses a `<key> = <justification>` registry file at `rel` under the
/// workspace root. `#` comments and blank lines are skipped; malformed
/// entries (no `=`, empty key or empty justification) become findings
/// under `rule`. A missing file is an empty registry, not an error.
pub(crate) fn parse_registry(
    ws: &Workspace,
    rel: &str,
    rule: &Rule,
    out: &mut Findings<'_>,
) -> Vec<(String, usize)> {
    let Ok(text) = std::fs::read_to_string(ws.root.join(rel)) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once('=') {
            Some((key, just)) if !key.trim().is_empty() && !just.trim().is_empty() => {
                entries.push((key.trim().to_string(), idx + 1));
            }
            _ => out.report(
                rule,
                rel,
                idx + 1,
                format!(
                    "malformed registry entry `{line}` — expected `<key> = <justification>` with \
                     both sides non-empty"
                ),
            ),
        }
    }
    entries
}

// ---------------------------------------------------------------------------
// send-bound-registry
// ---------------------------------------------------------------------------

/// Channel constructors whose payload type crosses a thread boundary.
const CHANNEL_CTORS: &[&str] = &["channel", "sync_channel", "bounded", "unbounded"];

/// Type names that never need a registry entry: std building blocks
/// whose Send-ness is the compiler's problem, plus path/qualifier
/// segments. The registry audits the *workspace* payload types.
const SEND_EXEMPT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "str", "String", "Vec", "VecDeque", "Option", "Box", "Arc", "Result",
];

fn check_send_bound_registry(cx: &Analysis<'_>, out: &mut Findings<'_>) {
    let registry = parse_registry(cx.ws, SEND_REGISTRY_REL, &SEND_BOUND_REGISTRY, out);
    let mut used = vec![false; registry.len()];
    let mut any_designated = false;

    for e in cx.entries {
        if !crate::rules::is_exec_backend(&cx.ws.members[e.member], &e.file.rel) {
            continue;
        }
        any_designated = true;
        let (src, toks) = (e.file.source.as_str(), e.file.tokens.as_slice());
        for (i, t) in toks.iter().enumerate() {
            let Some(ctor) = ident(src, toks, i).filter(|c| CHANNEL_CTORS.contains(c)) else {
                continue;
            };
            if e.file.is_test_line(t.line) {
                continue;
            }
            // `name(…)` with no turbofish: the payload type is inferred,
            // so the registry has nothing to audit — reject.
            if punct_is(src, toks, next(toks, i), '(') {
                let msg = format!(
                    "channel constructor `{ctor}(…)` without an explicit payload turbofish — \
                     write `{ctor}::<T>(…)` so {SEND_REGISTRY_REL} can audit `T`"
                );
                out.report(&SEND_BOUND_REGISTRY, &e.file.rel, t.line, msg);
                continue;
            }
            // `name::<…>(…)`: audit every workspace type named in the
            // turbofish. `name::ident` (a path segment, e.g. the
            // `mpsc` in `mpsc::sync_channel`) is skipped —
            // the final constructor segment gets checked on its own.
            let Some(lt) = turbofish_after(src, toks, i) else { continue };
            let mut depth = 1usize;
            let mut at = lt;
            while let Some(k) = next(toks, at) {
                at = k;
                match punct(src, toks, k) {
                    Some('<') => depth += 1,
                    Some('>') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                // A segment followed by `::` is a path qualifier, not
                // the payload type itself.
                let Some(name) = ident(src, toks, k)
                    .filter(|n| !SEND_EXEMPT_TYPES.contains(n))
                    .filter(|_| !punct_is(src, toks, next(toks, k), ':'))
                else {
                    continue;
                };
                let mut registered = false;
                for (ri, (key, _)) in registry.iter().enumerate() {
                    if key == name {
                        used[ri] = true;
                        registered = true;
                    }
                }
                if !registered {
                    let msg = format!(
                        "channel payload type `{name}` is not audited in {SEND_REGISTRY_REL} — \
                         verify it is plain owned data (no Rc/RefCell/raw pointers) and register it"
                    );
                    out.report(&SEND_BOUND_REGISTRY, &e.file.rel, toks[k].line, msg);
                }
            }
        }
    }

    // Stale entries only mean something where designated files exist at
    // all (fixture trees without an exec backend pin nothing).
    if any_designated {
        for (i, (key, line)) in registry.iter().enumerate() {
            if !used[i] {
                let msg = format!(
                    "stale Send-registry entry `{key}` — no channel in the execution backend \
                     carries that payload any more; delete the entry"
                );
                out.report(&SEND_BOUND_REGISTRY, SEND_REGISTRY_REL, *line, msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::lint;

    #[test]
    fn trace_keys_are_read_off_const_items() {
        let keys = "/// Run span.\n#[doc = \"not the value\"]\npub const RUN: &str = \"partition.run\";\npub mod nested {\n    pub const ORPHAN: &str = \"x.orphan\";\n}\npub const COUNT: usize = 2;\n";
        let user = "fn f(s: &mut S) { s.span_enter(keys::RUN, 0, 0); s.span_exit(keys::RUN, 0, 1); s.counter_add(\"adhoc\", 0, 1); }\n";
        let found = lint(
            &[
                ("sgp-trace", "crates/trace/src/keys.rs", keys),
                ("sgp-db", "crates/db/src/x.rs", user),
            ],
            check_trace_key_registry,
        );
        let got: Vec<_> = found.iter().map(|f| (f.file.as_str(), f.line)).collect();
        assert_eq!(got, [("crates/db/src/x.rs", 1), ("crates/trace/src/keys.rs", 5)]);
        assert!(found[1].message.contains("`ORPHAN` (\"x.orphan\")"), "{}", found[1].message);
    }

    #[test]
    fn float_accounting_flags_casts_and_literals_once_per_line() {
        let src = "fn f(n: u64) -> u64 { (n as f64 * 0.5) as u64 }\n#[cfg(test)]\nmod tests { fn t() { let _ = 1.5; } }\n";
        let found = lint(&[("sgp-db", "crates/db/src/sim.rs", src)], check_float_accounting);
        let got: Vec<_> = found.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        assert_eq!(got, [("no-float-accounting", 1)]);
    }
}
