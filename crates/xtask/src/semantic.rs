//! The semantic rule families: panic-reachability over the call graph,
//! algorithm-surface exhaustiveness over the parsed `Algorithm` enum,
//! and span-guard balance over fn bodies.
//!
//! All three read the item trees through [`crate::symbols::SymbolTable`]
//! and the conservative [`crate::callgraph::CallGraph`]; their
//! soundness notes live in DESIGN.md §6.

use crate::crossfile::{parse_registry, SINK_SCOPE};
use crate::cursor::{
    first_arg, ident, ident_is, is_call_position, is_method_call, path_tail, prev, punct,
    qualified_by, str_content,
};
use crate::lexer::{self, Token, TokenKind};
use crate::parser::{self, is_keyword};
use crate::rules::{
    Findings, ALGORITHM_SURFACE_EXHAUSTIVENESS, PANIC_REACHABILITY, SPAN_GUARD_BALANCE,
};
use crate::symbols::SymbolTable;
use crate::workspace::{FileKind, Workspace};
use crate::{Analysis, ParsedEntry};
use std::collections::{BTreeMap, BTreeSet};

/// Workspace-relative path of the indexing audit registry for the
/// panic-reachability rule (keys are workspace-relative file paths).
pub const PANIC_AUDIT_REL: &str = "tests/goldens/PANIC_AUDIT";
/// Workspace-relative path of the algorithm-surface fallback registry
/// (keys are `<surface>/<Variant>`).
pub const ALGORITHM_SURFACES_REL: &str = "tests/goldens/ALGORITHM_SURFACES";

/// Crates whose public entry points seed the reachability BFS. This is
/// the determinism scope of the measurement pipeline; `sgp-core`
/// orchestrates runs (its panics abort a run loudly rather than corrupt
/// a measurement) and is deliberately outside it.
const REACH_SCOPE: &[&str] =
    &["sgp-partition", "sgp-engine", "sgp-db", "sgp-graph", "sgp-fault", "sgp-trace"];

/// Runs the three semantic rule families.
pub fn check_all(cx: &Analysis<'_>, out: &mut Findings<'_>) {
    check_panic_reachability(cx, out);
    check_algorithm_surfaces(cx, out);
    check_span_guard_balance(cx, out);
}

/// The reach-scope public entry points, in deterministic table order.
pub fn entry_points(ws: &Workspace, entries: &[ParsedEntry], symbols: &SymbolTable) -> Vec<usize> {
    symbols
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.is_entry_point()
                && entries[f.entry].kind == FileKind::LibSrc
                && REACH_SCOPE.contains(&ws.members[f.member].name.as_str())
        })
        .map(|(i, _)| i)
        .collect()
}

/// Is `rel` an input to the cross-file exhaustiveness rule? The `--diff`
/// fast path keeps whole-workspace exhaustiveness findings whenever any
/// of these changed: a surface file, the enum-declaring registry module,
/// or the fallback registry itself.
pub fn is_exhaustiveness_input(rel: &str) -> bool {
    rel == ALGORITHM_SURFACES_REL
        || rel.ends_with("src/registry.rs")
        || SURFACES.iter().any(|s| s.suffixes.iter().any(|suf| rel.ends_with(suf)))
}

// ---------------------------------------------------------------------------
// panic-reachability
// ---------------------------------------------------------------------------

/// Would a panic in fn `fi` abort a measurement? True for non-test
/// library code of a reach-scope crate that some public entry point
/// reaches.
fn is_measured(cx: &Analysis<'_>, fi: usize) -> bool {
    let f = &cx.symbols.fns[fi];
    cx.reach.reaches(fi)
        && cx.entries[f.entry].kind == FileKind::LibSrc
        && !f.is_test
        && REACH_SCOPE.contains(&cx.ws.members[f.member].name.as_str())
}

/// The `a -> b -> c` call path from a public entry point down to `fi`.
fn call_path(cx: &Analysis<'_>, fi: usize) -> String {
    let path: Vec<&str> =
        cx.reach.path_to(fi).into_iter().map(|i| cx.symbols.fns[i].qual.as_str()).collect();
    path.join(" -> ")
}

/// The call path to the fn whose body holds token `tok` of file
/// `entry`, when that fn [is measured](is_measured) — what
/// `no-panic-in-lib` appends to a reachable site.
pub fn call_path_to(cx: &Analysis<'_>, entry: usize, tok: usize) -> Option<String> {
    let fi = cx.symbols.enclosing_fn(entry, tok)?;
    is_measured(cx, fi).then(|| call_path(cx, fi))
}

/// Reachable unchecked indexing. The other panicking constructs
/// (`unwrap`, `expect`, `panic!`, …) are `no-panic-in-lib` findings
/// wherever they appear in these crates, reachable or not, so this rule
/// keeps only the class nothing else detects.
fn check_panic_reachability(cx: &Analysis<'_>, out: &mut Findings<'_>) {
    if cx.reach.roots.is_empty() {
        return;
    }

    // The indexing audit: `<workspace-relative file> = <justification>`.
    let registry = parse_registry(cx.ws, PANIC_AUDIT_REL, &PANIC_REACHABILITY, out);
    let known_rels: BTreeSet<&str> = cx.entries.iter().map(|e| e.file.rel.as_str()).collect();
    let mut registry_used = vec![false; registry.len()];
    for (idx, (key, line)) in registry.iter().enumerate() {
        if !known_rels.contains(key.as_str()) {
            registry_used[idx] = true; // don't double-report as stale
            let msg = format!("registry entry `{key}` does not name a workspace source file");
            out.report(&PANIC_REACHABILITY, PANIC_AUDIT_REL, *line, msg);
        }
    }

    for (fi, f) in cx.symbols.fns.iter().enumerate() {
        let Some((open, close)) = f.body.filter(|_| is_measured(cx, fi)) else { continue };
        let file = &cx.entries[f.entry].file;
        let (src, toks) = (file.source.as_str(), file.tokens.as_slice());
        for i in open + 1..close {
            if !is_indexing(src, toks, i) || file.is_test_line(toks[i].line) {
                continue;
            }
            if let Some(idx) = registry.iter().position(|(key, _)| key == &file.rel) {
                registry_used[idx] = true;
                continue;
            }
            let path = call_path(cx, fi);
            let msg = format!(
                "unchecked indexing (`[…]`) is reachable from a public entry point via {path} — a \
                 panic here aborts a measurement instead of failing it; use .get()/.get_mut() \
                 with a typed error, or audit the file in {PANIC_AUDIT_REL} (`{} = <why every \
                 index is in bounds>`)",
                file.rel
            );
            out.emit(&PANIC_REACHABILITY, f.entry, toks[i].line, msg);
        }
    }

    // Stale audit entries: the named file no longer has any audited
    // indexing in reachable code, so the entry must go.
    for (idx, (key, line)) in registry.iter().enumerate() {
        if !registry_used[idx] {
            let msg = format!(
                "stale audit entry `{key}` — no reachable indexing site in that file needs it any \
                 more; delete the entry so the audit cannot rot"
            );
            out.report(&PANIC_REACHABILITY, PANIC_AUDIT_REL, *line, msg);
        }
    }
}

/// Is token `i` the `[` of an indexing expression `expr[…]` — one that
/// directly follows a value (identifier, `)` or `]`)? Attributes
/// (`#[`), macro brackets (`vec![`), slice types (`&[u8]`) and array
/// literals (`= [1, 2]`) all follow something else.
fn is_indexing(src: &str, toks: &[Token], i: usize) -> bool {
    punct(src, toks, i) == Some('[')
        && prev(toks, i).is_some_and(|p| match toks[p].kind {
            TokenKind::Ident => {
                let w = toks[p].text(src);
                w == "self" || !is_keyword(w)
            }
            _ => matches!(punct(src, toks, p), Some(')') | Some(']')),
        })
}

// ---------------------------------------------------------------------------
// algorithm-surface-exhaustiveness
// ---------------------------------------------------------------------------

/// One algorithm surface: where in the workspace every `Algorithm`
/// variant must be accounted for.
struct SurfaceSpec {
    /// Registry key prefix (`<key>/<Variant>`).
    key: &'static str,
    /// Human description for findings.
    what: &'static str,
    /// Package owning the surface files.
    pkg: &'static str,
    /// File-path suffixes (workspace-relative) belonging to the surface.
    suffixes: &'static [&'static str],
    /// Scan test items and test targets too?
    include_tests: bool,
    /// Additionally scan the bodies of these fns in the enum-declaring
    /// file (support predicates and suite tables live there).
    fn_filter: &'static [&'static str],
}

const SURFACES: &[SurfaceSpec] = &[
    SurfaceSpec {
        key: "stream-dispatch",
        what: "the one algorithm table (`Algorithm::build`)",
        pkg: "sgp-partition",
        suffixes: &[],
        include_tests: false,
        fn_filter: &["build"],
    },
    SurfaceSpec {
        key: "snapshot-roundtrip",
        what: "the snapshot record round-trip",
        pkg: "sgp-partition",
        suffixes: &["src/snapshot.rs"],
        include_tests: true,
        fn_filter: &[],
    },
    SurfaceSpec {
        key: "threaded-loaders",
        what: "threaded/multi-loader support (or documented fallback)",
        pkg: "sgp-partition",
        suffixes: &["src/loaders.rs", "src/exec.rs"],
        include_tests: false,
        fn_filter: &["supports_parallel_loaders"],
    },
    SurfaceSpec {
        key: "churn-elastic",
        what: "the churn/elastic suites",
        pkg: "sgp-core",
        suffixes: &["src/runners.rs"],
        include_tests: false,
        fn_filter: &[],
    },
    SurfaceSpec {
        key: "table-all",
        what: "the canonical Algorithm::all() table",
        pkg: "sgp-partition",
        suffixes: &[],
        include_tests: false,
        fn_filter: &["all"],
    },
];

/// The fns whose bodies define inheritable variant tables: calling one
/// of these from a surface inherits every variant the table lists.
const TABLE_FNS: &[&str] = &["all", "online_suite", "offline_suite"];

fn check_algorithm_surfaces(cx: &Analysis<'_>, out: &mut Findings<'_>) {
    let (ws, entries, symbols) = (cx.ws, cx.entries, &cx.symbols);
    // The source of truth: the unique `Algorithm` enum in sgp-partition.
    let Some(enum_def) = symbols.unique_enum("sgp-partition", "Algorithm") else {
        return;
    };
    let variant_set: BTreeSet<&str> = enum_def.variants.iter().map(|(n, _)| n.as_str()).collect();
    let enum_entry = enum_def.entry;

    // Memoized variant sets of the table fns (defined in the enum file).
    let mut tables: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for &tf in TABLE_FNS {
        let Some(def) =
            symbols.fns.iter().find(|f| f.entry == enum_entry && f.name == tf && f.body.is_some())
        else {
            continue;
        };
        let (open, close) = def.body.expect("filtered on body");
        let file = &entries[enum_entry].file;
        let mut listed = BTreeSet::new();
        collect_variant_mentions(
            &file.source,
            &file.tokens,
            open + 1,
            close,
            &variant_set,
            true,
            &mut listed,
        );
        tables.insert(tf, listed);
    }

    let registry =
        parse_registry(ws, ALGORITHM_SURFACES_REL, &ALGORITHM_SURFACE_EXHAUSTIVENESS, out);

    for spec in SURFACES {
        // Collect the surface's token ranges: (entry index, lo, hi,
        // bare-names-allowed).
        let mut ranges: Vec<(usize, usize, usize, bool)> = Vec::new();
        for (ei, e) in entries.iter().enumerate() {
            if ws.members[e.member].name != spec.pkg {
                continue;
            }
            if spec.suffixes.iter().any(|s| e.file.rel.ends_with(s)) {
                ranges.push((ei, 0, e.file.tokens.len(), false));
            }
        }
        for &ff in spec.fn_filter {
            for f in symbols.fns.iter().filter(|f| f.entry == enum_entry && f.name == ff) {
                if let Some((open, close)) = f.body {
                    ranges.push((enum_entry, open + 1, close, true));
                }
            }
        }
        if ranges.is_empty() {
            // Surface not present in this workspace (fixture trees);
            // registry entries for it are validated leniently below.
            continue;
        }

        let mut covered: BTreeSet<String> = BTreeSet::new();
        for &(ei, lo, hi, bare) in &ranges {
            let file = &entries[ei].file;
            let (src, toks) = (file.source.as_str(), file.tokens.as_slice());

            // Mechanism 1+2: explicit `Algorithm::V` paths (and bare
            // variant names inside filtered fn bodies).
            for i in lo..hi {
                if !spec.include_tests && file.is_test_line(toks[i].line) {
                    continue;
                }
                collect_variant_mentions(src, toks, i, i + 1, &variant_set, bare, &mut covered);
                // Mechanism 3: calling a table fn inherits its variants.
                if let Some(name) = ident(src, toks, i).filter(|n| TABLE_FNS.contains(n)) {
                    if is_call_position(src, toks, i) || is_method_call(src, toks, i) {
                        if let Some(listed) = tables.get(name) {
                            covered.extend(listed.iter().cloned());
                        }
                    }
                }
            }

            // Mechanism 4: wildcard-free matches over the enum are
            // compiler-exhaustive — every variant is covered; matches
            // *with* a wildcard cover only the variants their arm heads
            // name (already collected above as path mentions), so a new
            // variant silently falling into `_ =>` is exactly what this
            // rule reports.
            for m in parser::match_exprs_in(src, toks, lo, hi) {
                if !spec.include_tests && file.is_test_line(m.line) {
                    continue;
                }
                let mut mentions = BTreeSet::new();
                let mut irrefutable = false;
                for &(alo, ahi) in &m.arms {
                    collect_variant_mentions(
                        src,
                        toks,
                        alo,
                        ahi,
                        &variant_set,
                        true,
                        &mut mentions,
                    );
                    irrefutable |= arm_is_irrefutable(src, toks, alo, ahi);
                }
                if mentions.is_empty() {
                    continue; // a match about something else entirely
                }
                if irrefutable {
                    covered.extend(mentions);
                } else {
                    covered.extend(variant_set.iter().map(|s| s.to_string()));
                }
            }
        }

        // Mechanism 5: registered fallbacks.
        for (key, _) in &registry {
            if let Some((surface, variant)) = key.split_once('/') {
                if surface == spec.key
                    && variant_set.contains(variant)
                    && !covered.contains(variant)
                {
                    covered.insert(variant.to_string());
                }
            }
        }

        let surface_files: Vec<&str> =
            ranges.iter().map(|&(ei, ..)| entries[ei].file.rel.as_str()).collect();
        for (variant, line) in &enum_def.variants {
            if !covered.contains(variant) {
                out.report(
                    &ALGORITHM_SURFACE_EXHAUSTIVENESS,
                    &entries[enum_entry].file.rel,
                    *line,
                    format!(
                        "variant `{variant}` is not handled on {what} ({files}) — match it, list \
                         it in a table, or register `{key}/{variant} = <why it is excluded>` in \
                         {ALGORITHM_SURFACES_REL}",
                        what = spec.what,
                        files = dedup_join(&surface_files),
                        key = spec.key,
                    ),
                );
            }
        }
    }

    // Registry hygiene: every entry must name a known surface and
    // variant, and must still be needed (not also covered in source).
    validate_surface_registry(cx, &registry, enum_entry, &variant_set, out);
}

/// Validates ALGORITHM_SURFACES entries after coverage has been
/// computed: unknown keys and stale (in-source-covered) entries are
/// errors; entries for surfaces absent from this workspace pass.
fn validate_surface_registry(
    cx: &Analysis<'_>,
    registry: &[(String, usize)],
    enum_entry: usize,
    variant_set: &BTreeSet<&str>,
    out: &mut Findings<'_>,
) {
    let (ws, entries, symbols) = (cx.ws, cx.entries, &cx.symbols);
    let mut rot = |line: usize, msg: String| {
        out.report(&ALGORITHM_SURFACE_EXHAUSTIVENESS, ALGORITHM_SURFACES_REL, line, msg)
    };
    for (key, line) in registry {
        let Some((surface, variant)) = key.split_once('/') else {
            rot(*line, format!("registry key `{key}` must be `<surface>/<Variant>`"));
            continue;
        };
        let Some(spec) = SURFACES.iter().find(|s| s.key == surface) else {
            let known = SURFACES.iter().map(|s| s.key).collect::<Vec<_>>().join(", ");
            rot(*line, format!("unknown surface `{surface}` — known surfaces: {known}"));
            continue;
        };
        if !variant_set.contains(variant) {
            rot(*line, format!("`{variant}` is not a variant of the Algorithm enum"));
            continue;
        }
        // Stale check: recompute whether the surface covers the variant
        // *without* the registry. Surfaces absent from this workspace
        // are skipped (the entry is inert there, not stale).
        let present = entries.iter().any(|e| {
            ws.members[e.member].name == spec.pkg
                && spec.suffixes.iter().any(|s| e.file.rel.ends_with(s))
        }) || spec
            .fn_filter
            .iter()
            .any(|ff| symbols.fns.iter().any(|f| f.entry == enum_entry && &f.name == ff));
        if !present {
            continue;
        }
        if surface_covers_in_source(ws, entries, symbols, spec, enum_entry, variant_set, variant) {
            rot(
                *line,
                format!(
                    "stale entry `{key}` — `{variant}` is already handled in source on \
                     `{surface}`; delete the entry so the fallback list cannot rot"
                ),
            );
        }
    }
}

/// Does `spec` cover `variant` in source alone (no registry)? Used for
/// the stale-entry check; mirrors the coverage walk above.
fn surface_covers_in_source(
    ws: &Workspace,
    entries: &[ParsedEntry],
    symbols: &SymbolTable,
    spec: &SurfaceSpec,
    enum_entry: usize,
    variant_set: &BTreeSet<&str>,
    variant: &str,
) -> bool {
    let mut ranges: Vec<(usize, usize, usize, bool)> = Vec::new();
    for (ei, e) in entries.iter().enumerate() {
        if ws.members[e.member].name == spec.pkg
            && spec.suffixes.iter().any(|s| e.file.rel.ends_with(s))
        {
            ranges.push((ei, 0, e.file.tokens.len(), false));
        }
    }
    for &ff in spec.fn_filter {
        for f in symbols.fns.iter().filter(|f| f.entry == enum_entry && f.name == ff) {
            if let Some((open, close)) = f.body {
                ranges.push((enum_entry, open + 1, close, true));
            }
        }
    }
    for &(ei, lo, hi, bare) in &ranges {
        let file = &entries[ei].file;
        let (src, toks) = (file.source.as_str(), file.tokens.as_slice());
        let mut covered = BTreeSet::new();
        for i in lo..hi {
            if !spec.include_tests && file.is_test_line(toks[i].line) {
                continue;
            }
            collect_variant_mentions(src, toks, i, i + 1, variant_set, bare, &mut covered);
        }
        if covered.contains(variant) {
            return true;
        }
        for m in parser::match_exprs_in(src, toks, lo, hi) {
            if !spec.include_tests && file.is_test_line(m.line) {
                continue;
            }
            let mut mentions = BTreeSet::new();
            let mut irrefutable = false;
            for &(alo, ahi) in &m.arms {
                collect_variant_mentions(src, toks, alo, ahi, variant_set, true, &mut mentions);
                irrefutable |= arm_is_irrefutable(src, toks, alo, ahi);
            }
            if !mentions.is_empty() && (!irrefutable || mentions.contains(variant)) {
                return true;
            }
        }
    }
    false
}

/// Adds to `out` every variant mentioned in `[lo, hi)`: `Algorithm::V`
/// paths always; bare `V` identifiers only when `bare` is set (inside
/// fn-filtered bodies and match-arm heads, where a CamelCase identifier
/// naming a variant *is* the variant).
fn collect_variant_mentions(
    src: &str,
    toks: &[Token],
    lo: usize,
    hi: usize,
    variant_set: &BTreeSet<&str>,
    bare: bool,
    out: &mut BTreeSet<String>,
) {
    for i in lo..hi.min(toks.len()) {
        let Some(name) = ident(src, toks, i).filter(|n| variant_set.contains(n)) else { continue };
        if bare || qualified_by(src, toks, i, "Algorithm") {
            out.insert(name.to_string());
        }
    }
}

/// Is the arm head `[lo, hi)` an irrefutable pattern — `_` or a single
/// lowercase binding, with no `if` guard?
fn arm_is_irrefutable(src: &str, toks: &[Token], lo: usize, hi: usize) -> bool {
    let head: Vec<usize> =
        (lo..hi.min(toks.len())).filter(|&j| !lexer::is_trivia(toks[j].kind)).collect();
    if head.iter().any(|&j| ident_is(src, toks, Some(j), "if")) {
        return false;
    }
    match head.as_slice() {
        [only] => match toks[*only].kind {
            TokenKind::Ident => {
                let w = toks[*only].text(src);
                w == "_" || w.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
            }
            _ => false,
        },
        _ => false,
    }
}

fn dedup_join(files: &[&str]) -> String {
    let uniq: BTreeSet<&str> = files.iter().copied().collect();
    uniq.into_iter().collect::<Vec<_>>().join(", ")
}

// ---------------------------------------------------------------------------
// span-guard-balance
// ---------------------------------------------------------------------------

fn check_span_guard_balance(cx: &Analysis<'_>, out: &mut Findings<'_>) {
    for f in &cx.symbols.fns {
        if f.is_test
            || cx.entries[f.entry].kind != FileKind::LibSrc
            || !SINK_SCOPE.contains(&cx.ws.members[f.member].name.as_str())
        {
            continue;
        }
        let Some((open, close)) = f.body else { continue };
        let file = &cx.entries[f.entry].file;
        let (src, toks) = (file.source.as_str(), file.tokens.as_slice());
        // Per trace key: (enter lines, exit lines) within this body.
        let mut spans: BTreeMap<String, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
        for i in open + 1..close {
            let line = toks[i].line;
            let Some(name) = ident(src, toks, i)
                .filter(|n| matches!(*n, "span_enter" | "span_exit" | "guard_span"))
                .filter(|_| !file.is_test_line(line) && is_method_call(src, toks, i))
            else {
                continue;
            };
            let key = first_arg_key(src, toks, i).unwrap_or_else(|| "<unknown>".to_string());
            match name {
                "span_enter" => spans.entry(key).or_default().0.push(line),
                "span_exit" => spans.entry(key).or_default().1.push(line),
                // A guard transfers the exit obligation to its binding;
                // an unbound guard is dropped immediately, closing the
                // span before the work it brackets.
                _ if !let_bound(src, toks, i, open) => {
                    let msg = format!(
                        "guard_span(`{key}`) result is dropped immediately — bind it (`let _guard \
                         = …`) so the span stays open across the work it brackets"
                    );
                    out.emit(&SPAN_GUARD_BALANCE, f.entry, line, msg);
                }
                _ => {}
            }
        }
        for (key, (enters, exits)) in spans {
            let Some(&line) =
                enters.first().or(exits.first()).filter(|_| enters.len() != exits.len())
            else {
                continue;
            };
            let msg = if enters.len() > exits.len() {
                format!(
                    "span_enter(`{key}`) ({}×) outnumbers span_exit ({}×) on the fall-through \
                     path of `{}` — emit the exit on every path, or hold a let-bound guard_span \
                     guard",
                    enters.len(),
                    exits.len(),
                    f.qual
                )
            } else {
                format!(
                    "span_exit(`{key}`) ({}×) outnumbers span_enter ({}×) in `{}` — the trace \
                     stack underflows and the goldens drift",
                    exits.len(),
                    enters.len(),
                    f.qual
                )
            };
            out.emit(&SPAN_GUARD_BALANCE, f.entry, line, msg);
        }
    }
}

/// The trace key of sink call `i` (`.span_enter(keys::X, …)` →
/// `X`; string literals yield their quoted text).
fn first_arg_key(src: &str, toks: &[Token], i: usize) -> Option<String> {
    let arg = first_arg(src, toks, i)?;
    match toks[arg].kind {
        TokenKind::Str { .. } => Some(str_content(src, toks, arg).to_string()),
        TokenKind::Ident => Some(toks[path_tail(src, toks, arg)].text(src).to_string()),
        _ => None,
    }
}

/// Is the expression statement containing token `i` a `let` binding?
/// Walks back to the start of the statement (a `;`, or the body/block
/// opener) looking for the `let` keyword.
fn let_bound(src: &str, toks: &[Token], i: usize, body_open: usize) -> bool {
    for j in (body_open + 1..i).rev() {
        if matches!(punct(src, toks, j), Some(';') | Some('{') | Some('}')) {
            return false;
        }
        if ident_is(src, toks, Some(j), "let") {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ParsedFile;

    #[test]
    fn indexing_is_the_only_site_class_left() {
        let src =
            "fn f(v: &[u32], i: usize) -> u32 { v[i] + x.unwrap() + self.rows[0][i] + g()[1] }";
        let file = ParsedFile::parse(src, "t.rs");
        let toks = &file.tokens;
        let sites = (0..toks.len()).filter(|&i| is_indexing(src, toks, i)).count();
        assert_eq!(sites, 4, "v[i], rows[0], [0][i], g()[1] — and not the unwrap");
    }

    #[test]
    fn reachable_indexing_fires_with_its_path_and_unwraps_do_not() {
        let src = "pub fn entry(v: &[u32]) -> u32 { pick(v) }\nfn pick(v: &[u32]) -> u32 { v[0] + v.first().unwrap() }\nfn orphan(v: &[u32]) -> u32 { v[1] }\n";
        let found = crate::testkit::lint(
            &[("sgp-graph", "crates/graph/src/lib.rs", src)],
            check_panic_reachability,
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule.as_str(), found[0].line), ("panic-reachability", 2));
        assert!(found[0].message.contains("via sgp-graph::entry -> sgp-graph::pick"));
    }

    #[test]
    fn indexing_heuristic_skips_types_attrs_and_literals() {
        let src = "#[derive(Debug)]\nfn f(s: &[u8]) -> Vec<u32> { let a = [1, 2]; let [x, y] = a; vec![x] }\n";
        let file = ParsedFile::parse(src, "t.rs");
        let toks = &file.tokens;
        let sites: Vec<usize> = (0..toks.len()).filter(|&i| is_indexing(src, toks, i)).collect();
        assert!(sites.is_empty(), "no value is being indexed here: {sites:?}");
    }

    #[test]
    fn first_arg_key_resolves_paths_and_strings() {
        let src = "fn f() { sink.span_enter(keys::RUN, 0, 1); sink.span_exit(\"raw\", 0, 1); }";
        let file = ParsedFile::parse(src, "t.rs");
        let toks = &file.tokens;
        let keys: Vec<String> = (0..toks.len())
            .filter(|&i| {
                toks[i].kind == TokenKind::Ident
                    && matches!(toks[i].text(src), "span_enter" | "span_exit")
            })
            .filter_map(|i| first_arg_key(src, toks, i))
            .collect();
        assert_eq!(keys, vec!["RUN".to_string(), "raw".to_string()]);
    }

    #[test]
    fn let_binding_detection() {
        let src = "fn f() { let g = sink.guard_span(keys::RUN, 0, s); sink.guard_span(keys::RUN, 0, s); }";
        let file = ParsedFile::parse(src, "t.rs");
        let toks = &file.tokens;
        let sites: Vec<bool> = (0..toks.len())
            .filter(|&i| toks[i].kind == TokenKind::Ident && toks[i].text(src) == "guard_span")
            .map(|i| let_bound(src, toks, i, 0))
            .collect();
        assert_eq!(sites, vec![true, false]);
    }

    #[test]
    fn irrefutable_arm_detection() {
        let src = "match a { Alg::A => 1, other => 2, n if n > 3 => 3, _ => 4 }";
        let file = ParsedFile::parse(src, "t.rs");
        let toks = &file.tokens;
        let m = &parser::match_exprs_in(src, toks, 0, toks.len())[0];
        let flags: Vec<bool> =
            m.arms.iter().map(|&(lo, hi)| arm_is_irrefutable(src, toks, lo, hi)).collect();
        assert_eq!(flags, vec![false, true, false, true]);
    }
}
