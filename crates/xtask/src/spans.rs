//! `span-guard-balance`: inside each non-test fn body of the
//! instrumented crates, every trace key is entered (`span_enter`) as
//! often as it is exited (`span_exit`). An orphaned enter or a stray
//! exit shifts the span stack and drifts the byte-exact trace goldens.
//!
//! A `guard_span` guard carries its exit obligation in its binding, and
//! `SpanGuard` is `#[must_use]`, so an unbound guard is rustc's
//! `unused_must_use`, which the `-D warnings` gates reject.

use crate::ast::{Item, ItemKind};
use crate::crossfile::SINK_SCOPE;
use crate::cursor::{first_arg, ident, is_method_call, path_tail, str_content};
use crate::lexer::{Token, TokenKind};
use crate::rules::{Findings, SPAN_GUARD_BALANCE};
use crate::scan::ParsedFile;
use crate::workspace::FileKind;
use crate::Analysis;
use std::collections::BTreeMap;

/// Runs the rule over every library file of [`SINK_SCOPE`].
pub fn check(cx: &Analysis<'_>, out: &mut Findings) {
    for e in cx.entries {
        if e.kind == FileKind::LibSrc && SINK_SCOPE.contains(&cx.ws.members[e.member].name.as_str())
        {
            check_items(&e.file, &e.file.items, out);
        }
    }
}

/// Checks the fn bodies among `items` and their members, skipping test
/// items and everything inside them.
fn check_items(file: &ParsedFile, items: &[Item], out: &mut Findings) {
    for item in items.iter().filter(|it| !it.is_test) {
        check_items(file, &item.children, out);
        if let (ItemKind::Fn, Some((open, close))) = (item.kind, item.body) {
            check_body(file, item.name.as_deref().unwrap_or("?"), open, close, out);
        }
    }
}

fn check_body(file: &ParsedFile, name: &str, open: usize, close: usize, out: &mut Findings) {
    let (src, toks) = (file.source.as_str(), file.tokens.as_slice());
    // Per trace key: (enter lines, exit lines) within this body.
    let mut spans: BTreeMap<String, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for i in open + 1..close {
        let Some(call) = ident(src, toks, i)
            .filter(|n| matches!(*n, "span_enter" | "span_exit") && is_method_call(src, toks, i))
        else {
            continue;
        };
        let key = first_arg_key(src, toks, i).unwrap_or_else(|| "<unknown>".to_string());
        let (enters, exits) = spans.entry(key).or_default();
        if call == "span_enter" { enters } else { exits }.push(toks[i].line);
    }
    for (key, (enters, exits)) in spans {
        let Some(&line) = enters.first().or(exits.first()).filter(|_| enters.len() != exits.len())
        else {
            continue;
        };
        let msg = if enters.len() > exits.len() {
            format!(
                "span_enter(`{key}`) ({}×) outnumbers span_exit ({}×) on the fall-through path of \
                 `{name}` — emit the exit on every path, or hold a let-bound guard_span guard",
                enters.len(),
                exits.len(),
            )
        } else {
            format!(
                "span_exit(`{key}`) ({}×) outnumbers span_enter ({}×) in `{name}` — the trace \
                 stack underflows and the goldens drift",
                exits.len(),
                enters.len(),
            )
        };
        out.report(&SPAN_GUARD_BALANCE, &file.rel, line, msg);
    }
}

/// The trace key of sink call `i` (`.span_enter(keys::X, …)` → `X`;
/// string literals yield their content).
fn first_arg_key(src: &str, toks: &[Token], i: usize) -> Option<String> {
    let arg = first_arg(src, toks, i)?;
    match toks[arg].kind {
        TokenKind::Str { .. } => Some(str_content(src, toks, arg).to_string()),
        TokenKind::Ident => Some(toks[path_tail(src, toks, arg)].text(src).to_string()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<(usize, String)> {
        crate::testkit::lint(&[("sgp-engine", "crates/engine/src/x.rs", src)], check)
            .into_iter()
            .map(|f| (f.line, f.message))
            .collect()
    }

    #[test]
    fn unbalanced_keys_fire_at_their_first_call() {
        let src = "fn f(s: &mut S) {\n    s.span_enter(keys::RUN, 0, 0);\n    s.span_enter(keys::RUN, 0, 1);\n    s.span_exit(keys::RUN, 0, 2);\n    s.span_exit(\"raw\", 0, 3);\n}\n";
        let found = lint(src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].0, 2, "double enter of RUN");
        assert!(found[0].1.contains("span_enter(`RUN`) (2×) outnumbers span_exit (1×)"));
        assert_eq!(found[1].0, 5, "stray exit of `raw`");
        assert!(found[1].1.contains("span_exit(`raw`) (1×) outnumbers span_enter (0×) in `f`"));
    }

    #[test]
    fn balanced_bodies_methods_and_test_items_are_silent() {
        let src = "impl E {\n    fn run(&self, s: &mut S) { s.span_enter(keys::RUN, 0, 0); s.span_exit(keys::RUN, 0, 1); }\n    fn guard(&self, s: &mut S) { let g = s.guard_span(keys::RUN, 0, 0); g.exit(s, 1); }\n}\n#[cfg(test)]\nmod tests {\n    fn half(s: &mut S) { s.span_enter(keys::RUN, 0, 0); }\n}\n";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
        let method =
            "impl E {\n    fn half(&self, s: &mut S) { s.span_enter(keys::RUN, 0, 0); }\n}\n";
        assert_eq!(lint(method).len(), 1, "members of an impl are checked");
    }
}
