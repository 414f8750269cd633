//! A hand-rolled, dependency-free item-level Rust parser.
//!
//! Layered on the lossless lexer: the input is a token stream, the
//! output an [`ast::File`] whose item spans *tile* the stream — every
//! token index belongs to exactly one item span or to an explicit
//! trailing range, recursively inside `impl`/`mod`/`trait` bodies too.
//! [`emit`] reconstructs the source byte-for-byte from the tree while
//! verifying that tiling invariant, which is what `parser_roundtrip.rs`
//! property-tests over every `.rs` file in the workspace.
//!
//! The grammar is the *item* grammar only: signatures are scanned just
//! far enough to find a name and the body's brace pair; bodies stay
//! opaque token ranges. Two helpers pattern-match inside bodies for the
//! semantic rules: [`match_exprs_in`] (match arms, for exhaustiveness)
//! and the keyword table [`is_keyword`] (shared with the call-graph
//! builder).

use crate::ast::{EnumVariant, File, Item, ItemKind};
use crate::cursor::{ident, next_in, punct, skip_trivia};
use crate::lexer::{self, Token, TokenKind};

/// Rust keywords (2021 edition, plus reserved words that matter for
/// call-site detection). Identifiers in this table are never treated as
/// function names, variant names, or call candidates.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// Is `s` a Rust keyword (see [`KEYWORDS`])?
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parses `tokens` (lexed from `source`) into an item tree.
pub fn parse(source: &str, tokens: &[Token]) -> File {
    let (items, trailing) = parse_range(source, tokens, 0, tokens.len());
    File { items, trailing }
}

// ---------------------------------------------------------------------------
// Delimiter scanning
// ---------------------------------------------------------------------------

/// Index of the delimiter closing the group opened at `open` (any of
/// `(`/`[`/`{`; mixed nesting counts uniformly, which is exact for
/// well-formed code). Clamps to `hi - 1` on an unterminated group.
fn match_group(src: &str, toks: &[Token], open: usize, hi: usize) -> usize {
    let mut depth = 1i64;
    let mut j = open + 1;
    while j < hi {
        match punct(src, toks, j) {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    hi.saturating_sub(1).max(open)
}

/// Scans forward from `from` at paren/bracket depth 0 for the first
/// body-opening `{` or item-terminating `;`. Used on signatures, where
/// braces never legitimately appear before the body.
enum Stop {
    Brace(usize),
    Semi(usize),
    End,
}

fn find_stop(src: &str, toks: &[Token], from: usize, hi: usize) -> Stop {
    let mut depth = 0i64;
    let mut j = from;
    while j < hi {
        match punct(src, toks, j) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('{') if depth <= 0 => return Stop::Brace(j),
            Some(';') if depth <= 0 => return Stop::Semi(j),
            Some('}') if depth <= 0 => return Stop::End,
            _ => {}
        }
        j += 1;
    }
    Stop::End
}

/// Consumes to the `;` terminating a `use`/`const`/`static`/`type`
/// item, tracking all delimiter kinds (initializers may contain brace
/// groups). Returns the index *past* the `;` (or `hi`).
fn consume_to_semi(src: &str, toks: &[Token], from: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    let mut j = from;
    while j < hi {
        match punct(src, toks, j) {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            Some(';') if depth <= 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    hi
}

// ---------------------------------------------------------------------------
// Item parsing
// ---------------------------------------------------------------------------

/// Parses the token range `[lo, hi)` into items plus a trailing range.
/// The returned spans tile `[lo, hi)` exactly.
fn parse_range(src: &str, toks: &[Token], lo: usize, hi: usize) -> (Vec<Item>, (usize, usize)) {
    let mut items = Vec::new();
    let mut at = lo;
    loop {
        let first = skip_trivia(toks, at, hi);
        if first >= hi {
            return (items, (at, hi));
        }
        let item = parse_item(src, toks, at, first, hi);
        debug_assert!(item.span.1 > at, "parser must make progress");
        at = item.span.1;
        items.push(item);
    }
}

/// Parses one item whose span starts at `start` (leading trivia
/// included); `first` is the first non-trivia index. Always consumes at
/// least one token.
fn parse_item(src: &str, toks: &[Token], start: usize, first: usize, hi: usize) -> Item {
    let mut k = first;
    let mut is_pub = false;
    let mut is_test = false;
    let mut item = loop {
        k = skip_trivia(toks, k, hi);
        if k >= hi {
            break leaf(ItemKind::Other, None, toks[first].line, is_pub, start, hi);
        }
        if punct(src, toks, k) == Some('#') {
            // `#[…]` / `#![…]` attribute: skip the bracket group. This
            // is the one place attributes are read, so it is also where
            // an outer test attribute marks the item.
            let mut a = next_in(toks, k, hi);
            let inner = a.is_some_and(|j| punct(src, toks, j) == Some('!'));
            if inner {
                a = a.and_then(|j| next_in(toks, j, hi));
            }
            match a {
                Some(j) if punct(src, toks, j) == Some('[') => {
                    let close = match_group(src, toks, j, hi);
                    is_test |= !inner && is_test_attr(src, toks, j, close);
                    k = close + 1;
                    continue;
                }
                _ => break other_item(src, toks, start, k, hi, is_pub),
            }
        }
        let Some(word) = ident(src, toks, k) else {
            break other_item(src, toks, start, k, hi, is_pub);
        };
        match word {
            "pub" => {
                is_pub = true;
                if let Some(n) = next_in(toks, k, hi) {
                    if punct(src, toks, n) == Some('(') {
                        // `pub(crate)` / `pub(in path)`: restricted, not
                        // a public entry point.
                        is_pub = false;
                        k = match_group(src, toks, n, hi) + 1;
                        continue;
                    }
                    k = n;
                    continue;
                }
                break leaf(ItemKind::Other, None, toks[k].line, false, start, hi);
            }
            "default" | "async" | "unsafe" => match next_in(toks, k, hi) {
                Some(n) => k = n,
                None => break leaf(ItemKind::Other, None, toks[k].line, is_pub, start, hi),
            },
            "extern" => {
                let n = next_in(toks, k, hi);
                match n {
                    Some(j) if matches!(toks[j].kind, TokenKind::Str { .. }) => {
                        // `extern "C"` ABI modifier on an fn.
                        match next_in(toks, j, hi) {
                            Some(m) => k = m,
                            None => {
                                break leaf(ItemKind::Other, None, toks[k].line, is_pub, start, hi)
                            }
                        }
                    }
                    Some(j) if ident(src, toks, j) == Some("crate") => {
                        let name = next_in(toks, j, hi)
                            .and_then(|m| ident(src, toks, m))
                            .map(String::from);
                        let end = consume_to_semi(src, toks, j, hi);
                        break leaf(ItemKind::Use, name, toks[k].line, is_pub, start, end);
                    }
                    _ => break other_item(src, toks, start, k, hi, is_pub),
                }
            }
            "const" | "static" => {
                let n = next_in(toks, k, hi);
                let next_word = n.and_then(|j| ident(src, toks, j));
                if matches!(next_word, Some("fn") | Some("unsafe") | Some("async") | Some("extern"))
                {
                    // `const fn` modifier chain — keep scanning.
                    k = n.expect("checked above");
                    continue;
                }
                // `static mut NAME`, `const NAME`.
                let name_at =
                    if next_word == Some("mut") { n.and_then(|j| next_in(toks, j, hi)) } else { n };
                let name = name_at.and_then(|j| ident(src, toks, j)).map(String::from);
                let kind = if word == "const" { ItemKind::Const } else { ItemKind::Static };
                let end = consume_to_semi(src, toks, k, hi);
                break leaf(kind, name, toks[k].line, is_pub, start, end);
            }
            "fn" => break parse_fn(src, toks, start, k, is_pub, hi),
            "struct" | "union" => break parse_typedef(src, toks, start, k, is_pub, hi, false),
            "enum" => break parse_typedef(src, toks, start, k, is_pub, hi, true),
            "impl" => break parse_impl(src, toks, start, k, is_pub, hi),
            "mod" => break parse_container(src, toks, start, k, is_pub, hi, ItemKind::Mod),
            "trait" => break parse_container(src, toks, start, k, is_pub, hi, ItemKind::Trait),
            "use" => {
                let end = consume_to_semi(src, toks, k, hi);
                break leaf(ItemKind::Use, None, toks[k].line, is_pub, start, end);
            }
            "type" => {
                let name = next_in(toks, k, hi).and_then(|j| ident(src, toks, j)).map(String::from);
                let end = consume_to_semi(src, toks, k, hi);
                break leaf(ItemKind::TypeAlias, name, toks[k].line, is_pub, start, end);
            }
            "macro_rules" => break parse_macro_def(src, toks, start, k, hi),
            _ => break macro_invocation_or_other(src, toks, start, k, hi, is_pub),
        }
    };
    item.is_test = is_test;
    item
}

/// Does the attribute group whose brackets are `open`/`close` compile
/// its item for tests only? `#[test]` does; `#[cfg(p)]` does when `p`
/// [requires `test`](requires_test). Everything else — `cfg_attr`,
/// `should_panic`, tool attributes — does not.
fn is_test_attr(src: &str, toks: &[Token], open: usize, close: usize) -> bool {
    let Some(name) = next_in(toks, open, close) else { return false };
    match ident(src, toks, name) {
        Some("test") => true,
        Some("cfg") => match next_in(toks, name, close) {
            Some(p) if punct(src, toks, p) == Some('(') => {
                requires_test(src, toks, p + 1, match_group(src, toks, p, close))
            }
            _ => false,
        },
        _ => false,
    }
}

/// Is the cfg predicate in `[lo, hi)` false in every non-test build?
/// `test` is; `all(…)` is when any operand is; `any(…)` only when every
/// operand is. `not(…)` and every other predicate (`feature = "x"`,
/// `debug_assertions`, `loom`) can hold in production code.
fn requires_test(src: &str, toks: &[Token], lo: usize, hi: usize) -> bool {
    let head = skip_trivia(toks, lo, hi);
    if head >= hi {
        return false;
    }
    let args = next_in(toks, head, hi);
    match (ident(src, toks, head), args) {
        (Some("test"), None) => true,
        (Some(op @ ("all" | "any")), Some(p)) if punct(src, toks, p) == Some('(') => {
            let close = match_group(src, toks, p, hi);
            // Operands are the depth-0 comma-separated runs of the group.
            let mut operands = Vec::new();
            let (mut depth, mut from) = (0i64, p + 1);
            for j in p + 1..close {
                match punct(src, toks, j) {
                    Some('(') => depth += 1,
                    Some(')') => depth -= 1,
                    Some(',') if depth == 0 => {
                        operands.push((from, j));
                        from = j + 1;
                    }
                    _ => {}
                }
            }
            operands.push((from, close));
            operands.retain(|&(a, b)| skip_trivia(toks, a, b) < b);
            let mut verdicts = operands.iter().map(|&(a, b)| requires_test(src, toks, a, b));
            if op == "all" {
                verdicts.any(|v| v)
            } else {
                !operands.is_empty() && verdicts.all(|v| v)
            }
        }
        _ => false,
    }
}

fn leaf(
    kind: ItemKind,
    name: Option<String>,
    line: usize,
    is_pub: bool,
    start: usize,
    end: usize,
) -> Item {
    Item {
        kind,
        name,
        line,
        is_pub,
        is_test: false,
        span: (start, end),
        body: None,
        children: Vec::new(),
        body_trailing: None,
        variants: Vec::new(),
    }
}

/// Fallback for unrecognised syntax: consume to the first `;` at depth
/// 0 or past the first top-level brace group, so the span partition
/// stays exact and the parser always makes progress.
fn other_item(
    src: &str,
    toks: &[Token],
    start: usize,
    from: usize,
    hi: usize,
    is_pub: bool,
) -> Item {
    let line = toks[from.min(hi - 1)].line;
    let mut depth = 0i64;
    let mut j = from;
    while j < hi {
        match punct(src, toks, j) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('{') if depth <= 0 => {
                let close = match_group(src, toks, j, hi);
                return leaf(ItemKind::Other, None, line, is_pub, start, close + 1);
            }
            Some(';') if depth <= 0 => {
                return leaf(ItemKind::Other, None, line, is_pub, start, j + 1)
            }
            _ => {}
        }
        j += 1;
    }
    leaf(ItemKind::Other, None, line, is_pub, start, hi)
}

fn parse_fn(src: &str, toks: &[Token], start: usize, kw: usize, is_pub: bool, hi: usize) -> Item {
    let name_at = next_in(toks, kw, hi).filter(|&j| toks[j].kind == TokenKind::Ident);
    let (name, line) = match name_at {
        Some(j) => (Some(toks[j].text(src).to_string()), toks[j].line),
        None => (None, toks[kw].line),
    };
    match find_stop(src, toks, name_at.unwrap_or(kw) + 1, hi) {
        Stop::Semi(s) => leaf(ItemKind::Fn, name, line, is_pub, start, s + 1),
        Stop::Brace(o) => {
            let close = match_group(src, toks, o, hi);
            let mut item = leaf(ItemKind::Fn, name, line, is_pub, start, close + 1);
            item.body = Some((o, close));
            item
        }
        Stop::End => leaf(ItemKind::Fn, name, line, is_pub, start, hi),
    }
}

/// `struct`/`union`/`enum`: name, then either `;` (unit/tuple form) or
/// a matched brace body. Enum bodies get their variants extracted.
fn parse_typedef(
    src: &str,
    toks: &[Token],
    start: usize,
    kw: usize,
    is_pub: bool,
    hi: usize,
    is_enum: bool,
) -> Item {
    let name_at = next_in(toks, kw, hi).filter(|&j| toks[j].kind == TokenKind::Ident);
    let (name, line) = match name_at {
        Some(j) => (Some(toks[j].text(src).to_string()), toks[j].line),
        None => (None, toks[kw].line),
    };
    let kind = if is_enum { ItemKind::Enum } else { ItemKind::Struct };
    match find_stop(src, toks, name_at.unwrap_or(kw) + 1, hi) {
        Stop::Semi(s) => leaf(kind, name, line, is_pub, start, s + 1),
        Stop::Brace(o) => {
            let close = match_group(src, toks, o, hi);
            let mut item = leaf(kind, name, line, is_pub, start, close + 1);
            item.body = Some((o, close));
            if is_enum {
                item.variants = enum_variants(src, toks, o, close);
            }
            item
        }
        Stop::End => leaf(kind, name, line, is_pub, start, hi),
    }
}

/// Variant identifiers at depth 0 inside an enum body: the first
/// identifier after `{`, after each top-level `,`, and after any
/// attributes in between. Payloads, discriminants and generics are
/// skipped by depth tracking.
fn enum_variants(src: &str, toks: &[Token], open: usize, close: usize) -> Vec<EnumVariant> {
    let mut variants = Vec::new();
    let mut expecting = true;
    let mut depth = 0i64;
    let mut k = open + 1;
    while k < close {
        if lexer::is_trivia(toks[k].kind) {
            k += 1;
            continue;
        }
        match punct(src, toks, k) {
            Some('#') if depth == 0 && expecting => {
                // Variant attribute: jump the `[...]` group.
                if let Some(j) = next_in(toks, k, close) {
                    if punct(src, toks, j) == Some('[') {
                        k = match_group(src, toks, j, close) + 1;
                        continue;
                    }
                }
            }
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            Some(',') if depth == 0 => expecting = true,
            _ => {}
        }
        if expecting && depth == 0 {
            if let Some(name) = ident(src, toks, k) {
                if !is_keyword(name) {
                    variants.push(EnumVariant { name: name.to_string(), line: toks[k].line });
                    expecting = false;
                }
            }
        }
        k += 1;
    }
    variants
}

/// `impl …` blocks: the self-type name is the last path identifier at
/// angle depth 0 before the body (the segment after `for`, when
/// present); members are parsed recursively.
fn parse_impl(src: &str, toks: &[Token], start: usize, kw: usize, is_pub: bool, hi: usize) -> Item {
    let stop = find_stop(src, toks, kw + 1, hi);
    let header_end = match stop {
        Stop::Brace(o) => o,
        Stop::Semi(s) => s,
        Stop::End => hi,
    };
    // Scan the header for the self-type name. Naive angle-bracket depth
    // with a `->` guard is exact for impl headers (no comparison
    // operators can appear there).
    let mut name: Option<String> = None;
    let mut line = toks[kw].line;
    let mut angle = 0i64;
    let mut j = kw + 1;
    while j < header_end {
        match punct(src, toks, j) {
            Some('<') => angle += 1,
            Some('>') => {
                let arrow = j > 0 && punct(src, toks, j - 1) == Some('-');
                if !arrow {
                    angle -= 1;
                }
            }
            _ => {
                if angle == 0 {
                    if let Some(w) = ident(src, toks, j) {
                        if w == "where" {
                            break;
                        }
                        if !is_keyword(w) {
                            name = Some(w.to_string());
                            line = toks[j].line;
                        }
                    }
                }
            }
        }
        j += 1;
    }
    finish_container(src, toks, start, stop, ItemKind::Impl, name, line, is_pub, hi)
}

/// `mod`/`trait` with an optional brace body of child items.
fn parse_container(
    src: &str,
    toks: &[Token],
    start: usize,
    kw: usize,
    is_pub: bool,
    hi: usize,
    kind: ItemKind,
) -> Item {
    let name_at = next_in(toks, kw, hi).filter(|&j| toks[j].kind == TokenKind::Ident);
    let (name, line) = match name_at {
        Some(j) => (Some(toks[j].text(src).to_string()), toks[j].line),
        None => (None, toks[kw].line),
    };
    let stop = find_stop(src, toks, name_at.unwrap_or(kw) + 1, hi);
    finish_container(src, toks, start, stop, kind, name, line, is_pub, hi)
}

#[allow(clippy::too_many_arguments)]
fn finish_container(
    src: &str,
    toks: &[Token],
    start: usize,
    stop: Stop,
    kind: ItemKind,
    name: Option<String>,
    line: usize,
    is_pub: bool,
    hi: usize,
) -> Item {
    match stop {
        Stop::Semi(s) => leaf(kind, name, line, is_pub, start, s + 1),
        Stop::Brace(o) => {
            let close = match_group(src, toks, o, hi);
            let (children, body_trailing) = parse_range(src, toks, o + 1, close);
            let mut item = leaf(kind, name, line, is_pub, start, close + 1);
            item.body = Some((o, close));
            item.children = children;
            item.body_trailing = Some(body_trailing);
            item
        }
        Stop::End => leaf(kind, name, line, is_pub, start, hi),
    }
}

fn parse_macro_def(src: &str, toks: &[Token], start: usize, kw: usize, hi: usize) -> Item {
    // `macro_rules` `!` `name` `{ … }`
    let bang = next_in(toks, kw, hi).filter(|&j| punct(src, toks, j) == Some('!'));
    let name_at =
        bang.and_then(|j| next_in(toks, j, hi)).filter(|&j| toks[j].kind == TokenKind::Ident);
    let name = name_at.map(|j| toks[j].text(src).to_string());
    let line = name_at.map_or(toks[kw].line, |j| toks[j].line);
    let opener = name_at.and_then(|j| next_in(toks, j, hi));
    match opener {
        Some(o) if matches!(punct(src, toks, o), Some('(') | Some('[') | Some('{')) => {
            let close = match_group(src, toks, o, hi);
            let end = if punct(src, toks, o) == Some('{') {
                close + 1
            } else {
                // Paren/bracket-delimited form needs a trailing `;`.
                next_in(toks, close, hi)
                    .filter(|&j| punct(src, toks, j) == Some(';'))
                    .map_or(close + 1, |j| j + 1)
            };
            leaf(ItemKind::MacroDef, name, line, false, start, end)
        }
        _ => other_item(src, toks, start, kw, hi, false),
    }
}

/// An item-position macro invocation `path::name! ( … );` /
/// `name! { … }`, or the conservative [`other_item`] fallback.
fn macro_invocation_or_other(
    src: &str,
    toks: &[Token],
    start: usize,
    from: usize,
    hi: usize,
    is_pub: bool,
) -> Item {
    // Walk the invocation path: ident (`::` ident)*.
    let mut last = from;
    loop {
        let c1 = next_in(toks, last, hi);
        let c2 = c1.and_then(|j| next_in(toks, j, hi));
        let seg = c2.and_then(|j| next_in(toks, j, hi));
        match (c1, c2, seg) {
            (Some(a), Some(b), Some(s))
                if punct(src, toks, a) == Some(':')
                    && punct(src, toks, b) == Some(':')
                    && toks[s].kind == TokenKind::Ident =>
            {
                last = s;
            }
            _ => break,
        }
    }
    let bang = next_in(toks, last, hi).filter(|&j| punct(src, toks, j) == Some('!'));
    let opener = bang.and_then(|j| next_in(toks, j, hi));
    match opener {
        Some(o) if matches!(punct(src, toks, o), Some('(') | Some('[') | Some('{')) => {
            let close = match_group(src, toks, o, hi);
            let end = if punct(src, toks, o) == Some('{') {
                close + 1
            } else {
                next_in(toks, close, hi)
                    .filter(|&j| punct(src, toks, j) == Some(';'))
                    .map_or(close + 1, |j| j + 1)
            };
            leaf(
                ItemKind::MacroInvocation,
                Some(toks[from].text(src).to_string()),
                toks[from].line,
                is_pub,
                start,
                end,
            )
        }
        _ => other_item(src, toks, start, from, hi, is_pub),
    }
}

// ---------------------------------------------------------------------------
// Emit (round-trip with invariant checks)
// ---------------------------------------------------------------------------

/// Reconstructs the source text from the item tree, verifying the
/// structural invariants along the way: sibling spans tile their region
/// in ascending order, container children tile the body interior, and
/// the trailing ranges close every gap. Returns the reassembled text,
/// which the round-trip property test compares byte-for-byte against
/// the original.
pub fn emit(src: &str, toks: &[Token], file: &File) -> Result<String, String> {
    let mut out = String::new();
    emit_region(src, toks, &file.items, file.trailing, 0, toks.len(), &mut out)?;
    Ok(out)
}

fn emit_region(
    src: &str,
    toks: &[Token],
    items: &[Item],
    trailing: (usize, usize),
    lo: usize,
    hi: usize,
    out: &mut String,
) -> Result<(), String> {
    let mut at = lo;
    for item in items {
        if item.span.0 != at {
            return Err(format!(
                "span gap before {:?} `{}`: expected token {at}, span starts at {}",
                item.kind,
                item.name.as_deref().unwrap_or("?"),
                item.span.0
            ));
        }
        if item.span.1 > hi || item.span.1 <= item.span.0 {
            return Err(format!(
                "{:?} `{}` span {:?} escapes region [{lo}, {hi})",
                item.kind,
                item.name.as_deref().unwrap_or("?"),
                item.span
            ));
        }
        emit_item(src, toks, item, out)?;
        at = item.span.1;
    }
    if trailing != (at, hi) {
        return Err(format!("trailing range {trailing:?} does not close region to ({at}, {hi})"));
    }
    for t in &toks[at..hi] {
        out.push_str(t.text(src));
    }
    Ok(())
}

fn emit_item(src: &str, toks: &[Token], item: &Item, out: &mut String) -> Result<(), String> {
    match (item.is_container(), item.body, item.body_trailing) {
        (true, Some((open, close)), Some(trailing)) => {
            if !(item.span.0 <= open && open < close && close < item.span.1) {
                return Err(format!(
                    "{:?} `{}` body {:?} escapes span {:?}",
                    item.kind,
                    item.name.as_deref().unwrap_or("?"),
                    item.body,
                    item.span
                ));
            }
            for t in &toks[item.span.0..=open] {
                out.push_str(t.text(src));
            }
            emit_region(src, toks, &item.children, trailing, open + 1, close, out)?;
            for t in &toks[close..item.span.1] {
                out.push_str(t.text(src));
            }
            Ok(())
        }
        _ => {
            for t in &toks[item.span.0..item.span.1] {
                out.push_str(t.text(src));
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Match-expression extraction (for the exhaustiveness rule)
// ---------------------------------------------------------------------------

/// One `match` expression found inside a token range: its body braces
/// and the token range of each arm's *head* (pattern plus guard, up to
/// the `=>`).
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// 1-based line of the `match` keyword.
    pub line: usize,
    /// Inclusive indices of the body's `{` and `}` tokens.
    pub body: (usize, usize),
    /// Half-open token ranges of each arm head (pattern + guard).
    pub arms: Vec<(usize, usize)>,
}

/// Finds every `match` expression whose keyword lies in `[lo, hi)`.
/// Nested matches are reported independently. The scrutinee is skipped
/// by paren/bracket depth tracking (struct literals are not legal in
/// scrutinee position, so the first depth-0 `{` opens the body).
pub fn match_exprs_in(src: &str, toks: &[Token], lo: usize, hi: usize) -> Vec<MatchExpr> {
    let mut out = Vec::new();
    for i in lo..hi.min(toks.len()) {
        if ident(src, toks, i) != Some("match") {
            continue;
        }
        // Find the body `{` past the scrutinee.
        let mut depth = 0i64;
        let mut open = None;
        for j in i + 1..toks.len() {
            match punct(src, toks, j) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('{') if depth <= 0 => {
                    open = Some(j);
                    break;
                }
                Some(';') | Some('}') if depth <= 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let close = match_group(src, toks, open, toks.len());
        out.push(MatchExpr {
            line: toks[i].line,
            body: (open, close),
            arms: match_arms(src, toks, open, close),
        });
    }
    out
}

/// Splits a match body into arm-head token ranges. Arm bodies (brace
/// groups or expressions up to the depth-0 `,`) are skipped.
fn match_arms(src: &str, toks: &[Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut arms = Vec::new();
    let mut k = skip_trivia(toks, open + 1, close);
    while k < close {
        let head_start = k;
        // Scan the head to its `=>` at depth 0.
        let mut depth = 0i64;
        let mut arrow = None;
        let mut j = k;
        while j < close {
            match punct(src, toks, j) {
                Some('(') | Some('[') | Some('{') => depth += 1,
                Some(')') | Some(']') | Some('}') => depth -= 1,
                Some('=') if depth == 0 => {
                    // `=>` is two adjacent punct tokens.
                    if j + 1 < close
                        && punct(src, toks, j + 1) == Some('>')
                        && toks[j].end == toks[j + 1].start
                    {
                        arrow = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        arms.push((head_start, arrow));
        // Skip the arm body: a brace group, or tokens to the depth-0 `,`.
        let mut k2 = skip_trivia(toks, arrow + 2, close);
        if k2 < close && punct(src, toks, k2) == Some('{') {
            k2 = match_group(src, toks, k2, close) + 1;
            let after = skip_trivia(toks, k2, close);
            if after < close && punct(src, toks, after) == Some(',') {
                k2 = after + 1;
            }
        } else {
            let mut depth = 0i64;
            while k2 < close {
                match punct(src, toks, k2) {
                    Some('(') | Some('[') | Some('{') => depth += 1,
                    Some(')') | Some(']') | Some('}') => depth -= 1,
                    Some(',') if depth <= 0 => {
                        k2 += 1;
                        break;
                    }
                    _ => {}
                }
                k2 += 1;
            }
        }
        k = skip_trivia(toks, k2, close);
    }
    arms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ItemKind;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> File {
        parse(src, &lex(src))
    }

    fn roundtrip(src: &str) {
        let toks = lex(src);
        let file = parse(src, &toks);
        let emitted = emit(src, &toks, &file).expect("emit succeeds");
        assert_eq!(emitted, src, "round-trip must be byte-identical");
    }

    #[test]
    fn items_tile_the_file() {
        for src in [
            "",
            "// just a comment\n",
            "fn a() {}\nfn b() { let x = 1; }\n",
            "#![forbid(unsafe_code)]\n//! docs\nuse std::fmt;\npub fn f() -> u32 { 7 }\n",
            "pub struct S { a: u32 }\npub enum E { A, B(u32), C { x: u8 } }\n",
            "impl S {\n    pub fn new() -> Self { S { a: 0 } }\n    fn helper(&self) {}\n}\n",
            "mod inner {\n    pub fn nested() {}\n    mod deeper { fn deepest() {} }\n}\n",
            "trait T {\n    fn required(&self) -> u32;\n    fn provided(&self) -> u32 { 1 }\n}\n",
            "const X: [u32; 2] = [1, 2];\nstatic mut Y: u32 = 0;\ntype Pair = (u32, u32);\n",
            "macro_rules! m { ($x:expr) => { $x + 1 }; }\nthread_local! { static Z: u32 = 0; }\n",
            "pub(crate) fn restricted() {}\npub fn open() {}\n",
            "fn generic<F: Fn(u32) -> u32>(f: F) -> u32 where F: Copy { f(1) }\n",
            "extern crate core;\n#[derive(Debug)]\npub struct D;\n",
            "fn weird() { let s = \"fn not_an_item() {}\"; let c = '{'; }\n",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn fn_names_bodies_and_visibility() {
        let src = "pub fn a() { body(); }\nfn b(x: u32) -> u32;\npub(crate) fn c() {}\n";
        let file = parse_src(src);
        let names: Vec<_> = file.items.iter().map(|i| (i.name.clone(), i.is_pub)).collect();
        assert_eq!(
            names,
            vec![(Some("a".into()), true), (Some("b".into()), false), (Some("c".into()), false),]
        );
        assert!(file.items[0].body.is_some());
        assert!(file.items[1].body.is_none(), "bodiless declaration has no body");
    }

    #[test]
    fn const_fn_is_a_fn_not_a_const() {
        let file = parse_src("pub const fn f() -> u32 { 1 }\nconst X: u32 = 2;\n");
        assert_eq!(file.items[0].kind, ItemKind::Fn);
        assert_eq!(file.items[0].name.as_deref(), Some("f"));
        assert!(file.items[0].is_pub);
        assert_eq!(file.items[1].kind, ItemKind::Const);
        assert_eq!(file.items[1].name.as_deref(), Some("X"));
    }

    #[test]
    fn enum_variants_with_payloads_attrs_and_discriminants() {
        let src = "pub enum E {\n    A,\n    #[serde(rename = \"b\")]\n    B(Vec<u32>),\n    C { x: u8, y: u8 },\n    D = 4,\n}\n";
        let file = parse_src(src);
        let vars: Vec<_> = file.items[0].variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(vars, vec!["A", "B", "C", "D"]);
        assert_eq!(file.items[0].variants[0].line, 2);
    }

    #[test]
    fn impl_names_and_children() {
        let src = "impl<T: Clone> Wrapper<T> {\n    fn one(&self) {}\n}\nimpl Display for Thing {\n    fn fmt(&self) -> Result<(), Error> { Ok(()) }\n}\n";
        let file = parse_src(src);
        assert_eq!(file.items[0].name.as_deref(), Some("Wrapper"));
        assert_eq!(file.items[0].children.len(), 1);
        assert_eq!(file.items[0].children[0].name.as_deref(), Some("one"));
        assert_eq!(file.items[1].name.as_deref(), Some("Thing"), "`for` target wins");
        roundtrip(src);
    }

    #[test]
    fn nested_modules_recurse() {
        let src = "mod a {\n    pub fn f() {}\n    mod b { pub fn g() {} }\n}\n";
        let file = parse_src(src);
        let a = &file.items[0];
        assert_eq!(a.kind, ItemKind::Mod);
        assert_eq!(a.children.len(), 2);
        assert_eq!(a.children[1].children[0].name.as_deref(), Some("g"));
    }

    #[test]
    fn test_attributes_mark_items_by_what_the_predicate_requires() {
        let src = "#[test]\nfn a() {}\n#[cfg(test)]\nmod m { fn inner() {} }\n#[cfg(not(test))]\nfn b() {}\n#[cfg(any(test, feature = \"x\"))]\nfn c() {}\n#[derive(Debug)]\n#[cfg(all(feature = \"x\", test))]\nstruct D;\n#[cfg_attr(test, derive(Debug))]\nstruct E;\n#![cfg(test)]\nfn f() {}\n";
        let file = parse_src(src);
        let flags: Vec<_> =
            file.items.iter().map(|i| (i.name.as_deref().unwrap_or("?"), i.is_test)).collect();
        assert_eq!(
            flags,
            [
                ("a", true),
                ("m", true),
                ("b", false),
                ("c", false),
                ("D", true),
                ("E", false),
                ("f", false)
            ],
            "only outer `#[test]` and `#[cfg(p)]` with p requiring `test` count"
        );
        assert!(!file.items[1].children[0].is_test, "members are test code by position only");
        roundtrip(src);
    }

    #[test]
    fn match_extraction_arms_and_nesting() {
        let src = "fn f(a: Alg) -> u32 {\n    match a {\n        Alg::A => 1,\n        Alg::B | Alg::C => match probe() {\n            Some(x) => x,\n            None => 0,\n        },\n        _ => 9,\n    }\n}\n";
        let toks = lex(src);
        let matches = match_exprs_in(src, &toks, 0, toks.len());
        assert_eq!(matches.len(), 2, "outer and nested match both found");
        assert_eq!(matches[0].arms.len(), 3);
        assert_eq!(matches[1].arms.len(), 2);
        // The wildcard arm's head is the single `_` token.
        let (lo, hi) = matches[0].arms[2];
        let head: Vec<_> = toks[lo..hi]
            .iter()
            .filter(|t| !crate::lexer::is_trivia(t.kind))
            .map(|t| t.text(src))
            .collect();
        assert_eq!(head, vec!["_"]);
    }

    #[test]
    fn match_arm_guards_stay_in_the_head() {
        let src = "fn f(x: u32) -> u32 { match x { n if n >= 3 => n, _ => 0 } }";
        let toks = lex(src);
        let m = &match_exprs_in(src, &toks, 0, toks.len())[0];
        assert_eq!(m.arms.len(), 2);
        let (lo, hi) = m.arms[0];
        let head: Vec<_> = toks[lo..hi]
            .iter()
            .filter(|t| !crate::lexer::is_trivia(t.kind))
            .map(|t| t.text(src))
            .collect();
        assert_eq!(head, vec!["n", "if", "n", ">", "=", "3"]);
    }

    #[test]
    fn adversarial_tokens_do_not_derail_item_boundaries() {
        let src = "fn a() { let s = r#\"} fn fake() {\"#; }\npub fn b() {}\n";
        let file = parse_src(src);
        let names: Vec<_> = file.items.iter().filter_map(|i| i.name.as_deref()).collect();
        assert_eq!(names, vec!["a", "b"], "raw string cannot close a body");
        roundtrip(src);
    }
}
