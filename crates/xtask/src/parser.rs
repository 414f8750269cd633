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
//! opaque token ranges.

use crate::ast::{File, Item, ItemKind};
use crate::cursor::{ident, next_in, punct, skip_trivia};
use crate::lexer::{Token, TokenKind};

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
    let mut is_test = false;
    let mut item = loop {
        k = skip_trivia(toks, k, hi);
        if k >= hi {
            break leaf(ItemKind::Other, None, toks[first].line, start, hi);
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
                _ => break other_item(src, toks, start, k, hi),
            }
        }
        let Some(word) = ident(src, toks, k) else {
            break other_item(src, toks, start, k, hi);
        };
        match word {
            "pub" => match next_in(toks, k, hi) {
                // `pub(crate)` / `pub(in path)`: skip the restriction.
                Some(n) if punct(src, toks, n) == Some('(') => {
                    k = match_group(src, toks, n, hi) + 1
                }
                Some(n) => k = n,
                None => break leaf(ItemKind::Other, None, toks[k].line, start, hi),
            },
            "default" | "async" | "unsafe" => match next_in(toks, k, hi) {
                Some(n) => k = n,
                None => break leaf(ItemKind::Other, None, toks[k].line, start, hi),
            },
            "extern" => {
                let n = next_in(toks, k, hi);
                match n {
                    Some(j) if matches!(toks[j].kind, TokenKind::Str { .. }) => {
                        // `extern "C"` ABI modifier on an fn.
                        match next_in(toks, j, hi) {
                            Some(m) => k = m,
                            None => break leaf(ItemKind::Other, None, toks[k].line, start, hi),
                        }
                    }
                    Some(j) if ident(src, toks, j) == Some("crate") => {
                        let name = next_in(toks, j, hi)
                            .and_then(|m| ident(src, toks, m))
                            .map(String::from);
                        let end = consume_to_semi(src, toks, j, hi);
                        break leaf(ItemKind::Use, name, toks[k].line, start, end);
                    }
                    _ => break other_item(src, toks, start, k, hi),
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
                break leaf(kind, name, toks[k].line, start, end);
            }
            "fn" => break parse_braced(src, toks, start, k, hi, ItemKind::Fn),
            "struct" | "union" => break parse_braced(src, toks, start, k, hi, ItemKind::Struct),
            "enum" => break parse_braced(src, toks, start, k, hi, ItemKind::Enum),
            "impl" => break parse_braced(src, toks, start, k, hi, ItemKind::Impl),
            "mod" => break parse_braced(src, toks, start, k, hi, ItemKind::Mod),
            "trait" => break parse_braced(src, toks, start, k, hi, ItemKind::Trait),
            "use" => {
                let end = consume_to_semi(src, toks, k, hi);
                break leaf(ItemKind::Use, None, toks[k].line, start, end);
            }
            "type" => {
                let name = next_in(toks, k, hi).and_then(|j| ident(src, toks, j)).map(String::from);
                let end = consume_to_semi(src, toks, k, hi);
                break leaf(ItemKind::TypeAlias, name, toks[k].line, start, end);
            }
            "macro_rules" => break parse_macro_def(src, toks, start, k, hi),
            _ => break macro_invocation_or_other(src, toks, start, k, hi),
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

fn leaf(kind: ItemKind, name: Option<String>, line: usize, start: usize, end: usize) -> Item {
    Item {
        kind,
        name,
        line,
        is_test: false,
        span: (start, end),
        body: None,
        children: Vec::new(),
        body_trailing: None,
    }
}

/// Fallback for unrecognised syntax: consume to the first `;` at depth
/// 0 or past the first top-level brace group, so the span partition
/// stays exact and the parser always makes progress.
fn other_item(src: &str, toks: &[Token], start: usize, from: usize, hi: usize) -> Item {
    let line = toks[from.min(hi - 1)].line;
    let mut depth = 0i64;
    let mut j = from;
    while j < hi {
        match punct(src, toks, j) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('{') if depth <= 0 => {
                let close = match_group(src, toks, j, hi);
                return leaf(ItemKind::Other, None, line, start, close + 1);
            }
            Some(';') if depth <= 0 => return leaf(ItemKind::Other, None, line, start, j + 1),
            _ => {}
        }
        j += 1;
    }
    leaf(ItemKind::Other, None, line, start, hi)
}

/// `fn`, `struct`/`union`/`enum`, `impl`, `mod` and `trait`: a name
/// (none for `impl`), then either `;` or a matched brace body. The
/// bodies of `impl`/`mod`/`trait` are parsed into child items.
fn parse_braced(
    src: &str,
    toks: &[Token],
    start: usize,
    kw: usize,
    hi: usize,
    kind: ItemKind,
) -> Item {
    let name_at = next_in(toks, kw, hi)
        .filter(|&j| kind != ItemKind::Impl && toks[j].kind == TokenKind::Ident);
    let (name, line) = match name_at {
        Some(j) => (Some(toks[j].text(src).to_string()), toks[j].line),
        None => (None, toks[kw].line),
    };
    match find_stop(src, toks, name_at.unwrap_or(kw) + 1, hi) {
        Stop::Semi(s) => leaf(kind, name, line, start, s + 1),
        Stop::Brace(o) => {
            let close = match_group(src, toks, o, hi);
            let mut item = leaf(kind, name, line, start, close + 1);
            item.body = Some((o, close));
            if item.is_container() {
                let (children, trailing) = parse_range(src, toks, o + 1, close);
                item.children = children;
                item.body_trailing = Some(trailing);
            }
            item
        }
        Stop::End => leaf(kind, name, line, start, hi),
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
            leaf(ItemKind::MacroDef, name, line, start, end)
        }
        _ => other_item(src, toks, start, kw, hi),
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
            let name = Some(toks[from].text(src).to_string());
            leaf(ItemKind::MacroInvocation, name, toks[from].line, start, end)
        }
        _ => other_item(src, toks, start, from, hi),
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
    fn fn_names_and_bodies() {
        let src = "pub fn a() { body(); }\nfn b(x: u32) -> u32;\npub(crate) fn c() {}\n";
        let file = parse_src(src);
        let names: Vec<_> = file.items.iter().map(|i| i.name.as_deref()).collect();
        assert_eq!(names, [Some("a"), Some("b"), Some("c")]);
        assert!(file.items[0].body.is_some());
        assert!(file.items[1].body.is_none(), "bodiless declaration has no body");
    }

    #[test]
    fn const_fn_is_a_fn_not_a_const() {
        let file = parse_src("pub const fn f() -> u32 { 1 }\nconst X: u32 = 2;\n");
        assert_eq!(file.items[0].kind, ItemKind::Fn);
        assert_eq!(file.items[0].name.as_deref(), Some("f"));
        assert_eq!(file.items[1].kind, ItemKind::Const);
        assert_eq!(file.items[1].name.as_deref(), Some("X"));
    }

    #[test]
    fn impl_children() {
        let src = "impl<T: Clone> Wrapper<T> {\n    fn one(&self) {}\n}\nimpl Display for Thing {\n    fn fmt(&self) -> Result<(), Error> { Ok(()) }\n}\n";
        let file = parse_src(src);
        assert_eq!(file.items[0].kind, ItemKind::Impl);
        assert_eq!(file.items[0].children.len(), 1);
        assert_eq!(file.items[0].children[0].name.as_deref(), Some("one"));
        assert_eq!(file.items[1].children[0].name.as_deref(), Some("fmt"));
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
    fn adversarial_tokens_do_not_derail_item_boundaries() {
        let src = "fn a() { let s = r#\"} fn fake() {\"#; }\npub fn b() {}\n";
        let file = parse_src(src);
        let names: Vec<_> = file.items.iter().filter_map(|i| i.name.as_deref()).collect();
        assert_eq!(names, vec!["a", "b"], "raw string cannot close a body");
        roundtrip(src);
    }
}
