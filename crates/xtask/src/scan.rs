//! One lex and one parse per file.
//!
//! [`ParsedFile::parse`] is the single place a source file is lexed
//! ([`crate::lexer`]) and parsed ([`crate::parser`]). Everything the
//! rules consume is in the resulting [`ParsedFile`], and everything
//! structural is read off its item tree:
//!
//! 1. *The tokens* — rules pattern-match identifiers, method calls and
//!    macro bangs over tokens (helpers in [`crate::cursor`]), so text
//!    inside string literals, raw strings, char literals and (doc)
//!    comments can never produce a finding.
//! 2. *The items* — fn bodies, consts, enum variants, and which items
//!    are test-only ([`Item::is_test`]). [`ParsedFile::is_test_line`]
//!    answers from that flag, so `no-panic-in-lib` and friends skip unit
//!    tests embedded in library files.
//! 3. *Allow directives* — `// sgp-lint: …` comments, parsed only from
//!    plain (non-doc) line-comment tokens and anchored to the token's
//!    line. Doc comments describing the syntax never count.
//!
//! Directives come in three scopes:
//!
//! ```text
//! // sgp-lint: allow(<rule>): <why>        same line or the line after
//! // sgp-lint: allow-scope(<rule>): <why>  the next item
//! // sgp-lint: allow-file(<rule>): <why>   the whole file
//! ```
//!
//! `allow-scope` must sit on its own line above the item it exempts —
//! at module level or between the members of an `impl`/`mod`/`trait` —
//! and reaches to that item's closing brace (or the `;` of a braceless
//! item). Statements inside a fn body are not items: an `allow-scope`
//! there covers nothing and is reported as unused.

use crate::ast::Item;
use crate::lexer::{self, DocStyle, Token, TokenKind};
use crate::parser;
use std::path::Path;

/// The scope of an allow directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectiveScope {
    /// Applies to the directive's own line and the line after it.
    Line,
    /// Applies from the directive to the end of the next item
    /// (inclusive).
    Scope {
        /// 1-based last line the directive covers.
        end_line: usize,
    },
    /// Applies to the whole file.
    File,
}

/// A parsed `sgp-lint:` directive.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line the directive appears on.
    pub line: usize,
    /// `allow(...)`, `allow-scope(...)` or `allow-file(...)`.
    pub scope: DirectiveScope,
    /// The rule name inside the parentheses.
    pub rule: String,
    /// Trailing justification text (may be empty — that is an error the
    /// rules layer reports).
    pub justification: String,
    /// Raw directive text for diagnostics.
    pub raw: String,
}

/// One source file, lexed once and parsed once.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub rel: String,
    /// The raw source text (tokens index into it).
    pub source: String,
    /// The lossless token stream.
    pub tokens: Vec<Token>,
    /// The item tree over `tokens` (top-level items in source order).
    pub items: Vec<Item>,
    /// All `sgp-lint:` directives in the file.
    pub directives: Vec<Directive>,
}

impl ParsedFile {
    /// Reads, lexes and parses one file.
    pub fn read(path: &Path, rel: &str) -> Result<ParsedFile, String> {
        let source = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Ok(ParsedFile::parse(source, rel))
    }

    /// Lexes and parses in-memory source.
    pub fn parse(source: impl Into<String>, rel: &str) -> ParsedFile {
        let source: String = source.into();
        let tokens = lexer::lex(&source);
        let items = parser::parse(&source, &tokens).items;
        let mut directives = Vec::new();
        for t in &tokens {
            if t.kind != TokenKind::LineComment(DocStyle::None) {
                continue;
            }
            if let Some(mut d) = parse_directive(t.line, t.text(&source)) {
                if matches!(d.scope, DirectiveScope::Scope { .. }) {
                    d.scope = DirectiveScope::Scope {
                        end_line: allow_scope_end(&tokens, &items, t.line),
                    };
                }
                directives.push(d);
            }
        }
        ParsedFile { rel: rel.to_string(), source, tokens, items, directives }
    }

    /// Whether 1-based `line` sits inside a test-only item (from its
    /// first attribute to its closing brace).
    pub fn is_test_line(&self, line: usize) -> bool {
        in_test_item(&self.tokens, &self.items, line)
    }
}

/// Is `line` inside a test item of `items` (or of their members)?
/// Sibling spans ascend, so the first candidate is found by bisection;
/// there is more than one only when items share a line.
fn in_test_item(toks: &[Token], items: &[Item], line: usize) -> bool {
    let from = items.partition_point(|it| it.lines(toks).1 < line);
    items[from..]
        .iter()
        .take_while(|it| it.lines(toks).0 <= line)
        .any(|it| it.is_test || in_test_item(toks, &it.children, line))
}

/// The last line an `allow-scope` directive on `dir_line` covers: the
/// end of the first item that *starts* on a later line, looked up where
/// the directive sits — among the top-level items, or among the members
/// of the container around it. Inside a leaf item (a fn body) there is
/// no item to attach to and the directive covers only itself.
fn allow_scope_end(toks: &[Token], items: &[Item], dir_line: usize) -> usize {
    for it in items {
        let (first, last) = it.lines(toks);
        if first > dir_line {
            return last;
        }
        if dir_line <= last {
            return if it.is_container() {
                allow_scope_end(toks, &it.children, dir_line)
            } else {
                dir_line
            };
        }
    }
    dir_line
}

// ---------------------------------------------------------------------------
// Directive parsing
// ---------------------------------------------------------------------------

/// Parses one plain line comment into a directive, if it contains
/// `sgp-lint:`. Doc comments never reach here — they are documentation
/// *about* the syntax, not uses of it.
fn parse_directive(line: usize, comment: &str) -> Option<Directive> {
    let idx = comment.find("sgp-lint:")?;
    let rest = comment[idx + "sgp-lint:".len()..].trim_start();
    let (scope, after_kw) = if let Some(r) = rest.strip_prefix("allow-file") {
        (DirectiveScope::File, r)
    } else if let Some(r) = rest.strip_prefix("allow-scope") {
        // The real end line is filled in by `ParsedFile::parse`, which
        // has the item tree in hand.
        (DirectiveScope::Scope { end_line: line }, r)
    } else if let Some(r) = rest.strip_prefix("allow") {
        (DirectiveScope::Line, r)
    } else {
        // Unknown directive verb — surface it with an empty rule; the
        // rules layer reports it as malformed.
        return Some(Directive {
            line,
            scope: DirectiveScope::Line,
            rule: String::new(),
            justification: String::new(),
            raw: rest.to_string(),
        });
    };
    let after_kw = after_kw.trim_start();
    let (rule, tail) = match after_kw.strip_prefix('(').and_then(|r| r.split_once(')')) {
        Some((rule, tail)) => (rule.trim().to_string(), tail),
        None => (String::new(), after_kw),
    };
    let justification = tail.trim_start().trim_start_matches([':', '-', '—']).trim().to_string();
    Some(Directive { line, scope, rule, justification, raw: rest.to_string() })
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-line test flags, 0-indexed like the source lines.
    fn test_flags(src: &str) -> Vec<bool> {
        let f = ParsedFile::parse(src, "t.rs");
        (1..=src.lines().count()).map(|l| f.is_test_line(l)).collect()
    }

    #[test]
    fn cfg_test_block_is_marked() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\npub fn after() {}\n";
        assert_eq!(test_flags(src), [false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_swallow_next_block() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\npub fn real() { body(); }\n";
        assert_eq!(test_flags(src), [true, true, false], "the fn after is not test code");
    }

    #[test]
    fn multi_line_test_attribute_is_recognised() {
        let src = "#[cfg(\n    test\n)]\nmod tests {\n    fn t() {}\n}\nfn real() {}\n";
        assert_eq!(test_flags(src), [true, true, true, true, true, true, false]);
    }

    #[test]
    fn test_attr_in_string_is_ignored() {
        let src = "let s = \"#[cfg(test)]\";\nfn f() { g(); }\n";
        assert_eq!(test_flags(src), [false, false]);
    }

    #[test]
    fn cfg_predicates_that_do_not_require_test_are_production_code() {
        for gate in ["not(test)", "any(test, feature = \"x\")", "feature = \"test\"", "any()"] {
            let src = format!("#[cfg({gate})]\nfn f() {{ x.unwrap(); }}\n");
            assert_eq!(test_flags(&src), [false, false], "cfg({gate}) compiles outside tests");
        }
        for gate in ["test", "all(test, debug_assertions)", "all(unix, any(test))", "any(test,)"] {
            let src = format!("#[cfg({gate})]\nfn f() {{ x.unwrap(); }}\n");
            assert_eq!(test_flags(&src), [true, true], "cfg({gate}) compiles only under test");
        }
    }

    #[test]
    fn array_types_and_attribute_stacks_do_not_end_a_test_item_early() {
        // A `;` inside `[u8; 3]` is not the end of the item, and the
        // test attribute need not be the last one before the keyword.
        let src =
            "#[test]\n#[should_panic]\nfn t(x: [u8; 3]) {\n    x.unwrap();\n}\nfn real() {}\n";
        assert_eq!(test_flags(src), [true, true, true, true, true, false]);
    }

    #[test]
    fn members_of_a_test_container_are_test_lines_and_siblings_are_not() {
        let src = "impl S {\n    #[cfg(test)]\n    fn probe(&self) {}\n    fn real(&self) {}\n}\n";
        assert_eq!(test_flags(src), [false, true, true, false, false]);
    }

    #[test]
    fn statement_attributes_inside_a_fn_body_are_not_seen() {
        // The documented limit (DESIGN.md §6): fn bodies are opaque.
        let src = "fn f() {\n    #[cfg(test)]\n    { x.unwrap(); }\n}\n";
        assert_eq!(test_flags(src), [false, false, false, false]);
    }

    #[test]
    fn parses_line_directive_with_justification() {
        let s = ParsedFile::parse(
            "// sgp-lint: allow(no-panic-in-lib): value constructed two lines up\nx.unwrap();\n",
            "t.rs",
        );
        assert_eq!(s.directives.len(), 1);
        let d = &s.directives[0];
        assert_eq!(d.scope, DirectiveScope::Line);
        assert_eq!(d.rule, "no-panic-in-lib");
        assert!(d.justification.contains("constructed"));
        assert_eq!(d.line, 1);
    }

    #[test]
    fn parses_file_directive_and_missing_justification() {
        let s = ParsedFile::parse(
            "// sgp-lint: allow-file(no-wallclock-in-sim): bench-only harness\n// sgp-lint: allow(no-panic-in-lib)\n",
            "t.rs",
        );
        assert_eq!(s.directives.len(), 2);
        assert_eq!(s.directives[0].scope, DirectiveScope::File);
        assert!(s.directives[1].justification.is_empty());
    }

    #[test]
    fn allow_scope_covers_the_next_item_only() {
        let src = "\
// sgp-lint: allow-scope(no-panic-in-lib): whole fn is a rendering helper
fn render() {
    x.unwrap();
}
fn after() {}
";
        let s = ParsedFile::parse(src, "t.rs");
        assert_eq!(s.directives.len(), 1);
        assert_eq!(s.directives[0].scope, DirectiveScope::Scope { end_line: 4 });
    }

    #[test]
    fn allow_scope_on_braceless_item_ends_at_semicolon() {
        let src = "// sgp-lint: allow-scope(no-hash-iteration): re-export only\nuse x::HashMap;\nfn f() {}\n";
        let s = ParsedFile::parse(src, "t.rs");
        assert_eq!(s.directives[0].scope, DirectiveScope::Scope { end_line: 2 });
    }

    #[test]
    fn allow_scope_attaches_to_members_inside_containers() {
        let src = "impl S {\n    // sgp-lint: allow-scope(no-float-accounting): report ratio\n    fn ratio(&self) -> f64 {\n        1.0\n    }\n    fn after(&self) {}\n}\n";
        let s = ParsedFile::parse(src, "t.rs");
        assert_eq!(s.directives[0].scope, DirectiveScope::Scope { end_line: 5 });
    }

    #[test]
    fn allow_scope_inside_a_fn_body_covers_only_itself() {
        let src = "fn f() {\n    // sgp-lint: allow-scope(no-panic-in-lib): a statement is not an item\n    let x = { y.unwrap() };\n}\nfn g() {}\n";
        let s = ParsedFile::parse(src, "t.rs");
        assert_eq!(s.directives[0].scope, DirectiveScope::Scope { end_line: 2 });
    }

    #[test]
    fn doc_comments_do_not_carry_directives() {
        let s = ParsedFile::parse(
            "//! Write `// sgp-lint: allow(x): y` to suppress.\n/// e.g. // sgp-lint: allow(z): w\n",
            "t.rs",
        );
        assert!(s.directives.is_empty());
    }

    #[test]
    fn directive_inside_string_is_not_parsed() {
        let s = ParsedFile::parse("let s = \"// sgp-lint: allow(x): y\";\n", "t.rs");
        assert!(s.directives.is_empty());
    }

    #[test]
    fn directive_inside_raw_string_is_not_parsed() {
        let s = ParsedFile::parse(
            "let doc = r#\"\n// sgp-lint: allow-file(no-panic-in-lib): smuggled\n\"#;\n",
            "t.rs",
        );
        assert!(s.directives.is_empty());
    }

    #[test]
    fn trailing_comment_without_newline_is_captured() {
        let s =
            ParsedFile::parse("x.unwrap(); // sgp-lint: allow(no-panic-in-lib): provable", "t.rs");
        assert_eq!(s.directives.len(), 1);
        assert_eq!(s.directives[0].line, 1);
    }
}
