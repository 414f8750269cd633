//! One lex and one parse per file.
//!
//! [`ParsedFile::parse`] is the single place a source file is lexed
//! ([`crate::lexer`]) and parsed ([`crate::parser`]). The rules read
//! its tokens — so text inside string literals, raw strings, char
//! literals and comments can never produce a finding — and its item
//! tree: fn bodies, consts, and which items are test-only
//! ([`Item::is_test`]), which [`ParsedFile::is_test_line`] answers from.

use crate::ast::Item;
use crate::lexer::{self, Token};
use crate::parser;
use std::path::Path;

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
        ParsedFile { rel: rel.to_string(), source, tokens, items }
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
}
