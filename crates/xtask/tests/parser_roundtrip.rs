//! Parser round-trip property over the real workspace: for every `.rs`
//! file cargo would build, the item parse must tile the token stream —
//! every token owned by exactly one item (or the trailing run), in
//! order — and re-emitting the items must reproduce the file
//! byte-for-byte. [`sgp_xtask::parser::emit`] asserts the tiling
//! internally and concatenates the spans, so one call checks both.
//!
//! This is the contract the rules build on: a parser that dropped or
//! double-counted a token would silently detach fn bodies from their
//! names and test attributes from their items.

use sgp_xtask::lexer::lex;
use sgp_xtask::parser::{self, parse};
use sgp_xtask::workspace;
use std::path::PathBuf;

/// The real workspace root: `SGP_LINT_ROOT` when set (the offline test
/// harness points it at the checkout), else two levels up from this
/// crate.
fn workspace_root() -> PathBuf {
    match std::env::var_os("SGP_LINT_ROOT") {
        Some(root) => PathBuf::from(root),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    }
}

#[test]
fn every_workspace_file_roundtrips_through_the_parser() {
    let ws = workspace::discover(&workspace_root()).expect("discover workspace");
    let mut checked = 0usize;
    let mut fns = 0usize;
    for member in &ws.members {
        for file in &member.files {
            let source = std::fs::read_to_string(&file.path)
                .unwrap_or_else(|e| panic!("read {}: {e}", file.rel));
            let tokens = lex(&source);
            let parsed = parse(&source, &tokens);
            let rebuilt = parser::emit(&source, &tokens, &parsed)
                .unwrap_or_else(|e| panic!("{}: item spans do not tile the file: {e}", file.rel));
            assert_eq!(rebuilt, source, "{}: parser round-trip differs from source", file.rel);

            // The parse is not a degenerate single-opaque-blob tiling:
            // count named fns so a parser that classified everything as
            // `Other` would fail loudly here instead of passing the
            // byte-identity check vacuously.
            fn count_fns(items: &[sgp_xtask::ast::Item]) -> usize {
                items
                    .iter()
                    .map(|i| {
                        usize::from(i.kind == sgp_xtask::ast::ItemKind::Fn) + count_fns(&i.children)
                    })
                    .sum()
            }
            fns += count_fns(&parsed.items);
            checked += 1;
        }
    }
    assert!(checked >= 20, "workspace scan looks wrong: only {checked} files");
    assert!(fns >= 100, "parser found only {fns} fns across the workspace");
}
