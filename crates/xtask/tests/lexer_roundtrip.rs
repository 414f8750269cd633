//! Lexer round-trip property over the real workspace: for every `.rs`
//! file cargo would build, the token stream must tile the source exactly
//! — contiguous byte spans starting at 0 and ending at `len`, with the
//! concatenation of token texts reproducing the file byte-for-byte, and
//! line/column positions consistent with the newlines actually seen.
//!
//! This is the contract every rule builds on: a lexer that drops or
//! double-counts a byte would silently shift `file:line` spans.

use sgp_xtask::lexer::{lex, TokenKind};
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
fn every_workspace_file_roundtrips_through_the_lexer() {
    let ws = workspace::discover(&workspace_root()).expect("discover workspace");
    let mut checked = 0usize;
    for member in &ws.members {
        for file in &member.files {
            let source = std::fs::read_to_string(&file.path)
                .unwrap_or_else(|e| panic!("read {}: {e}", file.rel));
            let tokens = lex(&source);

            // Spans tile the source: contiguous, in order, no gaps.
            let mut offset = 0usize;
            for t in &tokens {
                assert_eq!(t.start, offset, "{}: gap before token at byte {}", file.rel, t.start);
                assert!(t.end > t.start, "{}: empty token at byte {}", file.rel, t.start);
                offset = t.end;
            }
            assert_eq!(offset, source.len(), "{}: tokens do not cover the file", file.rel);

            // Concatenated texts reproduce the bytes.
            let rebuilt: String = tokens.iter().map(|t| t.text(&source)).collect();
            assert_eq!(rebuilt, source, "{}: token texts differ from source", file.rel);

            // Line numbers agree with the newlines seen so far.
            let mut line = 1usize;
            for t in &tokens {
                assert_eq!(t.line, line, "{}: token at byte {} has wrong line", file.rel, t.start);
                line += t.text(&source).matches('\n').count();
            }

            // Every string/char/block comment in committed code is
            // terminated (the lexer tolerates unterminated ones, but the
            // tree must not contain any).
            for t in &tokens {
                let ok = match t.kind {
                    TokenKind::Str { terminated, .. } => terminated,
                    TokenKind::Char { terminated } => terminated,
                    TokenKind::BlockComment { terminated, .. } => terminated,
                    _ => true,
                };
                assert!(ok, "{}: unterminated token at byte {}", file.rel, t.start);
            }
            checked += 1;
        }
    }
    assert!(checked >= 20, "workspace scan looks wrong: only {checked} files");
}
