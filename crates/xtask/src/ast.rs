//! Item-level AST for the semantic lint tier.
//!
//! The parser ([`crate::parser`]) groups the lossless token stream
//! ([`crate::lexer`]) into *items* — functions, types, impl blocks,
//! modules — without parsing expressions. Every node carries token
//! *ranges* into the original stream, never copies of text, so the tree
//! stays lossless by construction: `parser::emit` reassembles the file
//! byte-for-byte from the ranges alone (property-tested over every
//! workspace `.rs` file by `parser_roundtrip.rs`).
//!
//! Deliberate scope limits (documented in DESIGN.md §6):
//!
//! * Function bodies are opaque brace-matched token ranges; statements
//!   and expressions are not parsed. Rules that need structure inside a
//!   body (match arms, call sites) pattern-match over the body's token
//!   range with the helpers in [`crate::parser`].
//! * Nested `fn` items inside a body are *not* split out: their tokens
//!   belong to the enclosing function's body. The call graph therefore
//!   attributes a nested fn's panics to its parent (a sound
//!   over-approximation) and cannot resolve calls *to* it (an
//!   under-approximation, noted in the reachability rule's docs).
//! * Inner attributes (`#![…]`) and leading doc comments attach to the
//!   following item's span; the span partition stays exact either way.
//! * Attributes are read where items are: an attribute on a *statement*
//!   or nested item inside a fn body (or inside a macro invocation's
//!   `{ … }`) is part of that opaque body, so it never sets
//!   [`Item::is_test`].

use crate::cursor;
use crate::lexer::Token;

/// The syntactic class of an [`Item`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn name(…) { … }` or a bodiless trait-method declaration.
    Fn,
    /// `struct` or `union` definition.
    Struct,
    /// `enum` definition; variants are extracted into [`Item::variants`].
    Enum,
    /// `impl … { … }`; members are parsed into [`Item::children`].
    Impl,
    /// `mod name { … }` or `mod name;`.
    Mod,
    /// `trait Name { … }`; members are parsed into [`Item::children`].
    Trait,
    /// `use …;` or `extern crate …;`.
    Use,
    /// `const NAME: T = …;` (not `const fn`, which is [`ItemKind::Fn`]).
    Const,
    /// `static NAME: T = …;`.
    Static,
    /// `type Alias = …;`.
    TypeAlias,
    /// `macro_rules! name { … }`.
    MacroDef,
    /// An item-position macro invocation (`thread_local! { … }`).
    MacroInvocation,
    /// Anything the item grammar above does not cover; consumed
    /// conservatively to the next `;` or brace group so the span
    /// partition stays exact.
    Other,
}

/// One enum variant: its identifier and 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumVariant {
    /// Variant identifier (payloads and discriminants are skipped).
    pub name: String,
    /// 1-based line of the identifier token.
    pub line: usize,
}

/// One parsed item. All ranges are half-open `[start, end)` indices
/// into the token stream the file was parsed from, except `body`,
/// which is the *inclusive* index pair of the `{` and `}` tokens.
#[derive(Debug, Clone)]
pub struct Item {
    /// Syntactic class.
    pub kind: ItemKind,
    /// Declared name, when the grammar position has one (`impl` blocks
    /// record the self-type's last path segment).
    pub name: Option<String>,
    /// 1-based line of the name (or of the introducing keyword).
    pub line: usize,
    /// True only for unrestricted `pub`; `pub(crate)`/`pub(super)` are
    /// not public entry points and stay false.
    pub is_pub: bool,
    /// True when one of the item's own outer attributes compiles it
    /// for tests only: `#[test]`, or `#[cfg(p)]` where `p` *requires*
    /// `test` (`test`, `all(test, …)`; `not(test)` and `any(test, …)`
    /// are production code). Members of a test container are test code
    /// by position; the flag is not copied down to them.
    pub is_test: bool,
    /// Token range of the whole item, leading trivia and attributes
    /// included. Sibling spans tile their region with no gaps.
    pub span: (usize, usize),
    /// Indices of the `{` and `}` tokens of a braced body, if any.
    pub body: Option<(usize, usize)>,
    /// Parsed members of an `impl`/`mod`/`trait` body.
    pub children: Vec<Item>,
    /// Token range between the last child and the closing brace (the
    /// container's interior trailing trivia); set only when `children`
    /// semantics apply.
    pub body_trailing: Option<(usize, usize)>,
    /// Variants of an `enum` item.
    pub variants: Vec<EnumVariant>,
}

/// A parsed file: top-level items plus the trailing token range after
/// the last item (EOF trivia, or the whole file when there are no
/// items).
#[derive(Debug, Clone)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Token range after the last item.
    pub trailing: (usize, usize),
}

impl Item {
    /// Does this item's kind parse its body into [`Item::children`]?
    pub fn is_container(&self) -> bool {
        matches!(self.kind, ItemKind::Impl | ItemKind::Mod | ItemKind::Trait)
    }

    /// 1-based first and last line of the item proper: from its first
    /// attribute or keyword (leading comments excluded) to its closing
    /// `}` or `;`.
    pub fn lines(&self, toks: &[Token]) -> (usize, usize) {
        let first = cursor::skip_trivia(toks, self.span.0, self.span.1 - 1);
        (toks[first].line, toks[self.span.1 - 1].line)
    }
}
