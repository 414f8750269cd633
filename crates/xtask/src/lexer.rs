//! A hand-rolled, dependency-free Rust lexer.
//!
//! The lexer turns a source file into a flat, *lossless* token stream:
//! every byte of the input belongs to exactly one token, tokens carry
//! byte offsets plus 1-based line/column spans, and concatenating the
//! token texts reproduces the file byte-for-byte (enforced by the
//! `lexer_roundtrip` integration test over every `.rs` file in the
//! workspace).
//!
//! It understands the lexical shapes that defeat line-regex scanners:
//!
//! * raw strings with any number of hashes (`r#"…"#`, `br##"…"##`),
//!   including multi-line bodies containing quotes and hashes;
//! * byte strings and C strings (`b"…"`, `c"…"`);
//! * nested block comments (`/* a /* b */ c */`);
//! * char literals vs. lifetimes (`'a'` vs `'a`), escaped chars
//!   (`'\''`, `'\n'`), byte chars (`b'x'`);
//! * raw identifiers (`r#match`).
//!
//! A number is one token of digits and identifier characters (`0x1f`,
//! `1_000u64`, `1e9`); a fraction's `.` is punctuation, which no rule
//! reads.
//!
//! It deliberately does **not** parse: the item parser
//! ([`crate::parser`]) and the rules work on this token stream, so text
//! inside strings and comments can never match.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of whitespace (including newlines).
    Whitespace,
    /// A `//`-style comment (doc comments included), up to but
    /// excluding the newline.
    LineComment,
    /// A `/* … */` comment (possibly nested; `terminated` is false when
    /// the file ends inside it).
    BlockComment {
        /// Whether the closing `*/` was found.
        terminated: bool,
    },
    /// A string literal: `"…"`, `b"…"`, `c"…"`, `r"…"`, `r#"…"#`,
    /// `br#"…"#`.
    Str {
        /// Whether the closing delimiter was found.
        terminated: bool,
    },
    /// A char or byte-char literal (`'x'`, `'\n'`, `b'x'`).
    Char {
        /// Whether the closing quote was found.
        terminated: bool,
    },
    /// A lifetime or loop label (`'a`, `'static`, `'_`).
    Lifetime,
    /// An identifier or keyword, including raw identifiers (`r#match`).
    Ident,
    /// A numeric literal (see the module docs for where it ends).
    Number,
    /// A single punctuation character (`.`, `{`, `!`, …).
    Punct,
}

/// One token with its byte span and source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token classification.
    pub kind: TokenKind,
    /// Byte offset of the first byte (inclusive).
    pub start: usize,
    /// Byte offset past the last byte (exclusive).
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: usize,
    /// 1-based column (in characters) of the first byte.
    pub col: usize,
}

impl Token {
    /// The token's text inside `source` (the string it was lexed from).
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start..self.end]
    }
}

/// Lexes `source` into a lossless token stream.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

struct Lexer<'s> {
    src: &'s str,
    chars: Vec<(usize, char)>,
    /// Index into `chars` of the next unconsumed character.
    pos: usize,
    line: usize,
    col: usize,
    tokens: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src,
            chars: src.char_indices().collect(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    /// Byte offset of the character at `self.pos + ahead` (or EOF).
    fn offset(&self, ahead: usize) -> usize {
        self.chars.get(self.pos + ahead).map_or(self.src.len(), |&(o, _)| o)
    }

    /// Consumes `n` characters, updating line/column bookkeeping.
    fn bump(&mut self, n: usize) {
        for _ in 0..n {
            if let Some(&(_, c)) = self.chars.get(self.pos) {
                self.pos += 1;
                if c == '\n' {
                    self.line += 1;
                    self.col = 1;
                } else {
                    self.col += 1;
                }
            }
        }
    }

    fn run(mut self) -> Vec<Token> {
        while self.pos < self.chars.len() {
            let start = self.offset(0);
            let (line, col) = (self.line, self.col);
            let kind = self.next_kind();
            let end = self.offset(0);
            debug_assert!(end > start, "lexer must always make progress");
            self.tokens.push(Token { kind, start, end, line, col });
        }
        self.tokens
    }

    /// Lexes one token starting at the current position and returns its
    /// kind; the position is left just past the token.
    fn next_kind(&mut self) -> TokenKind {
        let c = self.peek(0).unwrap_or('\0');
        if c.is_whitespace() {
            let mut n = 1;
            while self.peek(n).is_some_and(char::is_whitespace) {
                n += 1;
            }
            self.bump(n);
            return TokenKind::Whitespace;
        }
        if c == '/' && self.peek(1) == Some('/') {
            return self.line_comment();
        }
        if c == '/' && self.peek(1) == Some('*') {
            return self.block_comment();
        }
        if c == '"' {
            return self.string(0);
        }
        if c == '\'' {
            return self.char_or_lifetime();
        }
        if is_ident_start(c) {
            return self.ident_or_prefixed_literal(c);
        }
        if c.is_ascii_digit() {
            return self.number();
        }
        self.bump(1);
        TokenKind::Punct
    }

    fn line_comment(&mut self) -> TokenKind {
        let mut n = 2;
        while self.peek(n).is_some_and(|c| c != '\n') {
            n += 1;
        }
        self.bump(n);
        TokenKind::LineComment
    }

    fn block_comment(&mut self) -> TokenKind {
        let mut n = 2;
        let mut depth = 1u32;
        let terminated = loop {
            match (self.peek(n), self.peek(n + 1)) {
                (Some('*'), Some('/')) => {
                    n += 2;
                    depth -= 1;
                    if depth == 0 {
                        break true;
                    }
                }
                (Some('/'), Some('*')) => {
                    n += 2;
                    depth += 1;
                }
                (Some(_), _) => n += 1,
                (None, _) => break false,
            }
        };
        self.bump(n);
        TokenKind::BlockComment { terminated }
    }

    /// Lexes `"…"` with escapes. `prefix` characters (the `b` of a byte
    /// string, already validated) are consumed along with the literal.
    fn string(&mut self, prefix: usize) -> TokenKind {
        let mut n = prefix + 1; // past the opening quote
        let terminated = loop {
            match self.peek(n) {
                Some('\\') => n += if self.peek(n + 1).is_some() { 2 } else { 1 },
                Some('"') => {
                    n += 1;
                    break true;
                }
                Some(_) => n += 1,
                None => break false,
            }
        };
        self.bump(n);
        TokenKind::Str { terminated }
    }

    /// Lexes `r#*"…"#*` (prefix = chars before the first `#`/`"`, i.e.
    /// 1 for `r`, 2 for `br`).
    fn raw_string(&mut self, prefix: usize) -> TokenKind {
        let mut n = prefix;
        let mut hashes = 0usize;
        while self.peek(n) == Some('#') {
            hashes += 1;
            n += 1;
        }
        n += 1; // the opening quote (caller validated it)
        let terminated = loop {
            match self.peek(n) {
                Some('"') => {
                    if (0..hashes).all(|h| self.peek(n + 1 + h) == Some('#')) {
                        n += 1 + hashes;
                        break true;
                    }
                    n += 1;
                }
                Some(_) => n += 1,
                None => break false,
            }
        };
        self.bump(n);
        TokenKind::Str { terminated }
    }

    /// Disambiguates `'a'` (char), `'\n'` (char), `'a` (lifetime).
    fn char_or_lifetime(&mut self) -> TokenKind {
        match self.peek(1) {
            Some('\\') => self.char_literal(0),
            Some(c) if is_ident_start(c) || c.is_ascii_digit() => {
                if self.peek(2) == Some('\'') {
                    self.char_literal(0)
                } else {
                    // `'ident` — a lifetime or loop label.
                    let mut n = 2;
                    while self.peek(n).is_some_and(is_ident_continue) {
                        n += 1;
                    }
                    self.bump(n);
                    TokenKind::Lifetime
                }
            }
            _ => self.char_literal(0),
        }
    }

    /// Lexes a (possibly byte-) char literal; `prefix` is 1 for `b'x'`.
    fn char_literal(&mut self, prefix: usize) -> TokenKind {
        let mut n = prefix + 1;
        let terminated = loop {
            match self.peek(n) {
                Some('\\') => n += if self.peek(n + 1).is_some() { 2 } else { 1 },
                Some('\'') => {
                    n += 1;
                    break true;
                }
                Some('\n') | None => break false,
                Some(_) => n += 1,
            }
        };
        self.bump(n);
        TokenKind::Char { terminated }
    }

    /// An identifier, keyword, raw identifier, or a string/char literal
    /// with an identifier-like prefix (`r"…"`, `b'x'`, `br#"…"#`,
    /// `c"…"`).
    fn ident_or_prefixed_literal(&mut self, first: char) -> TokenKind {
        match first {
            'r' => {
                if self.peek(1) == Some('"')
                    || (self.peek(1) == Some('#') && self.raw_quote_after(2))
                {
                    return self.raw_string(1);
                }
                if self.peek(1) == Some('#') && self.peek(2).is_some_and(is_ident_start) {
                    // Raw identifier `r#match`.
                    let mut n = 3;
                    while self.peek(n).is_some_and(is_ident_continue) {
                        n += 1;
                    }
                    self.bump(n);
                    return TokenKind::Ident;
                }
            }
            'b' => {
                if self.peek(1) == Some('"') {
                    return self.string(1);
                }
                if self.peek(1) == Some('\'') {
                    return self.char_literal(1);
                }
                if self.peek(1) == Some('r')
                    && (self.peek(2) == Some('"')
                        || (self.peek(2) == Some('#') && self.raw_quote_after(3)))
                {
                    return self.raw_string(2);
                }
            }
            'c' if self.peek(1) == Some('"') => return self.string(1),
            _ => {}
        }
        let mut n = 1;
        while self.peek(n).is_some_and(is_ident_continue) {
            n += 1;
        }
        self.bump(n);
        TokenKind::Ident
    }

    /// True when, starting at `ahead` (just past the first `#`), zero
    /// or more further hashes are followed by a quote — i.e. the `#`
    /// run belongs to a raw-string opener, not a raw identifier.
    fn raw_quote_after(&self, mut ahead: usize) -> bool {
        while self.peek(ahead) == Some('#') {
            ahead += 1;
        }
        self.peek(ahead) == Some('"')
    }

    fn number(&mut self) -> TokenKind {
        let mut n = 1;
        while self.peek(n).is_some_and(is_ident_continue) {
            n += 1;
        }
        self.bump(n);
        TokenKind::Number
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True for token kinds that carry no syntactic weight (whitespace and
/// comments) — rule matchers skip these when looking at neighbours.
pub fn is_trivia(kind: TokenKind) -> bool {
    matches!(kind, TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::Whitespace)
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn roundtrip(src: &str) {
        let toks = lex(src);
        let mut at = 0;
        for t in &toks {
            assert_eq!(t.start, at, "token gap in {src:?}");
            at = t.end;
        }
        assert_eq!(at, src.len(), "tokens must cover {src:?}");
    }

    #[test]
    fn covers_every_byte() {
        for src in [
            "",
            "fn main() {}\n",
            "let s = r##\"raw \"# inside\"##; // done",
            "/* outer /* inner */ tail */ let x = '\\'';",
            "let π = 3.14; let 网 = \"多字节\";",
            "b'\\xFF' b\"bytes\" br#\"raw bytes\"# c\"cstr\"",
            "let unterminated = \"oops",
            "/* never closed",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let s = r##"contains "# and " quotes"##;"####;
        let k = kinds(src);
        assert!(k.iter().any(|(kind, text)| matches!(kind, TokenKind::Str { terminated: true })
            && text.contains("contains")));
        // Nothing inside the raw string leaks out as an ident.
        assert!(!k.iter().any(|(kind, text)| *kind == TokenKind::Ident && text == "contains"));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let k = kinds("let r#match = 1;");
        assert!(k.iter().any(|(kind, text)| *kind == TokenKind::Ident && text == "r#match"));
    }

    #[test]
    fn nested_block_comments() {
        let k = kinds("/* a /* b */ c */ x");
        assert_eq!(k.len(), 2);
        assert!(matches!(k[0].0, TokenKind::BlockComment { terminated: true, .. }));
        assert_eq!(k[1].1, "x");
    }

    #[test]
    fn comments_of_every_style_are_trivia() {
        for src in ["/// outer", "//! inner", "// plain", "/** block */", "/*! inner */", "/**/"] {
            let k = kinds(src);
            assert_eq!(k.len(), 1, "{src}");
            assert!(is_trivia(k[0].0), "{src}");
        }
    }

    #[test]
    fn chars_vs_lifetimes() {
        let k = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; let nl = '\\n'; }");
        let lifetimes: Vec<_> = k.iter().filter(|(kind, _)| *kind == TokenKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> =
            k.iter().filter(|(kind, _)| matches!(kind, TokenKind::Char { .. })).collect();
        assert_eq!(chars.len(), 3);
    }

    #[test]
    fn byte_char_is_char_not_ident() {
        let k = kinds("let b = b'x'; let n = b'\\n';");
        assert_eq!(k.iter().filter(|(kind, _)| matches!(kind, TokenKind::Char { .. })).count(), 2);
    }

    #[test]
    fn numbers_take_their_suffix_and_stop_at_a_dot() {
        let texts = |src: &str| -> Vec<String> {
            kinds(src)
                .into_iter()
                .filter(|(k, _)| *k == TokenKind::Number)
                .map(|(_, t)| t)
                .collect()
        };
        assert_eq!(texts("0x1f32 1_000u64 1e9"), ["0x1f32", "1_000u64", "1e9"]);
        assert_eq!(texts("for i in 1..10 { x.0; 1.5 }"), ["1", "10", "0", "1", "5"]);
    }

    #[test]
    fn line_and_col_positions() {
        let src = "ab\n  cd\n";
        let toks: Vec<_> = lex(src).into_iter().filter(|t| t.kind == TokenKind::Ident).collect();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn multibyte_chars_keep_byte_offsets_consistent() {
        let src = "let s = \"héllo wörld\"; let x = 1;";
        roundtrip(src);
        let toks = lex(src);
        let s = toks.iter().find(|t| matches!(t.kind, TokenKind::Str { .. })).expect("str");
        assert!(s.text(src).starts_with('"') && s.text(src).ends_with('"'));
    }

    #[test]
    fn cstring_literal() {
        let k = kinds("let p = c\"path\";");
        assert!(k.iter().any(|(kind, _)| matches!(kind, TokenKind::Str { .. })));
        assert!(!k.iter().any(|(_, text)| text == "path"));
    }
}
