//! Token-cursor helpers shared by the parser and every rule.
//!
//! All of them skip *trivia* (whitespace and comments, see
//! [`lexer::is_trivia`]) and address tokens by index into the file's
//! lossless stream, so a match can never land inside a string, a char
//! literal or a comment, and line breaks between the pieces of a shape
//! (`x\n    .unwrap()`) do not matter.

use crate::lexer::{self, Token, TokenKind};

/// First non-trivia index at or after `i`, capped at `hi`.
pub fn skip_trivia(toks: &[Token], mut i: usize, hi: usize) -> usize {
    while i < hi && lexer::is_trivia(toks[i].kind) {
        i += 1;
    }
    i
}

/// Next non-trivia token strictly after `i` and below `hi`.
pub fn next_in(toks: &[Token], i: usize, hi: usize) -> Option<usize> {
    let j = skip_trivia(toks, i + 1, hi);
    (j < hi).then_some(j)
}

/// Next non-trivia token strictly after `i`.
pub fn next(toks: &[Token], i: usize) -> Option<usize> {
    next_in(toks, i, toks.len())
}

/// Previous non-trivia token strictly before `i`.
pub fn prev(toks: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| !lexer::is_trivia(toks[j].kind))
}

/// The character of punctuation token `i` (`Punct` tokens are exactly
/// one character), or `None` for any other kind.
pub fn punct(src: &str, toks: &[Token], i: usize) -> Option<char> {
    (toks[i].kind == TokenKind::Punct).then(|| toks[i].text(src).chars().next())?
}

/// Is `i` a punctuation token spelling `c`?
pub fn punct_is(src: &str, toks: &[Token], i: Option<usize>, c: char) -> bool {
    i.is_some_and(|i| punct(src, toks, i) == Some(c))
}

/// The text of identifier (or keyword) token `i`, or `None` for any
/// other kind.
pub fn ident<'s>(src: &'s str, toks: &[Token], i: usize) -> Option<&'s str> {
    (toks[i].kind == TokenKind::Ident).then(|| toks[i].text(src))
}

/// Is `i` the identifier (or keyword) `word`?
pub fn ident_is(src: &str, toks: &[Token], i: Option<usize>, word: &str) -> bool {
    i.is_some_and(|i| ident(src, toks, i) == Some(word))
}

/// Do the non-trivia tokens starting at `i` spell `texts`, one token
/// each? Used for fixed shapes such as `#![forbid(unsafe_code)]`.
pub fn spells(src: &str, toks: &[Token], i: usize, texts: &[&str]) -> bool {
    let mut at = Some(skip_trivia(toks, i, toks.len())).filter(|&j| j < toks.len());
    for want in texts {
        match at {
            Some(j) if toks[j].text(src) == *want => at = next(toks, j),
            _ => return false,
        }
    }
    true
}

/// Is token `i` a method call `.name(` (whitespace/newlines allowed
/// around the dot and before the parenthesis)?
pub fn is_method_call(src: &str, toks: &[Token], i: usize) -> bool {
    toks[i].kind == TokenKind::Ident
        && punct_is(src, toks, prev(toks, i), '.')
        && punct_is(src, toks, next(toks, i), '(')
}

/// Is token `i` a macro invocation `name!`?
pub fn is_macro_bang(src: &str, toks: &[Token], i: usize) -> bool {
    toks[i].kind == TokenKind::Ident && punct_is(src, toks, next(toks, i), '!')
}

/// Does a turbofish `::<` follow token `i`? Returns the index of the `<`.
pub fn turbofish_after(src: &str, toks: &[Token], i: usize) -> Option<usize> {
    let c1 = next(toks, i)?;
    let c2 = next(toks, c1)?;
    let lt = next(toks, c2)?;
    (punct(src, toks, c1) == Some(':')
        && punct(src, toks, c2) == Some(':')
        && punct(src, toks, lt) == Some('<'))
    .then_some(lt)
}

/// Is token `i` invoked as a function or constructor — `name(…)` or
/// `name::<T>(…)`? Distinguishes `thread::spawn(f)` from an identifier
/// that merely *names* spawn (`fn spawn_rate()`, `let channel = 3;`).
pub fn is_call_position(src: &str, toks: &[Token], i: usize) -> bool {
    punct_is(src, toks, next(toks, i), '(') || turbofish_after(src, toks, i).is_some()
}

/// Is `i` the last segment of a path whose previous segment is `qual`
/// (`…::qual::<i>`)?
pub fn qualified_by(src: &str, toks: &[Token], i: usize, qual: &str) -> bool {
    let c2 = prev(toks, i);
    let c1 = c2.and_then(|j| prev(toks, j));
    let q = c1.and_then(|j| prev(toks, j));
    punct_is(src, toks, c2, ':') && punct_is(src, toks, c1, ':') && ident_is(src, toks, q, qual)
}

/// The last segment of the path starting at identifier `i`
/// (`keys::PARTITION_RUN` → the index of `PARTITION_RUN`).
pub fn path_tail(src: &str, toks: &[Token], i: usize) -> usize {
    let mut last = i;
    loop {
        let c1 = next(toks, last);
        let c2 = c1.and_then(|j| next(toks, j));
        let seg = c2.and_then(|j| next(toks, j));
        match seg {
            Some(s)
                if punct_is(src, toks, c1, ':')
                    && punct_is(src, toks, c2, ':')
                    && toks[s].kind == TokenKind::Ident =>
            {
                last = s
            }
            _ => return last,
        }
    }
}

/// The first argument token of the call whose name is token `i`
/// (`.span_enter(&keys::X, …)` → the index of `keys`), skipping
/// reference sigils.
pub fn first_arg(src: &str, toks: &[Token], i: usize) -> Option<usize> {
    let open = next(toks, i)?;
    let mut arg = next(toks, open)?;
    while punct(src, toks, arg) == Some('&') {
        arg = next(toks, arg)?;
    }
    Some(arg)
}

/// The content of string-literal token `i` with its delimiters
/// (`"…"`, `r#"…"#`, `b"…"`) stripped.
pub fn str_content<'s>(src: &'s str, toks: &[Token], i: usize) -> &'s str {
    let t = toks[i].text(src).trim_start_matches(['b', 'c', 'r']).trim_matches('#');
    t.strip_prefix('"').and_then(|t| t.strip_suffix('"')).unwrap_or(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ParsedFile;

    fn at(f: &ParsedFile, text: &str) -> usize {
        f.tokens.iter().position(|t| t.text(&f.source) == text).expect("token present")
    }

    #[test]
    fn navigation_skips_comments_and_line_breaks() {
        let f = ParsedFile::parse("a /* c */ . // x\n  b (", "t.rs");
        let (src, toks) = (f.source.as_str(), f.tokens.as_slice());
        let b = at(&f, "b");
        assert!(is_method_call(src, toks, b));
        assert_eq!(prev(toks, at(&f, ".")), Some(at(&f, "a")));
        assert_eq!(next(toks, at(&f, "(")), None);
        assert_eq!(next_in(toks, at(&f, "a"), at(&f, ".")), None, "bounded below hi");
    }

    #[test]
    fn call_shapes() {
        let f = ParsedFile::parse("spawn(f); bounded::<u32>(1); let channel = 3; vec![1]", "t.rs");
        let (src, toks) = (f.source.as_str(), f.tokens.as_slice());
        assert!(is_call_position(src, toks, at(&f, "spawn")));
        assert!(is_call_position(src, toks, at(&f, "bounded")));
        assert!(!is_call_position(src, toks, at(&f, "channel")));
        assert!(is_macro_bang(src, toks, at(&f, "vec")));
    }

    #[test]
    fn paths_arguments_and_literals() {
        let f = ParsedFile::parse("s.enter(&keys::sub::RUN, 0); s.exit(r#\"raw\"#);", "t.rs");
        let (src, toks) = (f.source.as_str(), f.tokens.as_slice());
        let arg = first_arg(src, toks, at(&f, "enter")).expect("argument");
        assert_eq!(toks[arg].text(src), "keys");
        let tail = path_tail(src, toks, arg);
        assert_eq!(toks[tail].text(src), "RUN");
        assert!(qualified_by(src, toks, tail, "sub"));
        let lit = first_arg(src, toks, at(&f, "exit")).expect("argument");
        assert_eq!(str_content(src, toks, lit), "raw");
    }

    #[test]
    fn fixed_shapes_ignore_spacing_but_not_strings() {
        let f = ParsedFile::parse("#! [ forbid(unsafe_code) ]\nlet s = \"#![x]\";", "t.rs");
        let (src, toks) = (f.source.as_str(), f.tokens.as_slice());
        let shape = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
        assert!(spells(src, toks, 0, &shape));
        assert!(!spells(src, toks, at(&f, "let"), &shape));
    }
}
