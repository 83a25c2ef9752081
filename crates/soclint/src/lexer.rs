//! Token-level Rust lexer — just enough structure for contract linting.
//!
//! The lexer distinguishes identifiers, lifetimes, literals (string, raw
//! string, byte string, char, number), punctuation, and comments, each
//! stamped with a 1-based line number. It does **not** build an AST; the
//! rule engine works on token patterns plus the brace-matched spans that
//! [`crate::scope`] derives from the stream.
//!
//! Correctness notes the rules depend on:
//!
//! - `'a` (lifetime) and `'a'` (char literal) are told apart, so a char
//!   literal containing `"` or `//` cannot desynchronize the stream.
//! - Raw strings `r"…"`, `r#"…"#` (any guard depth) and their byte
//!   variants are skipped as single tokens.
//! - Block comments nest, as in real Rust.
//! - Comments are preserved as tokens — the allow-directive parser reads
//!   them — but rule matchers skip them via [`Tokens::significant`].

/// What a token is, with enough payload for the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `fn`, `unwrap`, …).
    Ident(String),
    /// A lifetime such as `'a` (kept distinct from char literals).
    Lifetime,
    /// Any literal: string, raw string, byte string, char, or number.
    Literal,
    /// A single punctuation character (`.`, `[`, `!`, `#`, …).
    Punct(char),
    /// A `//` or `/* */` comment, full text included (with markers).
    Comment(String),
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind and payload.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the exact identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A lexed file: every token, comments included.
#[derive(Debug)]
pub struct Tokens {
    /// All tokens in source order.
    pub all: Vec<Token>,
}

impl Tokens {
    /// Indices of non-comment tokens, in order — the stream the rule
    /// matchers walk.
    pub fn significant(&self) -> Vec<usize> {
        (0..self.all.len())
            .filter(|&i| !matches!(self.all[i].kind, TokenKind::Comment(_)))
            .collect()
    }
}

/// True when significant token `j` is the punctuation `c` (false past
/// the end) — the one positional probe every matcher shares.
pub(crate) fn at(toks: &[Token], sig: &[usize], j: usize, c: char) -> bool {
    sig.get(j).is_some_and(|&t| toks[t].is_punct(c))
}

/// The identifier at significant token `j`, if any.
pub(crate) fn ident_at<'t>(toks: &'t [Token], sig: &[usize], j: usize) -> Option<&'t str> {
    sig.get(j).and_then(|&t| toks[t].ident())
}

/// Lexes `source` into a token stream. Unterminated constructs (string,
/// block comment) consume to end of input rather than erroring: the linter
/// must keep going on any file `rustc` would reject anyway.
pub fn lex(source: &str) -> Tokens {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Byte-level scan; multi-byte UTF-8 continuation bytes never match any
    // of the ASCII delimiters below, so they ride along inside idents,
    // strings and comments untouched.
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Comment(source[start..i].to_string()),
                    line,
                });
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Comment(source[start..i].to_string()),
                    line: start_line,
                });
            }
            b'"' => {
                i = skip_string(bytes, i, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
            }
            b'r' | b'b' if starts_raw_or_byte_literal(bytes, i) => {
                let start_line = line;
                i = skip_raw_or_byte_literal(bytes, i, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line: start_line,
                });
            }
            b'\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`,
                // `'\n'`): a quote followed by ident chars and *not*
                // closed by `'` right after one char is a lifetime.
                if is_char_literal(bytes, i) {
                    i = skip_char_literal(bytes, i);
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        line,
                    });
                } else {
                    i += 1;
                    while i < bytes.len() && is_ident_char(bytes[i]) {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len() && (is_ident_char(bytes[i]) || bytes[i] == b'.') {
                    // A dot continues the number only when a digit follows:
                    // stops before `0..n` ranges and before tuple-index
                    // method calls (`x.1.partial_cmp`), where the dot starts
                    // a field/method access, not a fraction.
                    if bytes[i] == b'.' && !bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(source[start..i].to_string()),
                    line,
                });
            }
            c => {
                tokens.push(Token {
                    kind: TokenKind::Punct(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    Tokens { all: tokens }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// True when `r`/`b` at `i` opens a raw string, byte string, or raw byte
/// string (`r"`, `r#`, `b"`, `br"`, `rb` is not a thing, `b'` is a byte
/// char handled here too).
fn starts_raw_or_byte_literal(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'r' => matches!(bytes.get(i + 1), Some(b'"') | Some(b'#')),
        b'b' => match bytes.get(i + 1) {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => matches!(bytes.get(i + 2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        _ => false,
    }
}

fn skip_raw_or_byte_literal(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    // Advance past the prefix letters.
    while i < bytes.len() && (bytes[i] == b'r' || bytes[i] == b'b') {
        i += 1;
    }
    if bytes.get(i) == Some(&b'\'') {
        return skip_char_literal(bytes, i);
    }
    let mut guards = 0usize;
    while bytes.get(i) == Some(&b'#') {
        guards += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        // `r#ident` (raw identifier) or stray prefix: treat the prefix as
        // consumed; the caller emitted one Literal token for it.
        return i;
    }
    if guards == 0 {
        // Plain `r"…"` / `b"…"`: escapes are raw in r-strings but `\"` in
        // b-strings must not close early — b-strings do process escapes.
        // Telling them apart: only the b-prefix (no r) processes escapes.
        let raw = bytes[..i].iter().rev().any(|&c| c == b'r');
        i += 1;
        while i < bytes.len() {
            match bytes[i] {
                b'"' => return i + 1,
                b'\\' if !raw => i += 2,
                b'\n' => {
                    *line += 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        return i;
    }
    // Guarded raw string: scan for `"` followed by `guards` hashes.
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
        }
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < guards && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == guards {
                return j;
            }
        }
        i += 1;
    }
    i
}

fn skip_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return i + 1,
            b'\\' => {
                // A line-continuation escape (`\` + newline) still ends a
                // source line — count it, or every token after the string
                // reports a stale line number.
                if bytes.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Decides `'` at `i` opens a char literal (vs a lifetime): escapes
/// (`'\…'`) always do; otherwise one character followed by a closing `'`.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => {
            // Skip one UTF-8 scalar, then require the closing quote.
            let mut j = i + 2;
            while j < bytes.len() && (bytes[j] & 0xC0) == 0x80 {
                j += 1;
            }
            bytes.get(j) == Some(&b'\'')
        }
        None => false,
    }
}

fn skip_char_literal(bytes: &[u8], mut i: usize) -> usize {
    i += 1; // opening quote
    if bytes.get(i) == Some(&b'\\') {
        i += 2;
        // \u{…} escapes run to the closing brace.
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1;
        }
        return (i + 1).min(bytes.len());
    }
    while i < bytes.len() && bytes[i] != b'\'' {
        i += 1;
    }
    (i + 1).min(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .all
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let t = lex("let x = foo.bar();");
        assert_eq!(idents("let x = foo.bar();"), ["let", "x", "foo", "bar"]);
        assert!(t.all.iter().any(|t| t.is_punct('.')));
    }

    #[test]
    fn line_numbers_advance() {
        let t = lex("a\nb\n\nc");
        let lines: Vec<u32> = t.all.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn string_line_continuations_count_lines() {
        // `\` + newline inside a string still ends a source line; tokens
        // after the literal must not report stale line numbers.
        let t = lex("let s = \"a \\\n b \\\n c\";\nafter");
        let after = t
            .all
            .iter()
            .find(|t| t.is_ident("after"))
            .expect("token after string");
        assert_eq!(after.line, 4);
        // Plain embedded newlines were already counted; unterminated
        // strings still lex without panicking.
        let t2 = lex("\"a\nb\nc");
        assert!(!t2.all.is_empty());
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(
            idents(r#"let s = "HashMap::new() // not code";"#),
            ["let", "s"]
        );
    }

    #[test]
    fn raw_strings_with_guards() {
        let src = "let s = r#\"has \" quote and HashMap\"#; after";
        assert_eq!(idents(src), ["let", "s", "after"]);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        assert_eq!(
            idents(r#"let s = b"unwrap()"; let c = b'x'; done"#),
            ["let", "s", "let", "c", "done"]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = 'z'; g(); }";
        let names = idents(src);
        assert!(names.contains(&"g".to_string()), "{names:?}");
        let lifetimes = lex(src)
            .all
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
    }

    #[test]
    fn comments_are_tokens_with_text() {
        let t = lex("code(); // soclint: allow(x) -- reason\n/* block\nspan */ more");
        let comments: Vec<&str> = t
            .all
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Comment(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(comments.len(), 2);
        assert!(comments[0].contains("soclint: allow"));
        assert!(comments[1].contains("block"));
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(
            idents("/* outer /* inner */ still comment */ real"),
            ["real"]
        );
    }

    #[test]
    fn numbers_including_floats_and_ranges() {
        let t = lex("0..n 1.5e3 0x1F 1_000");
        let lits = t
            .all
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lits, 4);
        assert!(idents("0..n").contains(&"n".to_string()));
    }

    #[test]
    fn tuple_index_method_call_keeps_the_method_ident() {
        assert_eq!(idents("a.1.partial_cmp(b.1)"), ["a", "partial_cmp", "b"]);
    }
}
