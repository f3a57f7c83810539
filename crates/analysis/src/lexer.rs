//! A minimal hand-rolled Rust lexer — just enough structure for the line
//! counter: identifiers, punctuation, literals, and line numbers, with
//! comments dropped.
//!
//! The lexer understands the token-level syntax that would otherwise
//! confuse a regex-based scan: line and (nested) block comments, string
//! and raw-string literals, char literals vs. lifetimes, and numeric
//! literals. It deliberately does **not** parse Rust — test regions are
//! found on top of it by brace tracking (see [`crate::source`]).

/// One lexical token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Token classes the line counter tells apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `clone`, `Vec`, ...), including
    /// raw identifiers with the `r#` prefix stripped.
    Ident(String),
    /// A lifetime such as `'a` (kept distinct so `'a'` char literals and
    /// `&'a str` types never interact with identifier matching).
    Lifetime,
    /// Any literal: string, raw string, byte string, char, or number.
    /// The payload is dropped: only the line it starts on counts.
    Literal,
    /// A single punctuation character (`.`, `(`, `[`, `!`, `#`, ...).
    /// Multi-character operators arrive as consecutive tokens.
    Punct(char),
}

impl TokenKind {
    /// True when this token is exactly the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, TokenKind::Ident(i) if i == s)
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, TokenKind::Punct(p) if *p == c)
    }
}

/// Lex `src`. Never fails: unterminated constructs consume to the end of
/// input (the real compiler rejects such files long before they are counted).
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comments, tracking newlines.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
                i = skip_string(b, i, &mut line);
            }
            b'r' | b'b' if is_raw_or_byte_string(b, i) => {
                out.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
                i = skip_raw_or_byte(b, i, &mut line);
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                if is_lifetime(b, i) {
                    out.push(Token {
                        kind: TokenKind::Lifetime,
                        line,
                    });
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                } else {
                    out.push(Token {
                        kind: TokenKind::Literal,
                        line,
                    });
                    i = skip_char_literal(b, i);
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_string()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                // Numbers, incl. suffixes and separators (`1_000u64`,
                // `0xFF`, `2.5e-3`). `1.foo()` never appears in this
                // codebase's style, so consuming `.` digits is safe.
                while i < b.len()
                    && (b[i] == b'_'
                        || b[i] == b'.'
                        || b[i].is_ascii_alphanumeric()
                        || ((b[i] == b'+' || b[i] == b'-')
                            && matches!(b.get(i.wrapping_sub(1)), Some(b'e') | Some(b'E'))))
                {
                    // Stop at `..` (range) and at `.method`.
                    if b[i] == b'.'
                        && (b.get(i + 1) == Some(&b'.')
                            || b.get(i + 1)
                                .is_some_and(|n| n.is_ascii_alphabetic() || *n == b'_'))
                    {
                        break;
                    }
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
            }
            c => {
                out.push(Token {
                    kind: TokenKind::Punct(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#` — but not the identifiers
/// `r` / `b` themselves.
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) == Some(&b'r') {
        j += 1;
        while b.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    b.get(j) == Some(&b'"') && j > i
}

fn skip_raw_or_byte(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    let mut raw = false;
    if b[i] == b'b' {
        i += 1;
    }
    if b.get(i) == Some(&b'r') {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if !raw {
        return skip_string(b, i, line);
    }
    i += 1; // opening quote
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"' {
            let mut j = i + 1;
            let mut h = 0usize;
            while h < hashes && b.get(j) == Some(&b'#') {
                h += 1;
                j += 1;
            }
            if h == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Skip a `"..."` string starting at the opening quote; handles escapes
/// and embedded newlines.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// `'a` (lifetime) iff the quote is followed by ident chars **not**
/// closed by another quote: `'a'` is a char literal, `'a,` a lifetime.
fn is_lifetime(b: &[u8], i: usize) -> bool {
    let Some(&first) = b.get(i + 1) else {
        return false;
    };
    if first == b'\\' || !(first == b'_' || first.is_ascii_alphabetic()) {
        return false;
    }
    let mut j = i + 1;
    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
        j += 1;
    }
    b.get(j) != Some(&b'\'')
}

fn skip_char_literal(b: &[u8], mut i: usize) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        let ident = |t: Token| match t.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        };
        lex(src).into_iter().filter_map(ident).collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let l = lex("fn a() {\n  b.clone();\n}\n");
        let is_ident = |t: &&Token| matches!(t.kind, TokenKind::Ident(_));
        let lines: Vec<u32> = l.iter().filter(is_ident).map(|t| t.line).collect();
        assert_eq!(
            idents("fn a() {\n  b.clone();\n}\n"),
            ["fn", "a", "b", "clone"]
        );
        assert_eq!(lines, [1, 1, 2, 2]);
    }

    #[test]
    fn strings_comments_and_chars_hide_their_contents() {
        let src = r#"
            let s = "clone() unwrap()"; // clone() in a comment
            /* unwrap() in /* nested */ block */
            let c = '"'; let l: &'static str = x;
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"clone".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(
            !ids.contains(&"static".to_string()),
            "lifetime leaked: {ids:?}"
        );
    }

    #[test]
    fn raw_strings() {
        let src = r###"let s = r#"a "quoted" unwrap()"# ; let t = b"bytes";"###;
        assert_eq!(idents(src), ["let", "s", "let", "t"]);
    }

    #[test]
    fn numeric_literals_do_not_eat_methods_or_ranges() {
        assert_eq!(idents("0..buf.len()"), ["buf", "len"]);
        assert_eq!(idents("1.0e-3.max(x)"), ["max", "x"]);
        assert_eq!(idents("1_000u64.to_string()"), ["to_string"]);
    }
}
