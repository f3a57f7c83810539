//! Structure on top of the token stream: matched delimiters, function
//! and `impl`-block spans, `#[cfg(test)]` / `#[test]` regions, and the
//! suppression logic for `// lint:allow` directives.

use crate::lexer::{lex, Directive, DirectiveKind, Lexed, Token, TokenKind};

/// A half-open token range `[start, end)`.
pub type TokRange = (usize, usize);

/// One `fn` item: its name and the token range of its body (inside the
/// braces, exclusive of them).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Body tokens, braces excluded. Empty for trait-method signatures.
    pub body: TokRange,
}

/// A lexed file plus the derived structure every pass consumes.
pub struct SourceFile {
    /// Repo-relative path (used in findings).
    pub path: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// `lint:` directives.
    pub directives: Vec<Directive>,
    /// For every `{`/`(`/`[` token index, the index of its closer (and
    /// vice versa). `usize::MAX` when unbalanced.
    pub matching: Vec<usize>,
    /// All function items in source order (nested fns included).
    pub fns: Vec<FnSpan>,
    /// Token ranges covered by `#[cfg(test)]` items or `#[test]` fns.
    pub test_regions: Vec<TokRange>,
}

impl SourceFile {
    /// Lex and structure one file.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let Lexed { tokens, directives } = lex(src);
        let matching = match_delims(&tokens);
        let fns = find_fns(&tokens, &matching);
        let test_regions = find_test_regions(&tokens, &matching);
        SourceFile {
            path: path.to_string(),
            tokens,
            directives,
            matching,
            fns,
            test_regions,
        }
    }

    /// True when token index `i` lies inside a test region.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| i >= a && i < b)
    }

    /// Lines carrying at least one token outside every test region: the
    /// non-blank, non-comment lines of non-test code (`greta_lint --loc`).
    /// A line only a multi-line string literal runs through has no token
    /// of its own and is not counted.
    pub fn code_lines(&self) -> usize {
        let live = |(i, t): (usize, &Token)| (!self.in_test(i)).then_some(t.line);
        let mut lines: Vec<u32> = self.tokens.iter().enumerate().filter_map(live).collect();
        lines.dedup();
        lines.len()
    }

    /// True when a finding of `pass` on `line` is suppressed by an
    /// `allow` directive on the same or the preceding line.
    pub fn allowed(&self, pass: &str, line: u32) -> bool {
        self.directives.iter().any(|d| {
            matches!(&d.kind, DirectiveKind::Allow { pass: p, .. } if p == pass)
                && (d.line == line || d.line + 1 == line)
        })
    }

    /// The functions whose body *contains* token index `i` (innermost
    /// last).
    pub fn enclosing_fns(&self, i: usize) -> impl Iterator<Item = &FnSpan> {
        self.fns
            .iter()
            .filter(move |f| i >= f.body.0 && i < f.body.1)
    }

    /// Declared lock order, if any `lint:lock-order` directive exists.
    pub fn lock_order(&self) -> Option<&[String]> {
        self.directives.iter().find_map(|d| match &d.kind {
            DirectiveKind::LockOrder(names) => Some(names.as_slice()),
            _ => None,
        })
    }
}

/// Pair up `()`, `[]`, `{}` across the token stream.
fn match_delims(tokens: &[Token]) -> Vec<usize> {
    let mut matching = vec![usize::MAX; tokens.len()];
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokenKind::Punct(c @ ('(' | '[' | '{')) => stack.push((c, i)),
            TokenKind::Punct(c @ (')' | ']' | '}')) => {
                let open = match c {
                    ')' => '(',
                    ']' => '[',
                    _ => '{',
                };
                // Tolerate imbalance (shouldn't happen on code that
                // compiles): pop until the kinds agree.
                while let Some((k, j)) = stack.pop() {
                    if k == open {
                        matching[i] = j;
                        matching[j] = i;
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    matching
}

/// Locate every `fn name ... { body }`.
///
/// The body is found by scanning forward from the name to the first `{`
/// at angle-bracket-neutral depth — good enough for real signatures
/// (return types and `where` clauses contain no braces in this
/// codebase). A `;` before any `{` means a bodiless trait signature.
fn find_fns(tokens: &[Token], matching: &[usize]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].kind.is_ident("fn") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        let Some(name) = name_tok.kind.ident() else {
            continue;
        };
        let mut j = i + 2;
        let mut body = (0usize, 0usize);
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Punct(';') => break,
                TokenKind::Punct('{') => {
                    let close = matching[j];
                    if close != usize::MAX {
                        body = (j + 1, close);
                    }
                    break;
                }
                TokenKind::Punct('(' | '[') => {
                    // Skip parameter lists / array types wholesale so a
                    // `{` inside a default-arg-like position can't fool
                    // the scan (closures in params are out of scope).
                    let close = matching[j];
                    if close == usize::MAX {
                        break;
                    }
                    j = close + 1;
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        fns.push(FnSpan {
            name: name.to_string(),
            line: tokens[i].line,
            fn_tok: i,
            body,
        });
    }
    fns
}

/// Token ranges of items annotated `#[cfg(test)]` or `#[test]` (plus
/// `#[cfg(all(test, ...))]` etc. — any attribute whose argument list
/// contains the bare word `test`).
fn find_test_regions(tokens: &[Token], matching: &[usize]) -> Vec<TokRange> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if tokens[i].kind.is_punct('#') && tokens[i + 1].kind.is_punct('[') {
            let close = matching[i + 1];
            if close == usize::MAX {
                i += 1;
                continue;
            }
            let is_test_attr = tokens[i + 2..close].iter().any(|t| t.kind.is_ident("test"))
                && tokens[i + 2..close].iter().all(|t| !t.kind.is_ident("not"));
            if is_test_attr {
                // The annotated item runs to the end of its first
                // brace-block (mod/fn/impl body) or to a terminating `;`.
                let mut j = close + 1;
                // Skip further attributes on the same item.
                while j + 1 < tokens.len()
                    && tokens[j].kind.is_punct('#')
                    && tokens[j + 1].kind.is_punct('[')
                    && matching[j + 1] != usize::MAX
                {
                    j = matching[j + 1] + 1;
                }
                let mut end = tokens.len();
                let mut k = j;
                while k < tokens.len() {
                    match &tokens[k].kind {
                        TokenKind::Punct(';') => {
                            end = k + 1;
                            break;
                        }
                        TokenKind::Punct('{') => {
                            let c = matching[k];
                            end = if c == usize::MAX { tokens.len() } else { c + 1 };
                            break;
                        }
                        TokenKind::Punct('(' | '[') => {
                            let c = matching[k];
                            if c == usize::MAX {
                                break;
                            }
                            k = c + 1;
                            continue;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                regions.push((i, end));
                i = end;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    regions
}

/// `impl`-block body token ranges (braces excluded), with the line of
/// the `impl` keyword — the codec-symmetry pass checks `encode`/`decode`
/// pairing per block.
pub fn impl_blocks(file: &SourceFile) -> Vec<(u32, TokRange)> {
    let mut blocks = Vec::new();
    let toks = &file.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind.is_ident("impl") {
            let line = toks[i].line;
            let mut j = i + 1;
            while j < toks.len() {
                match &toks[j].kind {
                    TokenKind::Punct('{') => {
                        let c = file.matching[j];
                        if c != usize::MAX {
                            blocks.push((line, (j + 1, c)));
                            i = j; // nested impls don't occur; move on
                        }
                        break;
                    }
                    TokenKind::Punct(';') => break,
                    TokenKind::Punct('(' | '[') => {
                        let c = file.matching[j];
                        if c == usize::MAX {
                            break;
                        }
                        j = c + 1;
                        continue;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        i += 1;
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_and_bodies() {
        let f = SourceFile::parse(
            "x.rs",
            "fn a(x: u8) -> Vec<u8> { x.into() }\ntrait T { fn sig(&self); }\n",
        );
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "a");
        assert!(f.fns[0].body.1 > f.fns[0].body.0);
        assert_eq!(f.fns[1].name, "sig");
        assert_eq!(f.fns[1].body, (0, 0));
    }

    #[test]
    fn test_regions_cover_mod_and_fn() {
        let src = "
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { y.unwrap(); }
            }
        ";
        let f = SourceFile::parse("x.rs", src);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test(unwraps[0]));
        assert!(f.in_test(unwraps[1]));
    }

    #[test]
    fn code_lines_skip_blanks_comments_and_test_items() {
        let src = "//! doc\n\nfn live() {\n    // note\n    x.f(); /* c */ y.g();\n}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n\
                   #[test]\nfn loose() {\n    z();\n}\nconst K: u8 = 1;\n";
        // `fn live() {`, the statement line, `}`, and the const.
        assert_eq!(SourceFile::parse("x.rs", src).code_lines(), 4);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = SourceFile::parse("x.rs", "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n");
        let i = f
            .tokens
            .iter()
            .position(|t| t.kind.is_ident("unwrap"))
            .unwrap();
        assert!(!f.in_test(i));
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let src = "// lint:allow(lock): fine\nx.lock();\ny.lock();\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allowed("lock", 1));
        assert!(f.allowed("lock", 2));
        assert!(!f.allowed("lock", 3));
        assert!(!f.allowed("codec", 2));
    }

    #[test]
    fn impl_blocks_found() {
        let f = SourceFile::parse(
            "x.rs",
            "impl Foo { fn encode(&self) {} }\nimpl Bar for Baz { fn decode() {} }\n",
        );
        assert_eq!(impl_blocks(&f).len(), 2);
    }
}
