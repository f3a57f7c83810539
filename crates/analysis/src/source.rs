//! Structure on top of the token stream: matched delimiters and the
//! `#[cfg(test)]` / `#[test]` regions the line count leaves out.

use crate::lexer::{lex, Token, TokenKind};

/// A half-open token range `[start, end)`.
pub type TokRange = (usize, usize);

/// A lexed file plus its test regions.
pub struct SourceFile {
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Token ranges covered by `#[cfg(test)]` items or `#[test]` fns.
    pub test_regions: Vec<TokRange>,
}

impl SourceFile {
    /// Lex and structure one file.
    pub fn parse(src: &str) -> SourceFile {
        let tokens = lex(src);
        let matching = match_delims(&tokens);
        let test_regions = find_test_regions(&tokens, &matching);
        SourceFile {
            tokens,
            test_regions,
        }
    }

    /// True when token index `i` lies inside a test region.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| i >= a && i < b)
    }

    /// Lines carrying at least one token outside every test region: the
    /// non-blank, non-comment lines of non-test code (`greta_loc`).
    /// A line only a multi-line string literal runs through has no token
    /// of its own and is not counted.
    pub fn code_lines(&self) -> usize {
        let live = |(i, t): (usize, &Token)| (!self.in_test(i)).then_some(t.line);
        let mut lines: Vec<u32> = self.tokens.iter().enumerate().filter_map(live).collect();
        lines.dedup();
        lines.len()
    }
}

/// Pair up `()`, `[]`, `{}` across the token stream: for every opener the
/// index of its closer (and vice versa), `usize::MAX` when unbalanced.
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let f = SourceFile::parse(src);
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
        assert_eq!(SourceFile::parse(src).code_lines(), 4);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = SourceFile::parse("#[cfg(not(test))]\nfn live() { x.unwrap(); }\n");
        let i = f
            .tokens
            .iter()
            .position(|t| t.kind.is_ident("unwrap"))
            .unwrap();
        assert!(!f.in_test(i));
    }
}
