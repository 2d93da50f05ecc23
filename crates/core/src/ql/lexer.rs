//! Lexer for ScrubQL.
//!
//! ScrubQL is the SQL-like troubleshooting language of §3.2: `select` /
//! `from` / `where` / `group by` plus the Scrub-specific constructs — the
//! `@[...]` target-host clause, `sample`, `window`, `start` and `duration`.
//! Keywords are case-insensitive (the paper's figures mix `Select` and
//! `from`).

use crate::error::{ScrubError, ScrubResult};

/// A lexical token with its byte offset in the source (for diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Byte offset of the first character of this token.
    pub pos: usize,
    /// Token payload.
    pub kind: TokenKind,
}

/// The kinds of ScrubQL tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are recognized by the parser,
    /// case-insensitively).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Single- or double-quoted string literal (quotes stripped, escapes
    /// processed).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `@`
    At,
    /// `*`
    Star,
    /// `%`
    Percent,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=` (also accepts `==`)
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(v) => format!("integer {v}"),
            TokenKind::Float(v) => format!("number {v}"),
            TokenKind::Str(s) => format!("string {s:?}"),
            TokenKind::Eof => "end of input".into(),
            other => format!("`{}`", other.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Comma => ",",
            TokenKind::Semi => ";",
            TokenKind::Dot => ".",
            TokenKind::At => "@",
            TokenKind::Star => "*",
            TokenKind::Percent => "%",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Slash => "/",
            TokenKind::Eq => "=",
            TokenKind::Ne => "!=",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            _ => "?",
        }
    }
}

/// Tokenize a ScrubQL source string.
///
/// `--` line comments are skipped. The returned vector always ends with an
/// [`TokenKind::Eof`] token.
pub fn lex(src: &str) -> ScrubResult<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push(&mut out, i, TokenKind::LParen, &mut i),
            ')' => push(&mut out, i, TokenKind::RParen, &mut i),
            '[' => push(&mut out, i, TokenKind::LBracket, &mut i),
            ']' => push(&mut out, i, TokenKind::RBracket, &mut i),
            ',' => push(&mut out, i, TokenKind::Comma, &mut i),
            ';' => push(&mut out, i, TokenKind::Semi, &mut i),
            '.' => push(&mut out, i, TokenKind::Dot, &mut i),
            '@' => push(&mut out, i, TokenKind::At, &mut i),
            '*' => push(&mut out, i, TokenKind::Star, &mut i),
            '%' => push(&mut out, i, TokenKind::Percent, &mut i),
            '+' => push(&mut out, i, TokenKind::Plus, &mut i),
            '-' => push(&mut out, i, TokenKind::Minus, &mut i),
            '/' => push(&mut out, i, TokenKind::Slash, &mut i),
            '=' => {
                let start = i;
                i += 1;
                if bytes.get(i) == Some(&b'=') {
                    i += 1;
                }
                out.push(Token {
                    pos: start,
                    kind: TokenKind::Eq,
                });
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        pos: i,
                        kind: TokenKind::Ne,
                    });
                    i += 2;
                } else {
                    return Err(ScrubError::Lex {
                        pos: i,
                        msg: "unexpected `!` (did you mean `!=`?)".into(),
                    });
                }
            }
            '<' => {
                let start = i;
                i += 1;
                let kind = match bytes.get(i) {
                    Some(b'=') => {
                        i += 1;
                        TokenKind::Le
                    }
                    Some(b'>') => {
                        i += 1;
                        TokenKind::Ne
                    }
                    _ => TokenKind::Lt,
                };
                out.push(Token { pos: start, kind });
            }
            '>' => {
                let start = i;
                i += 1;
                let kind = if bytes.get(i) == Some(&b'=') {
                    i += 1;
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                };
                out.push(Token { pos: start, kind });
            }
            '\'' | '"' => {
                // The delimiters and escapes are ASCII, so the runs between
                // them are whole UTF-8 and are copied from the source.
                let quote = bytes[i];
                let start = i;
                i += 1;
                let mut run = i;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(ScrubError::Lex {
                                pos: start,
                                msg: "unterminated string literal".into(),
                            });
                        }
                        Some(&b) if b == quote => {
                            s.push_str(&src[run..i]);
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            s.push_str(&src[run..i]);
                            i += 1;
                            match bytes.get(i) {
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                Some(b'\\') => s.push('\\'),
                                Some(&b) if b == quote => s.push(quote as char),
                                other => {
                                    return Err(ScrubError::Lex {
                                        pos: i,
                                        msg: format!("invalid escape {other:?}"),
                                    });
                                }
                            }
                            i += 1;
                            run = i;
                        }
                        Some(_) => i += 1,
                    }
                }
                out.push(Token {
                    pos: start,
                    kind: TokenKind::Str(s),
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| ScrubError::Lex {
                        pos: start,
                        msg: format!("invalid number {text:?}"),
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| ScrubError::Lex {
                        pos: start,
                        msg: format!("integer {text:?} out of range"),
                    })?)
                };
                out.push(Token { pos: start, kind });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    pos: start,
                    kind: TokenKind::Ident(src[start..i].to_owned()),
                });
            }
            other => {
                return Err(ScrubError::Lex {
                    pos: i,
                    msg: format!("unexpected character {other:?}"),
                });
            }
        }
    }
    out.push(Token {
        pos: src.len(),
        kind: TokenKind::Eof,
    });
    Ok(out)
}

fn push(out: &mut Vec<Token>, pos: usize, kind: TokenKind, i: &mut usize) {
    out.push(Token { pos, kind });
    *i += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn figure_9_query_lexes() {
        let toks = kinds(
            "Select bid.user_id, COUNT(*) from bid \
             @[Service in BidServers and Server = host1] group by bid.user_id;",
        );
        assert!(toks.contains(&TokenKind::At));
        assert!(toks.contains(&TokenKind::LBracket));
        assert!(toks.contains(&TokenKind::Star));
        assert_eq!(*toks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 2.5 1e3 10"),
            vec![
                TokenKind::Int(1),
                TokenKind::Float(2.5),
                TokenKind::Float(1000.0),
                TokenKind::Int(10),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            kinds(r#"'abc' "d\"e" 'a\nb'"#),
            vec![
                TokenKind::Str("abc".into()),
                TokenKind::Str("d\"e".into()),
                TokenKind::Str("a\nb".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("= == != <> < <= > >= + - * / %"),
            vec![
                TokenKind::Eq,
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("select -- this is a comment\nx"),
            vec![
                TokenKind::Ident("select".into()),
                TokenKind::Ident("x".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("'abc").is_err());
    }

    #[test]
    fn stray_bang_is_error() {
        assert!(lex("a ! b").is_err());
    }

    #[test]
    fn unexpected_char_is_error() {
        assert!(lex("a # b").is_err());
        assert!(lex("a ~ b").is_err());
    }

    #[test]
    fn positions_reported() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 3);
    }

    #[test]
    fn unicode_string_literal() {
        assert_eq!(
            kinds("'héllo'"),
            vec![TokenKind::Str("héllo".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn describe_is_helpful() {
        assert_eq!(TokenKind::Ident("x".into()).describe(), "identifier `x`");
        assert_eq!(TokenKind::Eof.describe(), "end of input");
        assert_eq!(TokenKind::Le.describe(), "`<=`");
    }
}
