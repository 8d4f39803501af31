//! Hand-written lexer for the transform language.

use crate::token::{keyword, Span, Token, TokenKind};
use std::fmt;

/// A lexical error with its location.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Human-readable message.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.span.start, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `source`, skipping whitespace and `//` comments.
///
/// # Errors
///
/// Returns a [`LexError`] on unrecognized characters or malformed
/// numbers.
///
/// # Examples
///
/// ```
/// use pb_lang::lexer::lex;
/// use pb_lang::token::TokenKind;
///
/// let tokens = lex("to (Out o) // comment\n").unwrap();
/// assert_eq!(tokens[0].kind, TokenKind::To);
/// assert!(matches!(tokens[2].kind, TokenKind::Ident(_)));
/// ```
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        // Identifiers and keywords.
        if c.is_ascii_alphabetic() || c == '_' {
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let text = &source[start..i];
            let kind = keyword(text).unwrap_or_else(|| TokenKind::Ident(text.to_owned()));
            tokens.push(Token {
                kind,
                span: Span::new(start, i),
            });
            continue;
        }
        // Numbers (decimal, optional fraction and exponent).
        if c.is_ascii_digit() {
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            if i + 1 < bytes.len() && bytes[i] == b'.' && (bytes[i + 1] as char).is_ascii_digit() {
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
                    i = j;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
            }
            let text = &source[start..i];
            let value: f64 = text.parse().map_err(|_| LexError {
                message: format!("malformed number `{text}`"),
                span: Span::new(start, i),
            })?;
            tokens.push(Token {
                kind: TokenKind::Number(value),
                span: Span::new(start, i),
            });
            continue;
        }
        // Operators and punctuation. Compared as bytes: the next two
        // bytes may end inside a multi-byte character.
        let two = bytes.get(i..i + 2).unwrap_or_default();
        let (kind, len) = match two {
            b"==" => (TokenKind::Eq, 2),
            b"!=" => (TokenKind::Ne, 2),
            b"<=" => (TokenKind::Le, 2),
            b">=" => (TokenKind::Ge, 2),
            b"&&" => (TokenKind::AndAnd, 2),
            b"||" => (TokenKind::OrOr, 2),
            b".." => (TokenKind::DotDot, 2),
            _ => match c {
                '(' => (TokenKind::LParen, 1),
                ')' => (TokenKind::RParen, 1),
                '[' => (TokenKind::LBracket, 1),
                ']' => (TokenKind::RBracket, 1),
                '{' => (TokenKind::LBrace, 1),
                '}' => (TokenKind::RBrace, 1),
                ',' => (TokenKind::Comma, 1),
                ';' => (TokenKind::Semi, 1),
                '=' => (TokenKind::Assign, 1),
                '<' => (TokenKind::Lt, 1),
                '>' => (TokenKind::Gt, 1),
                '+' => (TokenKind::Plus, 1),
                '-' => (TokenKind::Minus, 1),
                '*' => (TokenKind::Star, 1),
                '/' => (TokenKind::Slash, 1),
                '%' => (TokenKind::Percent, 1),
                '!' => (TokenKind::Bang, 1),
                _ => {
                    // `c` is a single byte; report the whole character
                    // it starts (every other token is ASCII, so `start`
                    // is a character boundary).
                    let other = source
                        .get(start..)
                        .and_then(|rest| rest.chars().next())
                        .unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(LexError {
                        message: format!("unexpected character `{other}`"),
                        span: Span::new(start, start + other.len_utf8()),
                    });
                }
            },
        };
        i += len;
        tokens.push(Token {
            kind,
            span: Span::new(start, i),
        });
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: Span::new(source.len(), source.len()),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_vs_identifiers() {
        let k = kinds("transform kmeans from to foo");
        assert_eq!(
            k,
            vec![
                TokenKind::Transform,
                TokenKind::Ident("kmeans".into()),
                TokenKind::From,
                TokenKind::To,
                TokenKind::Ident("foo".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        let k = kinds("1 2.5 1e3 2.5e-2 7");
        let nums: Vec<f64> = k
            .into_iter()
            .filter_map(|t| match t {
                TokenKind::Number(v) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec![1.0, 2.5, 1000.0, 0.025, 7.0]);
    }

    #[test]
    fn two_char_operators() {
        let k = kinds("== != <= >= && || ..");
        assert_eq!(
            k,
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::DotDot,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn range_vs_decimal_ambiguity() {
        // `0..n` must lex as number, dot-dot, ident — not a float.
        let k = kinds("0..n");
        assert_eq!(
            k,
            vec![
                TokenKind::Number(0.0),
                TokenKind::DotDot,
                TokenKind::Ident("n".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("a // the rest is ignored == != \n b");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn bad_character_errors() {
        let err = lex("a # b").unwrap_err();
        assert!(err.message.contains('#'));
        assert_eq!(err.span.start, 2);
    }

    #[test]
    fn multi_byte_character_errors_instead_of_panicking() {
        // `…` is 3 bytes; the two-byte operator probe at `a`'s end
        // must not slice through it.
        let err = lex("a…b").unwrap_err();
        assert!(err.message.contains('…'), "{}", err.message);
        assert_eq!(err.span, Span::new(1, 4));
    }

    #[test]
    fn non_ascii_character_is_reported_whole() {
        let err = lex("é").unwrap_err();
        assert_eq!(err.message, "unexpected character `é`");
        assert_eq!(err.span, Span::new(0, 2));
    }

    #[test]
    fn spans_point_into_source() {
        let src = "to (Out o)";
        let tokens = lex(src).unwrap();
        assert_eq!(&src[tokens[2].span.start..tokens[2].span.end], "Out");
    }
}
