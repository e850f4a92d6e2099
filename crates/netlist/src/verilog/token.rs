//! Tokenizer for gate-level structural Verilog.
//!
//! Produces `(kind, byte range)` tokens: nothing is copied out of the
//! source, and identifier text is a slice of it ([`Token::text`]). Line
//! and column are not tracked while scanning; [`position`] derives them
//! from a byte offset when an error is built. Handles the lexical surface
//! real benchmark netlists actually use: `//` and `/* */` comments, simple
//! and escaped (`\any[chars] `) identifiers, and the single-bit constants
//! `1'b0` / `1'b1`.

use super::error::{ParseError, ParseErrorKind};

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A simple or escaped identifier.
    Ident,
    /// A single-bit constant: `1'b0` (false) or `1'b1` (true).
    Const(bool),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Equals,
    /// `module`
    Module,
    /// `endmodule`
    Endmodule,
    /// `input`
    Input,
    /// `output`
    Output,
    /// `wire`
    Wire,
    /// `assign`
    Assign,
}

/// One lexical token: its kind and the byte range it spans in the source.
/// An escaped identifier's range starts at its backslash and ends before
/// its terminating whitespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The token kind.
    pub kind: Kind,
    /// Byte offset of the token's first character.
    pub start: usize,
    /// Byte offset one past the token's last character.
    pub end: usize,
}

impl Token {
    /// The identifier text (escaped identifiers without the backslash).
    pub fn text(self, src: &str) -> &str {
        let text = &src[self.start..self.end];
        text.strip_prefix('\\').unwrap_or(text)
    }

    /// Human-readable description for expected-vs-found diagnostics.
    pub fn describe(self, src: &str) -> String {
        match self.kind {
            Kind::Ident => format!("identifier '{}'", self.text(src)),
            Kind::Const(b) => format!("constant 1'b{}", u8::from(b)),
            Kind::LParen => "'('".into(),
            Kind::RParen => "')'".into(),
            Kind::Semi => "';'".into(),
            Kind::Comma => "','".into(),
            Kind::Dot => "'.'".into(),
            Kind::Equals => "'='".into(),
            Kind::Module => "keyword 'module'".into(),
            Kind::Endmodule => "keyword 'endmodule'".into(),
            Kind::Input => "keyword 'input'".into(),
            Kind::Output => "keyword 'output'".into(),
            Kind::Wire => "keyword 'wire'".into(),
            Kind::Assign => "keyword 'assign'".into(),
        }
    }
}

/// The 1-based line and column of byte `offset` in `src`. Columns count
/// bytes, so a multi-byte character advances the column by its length.
/// Both saturate at `u32::MAX`.
pub fn position(src: &str, offset: usize) -> (u32, u32) {
    let before = &src.as_bytes()[..offset];
    let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
    let line_start = before
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let clamp = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
    (clamp(line), clamp(offset - line_start + 1))
}

/// Reserved words this frontend refuses as bare identifiers. Names that
/// collide with these must be written as escaped identifiers.
fn keyword(word: &str) -> Option<Kind> {
    match word {
        "module" => Some(Kind::Module),
        "endmodule" => Some(Kind::Endmodule),
        "input" => Some(Kind::Input),
        "output" => Some(Kind::Output),
        "wire" => Some(Kind::Wire),
        "assign" => Some(Kind::Assign),
        _ => None,
    }
}

/// Whether `name` can be emitted as a bare (unescaped) identifier.
pub fn is_simple_ident(name: &str) -> bool {
    let mut chars = name.chars();
    let leading_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    leading_ok
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
        && keyword(name).is_none()
}

/// The offset of the first byte at or after `from` that fails `keep`.
fn scan(bytes: &[u8], from: usize, keep: impl Fn(u8) -> bool) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| !keep(b))
        .map_or(bytes.len(), |i| from + i)
}

/// Tokenizes `src`.
///
/// # Errors
///
/// Returns a [`ParseError`] with [`ParseErrorKind::Lex`] on stray
/// characters, unterminated block comments, non-single-bit literals, and
/// empty escaped identifiers; bus-range brackets get a dedicated
/// [`ParseErrorKind::Unsupported`] diagnostic.
pub fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = src.as_bytes();
    let err = |at: usize, kind: ParseErrorKind| {
        let (line, column) = position(src, at);
        ParseError::new(line, column, kind)
    };
    let lex_err = |at: usize, message: String| err(at, ParseErrorKind::Lex { message });
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(&b) = bytes.get(pos) {
        let start = pos;
        let kind = match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                pos += 1;
                continue;
            }
            b'/' if bytes.get(pos + 1) == Some(&b'/') => {
                pos = scan(bytes, pos, |c| c != b'\n');
                continue;
            }
            b'/' if bytes.get(pos + 1) == Some(&b'*') => {
                let Some(close) = bytes[pos + 2..].windows(2).position(|w| w == b"*/") else {
                    return Err(lex_err(start, "unterminated block comment".into()));
                };
                pos += 2 + close + 2;
                continue;
            }
            b'(' => Kind::LParen,
            b')' => Kind::RParen,
            b';' => Kind::Semi,
            b',' => Kind::Comma,
            b'.' => Kind::Dot,
            b'=' => Kind::Equals,
            b'[' | b']' => {
                return Err(err(
                    start,
                    ParseErrorKind::Unsupported {
                        construct: "bus ranges / bit selects (flatten buses to scalar nets, \
                                    or use escaped identifiers like `\\q[0] `)"
                            .into(),
                    },
                ));
            }
            b'\\' => {
                // Escaped identifiers run to the next whitespace byte, so
                // the range ends on a character boundary.
                pos = scan(bytes, pos + 1, |c| !c.is_ascii_whitespace());
                if pos == start + 1 {
                    return Err(lex_err(start, "empty escaped identifier".into()));
                }
                out.push(Token {
                    kind: Kind::Ident,
                    start,
                    end: pos,
                });
                continue;
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                pos = scan(bytes, pos, |c| {
                    c.is_ascii_alphanumeric() || c == b'_' || c == b'$'
                });
                out.push(Token {
                    kind: keyword(&src[start..pos]).unwrap_or(Kind::Ident),
                    start,
                    end: pos,
                });
                continue;
            }
            _ if b.is_ascii_digit() => {
                pos = scan(bytes, pos, |c| {
                    c.is_ascii_alphanumeric() || c == b'\'' || c == b'_'
                });
                let kind = match &src[start..pos] {
                    "1'b0" => Kind::Const(false),
                    "1'b1" => Kind::Const(true),
                    lit => {
                        return Err(lex_err(
                            start,
                            format!("unsupported literal '{lit}' (only 1'b0 and 1'b1)"),
                        ))
                    }
                };
                out.push(Token {
                    kind,
                    start,
                    end: pos,
                });
                continue;
            }
            _ => {
                let ch = src[pos..].chars().next().unwrap_or('?');
                return Err(lex_err(start, format!("unexpected character '{ch}'")));
            }
        };
        pos += 1;
        out.push(Token {
            kind,
            start,
            end: pos,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<(Kind, &str)> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn lexes_the_full_surface() {
        let got = toks("module m (a); // line comment\n/* block\ncomment */ wire w; \\q[0]  1'b0 1'b1 endmodule");
        assert_eq!(
            got,
            vec![
                (Kind::Module, "module"),
                (Kind::Ident, "m"),
                (Kind::LParen, "("),
                (Kind::Ident, "a"),
                (Kind::RParen, ")"),
                (Kind::Semi, ";"),
                (Kind::Wire, "wire"),
                (Kind::Ident, "w"),
                (Kind::Semi, ";"),
                (Kind::Ident, "q[0]"),
                (Kind::Const(false), "1'b0"),
                (Kind::Const(true), "1'b1"),
                (Kind::Endmodule, "endmodule"),
            ]
        );
    }

    #[test]
    fn positions_are_one_based_lines_and_columns() {
        let src = "module\n  foo";
        let spans = lex(src).unwrap();
        assert_eq!(position(src, spans[0].start), (1, 1));
        assert_eq!(position(src, spans[1].start), (2, 3));
    }

    #[test]
    fn comment_newlines_advance_the_line_counter() {
        let src = "/* a\nb\nc */ x";
        let spans = lex(src).unwrap();
        assert_eq!(position(src, spans[0].start), (3, 6));
    }

    #[test]
    fn columns_count_bytes() {
        // `é` is two bytes, so `x` sits in byte column 5.
        assert_eq!(position("/*é*/x", 6), (1, 7));
        assert_eq!(position("a\r\nb", 3), (2, 1));
    }

    #[test]
    fn unterminated_block_comment_is_a_lex_error_at_the_opener() {
        let err = lex("wire w; /* oops").unwrap_err();
        assert_eq!((err.line, err.column), (1, 9));
        assert!(matches!(err.kind, ParseErrorKind::Lex { .. }));
        assert!(err.to_string().contains("unterminated"), "{err}");
        // The opener's own `*` cannot close it.
        assert!(lex("/*/").is_err());
        assert!(lex("/**/").unwrap().is_empty());
    }

    #[test]
    fn wide_literals_are_rejected_with_position() {
        let err = lex("module m; 4'b0101").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Lex { .. }));
        assert!(err.to_string().contains("4'b0101"), "{err}");
        assert_eq!((err.line, err.column), (1, 11));
    }

    #[test]
    fn bus_brackets_get_a_dedicated_unsupported_error() {
        let err = lex("input [3:0] a;").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Unsupported { .. }));
    }

    #[test]
    fn escaped_identifier_preserves_special_characters() {
        assert_eq!(
            toks("\\a.b[3] x"),
            vec![(Kind::Ident, "a.b[3]"), (Kind::Ident, "x")]
        );
        assert!(lex("\\ x").is_err(), "empty escaped identifier");
        assert_eq!(toks("\\né"), vec![(Kind::Ident, "né")]);
    }

    #[test]
    fn stray_characters_are_named_and_positioned() {
        let err = lex("wire\n  é;").unwrap_err();
        assert_eq!((err.line, err.column), (2, 3));
        assert!(err.to_string().contains("'é'"), "{err}");
    }

    #[test]
    fn simple_ident_predicate_matches_the_lexer() {
        assert!(is_simple_ident("n_u1"));
        assert!(is_simple_ident("_x$2"));
        assert!(!is_simple_ident("1abc"));
        assert!(!is_simple_ident("a.b"));
        assert!(!is_simple_ident("wire"));
        assert!(!is_simple_ident(""));
    }
}
