//! The token-level lexer behind every rule.
//!
//! PR 6's front end was a per-line blanking pass: good enough for token
//! scans, but it reconstructed lexical structure from loose character
//! heuristics, and the rules this crate grew in PR 8 (guard scopes, call
//! edges, struct shape) need real tokens with positions. This module
//! lexes a whole file in one pass — raw/byte/C strings with any number
//! of `#`s spanning any number of lines, nested block comments,
//! char-literal-vs-lifetime disambiguation (including `'\''`, which the
//! old blanker mis-consumed, leaking a stray quote into rule input), doc
//! comments, raw identifiers — and hands back:
//!
//! * a [`Tok`] stream with 1-based line / 0-based column positions, and
//! * the comment trivia ([`Comment`]), which is where waivers live.
//!
//! The blanked *code view* the line-level rules still scan is rebuilt
//! from this token stream in [`crate::source`], so every rule — old and
//! new — sits on the same front end.

/// Lexical class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `cache`, `r#match`).
    Ident,
    /// Lifetime (`'static`, `'_`) — kept distinct from char literals.
    Lifetime,
    /// Numeric literal (`42`, `1.5e-3`, `0xFF`, `1_000u64`).
    Num,
    /// String literal of any flavour: `"…"`, `r#"…"#`, `b"…"`, `c"…"`.
    Str,
    /// Char or byte-char literal: `'x'`, `'\''`, `b'\n'`.
    Char,
    /// One punctuation character (`{`, `.`, `=`; never grouped).
    Punct,
}

/// One token with its source span.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Lexical class.
    pub kind: TokKind,
    /// `Ident`/`Lifetime`/`Num`/`Punct`: the token text verbatim.
    /// `Str`/`Char`: the literal's *contents* (prefix, hashes and
    /// delimiters stripped, escapes kept raw).
    pub text: String,
    /// 1-based line of the first character.
    pub line: usize,
    /// 0-based char column of the first character.
    pub col: usize,
    /// 1-based line of the last character (multi-line strings).
    pub end_line: usize,
    /// 0-based char column of the last character.
    pub end_col: usize,
}

impl Tok {
    /// Whether this token is the identifier `kw`.
    #[must_use]
    pub fn is_ident(&self, kw: &str) -> bool {
        self.kind == TokKind::Ident && self.text == kw
    }

    /// Whether this token is the punctuation character `p`.
    #[must_use]
    pub fn is_punct(&self, p: char) -> bool {
        self.kind == TokKind::Punct && self.text.starts_with(p)
    }
}

/// One comment, with its marker (`//`, `///`, `/*…*/`) kept.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Full comment text; block comments keep embedded newlines.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Doc comment (`///`, `//!`, `/**`, `/*!`) — never a waiver.
    pub doc: bool,
    /// Block comment (`/* … */`).
    pub block: bool,
}

/// Lexer output: the token stream plus comment trivia.
#[derive(Debug)]
pub struct Lexed {
    /// All tokens, in source order.
    pub tokens: Vec<Tok>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn cur(&self) -> Option<char> {
        self.peek(0)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.cur()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 0;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Position of the char the cursor sits on.
    fn pos(&self) -> (usize, usize) {
        (self.line, self.col)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes a whole file. Unterminated literals and comments end at EOF
/// without error — the lexer must accept any bytes CI throws at it.
#[must_use]
pub fn lex(text: &str) -> Lexed {
    let mut cur = Cursor {
        chars: text.chars().collect(),
        i: 0,
        line: 1,
        col: 0,
    };
    let mut tokens = Vec::new();
    let mut comments = Vec::new();

    while let Some(c) = cur.cur() {
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' && cur.peek(1) == Some('/') {
            lex_line_comment(&mut cur, &mut comments);
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            lex_block_comment(&mut cur, &mut comments);
            continue;
        }
        if let Some(prefix) = string_prefix(&cur) {
            lex_string(&mut cur, prefix, &mut tokens);
            continue;
        }
        if c == 'b' && cur.peek(1) == Some('\'') {
            let (line, col) = cur.pos();
            cur.bump(); // the b prefix
            lex_quote(&mut cur, (line, col), &mut tokens);
            continue;
        }
        if c == 'r' && cur.peek(1) == Some('#') && cur.peek(2).is_some_and(is_ident_start) {
            lex_ident(&mut cur, &mut tokens); // raw identifier r#type
            continue;
        }
        if is_ident_start(c) {
            lex_ident(&mut cur, &mut tokens);
            continue;
        }
        if c.is_ascii_digit() {
            lex_number(&mut cur, &mut tokens);
            continue;
        }
        if c == '\'' {
            let start = cur.pos();
            lex_quote(&mut cur, start, &mut tokens);
            continue;
        }
        // Any other char is one punctuation token.
        let (line, col) = cur.pos();
        cur.bump();
        tokens.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
            col,
            end_line: line,
            end_col: col,
        });
    }

    Lexed { tokens, comments }
}

fn lex_line_comment(cur: &mut Cursor, comments: &mut Vec<Comment>) {
    let line = cur.line;
    let mut text = String::new();
    while let Some(c) = cur.cur() {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    // `//` and `////…` are plain comments; `///` and `//!` are docs.
    let doc = (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
    comments.push(Comment {
        text,
        line,
        doc,
        block: false,
    });
}

fn lex_block_comment(cur: &mut Cursor, comments: &mut Vec<Comment>) {
    let line = cur.line;
    let mut text = String::new();
    let mut depth = 0usize;
    while let Some(c) = cur.cur() {
        if c == '/' && cur.peek(1) == Some('*') {
            depth += 1;
            text.push_str("/*");
            cur.bump();
            cur.bump();
        } else if c == '*' && cur.peek(1) == Some('/') {
            depth -= 1;
            text.push_str("*/");
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
        } else {
            text.push(c);
            cur.bump();
        }
    }
    let doc = (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
        || text.starts_with("/*!");
    comments.push(Comment {
        text,
        line,
        doc,
        block: true,
    });
}

/// The string prefix at the cursor: `(prefix chars consumed, hashes,
/// raw)` — `Some` only when the cursor starts a string literal
/// (`"`, `r"`, `r#"`, `b"`, `br#"`, `c"`, `cr"`, …).
struct StrPrefix {
    /// Chars before the opening quote (`r#` in `r#"…"#` is 2).
    lead: usize,
    /// Number of `#`s (raw strings).
    hashes: usize,
    /// Raw string: escapes are inert, closed by `"` + hashes.
    raw: bool,
}

fn string_prefix(cur: &Cursor) -> Option<StrPrefix> {
    let c = cur.cur()?;
    if c == '"' {
        return Some(StrPrefix {
            lead: 0,
            hashes: 0,
            raw: false,
        });
    }
    if !matches!(c, 'r' | 'b' | 'c') {
        return None;
    }
    // Possible prefixes: r, b, c, br, cr (a leading b/c may be followed
    // by r). Anything longer is an identifier.
    let mut j = 1;
    let mut raw = c == 'r';
    if (c == 'b' || c == 'c') && cur.peek(1) == Some('r') {
        j = 2;
        raw = true;
    }
    let mut hashes = 0;
    if raw {
        while cur.peek(j + hashes) == Some('#') {
            hashes += 1;
        }
    }
    (cur.peek(j + hashes) == Some('"')).then_some(StrPrefix {
        lead: j + hashes,
        hashes,
        raw,
    })
}

fn lex_string(cur: &mut Cursor, prefix: StrPrefix, tokens: &mut Vec<Tok>) {
    let (line, col) = cur.pos();
    for _ in 0..=prefix.lead {
        cur.bump(); // prefix chars and the opening quote
    }
    let mut content = String::new();
    let (mut end_line, mut end_col) = (line, col);
    while let Some(c) = cur.cur() {
        if !prefix.raw && c == '\\' {
            (end_line, end_col) = cur.pos();
            content.push(c);
            cur.bump();
            if let Some(e) = cur.cur() {
                (end_line, end_col) = cur.pos();
                content.push(e);
                cur.bump();
            }
            continue;
        }
        if c == '"' {
            let closed = !prefix.raw || (0..prefix.hashes).all(|k| cur.peek(1 + k) == Some('#'));
            if closed {
                (end_line, end_col) = cur.pos();
                cur.bump();
                for _ in 0..prefix.hashes {
                    (end_line, end_col) = cur.pos();
                    cur.bump();
                }
                break;
            }
        }
        (end_line, end_col) = cur.pos();
        content.push(c);
        cur.bump();
    }
    tokens.push(Tok {
        kind: TokKind::Str,
        text: content,
        line,
        col,
        end_line,
        end_col,
    });
}

/// Lexes from a `'` — a char literal or a lifetime. `start` is the
/// token's first char (the `b` prefix for byte chars).
fn lex_quote(cur: &mut Cursor, start: (usize, usize), tokens: &mut Vec<Tok>) {
    let (line, col) = start;
    let mut end = cur.pos();
    cur.bump(); // the opening quote
    let mut content = String::new();
    match cur.cur() {
        Some('\\') => {
            // Escaped char literal: consume `\` + escape body + `'`.
            content.push('\\');
            end = cur.pos();
            cur.bump();
            if let Some(e) = cur.cur() {
                content.push(e);
                end = cur.pos();
                cur.bump();
                if e == 'u' && cur.cur() == Some('{') {
                    while let Some(c) = cur.cur() {
                        content.push(c);
                        end = cur.pos();
                        cur.bump();
                        if c == '}' {
                            break;
                        }
                    }
                } else if e == 'x' {
                    for _ in 0..2 {
                        if cur.cur().is_some_and(|c| c.is_ascii_hexdigit()) {
                            content.push(cur.cur().unwrap_or_default());
                            end = cur.pos();
                            cur.bump();
                        }
                    }
                }
            }
            if cur.cur() == Some('\'') {
                end = cur.pos();
                cur.bump();
            }
            tokens.push(Tok {
                kind: TokKind::Char,
                text: content,
                line,
                col,
                end_line: end.0,
                end_col: end.1,
            });
        }
        Some(c) if is_ident_start(c) || c.is_ascii_digit() => {
            // `'x'` is a char literal, `'static` is a lifetime: consume
            // the ident run and look for a closing quote.
            while let Some(c) = cur.cur() {
                if !is_ident_cont(c) {
                    break;
                }
                content.push(c);
                end = cur.pos();
                cur.bump();
            }
            if cur.cur() == Some('\'') {
                end = cur.pos();
                cur.bump();
                tokens.push(Tok {
                    kind: TokKind::Char,
                    text: content,
                    line,
                    col,
                    end_line: end.0,
                    end_col: end.1,
                });
            } else {
                tokens.push(Tok {
                    kind: TokKind::Lifetime,
                    text: format!("'{content}"),
                    line,
                    col,
                    end_line: end.0,
                    end_col: end.1,
                });
            }
        }
        Some(c) => {
            // `'('`, `' '`, `'♥'` — one char then the closing quote.
            content.push(c);
            cur.bump();
            if cur.cur() == Some('\'') {
                end = cur.pos();
                cur.bump();
                tokens.push(Tok {
                    kind: TokKind::Char,
                    text: content,
                    line,
                    col,
                    end_line: end.0,
                    end_col: end.1,
                });
            } else {
                // Stray quote (invalid source) — keep it as punctuation
                // and re-lex from the consumed char's successor.
                tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: "'".to_string(),
                    line,
                    col,
                    end_line: line,
                    end_col: col,
                });
            }
        }
        None => tokens.push(Tok {
            kind: TokKind::Punct,
            text: "'".to_string(),
            line,
            col,
            end_line: line,
            end_col: col,
        }),
    }
}

fn lex_ident(cur: &mut Cursor, tokens: &mut Vec<Tok>) {
    let (line, col) = cur.pos();
    let mut end = cur.pos();
    let mut text = String::new();
    if cur.cur() == Some('r') && cur.peek(1) == Some('#') {
        text.push_str("r#");
        cur.bump();
        cur.bump();
    }
    while let Some(c) = cur.cur() {
        if !is_ident_cont(c) {
            break;
        }
        text.push(c);
        end = cur.pos();
        cur.bump();
    }
    tokens.push(Tok {
        kind: TokKind::Ident,
        text,
        line,
        col,
        end_line: end.0,
        end_col: end.1,
    });
}

fn lex_number(cur: &mut Cursor, tokens: &mut Vec<Tok>) {
    let (line, col) = cur.pos();
    let mut end = cur.pos();
    let mut text = String::new();
    let mut last = '0';
    while let Some(c) = cur.cur() {
        let take = is_ident_cont(c)
            || (c == '.' && cur.peek(1).is_some_and(|d| d.is_ascii_digit()) && !text.contains('.'))
            || ((c == '+' || c == '-')
                && matches!(last, 'e' | 'E')
                && text.starts_with(|d: char| d.is_ascii_digit())
                && !text.starts_with("0x"));
        if !take {
            break;
        }
        last = c;
        text.push(c);
        end = cur.pos();
        cur.bump();
    }
    tokens.push(Tok {
        kind: TokKind::Num,
        text,
        line,
        col,
        end_line: end.0,
        end_col: end.1,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_numbers_and_puncts() {
        let toks = kinds("let x_1 = 42.5e-3 + 0xFF;");
        assert_eq!(toks[0], (TokKind::Ident, "let".into()));
        assert_eq!(toks[1], (TokKind::Ident, "x_1".into()));
        assert_eq!(toks[3], (TokKind::Num, "42.5e-3".into()));
        assert_eq!(toks[5], (TokKind::Num, "0xFF".into()));
    }

    #[test]
    fn ranges_do_not_glue_into_floats() {
        let toks = kinds("for i in 0..10 {}");
        assert_eq!(toks[3], (TokKind::Num, "0".into()));
        assert_eq!(toks[4], (TokKind::Punct, ".".into()));
        assert_eq!(toks[5], (TokKind::Punct, ".".into()));
        assert_eq!(toks[6], (TokKind::Num, "10".into()));
    }

    #[test]
    fn string_flavours_capture_contents() {
        let toks = kinds(r##"("plain", r#"raw "q" inside"#, b"bytes", c"cstr")"##);
        let strs: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Str)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(strs, ["plain", r#"raw "q" inside"#, "bytes", "cstr"]);
    }

    #[test]
    fn multi_line_raw_strings_span() {
        let src = "let q = r#\"line one\n\"quoted\" two\"#; done";
        let lexed = lex(src);
        let s = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("string token");
        assert_eq!(s.line, 1);
        assert_eq!(s.end_line, 2);
        assert!(s.text.contains("\"quoted\" two"));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks =
            kinds("let c: char = 'x'; let s: &'static str = \"\"; let q = '\\''; 'a: loop {}");
        assert!(toks.contains(&(TokKind::Char, "x".into())));
        assert!(toks.contains(&(TokKind::Lifetime, "'static".into())));
        assert!(toks.contains(&(TokKind::Char, "\\'".into())));
        assert!(toks.contains(&(TokKind::Lifetime, "'a".into())));
    }

    #[test]
    fn nested_block_comments_and_docs() {
        let src = "/* a /* b */ c */ fn x() {} /// doc\n//! inner\n// plain";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("fn")));
        assert_eq!(lexed.comments.len(), 4);
        assert!(lexed.comments[0].block);
        assert!(!lexed.comments[0].doc);
        assert!(lexed.comments[1].doc);
        assert!(lexed.comments[2].doc);
        assert!(!lexed.comments[3].doc);
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.contains(&(TokKind::Ident, "r#type".into())));
    }

    #[test]
    fn byte_char_literals() {
        let toks = kinds("let b = b'\\n'; let c = b'x';");
        assert!(toks.contains(&(TokKind::Char, "\\n".into())));
        assert!(toks.contains(&(TokKind::Char, "x".into())));
    }
}
