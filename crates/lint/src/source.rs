//! Source loading and lexical preprocessing.
//!
//! Every rule works on a [`SourceFile`]: the raw lines of one `.rs` file
//! plus the [`crate::lex`] token stream, the [`crate::scope`] item tree,
//! and a *code view* of the same lines in which comment text and the
//! contents of string/char literals are blanked out. Rules match tokens
//! against the code view (or walk the token stream directly), so
//! `partial_cmp` inside a doc comment or a string constant can never
//! produce a finding — which is also what lets this crate's own rule
//! sources pass the rules they implement.
//!
//! Since PR 8 the preprocessing is a real single-pass lexer rather than
//! a per-line blanking state machine: raw strings spanning lines, nested
//! block comments, `'\''` char literals and doc comments all tokenize
//! exactly, the code view is *rebuilt from the token stream* (so the two
//! can never disagree), waivers are read from comment trivia, and
//! `#[cfg(test)]` regions come from the item parser instead of a brace
//! counter over text.

use crate::lex::{self, Comment, Lexed, Tok, TokKind};
use crate::scope::FileScope;
use std::path::Path;

/// One waiver comment: `// ddtr-lint: allow(<rule>) — <reason>`.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule name inside `allow(...)`.
    pub rule: String,
    /// 1-based line of the waiver comment itself.
    pub line: usize,
    /// 1-based line the waiver applies to: its own line when the comment
    /// trails code, otherwise the next line carrying code.
    pub applies_to: usize,
    /// Whether a non-empty justification follows the `allow(...)`.
    pub has_reason: bool,
}

/// One preprocessed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across hosts).
    pub path: String,
    /// The lines with comments and literal contents blanked (quote
    /// delimiters are kept so token boundaries survive). Rebuilt from
    /// the token stream.
    pub code: Vec<String>,
    /// Per line: whether it falls inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Waiver comments, in line order.
    pub waivers: Vec<Waiver>,
    /// The token stream.
    pub tokens: Vec<Tok>,
    /// Parsed items (functions, types, impls, mods).
    pub scope: FileScope,
}

impl SourceFile {
    /// Loads and preprocesses a file from disk.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be read.
    pub fn load(path: &Path, rel: &str) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        Ok(SourceFile::from_source(rel, &text))
    }

    /// Preprocesses in-memory source text under a synthetic path — the
    /// constructor the fixture tests use to place snippets into any
    /// rule's file scope.
    #[must_use]
    pub fn from_source(rel: &str, text: &str) -> SourceFile {
        let raw: Vec<String> = text.lines().map(str::to_string).collect();
        let Lexed { tokens, comments } = lex::lex(text);
        let scope = FileScope::parse(&tokens);
        let code = code_view(&raw, &tokens);
        let in_test = mark_cfg_test(raw.len(), &scope);
        let waivers = collect_waivers(&comments, &code);
        SourceFile {
            path: rel.to_string(),
            code,
            in_test,
            waivers,
            tokens,
            scope,
        }
    }

    /// The code view of a 1-based line (empty for out-of-range lines).
    #[must_use]
    pub fn code_line(&self, line: usize) -> &str {
        self.code.get(line - 1).map_or("", String::as_str)
    }

    /// Whether a 1-based line is inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn is_test_line(&self, line: usize) -> bool {
        self.in_test.get(line - 1).copied().unwrap_or(false)
    }
}

/// Rebuilds the blanked per-line code view from the token stream: every
/// non-literal token is written back at its exact column; string
/// literals keep their opening and closing `"` (token boundaries
/// survive); char literals and comments blank entirely.
fn code_view(raw: &[String], tokens: &[Tok]) -> Vec<String> {
    let mut canvas: Vec<Vec<char>> = raw.iter().map(|l| vec![' '; l.chars().count()]).collect();
    let mut put = |line: usize, col: usize, c: char| {
        if let Some(row) = canvas.get_mut(line - 1) {
            if let Some(slot) = row.get_mut(col) {
                *slot = c;
            }
        }
    };
    for tok in tokens {
        match tok.kind {
            TokKind::Str => {
                put(tok.line, tok.col, '"');
                put(tok.end_line, tok.end_col, '"');
            }
            TokKind::Char => {}
            _ => {
                for (k, c) in tok.text.chars().enumerate() {
                    put(tok.line, tok.col + k, c);
                }
            }
        }
    }
    canvas
        .into_iter()
        .map(|row| {
            let mut s: String = row.into_iter().collect();
            s.truncate(s.trim_end().len());
            s
        })
        .collect()
}

/// Marks every line belonging to a `#[cfg(test)]` (or `#[test]`) item,
/// from its first attribute line to its closing brace.
fn mark_cfg_test(n_lines: usize, scope: &FileScope) -> Vec<bool> {
    let mut flags = vec![false; n_lines];
    for item in &scope.items {
        if item.is_test {
            let from = item.start_line.saturating_sub(1);
            let to = item.end_line.min(n_lines);
            flags[from..to].iter_mut().for_each(|f| *f = true);
        }
    }
    flags
}

/// Parses `ddtr-lint: allow(<rule>)` waivers out of the comment trivia.
///
/// Only real `//` line comments count: a waiver-shaped string literal is
/// a string, not a comment, and `///` / `//!` doc comments are skipped
/// so documentation can show the syntax without waiving anything.
fn collect_waivers(comments: &[Comment], code: &[String]) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for comment in comments {
        if comment.doc || comment.block {
            continue;
        }
        let Some(at) = comment.text.find("ddtr-lint: allow(") else {
            continue;
        };
        let rest = &comment.text[at + "ddtr-lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', ':'])
            .trim();
        // A waiver trailing code covers its own line; a standalone waiver
        // comment covers the next line that carries code.
        let idx = comment.line - 1;
        let own_code = code.get(idx).map_or("", String::as_str);
        let applies_to = if own_code.trim().is_empty() {
            (idx + 1..code.len())
                .find(|&j| !code[j].trim().is_empty())
                .map_or(idx + 1, |j| j + 1)
        } else {
            idx + 1
        };
        waivers.push(Waiver {
            rule,
            line: comment.line,
            applies_to,
            has_reason: !reason.is_empty(),
        });
    }
    waivers
}

/// Whether `code[pos..]` starts with `token` at an identifier boundary.
/// For tokens beginning with an identifier char, the preceding char must
/// not extend an identifier (`debug_assert!` is not `assert!`); tokens
/// beginning with punctuation (`.unwrap()`) match anywhere.
#[must_use]
pub fn token_at(code: &str, pos: usize, token: &str) -> bool {
    if !code[pos..].starts_with(token) {
        return false;
    }
    let ident_start = token
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    !ident_start
        || !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// All identifier-boundary occurrences of `token` in `code`.
#[must_use]
pub fn find_tokens(code: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = code[from..].find(token) {
        let pos = from + at;
        if token_at(code, pos, token) {
            out.push(pos);
        }
        from = pos + token.len().max(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = SourceFile::from_source(
            "x.rs",
            "let a = \"partial_cmp\"; // partial_cmp here\nlet b = 1; /* partial_cmp */ let c = 2;\n",
        );
        assert!(!f.code[0].contains("partial_cmp"));
        assert!(f.code[0].contains("let a"));
        assert!(!f.code[1].contains("partial_cmp"));
        assert!(f.code[1].contains("let c"));
    }

    #[test]
    fn raw_strings_and_char_literals_are_blanked() {
        let f = SourceFile::from_source(
            "x.rs",
            "let a = r#\"unwrap() \"quoted\" inside\"#;\nlet c = '\\n'; let l: &'static str = \"x\";\n",
        );
        assert!(!f.code[0].contains("unwrap"));
        assert!(f.code[1].contains("'static"));
        assert!(!f.code[1].contains("\\n"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let f =
            SourceFile::from_source("x.rs", "/* outer /* inner */ still comment */ let x = 1;\n");
        assert!(f.code[0].contains("let x"));
        assert!(!f.code[0].contains("inner"));
    }

    #[test]
    fn multi_line_raw_strings_stay_blank_in_the_code_view() {
        let src = "let q = r##\"first\n.unwrap() \"# still inside\nreal end\"##;\nx.iter();\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(!f.code.join("\n").contains(".unwrap()"));
        assert!(f.code[3].contains("x.iter()"));
    }

    #[test]
    fn escaped_quote_char_literal_leaves_no_stray_quote() {
        // The old line blanker consumed `'\''` short by one char and
        // leaked a stray `'` into the code view.
        let f = SourceFile::from_source("x.rs", "let c = '\\''; let after = 1;\n");
        assert!(!f.code[0].contains('\''), "{:?}", f.code[0]);
        assert!(f.code[0].contains("let after"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn waivers_bind_to_their_line_or_the_next_code_line() {
        let src = "let a = 1; // ddtr-lint: allow(float-ord) — trailing\n// ddtr-lint: allow(det-iter) — standalone\n\nlet b = 2;\n";
        let f = SourceFile::from_source("x.rs", src);
        assert_eq!(f.waivers.len(), 2);
        assert_eq!(f.waivers[0].applies_to, 1);
        assert!(f.waivers[0].has_reason);
        assert_eq!(f.waivers[1].applies_to, 4);
    }

    #[test]
    fn waivers_in_strings_and_doc_comments_do_not_count() {
        let src = "let s = \"// ddtr-lint: allow(float-ord) — not real\";\n/// // ddtr-lint: allow(det-iter) — docs showing syntax\nfn f() {}\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(f.waivers.is_empty(), "{:?}", f.waivers);
    }

    #[test]
    fn token_boundaries_reject_identifier_prefixes() {
        assert!(token_at("assert!(x)", 0, "assert!"));
        let line = "debug_assert!(x)";
        let pos = line.find("assert!").unwrap();
        assert!(!token_at(line, pos, "assert!"));
        assert_eq!(find_tokens("a.unwrap() b_unwrap()", ".unwrap()").len(), 1);
    }
}
