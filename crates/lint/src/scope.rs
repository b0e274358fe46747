//! A lightweight item parser over the token stream.
//!
//! Rules that reason about *shape* — which functions exist (and on which
//! impl type), where their bodies start and end, which items are
//! `#[cfg(test)]` — get it from here instead of re-deriving it from line
//! heuristics. The parser is
//! deliberately partial: it tracks items, attributes, visibility,
//! impl/mod/trait nesting and brace-balanced bodies, and skips anything
//! it does not understand one token at a time. Because it walks the
//! [`crate::lex`] token stream, braces inside strings, chars or comments
//! can never desynchronise it — the failure mode the old line blanker
//! was one odd literal away from.

use crate::lex::{Tok, TokKind};

/// What kind of item a [`Item`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free, impl method or trait default method).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `impl` block.
    Impl,
    /// `mod` with an inline body.
    Mod,
    /// `trait` definition.
    Trait,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Item name; for `impl` blocks, the self type's last path segment.
    pub name: String,
    /// For `fn`s inside `impl`/`trait` blocks: the self type.
    pub self_ty: Option<String>,
    /// Attribute texts, token-concatenated (`#[cfg(test)]`).
    pub attrs: Vec<String>,
    /// 1-based first line (the first attribute, if any).
    pub start_line: usize,
    /// 1-based last line of the item.
    pub end_line: usize,
    /// Token index range of the `{ … }` body, braces excluded.
    pub body: Option<std::ops::Range<usize>>,
    /// Inside a `#[cfg(test)]` item (directly or via an enclosing item).
    pub is_test: bool,
}

/// Every item of one file, flattened (nested items follow their parent).
#[derive(Debug, Default)]
pub struct FileScope {
    /// All items in source order.
    pub items: Vec<Item>,
}

impl FileScope {
    /// Parses the whole token stream.
    #[must_use]
    pub fn parse(tokens: &[Tok]) -> FileScope {
        let mut scope = FileScope::default();
        parse_items(tokens, 0, tokens.len(), None, false, &mut scope.items);
        scope
    }

    /// All functions, in source order.
    pub fn fns(&self) -> impl Iterator<Item = &Item> {
        self.items.iter().filter(|i| i.kind == ItemKind::Fn)
    }
}

/// Whether an attribute text marks a test item (`#[cfg(test)]`,
/// `#[cfg(all(test, …))]`, `#[test]`).
fn is_test_attr(attr: &str) -> bool {
    attr == "#[test]" || (attr.starts_with("#[cfg(") && attr.contains("test"))
}

fn parse_items(
    toks: &[Tok],
    start: usize,
    end: usize,
    self_ty: Option<&str>,
    in_test: bool,
    out: &mut Vec<Item>,
) {
    let mut i = start;
    while i < end {
        let item_start = i;
        let mut attrs = Vec::new();
        while i < end && toks[i].is_punct('#') {
            let (attr, next) = consume_attr(toks, i, end);
            attrs.push(attr);
            i = next;
        }
        if i >= end {
            break;
        }
        // Visibility and item-position modifiers.
        while i < end {
            let t = &toks[i];
            if t.is_ident("pub") {
                i += 1;
                if i < end && toks[i].is_punct('(') {
                    i = skip_balanced(toks, i, end, '(', ')');
                }
            } else if t.is_ident("unsafe") || t.is_ident("async") || t.is_ident("default") {
                i += 1;
            } else if t.is_ident("extern") {
                i += 1;
                if i < end && toks[i].kind == TokKind::Str {
                    i += 1;
                }
            } else if t.is_ident("const") && i + 1 < end && toks[i + 1].is_ident("fn") {
                i += 1; // `const fn` — const as a modifier
            } else {
                break;
            }
        }
        if i >= end {
            break;
        }
        let attr_line = toks.get(item_start).map_or(toks[i].line, |t| t.line);
        let test_here = in_test || attrs.iter().any(|a| is_test_attr(a));
        let kw = &toks[i];
        if kw.is_ident("fn") {
            i = parse_fn(toks, i, end, self_ty, &attrs, attr_line, test_here, out);
        } else if kw.is_ident("struct") || kw.is_ident("enum") || kw.is_ident("union") {
            i = parse_type_item(toks, i, end, &attrs, attr_line, test_here, out);
        } else if kw.is_ident("impl") {
            i = parse_impl(toks, i, end, &attrs, attr_line, test_here, out);
        } else if kw.is_ident("mod") || kw.is_ident("trait") {
            i = parse_mod_or_trait(toks, i, end, &attrs, attr_line, test_here, out);
        } else if kw.is_ident("macro_rules") {
            i = skip_to_body_or_semi(toks, i, end).1;
        } else if kw.is_ident("use")
            || kw.is_ident("type")
            || kw.is_ident("static")
            || kw.is_ident("const")
        {
            i = skip_to_semi(toks, i, end);
        } else {
            i += 1;
        }
    }
}

/// Consumes `#[…]` / `#![…]` starting at `i`; returns the concatenated
/// text and the index past the closing `]`.
fn consume_attr(toks: &[Tok], i: usize, end: usize) -> (String, usize) {
    let mut text = String::from("#");
    let mut j = i + 1;
    if j < end && toks[j].is_punct('!') {
        text.push('!');
        j += 1;
    }
    if j >= end || !toks[j].is_punct('[') {
        return (text, j);
    }
    let mut depth = 0usize;
    while j < end {
        let t = &toks[j];
        if t.kind == TokKind::Str {
            text.push('"');
            text.push_str(&t.text);
            text.push('"');
        } else {
            text.push_str(&t.text);
        }
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (text, j + 1);
            }
        }
        j += 1;
    }
    (text, j)
}

/// Index past the balanced `open…close` group starting at `i` (which
/// must sit on `open`).
fn skip_balanced(toks: &[Tok], i: usize, end: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < end {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Index past the next `;` at zero brace/paren/bracket depth.
fn skip_to_semi(toks: &[Tok], i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < end {
        let t = &toks[j];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return j + 1;
        }
        j += 1;
    }
    j
}

/// Scans from `i` for the first `{` or `;` at zero paren/bracket depth,
/// ignoring `->`'s `>`; returns `(body token range if braced, index past
/// the item)`.
fn skip_to_body_or_semi(
    toks: &[Tok],
    i: usize,
    end: usize,
) -> (Option<std::ops::Range<usize>>, usize) {
    let mut depth = 0i64;
    let mut j = i;
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return (None, j + 1);
        } else if t.is_punct('{') && depth == 0 {
            let past = skip_balanced(toks, j, end, '{', '}');
            return (Some(j + 1..past.saturating_sub(1)), past);
        }
        j += 1;
    }
    (None, j)
}

#[allow(clippy::too_many_arguments)]
fn parse_fn(
    toks: &[Tok],
    i: usize,
    end: usize,
    self_ty: Option<&str>,
    attrs: &[String],
    attr_line: usize,
    is_test: bool,
    out: &mut Vec<Item>,
) -> usize {
    let name = toks
        .get(i + 1)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default();
    let (body, past) = skip_to_body_or_semi(toks, i + 1, end);
    let end_line = toks
        .get(past.saturating_sub(1))
        .map_or(attr_line, |t| t.end_line);
    out.push(Item {
        kind: ItemKind::Fn,
        name,
        self_ty: self_ty.map(str::to_string),
        attrs: attrs.to_vec(),
        start_line: attr_line,
        end_line,
        body,
        is_test,
    });
    past
}

fn parse_type_item(
    toks: &[Tok],
    i: usize,
    end: usize,
    attrs: &[String],
    attr_line: usize,
    is_test: bool,
    out: &mut Vec<Item>,
) -> usize {
    let is_enum = toks[i].is_ident("enum");
    let name = toks
        .get(i + 1)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default();
    let (body, past) = skip_to_body_or_semi(toks, i + 1, end);
    let end_line = toks
        .get(past.saturating_sub(1))
        .map_or(attr_line, |t| t.end_line);
    out.push(Item {
        kind: if is_enum {
            ItemKind::Enum
        } else {
            ItemKind::Struct
        },
        name,
        self_ty: None,
        attrs: attrs.to_vec(),
        start_line: attr_line,
        end_line,
        body,
        is_test,
    });
    past
}

fn parse_impl(
    toks: &[Tok],
    i: usize,
    end: usize,
    attrs: &[String],
    attr_line: usize,
    is_test: bool,
    out: &mut Vec<Item>,
) -> usize {
    // `impl[<…>] [Trait for] Type[<…>] [where …] { … }` — the self type
    // is the ident right before the first `<` after any `for`, or the
    // last ident seen before the body.
    let mut j = i + 1;
    if j < end && toks[j].is_punct('<') {
        j = skip_angles(toks, j, end);
    }
    let mut ty = String::new();
    let mut ty_locked = false;
    let mut depth = 0i64;
    while j < end {
        let t = &toks[j];
        if t.is_punct('{') && depth == 0 {
            break;
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_ident("for") {
                // `impl Trait for Type` — restart on the real self type.
                ty.clear();
                ty_locked = false;
            } else if t.is_ident("where") {
                break;
            } else if t.is_punct('<') {
                ty_locked = true; // `ConnWriter<W>` — keep `ConnWriter`
            } else if t.kind == TokKind::Ident && !ty_locked {
                ty = t.text.clone();
            }
        }
        j += 1;
    }
    let (body, past) = skip_to_body_or_semi(toks, j, end);
    let end_line = toks
        .get(past.saturating_sub(1))
        .map_or(attr_line, |t| t.end_line);
    out.push(Item {
        kind: ItemKind::Impl,
        name: ty.clone(),
        self_ty: None,
        attrs: attrs.to_vec(),
        start_line: attr_line,
        end_line,
        body: body.clone(),
        is_test,
    });
    if let Some(range) = body {
        parse_items(toks, range.start, range.end, Some(&ty), is_test, out);
    }
    past
}

fn parse_mod_or_trait(
    toks: &[Tok],
    i: usize,
    end: usize,
    attrs: &[String],
    attr_line: usize,
    is_test: bool,
    out: &mut Vec<Item>,
) -> usize {
    let is_trait = toks[i].is_ident("trait");
    let name = toks
        .get(i + 1)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default();
    let (body, past) = skip_to_body_or_semi(toks, i + 1, end);
    let end_line = toks
        .get(past.saturating_sub(1))
        .map_or(attr_line, |t| t.end_line);
    out.push(Item {
        kind: if is_trait {
            ItemKind::Trait
        } else {
            ItemKind::Mod
        },
        name: name.clone(),
        self_ty: None,
        attrs: attrs.to_vec(),
        start_line: attr_line,
        end_line,
        body: body.clone(),
        is_test,
    });
    if let Some(range) = body {
        let ty = is_trait.then_some(name.as_str());
        parse_items(toks, range.start, range.end, ty, is_test, out);
    }
    past
}

/// Index past a balanced `<…>` group, treating `->`'s `>` as inert.
fn skip_angles(toks: &[Tok], i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < end {
        let t = &toks[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let arrow = j > 0 && toks[j - 1].is_punct('-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse(src: &str) -> FileScope {
        FileScope::parse(&lex(src).tokens)
    }

    #[test]
    fn fns_get_bodies_and_impl_types() {
        let s = parse(
            "fn free() { let x = 1; }\n\
             impl<W: Write> ConnWriter<W> {\n    pub fn emit(&self) -> bool { true }\n}\n\
             impl Drop for JobsPermit { fn drop(&mut self) {} }\n",
        );
        let fns: Vec<(&str, Option<&str>)> = s
            .fns()
            .map(|f| (f.name.as_str(), f.self_ty.as_deref()))
            .collect();
        assert_eq!(
            fns,
            [
                ("free", None),
                ("emit", Some("ConnWriter")),
                ("drop", Some("JobsPermit")),
            ]
        );
        assert!(s.fns().all(|f| f.body.is_some()));
    }

    #[test]
    fn cfg_test_marks_items_and_their_children() {
        let s = parse(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\
             #[test]\nfn direct() {}\n",
        );
        let by_name = |n: &str| s.items.iter().find(|i| i.name == n).expect("item");
        assert!(!by_name("live").is_test);
        assert!(by_name("tests").is_test);
        assert!(by_name("t").is_test);
        assert!(by_name("direct").is_test);
    }

    #[test]
    fn fn_bodies_survive_tricky_literals() {
        let s = parse("fn a() { let s = \"}{\"; let c = '}'; let r = r#\"}}}\"#; }\nfn b() {}\n");
        let names: Vec<&str> = s.fns().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn where_clauses_and_arrows_do_not_derail() {
        let s = parse(
            "impl<F: FnOnce() -> usize> Holder<F> where F: Send { fn go(&self) -> usize { 1 } }\n",
        );
        let f = s.fns().next().expect("fn");
        assert_eq!(f.name, "go");
        assert_eq!(f.self_ty.as_deref(), Some("Holder"));
    }
}
