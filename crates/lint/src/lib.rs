//! `ddtr_lint` — the workspace invariant checker behind the `ddtr-lint`
//! bin.
//!
//! The repo's core guarantees — byte-identical Pareto fronts at any
//! `--jobs`, NaN-safe float ordering, structured errors (never panics)
//! across the serve protocol boundary, mutex guards never held across
//! blocking I/O and lock acquisitions that cannot deadlock — were
//! enforced by hand audit at first, and had already started regressing.
//! This crate mechanizes them as five rules (see [`rules`]) that run in
//! milliseconds on every CI push:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `float-ord` | comparators use `f64::total_cmp`, never `partial_cmp` |
//! | `no-panic-boundary` | serve/dispatch request paths return structured errors |
//! | `det-iter` | no hash-order iteration in determinism-critical modules |
//! | `lock-across-io` | no mutex guard held across write/flush in crates/serve |
//! | `lock-order` | no acquisition cycles; no guard held across a pool-blocking call |
//!
//! Contracts the compiler or a plain test can hold are not lints.
//! Recorded transcripts pin wire compatibility
//! (`crates/serve/tests/wire_transcripts.rs`); `docs/LINTS.md` says where
//! the retired doc and cache-key checks now live.
//!
//! The checker is deliberately dependency-light (no `syn`, like the
//! repo's hand-written vendored serde derive): a small Rust lexer
//! ([`lex`]) turns each file into tokens — raw strings, nested block
//! comments and char-vs-lifetime handled for real — and a brace-scope
//! parser ([`scope`]) recovers functions, impls and attributes for the
//! rules to match on. False positives are handled by per-line waivers:
//!
//! ```text
//! // ddtr-lint: allow(det-iter) — keys are collected and sorted below
//! ```
//!
//! A waiver must name the rule and carry a reason; unused waivers are
//! reported (and fail under `--deny-all`) so stale ones cannot
//! accumulate. See `docs/LINTS.md` for the full catalog and workflow.

pub mod diag;
pub mod lex;
pub mod rules;
pub mod scope;
pub mod source;

pub use diag::{Finding, Severity};
pub use rules::{all_rules, Rule};
pub use source::SourceFile;

use std::path::{Path, PathBuf};

/// The preprocessed source set of one workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Preprocessed files, sorted by path for deterministic output.
    pub files: Vec<SourceFile>,
}

/// Directories scanned inside the root and inside each `crates/*` member.
const SCAN_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

impl Workspace {
    /// Loads every first-party `.rs` file under `root`: `src/`, `tests/`,
    /// `examples/`, `benches/` at the root and per crate. `vendor/` (the
    /// offline stand-ins), `target/` and this crate's own `fixtures/`
    /// corpus are excluded.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit while walking or reading.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut rels: Vec<PathBuf> = Vec::new();
        for dir in SCAN_DIRS {
            collect_rs(&root.join(dir), Path::new(dir), &mut rels)?;
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            members.sort();
            for member in members {
                let name = member.file_name().unwrap_or_default().to_os_string();
                for dir in SCAN_DIRS {
                    let rel = Path::new("crates").join(&name).join(dir);
                    collect_rs(&member.join(dir), &rel, &mut rels)?;
                }
            }
        }
        rels.sort();
        let mut files = Vec::with_capacity(rels.len());
        for rel in rels {
            let rel_str = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::load(&root.join(&rel), &rel_str)?);
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Builds a workspace from preprocessed in-memory files — the fixture
    /// tests use this to place snippets under rule-scoped paths.
    #[must_use]
    pub fn from_files(files: Vec<SourceFile>) -> Workspace {
        Workspace {
            root: PathBuf::new(),
            files,
        }
    }
}

/// Recursively collects `.rs` files under `dir` (absolute), recording
/// root-relative paths. Skips `fixtures/` subtrees — the lint crate's
/// corpus of deliberately bad snippets.
fn collect_rs(dir: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.filter_map(Result::ok).collect();
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs(&path, &rel.join(&name), out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel.join(&name));
        }
    }
    Ok(())
}

/// Outcome of one checker run.
#[derive(Debug)]
pub struct Report {
    /// Surviving findings (waived ones removed), sorted by file/line/rule.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_checked: usize,
    /// Number of waivers that suppressed a finding.
    pub waivers_used: usize,
}

impl Report {
    /// Whether the run should fail: any deny finding, or — under
    /// `deny_all` — any finding at all.
    #[must_use]
    pub fn failed(&self, deny_all: bool) -> bool {
        self.findings
            .iter()
            .any(|f| deny_all || f.severity == Severity::Deny)
    }
}

/// Runs every rule over the workspace, applies waivers, and reports
/// waiver hygiene (unused waivers, unknown rule names, missing reasons).
#[must_use]
pub fn run(ws: &Workspace) -> Report {
    let rules = all_rules();
    let mut raw: Vec<Finding> = Vec::new();
    for rule in &rules {
        rule.check(ws, &mut raw);
    }
    let known: Vec<&str> = rules.iter().map(|r| r.name()).collect();

    // A finding survives unless a waiver for its rule covers its line.
    let mut used: std::collections::BTreeSet<(String, usize)> = std::collections::BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    for finding in raw {
        let waived = ws
            .files
            .iter()
            .find(|f| f.path == finding.file)
            .and_then(|f| {
                f.waivers
                    .iter()
                    .find(|w| w.rule == finding.rule && w.applies_to == finding.line)
            });
        match waived {
            Some(w) => {
                used.insert((finding.file.clone(), w.line));
            }
            None => findings.push(finding),
        }
    }

    // Waiver hygiene.
    for file in &ws.files {
        for w in &file.waivers {
            if !known.contains(&w.rule.as_str()) {
                findings.push(Finding::warn(
                    &file.path,
                    w.line,
                    "unknown-waiver",
                    format!(
                        "waiver names unknown rule `{}` (see `ddtr-lint --list`)",
                        w.rule
                    ),
                ));
            } else if !used.contains(&(file.path.clone(), w.line)) {
                findings.push(Finding::warn(
                    &file.path,
                    w.line,
                    "unused-waiver",
                    format!(
                        "waiver for `{}` suppresses nothing any more — remove it",
                        w.rule
                    ),
                ));
            } else if !w.has_reason {
                findings.push(Finding::warn(
                    &file.path,
                    w.line,
                    "bare-waiver",
                    format!(
                        "waiver for `{}` carries no justification — add one after the \
                         closing paren",
                        w.rule
                    ),
                ));
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    Report {
        findings,
        files_checked: ws.files.len(),
        waivers_used: used.len(),
    }
}

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]` — how the bin finds the root regardless of the
/// invocation directory.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
