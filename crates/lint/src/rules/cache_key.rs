//! `cache-key-coverage`: every config field that feeds a `CacheKey`
//! fingerprint is declared covered.
//!
//! The engine's result cache addresses a simulation by `CacheKey`, whose
//! `params_fp` / `trace_fp` / `mem_fp` components are FNV-1a fingerprints
//! over the *serde encoding* of the config structs
//! (`ddtr_engine::fingerprint_value`). That design covers new fields
//! automatically — **unless** a field is added with `#[serde(skip)]` (or
//! the fingerprint routine stops serialising the whole struct), in which
//! case two configs that simulate differently share a fingerprint and the
//! cache silently replays stale results. That is the worst bug class in
//! the repo: wrong numbers with no crash.
//!
//! Mechanization: `crates/engine/src/key.rs` carries a comment manifest
//!
//! ```text
//! // ddtr-lint: cache-key-coverage begin
//! // AppParams @ crates/apps/src/params.rs: drr_quantum, firewall_rules, ...
//! // ddtr-lint: cache-key-coverage end
//! ```
//!
//! and this rule cross-checks each entry against the real struct
//! definition: a struct field missing from the manifest, a manifest field
//! missing from the struct, a missing struct/file, and any
//! `#[serde(skip..)]` attribute inside a covered struct are all findings.
//! Adding a config field therefore *forces* a visit to key.rs — the point
//! where its fingerprint impact must be considered.

use super::Rule;
use crate::diag::Finding;
use crate::scope::ItemKind;
use crate::source::SourceFile;
use crate::Workspace;
use std::collections::BTreeSet;

/// See the module docs.
pub struct CacheKeyCoverage;

/// Where the manifest lives.
const MANIFEST_FILE: &str = "crates/engine/src/key.rs";
const BEGIN: &str = "ddtr-lint: cache-key-coverage begin";
const END: &str = "ddtr-lint: cache-key-coverage end";

struct Entry {
    strukt: String,
    file: String,
    fields: BTreeSet<String>,
    /// 1-based manifest line in `key.rs`.
    line: usize,
}

impl Rule for CacheKeyCoverage {
    fn name(&self) -> &'static str {
        "cache-key-coverage"
    }

    fn description(&self) -> &'static str {
        "every serde-visible field of the CacheKey config structs is declared in the key.rs manifest"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let Some(key_rs) = ws.files.iter().find(|f| f.path == MANIFEST_FILE) else {
            // Workspace slice without the engine (fixture runs): nothing
            // to check against.
            return;
        };
        let entries = parse_manifest(key_rs);
        if entries.is_empty() {
            out.push(Finding::deny(
                MANIFEST_FILE,
                1,
                self.name(),
                format!(
                    "no `{BEGIN}` manifest found; the CacheKey coverage contract is \
                     unverifiable — restore the manifest block"
                ),
            ));
            return;
        }
        for entry in entries {
            let Some(file) = ws.files.iter().find(|f| f.path == entry.file) else {
                out.push(Finding::deny(
                    MANIFEST_FILE,
                    entry.line,
                    self.name(),
                    format!(
                        "manifest names `{}` in `{}`, but that file is not in the \
                         workspace (moved or deleted?)",
                        entry.strukt, entry.file
                    ),
                ));
                continue;
            };
            let Some(strukt) = file
                .scope
                .type_item(&entry.strukt)
                .filter(|i| i.kind == ItemKind::Struct)
            else {
                out.push(Finding::deny(
                    MANIFEST_FILE,
                    entry.line,
                    self.name(),
                    format!(
                        "manifest names struct `{}` in `{}`, but no such struct is \
                         defined there (renamed?)",
                        entry.strukt, entry.file
                    ),
                ));
                continue;
            };
            for field in &strukt.fields {
                if !entry.fields.contains(&field.name) {
                    out.push(Finding::deny(
                        &entry.file,
                        field.line,
                        self.name(),
                        format!(
                            "field `{}` of `{}` feeds a CacheKey fingerprint but is \
                             not declared in the coverage manifest \
                             ({MANIFEST_FILE}); confirm it is serde-visible (no skip) \
                             and add it to the manifest",
                            field.name, entry.strukt
                        ),
                    ));
                }
            }
            for field in &entry.fields {
                if !strukt.fields.iter().any(|f| f.name == *field) {
                    out.push(Finding::deny(
                        MANIFEST_FILE,
                        entry.line,
                        self.name(),
                        format!(
                            "manifest declares `{}::{field}`, but the struct has no such \
                             field any more — remove it from the manifest",
                            entry.strukt
                        ),
                    ));
                }
            }
            let skips = strukt
                .fields
                .iter()
                .flat_map(|f| &f.attrs)
                .filter(|(_, attr)| attr.starts_with("#[serde(") && attr.contains("skip"));
            for (line, _) in skips {
                out.push(Finding::deny(
                    &entry.file,
                    *line,
                    self.name(),
                    format!(
                        "`#[serde(skip..)]` inside `{}` makes the field invisible to \
                         `fingerprint_value`: two configs that simulate differently \
                         would share a cache entry (silent stale results)",
                        entry.strukt
                    ),
                ));
            }
        }
    }
}

/// Parses the manifest comment block out of key.rs's raw lines.
fn parse_manifest(key_rs: &SourceFile) -> Vec<Entry> {
    let mut entries = Vec::new();
    let mut inside = false;
    for (idx, raw) in key_rs.raw.iter().enumerate() {
        if raw.contains(BEGIN) {
            inside = true;
            continue;
        }
        if raw.contains(END) {
            break;
        }
        if !inside {
            continue;
        }
        let body = raw.trim_start().trim_start_matches("//").trim();
        let Some((head, fields)) = body.split_once(':') else {
            continue;
        };
        let Some((strukt, file)) = head.split_once('@') else {
            continue;
        };
        entries.push(Entry {
            strukt: strukt.trim().to_string(),
            file: file.trim().to_string(),
            fields: fields
                .split(',')
                .map(|f| f.trim().to_string())
                .filter(|f| !f.is_empty())
                .collect(),
            line: idx + 1,
        });
    }
    entries
}
