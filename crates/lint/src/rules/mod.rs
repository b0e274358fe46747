//! The rule catalog.
//!
//! Every rule implements [`Rule`] over the whole [`Workspace`] (most scan
//! file by file; `lock-order` is inter-procedural). The checker in
//! [`crate::run`] applies waivers afterwards, so rules report every raw
//! violation they see.
//!
//! Path scoping lives in one declarative [`SCOPES`] table instead of a
//! private predicate per rule, so "which rule watches which files" is a
//! single diffable surface; each rule's section of `docs/LINTS.md` names
//! its scope.

use crate::diag::Finding;
use crate::Workspace;

mod det_iter;
mod float_ord;
mod lock_io;
mod lock_order;
mod no_panic;

pub use det_iter::DetIter;
pub use float_ord::FloatOrd;
pub use lock_io::LockAcrossIo;
pub use lock_order::LockOrder;
pub use no_panic::NoPanicBoundary;

/// One invariant checker.
pub trait Rule {
    /// Stable rule name — what waivers and diagnostics reference.
    fn name(&self) -> &'static str;
    /// One-line description for `--list` and the docs.
    fn description(&self) -> &'static str;
    /// Scans the workspace and appends raw (pre-waiver) findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Every shipped rule, in catalog order.
#[must_use]
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(FloatOrd),
        Box::new(NoPanicBoundary),
        Box::new(DetIter),
        Box::new(LockAcrossIo),
        Box::new(LockOrder),
    ]
}

/// The path scope of one rule: a file is in scope when its
/// workspace-relative path starts with any listed prefix or equals any
/// listed file.
pub struct Scope {
    /// Directory prefixes (always ending in `/`).
    pub prefixes: &'static [&'static str],
    /// Exact file paths.
    pub files: &'static [&'static str],
}

/// Which rule watches which files, declaratively. `float-ord` is absent
/// on purpose: it is workspace-wide.
///
/// Scope rationale, kept with the data it explains:
///
/// * `no-panic-boundary` — the serve boundary, the shared dispatch path,
///   the observability layer (instrumentation that panics tears down
///   whatever it was observing) and the pile store (verify-on-read means
///   untrusted bytes flow through it; corruption must surface as errors,
///   never panics).
/// * `det-iter` — the Pareto crate, the GA, the engine cache/key/store
///   path and obs snapshots: everywhere hash-order iteration would break
///   byte-identical output.
/// * `lock-across-io` / `lock-order` — every crate that holds long-lived
///   mutexes (`serve` connection + inflight state, `obs` registries,
///   `engine` cache and jobs pool).
pub const SCOPES: &[(&str, Scope)] = &[
    (
        "no-panic-boundary",
        Scope {
            prefixes: &[
                "crates/serve/src/",
                "crates/obs/src/",
                "crates/engine/src/store/",
            ],
            files: &["crates/core/src/dispatch.rs"],
        },
    ),
    (
        "det-iter",
        Scope {
            prefixes: &[
                "crates/pareto/src/",
                "crates/obs/src/",
                "crates/engine/src/store/",
            ],
            files: &[
                "crates/core/src/ga.rs",
                "crates/engine/src/cache.rs",
                "crates/engine/src/engine.rs",
                "crates/engine/src/key.rs",
            ],
        },
    ),
    (
        "lock-across-io",
        Scope {
            prefixes: &["crates/serve/src/", "crates/obs/src/"],
            files: &[],
        },
    ),
    (
        "lock-order",
        Scope {
            prefixes: &["crates/engine/src/", "crates/serve/src/", "crates/obs/src/"],
            files: &[],
        },
    ),
];

/// Whether `path` is in `rule`'s scope per [`SCOPES`]. Rules without a
/// table entry must not call this (it returns `false` for them).
#[must_use]
pub fn in_scope(rule: &str, path: &str) -> bool {
    SCOPES
        .iter()
        .find(|(name, _)| *name == rule)
        .is_some_and(|(_, scope)| {
            scope.prefixes.iter().any(|p| path.starts_with(p)) || scope.files.contains(&path)
        })
}
