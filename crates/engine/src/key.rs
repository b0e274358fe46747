//! Structured, collision-safe identification of simulation points.
//!
//! The seed code keyed everything by ad-hoc strings (`"{network}/{params}"`
//! concatenations), which silently collide once a network name contains the
//! separator and cannot carry the content fingerprints the result cache
//! needs. This module replaces them with two structured types:
//!
//! * [`ConfigKey`] — the step-2 grouping key (network × application
//!   parameters), with a `Display` impl preserving the familiar
//!   `network/params` log form.
//! * [`CacheKey`] — the full content address of one simulation:
//!   application, combination, configuration labels **and** 64-bit
//!   fingerprints of the application parameters, the input trace, and the
//!   platform memory configuration. Two simulations share a [`CacheKey`]
//!   only if they compute the same result.

use crate::combo::{combo_label, Combo};
use ddtr_apps::{AppKind, AppParams};
use ddtr_mem::MemoryConfig;
use ddtr_trace::{StreamSpec, Trace};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Version stamped into every cache identity; bump when the simulation
/// semantics or the fingerprint encoding change so stale on-disk entries
/// can never replay.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// The step-2 configuration key: which network and which
/// application-parameter variant a simulation ran under.
///
/// Replaces the stringly `SimLog::config_key` of the seed: ordering,
/// hashing and equality act on the structured fields, while [`fmt::Display`]
/// keeps the `network/params` form the logs always used.
///
/// # Example
///
/// ```
/// use ddtr_engine::ConfigKey;
///
/// let key = ConfigKey::new("BWY-I", "radix128");
/// assert_eq!(key.to_string(), "BWY-I/radix128");
/// assert_eq!(key, "BWY-I/radix128"); // string comparisons still work
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConfigKey {
    /// Name of the network the input trace came from.
    pub network: String,
    /// Application-parameter label (e.g. `"radix128"`).
    pub params: String,
}

impl ConfigKey {
    /// Creates a configuration key.
    #[must_use]
    pub fn new(network: impl Into<String>, params: impl Into<String>) -> Self {
        ConfigKey {
            network: network.into(),
            params: params.into(),
        }
    }
}

impl fmt::Display for ConfigKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Honour width/alignment options by formatting the joined form.
        fmt::Display::fmt(&format!("{}/{}", self.network, self.params), f)
    }
}

impl PartialEq<str> for ConfigKey {
    /// Compares against the joined `network/params` form — a convenience
    /// for assertions and log readability. The joined form is inherently
    /// ambiguous when a network name itself contains `/`; only the
    /// structured comparison (`ConfigKey == ConfigKey`) is collision-safe.
    fn eq(&self, other: &str) -> bool {
        other
            .strip_prefix(self.network.as_str())
            .and_then(|rest| rest.strip_prefix('/'))
            == Some(self.params.as_str())
    }
}

impl PartialEq<&str> for ConfigKey {
    fn eq(&self, other: &&str) -> bool {
        self == *other
    }
}

/// The full content address of one `(application, combination,
/// configuration)` simulation — the key of the engine's result cache.
///
/// Human-readable labels make cache files greppable; the three fingerprints
/// make the key collision-safe: changing a single packet of the trace, an
/// application parameter, or the platform memory model changes the key.
///
/// `mem_fp` is what makes the memory-hierarchy sweep axis cacheable for
/// free: every platform of a `ddtr sweep` addresses its own cache entries,
/// so sweep cells are individually reusable — a repeated sweep executes
/// nothing, and adding one platform column re-executes only that column.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CacheKey {
    /// Application simulated.
    pub app: AppKind,
    /// DDT combination label (e.g. `"AR+DLL"`).
    pub combo: String,
    /// Network × parameter-variant the simulation ran under.
    pub config: ConfigKey,
    /// Fingerprint of the full [`AppParams`] contents.
    pub params_fp: u64,
    /// Fingerprint of the input trace (name and every packet).
    pub trace_fp: u64,
    /// Fingerprint of the platform [`MemoryConfig`].
    pub mem_fp: u64,
}

impl CacheKey {
    /// Builds the key for one simulation point, fingerprinting the
    /// parameters and memory configuration. The trace fingerprint is taken
    /// as an argument because traces are shared across many points — use
    /// [`fingerprint_trace`] once per trace.
    #[must_use]
    pub fn new(
        app: AppKind,
        combo: Combo,
        params: &AppParams,
        trace: &Trace,
        trace_fp: u64,
        mem: &MemoryConfig,
    ) -> Self {
        Self::for_network(app, combo, params, &trace.network, trace_fp, mem)
    }

    /// Builds the key from a network name and a precomputed trace/stream
    /// fingerprint — the constructor shared by the materialized and
    /// streamed paths (a streamed simulation has no [`Trace`] to name the
    /// network from, only its [`StreamSpec`]).
    #[must_use]
    pub fn for_network(
        app: AppKind,
        combo: Combo,
        params: &AppParams,
        network: &str,
        trace_fp: u64,
        mem: &MemoryConfig,
    ) -> Self {
        CacheKey {
            app,
            combo: combo_label(combo),
            config: ConfigKey::new(network, params.label(app)),
            params_fp: fingerprint_value(params),
            trace_fp,
            mem_fp: fingerprint_value(mem),
        }
    }

    /// The content-address string used as the cache identity: every
    /// structured field plus the format version, so distinct keys can never
    /// map to the same identity.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "v{}:{}:{}:{}:{}:{:016x}:{:016x}:{:016x}",
            CACHE_FORMAT_VERSION,
            self.app,
            self.combo,
            self.config.network,
            self.config.params,
            self.params_fp,
            self.trace_fp,
            self.mem_fp
        )
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} on {} [{:016x}/{:016x}/{:016x}]",
            self.app, self.combo, self.config, self.params_fp, self.trace_fp, self.mem_fp
        )
    }
}

/// 64-bit FNV-1a over a byte stream.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content fingerprint of any serialisable value: FNV-1a over its canonical
/// JSON encoding. Deterministic across runs and processes for a given
/// build, which is all the on-disk cache needs (the format version guards
/// against encoding changes).
///
/// Every field of a fingerprinted config is in the key. The vendored
/// `Serialize` derive (`vendor/serde_derive`) writes every named field, and
/// it rejects every `#[serde(...)]` argument except `default`, so no field
/// can hide from the encoding:
///
/// ```compile_fail
/// #[derive(serde::Serialize)]
/// struct Params {
///     quantum: u32,
///     #[serde(skip)]
///     scratch: u32,
/// }
/// ```
///
/// Adding, renaming or removing a field changes every fingerprint of its
/// struct, so entries stored before the change go cold instead of
/// replaying stale results; that needs no [`CACHE_FORMAT_VERSION`] bump.
#[must_use]
pub fn fingerprint_value<T: Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("fingerprinted values serialise");
    fnv1a64(json.as_bytes())
}

/// Content fingerprint of a [`Trace`]: its network name, length and every
/// packet. Compute once per trace and share across the batch — traces are
/// by far the largest key component.
#[must_use]
pub fn fingerprint_trace(trace: &Trace) -> u64 {
    fingerprint_value(trace)
}

/// Content fingerprint of a [`StreamSpec`]: its name and every phase's
/// full parameter set. Constant-time in the stream's packet count — this
/// is what lets the cache address million-packet workloads without ever
/// hashing (or holding) their packets. Domain-separated from trace
/// fingerprints so a spec hash can never collide with a packet hash.
#[must_use]
pub fn fingerprint_stream_spec(spec: &StreamSpec) -> u64 {
    let json = serde_json::to_string(spec).expect("stream specs serialise");
    fnv1a64(format!("stream:{json}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddtr_ddt::DdtKind;
    use ddtr_trace::NetworkPreset;

    fn params() -> AppParams {
        AppParams::default()
    }

    fn key_for(trace: &Trace, combo: Combo) -> CacheKey {
        CacheKey::new(
            AppKind::Drr,
            combo,
            &params(),
            trace,
            fingerprint_trace(trace),
            &MemoryConfig::embedded_default(),
        )
    }

    #[test]
    fn config_key_displays_like_the_legacy_string() {
        let key = ConfigKey::new("BWY-I", "q512");
        assert_eq!(key.to_string(), "BWY-I/q512");
        // Width/alignment options reach the joined form.
        assert_eq!(format!("{key:>12}"), "  BWY-I/q512");
    }

    #[test]
    fn config_key_string_equality_is_not_fooled_by_separators() {
        // "a/b" + "c" and "a" + "b/c" render identically but are distinct
        // structured keys — the collision the stringly form had.
        let left = ConfigKey::new("a/b", "c");
        let right = ConfigKey::new("a", "b/c");
        assert_eq!(left.to_string(), right.to_string());
        assert_ne!(left, right);
        // String comparison goes through the joined form, so it inherits
        // the ambiguity — both keys match it. Structured equality above is
        // the collision-safe comparison.
        assert_eq!(right, "a/b/c");
        assert_eq!(left, "a/b/c");
    }

    #[test]
    fn cache_key_distinguishes_every_dimension() {
        let trace = NetworkPreset::DartmouthBerry.generate(40);
        let base = key_for(&trace, [DdtKind::Array, DdtKind::Sll]);

        let other_combo = key_for(&trace, [DdtKind::Sll, DdtKind::Array]);
        assert_ne!(base.id(), other_combo.id());

        let longer = NetworkPreset::DartmouthBerry.generate(41);
        let other_trace = key_for(&longer, [DdtKind::Array, DdtKind::Sll]);
        assert_ne!(base.id(), other_trace.id());

        let mut p = params();
        p.drr_quantum += 1;
        let other_params = CacheKey::new(
            AppKind::Drr,
            [DdtKind::Array, DdtKind::Sll],
            &p,
            &trace,
            fingerprint_trace(&trace),
            &MemoryConfig::embedded_default(),
        );
        assert_ne!(base.id(), other_params.id());

        let other_mem = CacheKey::new(
            AppKind::Drr,
            [DdtKind::Array, DdtKind::Sll],
            &params(),
            &trace,
            fingerprint_trace(&trace),
            &MemoryConfig::with_l2(),
        );
        assert_ne!(base.id(), other_mem.id());
    }

    #[test]
    fn cache_key_is_stable_for_identical_inputs() {
        let trace = NetworkPreset::NlanrAix.generate(30);
        let a = key_for(&trace, [DdtKind::Dll, DdtKind::Dll]);
        let b = key_for(&trace, [DdtKind::Dll, DdtKind::Dll]);
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn cache_key_serialises_round_trip() {
        let trace = NetworkPreset::DartmouthBerry.generate(10);
        let key = key_for(&trace, [DdtKind::Array, DdtKind::Dll]);
        let json = serde_json::to_string(&key).expect("serialise");
        let back: CacheKey = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, key);
        assert_eq!(back.id(), key.id());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
