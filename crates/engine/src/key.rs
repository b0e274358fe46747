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
//!   only if they compute the same result. Its 128-bit
//!   [`digest`](CacheKey::digest), rendered as 32 hex digits by
//!   [`CacheKey::id`], names the result in memory, in the store and in
//!   the interchange lines.
//!
//! The parameter and memory fingerprints are written by hand: each hashes
//! every field straight into FNV-1a, numbers as LEB128, with no JSON in
//! between. Each destructures its struct without `..` and matches its
//! enum without `_`, so a new field or variant fails to compile until it
//! is hashed. The trace and spec fingerprints, computed once per trace or
//! spec, still hash serde JSON; [`fingerprint_value`] documents why no
//! field of a trace or spec can hide from them.

use crate::combo::{combo_label, Combo};
use ddtr_apps::{AppKind, AppParams};
use ddtr_mem::{
    AllocCostModel, CacheConfig, DramConfig, FitPolicy, MemoryConfig, ReplacementPolicy, SpmConfig,
};
use ddtr_trace::{StreamSpec, Trace};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Version stamped into every cache identity; bump when the simulation
/// semantics, the key encoding or the stored record layout change so
/// stale on-disk entries can never replay.
pub const CACHE_FORMAT_VERSION: u32 = 2;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Opens every [`CacheKey::digest`] input, so a key digest never hashes
/// the bytes a trace or spec fingerprint does.
const KEY_DOMAIN: &[u8] = b"ddtr.cache-key";

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
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
            params_fp: fingerprint(params),
            trace_fp,
            mem_fp: fingerprint(mem),
        }
    }

    /// The key's 128-bit FNV-1a digest: [`CACHE_FORMAT_VERSION`] and every
    /// field, labels length-prefixed, after a domain tag that no trace or
    /// spec fingerprint hashes. Distinct keys get distinct digests unless
    /// 128-bit FNV-1a collides.
    #[must_use]
    pub fn digest(&self) -> u128 {
        self.digest_with(self.mem_fp)
    }

    /// The digest of the simulation pass this key's unit joins: the
    /// [`digest`](Self::digest) with `mem`, the unit's configuration,
    /// reduced to its [`MemoryConfig::lane_base`]. Units with equal pass
    /// digests differ at most in their L2, so one simulation serves them
    /// all as lanes.
    pub(crate) fn pass_digest(&self, mem: &MemoryConfig) -> u128 {
        self.digest_with(fingerprint(&mem.lane_base()))
    }

    fn digest_with(&self, mem_fp: u64) -> u128 {
        let CacheKey {
            app,
            combo,
            config: ConfigKey { network, params },
            params_fp,
            trace_fp,
            mem_fp: _,
        } = self;
        let mut h = Fnv128(FNV128_OFFSET);
        h.bytes(KEY_DOMAIN);
        h.uint(u64::from(CACHE_FORMAT_VERSION));
        h.u8(app_tag(*app));
        h.str(combo);
        h.str(network);
        h.str(params);
        h.u64(*params_fp);
        h.u64(*trace_fp);
        h.u64(mem_fp);
        h.0
    }

    /// The cache identity: the [`digest`](Self::digest) as 32 lowercase
    /// hex digits. This one string is the in-memory map key, the store
    /// key and the `id` of an interchange line.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{:032x}", self.digest())
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

/// Whether `id` has the shape of a [`CacheKey::id`]: 32 lowercase hex
/// digits.
#[must_use]
pub(crate) fn is_key_id(id: &str) -> bool {
    id.len() == 32 && id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// The one-byte tag an application is stored and hashed under.
#[must_use]
pub(crate) fn app_tag(app: AppKind) -> u8 {
    match app {
        AppKind::Route => 0,
        AppKind::Url => 1,
        AppKind::Ipchains => 2,
        AppKind::Drr => 3,
        AppKind::Nat => 4,
    }
}

/// The application stored under `tag`, if any.
#[must_use]
pub(crate) fn app_from_tag(tag: u8) -> Option<AppKind> {
    AppKind::EXTENDED_ALL
        .into_iter()
        .find(|&app| app_tag(app) == tag)
}

/// An FNV-1a state that fields are written into, little-endian.
pub(crate) trait Fnv {
    fn bytes(&mut self, bytes: &[u8]);

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An unsigned integer in LEB128, seven bits a byte: the small values
    /// most config fields hold hash as one to three bytes instead of
    /// eight, and the encoding is self-delimiting.
    fn uint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    fn str(&mut self, s: &str) {
        self.uint(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// 64-bit FNV-1a.
pub(crate) struct Fnv64(pub(crate) u64);

impl Fnv64 {
    /// The FNV-1a 64 offset basis: the hash of no bytes.
    pub(crate) const fn new() -> Self {
        Fnv64(FNV64_OFFSET)
    }
}

impl Fnv for Fnv64 {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
        }
    }
}

/// 128-bit FNV-1a.
struct Fnv128(u128);

impl Fnv for Fnv128 {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
        }
    }
}

/// A configuration hashed field by field into a cache key. Every impl
/// destructures its struct without `..` or matches its enum without `_`,
/// so a new field or variant fails to compile until it is hashed here.
trait Fingerprint {
    fn hash_into(&self, h: &mut Fnv64);
}

/// FNV-1a 64 over every field of `value`.
fn fingerprint(value: &impl Fingerprint) -> u64 {
    let mut h = Fnv64::new();
    value.hash_into(&mut h);
    h.0
}

impl Fingerprint for AppParams {
    fn hash_into(&self, h: &mut Fnv64) {
        let AppParams {
            route_table_size,
            firewall_rules,
            drr_quantum,
            url_patterns,
            nat_ports,
            table_cap,
            seed,
        } = self;
        h.uint(*route_table_size as u64);
        h.uint(*firewall_rules as u64);
        h.uint(u64::from(*drr_quantum));
        h.uint(*url_patterns as u64);
        h.uint(*nat_ports as u64);
        h.uint(*table_cap as u64);
        h.uint(*seed);
    }
}

impl Fingerprint for MemoryConfig {
    fn hash_into(&self, h: &mut Fnv64) {
        let MemoryConfig {
            l1,
            l2,
            spm,
            dram,
            alloc_cost,
            fit_policy,
            cpu_op_cycles,
            heap_base,
        } = self;
        l1.hash_into(h);
        l2.hash_into(h);
        spm.hash_into(h);
        dram.hash_into(h);
        alloc_cost.hash_into(h);
        fit_policy.hash_into(h);
        h.uint(*cpu_op_cycles);
        h.uint(*heap_base);
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn hash_into(&self, h: &mut Fnv64) {
        match self {
            None => h.u8(0),
            Some(value) => {
                h.u8(1);
                value.hash_into(h);
            }
        }
    }
}

impl Fingerprint for CacheConfig {
    fn hash_into(&self, h: &mut Fnv64) {
        let CacheConfig {
            capacity_bytes,
            line_bytes,
            ways,
            hit_cycles,
            replacement,
        } = self;
        h.uint(*capacity_bytes);
        h.uint(*line_bytes);
        h.uint(u64::from(*ways));
        h.uint(*hit_cycles);
        replacement.hash_into(h);
    }
}

impl Fingerprint for ReplacementPolicy {
    fn hash_into(&self, h: &mut Fnv64) {
        h.u8(match self {
            ReplacementPolicy::Lru => 0,
            ReplacementPolicy::Fifo => 1,
            ReplacementPolicy::Random => 2,
        });
    }
}

impl Fingerprint for SpmConfig {
    fn hash_into(&self, h: &mut Fnv64) {
        let SpmConfig {
            capacity_bytes,
            access_cycles,
        } = self;
        h.uint(*capacity_bytes);
        h.uint(*access_cycles);
    }
}

impl Fingerprint for DramConfig {
    fn hash_into(&self, h: &mut Fnv64) {
        let DramConfig {
            access_cycles,
            capacity_bytes,
        } = self;
        h.uint(*access_cycles);
        h.uint(*capacity_bytes);
    }
}

impl Fingerprint for AllocCostModel {
    fn hash_into(&self, h: &mut Fnv64) {
        let AllocCostModel {
            accesses_per_alloc,
            accesses_per_free,
            cycles_per_alloc,
            cycles_per_free,
        } = self;
        h.uint(*accesses_per_alloc);
        h.uint(*accesses_per_free);
        h.uint(*cycles_per_alloc);
        h.uint(*cycles_per_free);
    }
}

impl Fingerprint for FitPolicy {
    fn hash_into(&self, h: &mut Fnv64) {
        h.u8(match self {
            FitPolicy::FirstFit => 0,
            FitPolicy::BestFit => 1,
            FitPolicy::NextFit => 2,
        });
    }
}

/// 64-bit FNV-1a over a byte stream.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(bytes);
    h.0
}

/// Content fingerprint of any serialisable value: FNV-1a over its canonical
/// JSON encoding. Deterministic across runs and processes for a given
/// build. `ddtr serve` routes a request to a worker by it.
///
/// A [`CacheKey`]'s parameter and memory fingerprints are hashed field by
/// field, but its trace half still relies on this encoding:
/// [`fingerprint_trace`] hashes a `Trace` through it and
/// [`fingerprint_stream_spec`] hashes a `StreamSpec`'s JSON, once per
/// trace or spec. Every field of those types and of the types inside them
/// (`Packet`, `StreamPhase`, `TraceSpec`) must reach the hash. The
/// vendored `Serialize` derive (`vendor/serde_derive`) writes every named
/// field, and it rejects every `#[serde(...)]` argument except `default`,
/// so no field can hide from the encoding:
///
/// ```compile_fail
/// #[derive(serde::Serialize)]
/// struct Phase {
///     packets: u32,
///     #[serde(skip)]
///     scratch: u32,
/// }
/// ```
///
/// Adding, renaming or removing a field of such a type changes every
/// fingerprint of it, so entries stored before the change go cold instead
/// of replaying stale results; that needs no [`CACHE_FORMAT_VERSION`]
/// bump.
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
/// Every field reaches the hash for the reason [`fingerprint_value`]
/// gives.
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

    /// The key encoding is part of the store format: these values may
    /// change only together with a `CACHE_FORMAT_VERSION` bump.
    #[test]
    fn key_encoding_is_pinned() {
        let params_fp = fingerprint(&AppParams::default());
        let mem_fp = fingerprint(&MemoryConfig::default());
        let key = CacheKey {
            app: AppKind::Drr,
            combo: "AR+DLL".into(),
            config: ConfigKey::new("BWY-I", "q1500"),
            params_fp,
            trace_fp: 0x0123_4567_89ab_cdef,
            mem_fp,
        };
        assert_eq!(
            (params_fp, mem_fp, key.id().as_str()),
            (
                0xc3d4_4f5c_a726_0f4c,
                0x008a_6ed6_cb65_344f,
                "614f94f4262e29a2f9f36a6d128e5f52"
            )
        );
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
    fn cache_key_id_is_the_digest_in_32_hex_digits() {
        let trace = NetworkPreset::DartmouthBerry.generate(10);
        let key = key_for(&trace, [DdtKind::Array, DdtKind::Dll]);
        let id = key.id();
        assert!(is_key_id(&id), "{id}");
        assert_eq!(u128::from_str_radix(&id, 16), Ok(key.digest()));
        assert!(!is_key_id("v1:DRR:AR+DLL"));
        assert!(!is_key_id(&id.to_uppercase()));
    }

    #[test]
    fn every_app_tag_round_trips() {
        for app in AppKind::EXTENDED_ALL {
            assert_eq!(app_from_tag(app_tag(app)), Some(app));
        }
        assert_eq!(app_from_tag(5), None);
    }

    /// The field-by-field fingerprints replace serde's cover: changing
    /// any one field of the parameters or of the memory configuration,
    /// nested fields included, changes the unit's identity.
    #[test]
    fn every_params_and_memory_field_reaches_the_key() {
        use crate::engine::SimUnit;
        use ddtr_mem::{CacheConfig, FitPolicy, ReplacementPolicy, SpmConfig};
        type ParamsEdit = fn(&mut AppParams);
        type MemEdit = fn(&mut MemoryConfig);
        let params_edits: [(&str, ParamsEdit); 7] = [
            ("route_table_size", |p| p.route_table_size += 1),
            ("firewall_rules", |p| p.firewall_rules += 1),
            ("drr_quantum", |p| p.drr_quantum += 1),
            ("url_patterns", |p| p.url_patterns += 1),
            ("nat_ports", |p| p.nat_ports += 1),
            ("table_cap", |p| p.table_cap += 1),
            ("seed", |p| p.seed += 1),
        ];
        // The base platform carries an L2 and a scratchpad, so the fields
        // inside both options are reachable; `None` is an edit of its own.
        let base_mem = MemoryConfig {
            l2: Some(CacheConfig {
                capacity_bytes: 256 * 1024,
                ways: 8,
                ..CacheConfig::default()
            }),
            spm: Some(SpmConfig::default()),
            ..MemoryConfig::default()
        };
        fn l2(m: &mut MemoryConfig) -> &mut CacheConfig {
            m.l2.as_mut().expect("base has an L2")
        }
        fn spm(m: &mut MemoryConfig) -> &mut SpmConfig {
            m.spm.as_mut().expect("base has a scratchpad")
        }
        let mem_edits: Vec<(&str, MemEdit)> = vec![
            ("l1.capacity_bytes", |m| m.l1.capacity_bytes *= 2),
            ("l1.line_bytes", |m| m.l1.line_bytes *= 2),
            ("l1.ways", |m| m.l1.ways *= 2),
            ("l1.hit_cycles", |m| m.l1.hit_cycles += 1),
            ("l1.replacement=fifo", |m| {
                m.l1.replacement = ReplacementPolicy::Fifo;
            }),
            ("l1.replacement=random", |m| {
                m.l1.replacement = ReplacementPolicy::Random;
            }),
            ("l2=None", |m| m.l2 = None),
            ("l2.capacity_bytes", |m| l2(m).capacity_bytes *= 2),
            ("l2.line_bytes", |m| l2(m).line_bytes *= 2),
            ("l2.ways", |m| l2(m).ways *= 2),
            ("l2.hit_cycles", |m| l2(m).hit_cycles += 1),
            ("l2.replacement", |m| {
                l2(m).replacement = ReplacementPolicy::Random;
            }),
            ("spm=None", |m| m.spm = None),
            ("spm.capacity_bytes", |m| spm(m).capacity_bytes *= 2),
            ("spm.access_cycles", |m| spm(m).access_cycles += 1),
            ("dram.access_cycles", |m| m.dram.access_cycles += 1),
            ("dram.capacity_bytes", |m| m.dram.capacity_bytes *= 2),
            ("alloc_cost.accesses_per_alloc", |m| {
                m.alloc_cost.accesses_per_alloc += 1;
            }),
            ("alloc_cost.accesses_per_free", |m| {
                m.alloc_cost.accesses_per_free += 1;
            }),
            ("alloc_cost.cycles_per_alloc", |m| {
                m.alloc_cost.cycles_per_alloc += 1;
            }),
            ("alloc_cost.cycles_per_free", |m| {
                m.alloc_cost.cycles_per_free += 1;
            }),
            ("fit_policy=best", |m| m.fit_policy = FitPolicy::BestFit),
            ("fit_policy=next", |m| m.fit_policy = FitPolicy::NextFit),
            ("cpu_op_cycles", |m| m.cpu_op_cycles += 1),
            ("heap_base", |m| m.heap_base *= 2),
        ];
        let spec = StreamSpec::single(NetworkPreset::DartmouthBerry.spec(), 10).expect("valid");
        let combo = [DdtKind::Array, DdtKind::Sll];
        let id = |params: &AppParams, mem: MemoryConfig| {
            SimUnit::streamed(AppKind::Drr, combo, params, &spec, mem)
                .key()
                .id()
        };
        let base = id(&params(), base_mem);
        let mut seen = std::collections::BTreeMap::from([(base, "base")]);
        for (field, edit) in params_edits {
            let mut p = params();
            edit(&mut p);
            let other = seen.insert(id(&p, base_mem), field);
            assert_eq!(other, None, "changing `{field}` must give a new key");
        }
        let default_mem = id(&params(), MemoryConfig::default());
        for (field, edit) in mem_edits {
            let mut m = base_mem;
            edit(&mut m);
            let other = seen.insert(id(&params(), m), field);
            assert_eq!(other, None, "changing `{field}` must give a new key");
        }
        // `None` → `Some` from the default platform changes the key too.
        assert_ne!(default_mem, id(&params(), MemoryConfig::with_l2()));
        assert_ne!(default_mem, id(&params(), MemoryConfig::with_spm()));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let fnv128 = |bytes: &[u8]| {
            let mut h = Fnv128(FNV128_OFFSET);
            h.bytes(bytes);
            h.0
        };
        assert_eq!(fnv128(b""), FNV128_OFFSET);
        assert_eq!(fnv128(b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }
}
