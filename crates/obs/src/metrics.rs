//! The process-wide metrics registry: counters, gauges, histograms,
//! snapshots and the Prometheus-style text exposition.
//!
//! Handles are `Arc`s handed out by [`Name`] from a global [`Registry`];
//! the registry lock is only taken on lookup and snapshot, never on the
//! record path (recording is a relaxed atomic op on the handle). Names
//! are dot-separated (`engine.cache.hit`, `serve.request.latency`) and
//! come from the catalog in [`crate::names`]. Snapshots use `BTreeMap`s
//! so every serialisation and exposition is deterministically ordered.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::names::Name;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one (no-op while recording is disabled).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while recording is disabled).
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (e.g. requests currently in flight).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Adds one (no-op while recording is disabled).
    pub fn inc(&self) {
        if crate::enabled() {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Subtracts one (no-op while recording is disabled).
    pub fn dec(&self) {
        if crate::enabled() {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Sets an absolute value (no-op while recording is disabled).
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The named-instrument registry. One global instance serves the whole
/// process ([`Registry::global`]); separate instances exist only in
/// tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry (tests; production uses [`global`]).
    ///
    /// [`global`]: Registry::global
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry every ddtr crate records into.
    #[must_use]
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: Name) -> Arc<Counter> {
        instrument(&self.counters, name.as_str())
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: Name) -> Arc<Gauge> {
        instrument(&self.gauges, name.as_str())
    }

    /// The gauge of member `index` of the indexed family `family`
    /// (`serve.worker<N>.inflight`), created on first use.
    #[must_use]
    pub fn indexed_gauge(&self, family: Name, index: usize) -> Arc<Gauge> {
        instrument(&self.gauges, &family.render(index))
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: Name) -> Arc<Histogram> {
        instrument(&self.histograms, name.as_str())
    }

    /// A point-in-time copy of every registered instrument.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The instrument keyed `key` in `map`, created on first use. An
/// existing instrument is found without allocating its key.
fn instrument<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, key: &str) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = map.get(key) {
        return Arc::clone(existing);
    }
    Arc::clone(map.entry(key.to_string()).or_default())
}

/// The counter named `name` in the global registry.
#[must_use]
pub fn counter(name: Name) -> Arc<Counter> {
    Registry::global().counter(name)
}

/// The gauge named `name` in the global registry.
#[must_use]
pub fn gauge(name: Name) -> Arc<Gauge> {
    Registry::global().gauge(name)
}

/// The gauge of member `index` of the indexed family `family` in the
/// global registry.
#[must_use]
pub fn indexed_gauge(family: Name, index: usize) -> Arc<Gauge> {
    Registry::global().indexed_gauge(family, index)
}

/// The histogram named `name` in the global registry.
#[must_use]
pub fn histogram(name: Name) -> Arc<Histogram> {
    Registry::global().histogram(name)
}

/// A point-in-time copy of the global registry.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    Registry::global().snapshot()
}

/// Everything the process has measured, in deterministic order.
///
/// Rides inside the serve protocol's `Stats` event and is the input to
/// [`render_prometheus`]. All fields default so old readers and writers
/// stay wire-compatible as the catalog grows.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    #[serde(default)]
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    #[serde(default)]
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    #[serde(default)]
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Maps a dotted metric name to a Prometheus-legal one: `engine.cache.hit`
/// → `ddtr_engine_cache_hit`.
fn prom_name(name: &str) -> String {
    let mut out = String::from("ddtr_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Counters become `<name>_total`, gauges keep their name, histograms
/// (recorded in nanoseconds) become `<name>_seconds` summaries with
/// `quantile="0.5" / "0.9" / "0.99"` sample lines plus `_sum`/`_count`.
/// The serve tier returns this string on the `Metrics` request, and
/// `ddtr query <endpoint> metrics` prints it.
#[must_use]
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p}_total counter\n{p}_total {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} gauge\n{p} {value}\n"));
    }
    for (name, h) in &snap.histograms {
        let p = prom_name(name);
        let secs = |ns: u64| ns as f64 / 1e9;
        out.push_str(&format!("# TYPE {p}_seconds summary\n"));
        for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.99, h.p99)] {
            out.push_str(&format!("{p}_seconds{{quantile=\"{q}\"}} {}\n", secs(v)));
        }
        out.push_str(&format!("{p}_seconds_sum {}\n", secs(h.sum)));
        out.push_str(&format!("{p}_seconds_count {}\n", h.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{
        ENGINE_CACHE_HIT, ENGINE_CACHE_MISS, SERVE_INFLIGHT, SERVE_REQUEST_LATENCY,
        SERVE_REQUEST_PING, SERVE_WORKER_INFLIGHT,
    };

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let reg = Registry::new();
        reg.counter(ENGINE_CACHE_HIT).add(2);
        reg.counter(ENGINE_CACHE_HIT).inc();
        assert_eq!(reg.counter(ENGINE_CACHE_HIT).get(), 3);
        assert_eq!(reg.counter(ENGINE_CACHE_MISS).get(), 0);
    }

    #[test]
    fn gauges_go_up_and_down() {
        let reg = Registry::new();
        let g = reg.gauge(SERVE_INFLIGHT);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(42);
        assert_eq!(reg.gauge(SERVE_INFLIGHT).get(), 42);
    }

    #[test]
    fn indexed_gauges_are_one_gauge_per_member() {
        let reg = Registry::new();
        reg.indexed_gauge(SERVE_WORKER_INFLIGHT, 0).inc();
        reg.indexed_gauge(SERVE_WORKER_INFLIGHT, 1).set(5);
        reg.indexed_gauge(SERVE_WORKER_INFLIGHT, 0).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["serve.worker0.inflight"], 2);
        assert_eq!(snap.gauges["serve.worker1.inflight"], 5);
        assert_eq!(snap.gauges.len(), 2);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let reg = Registry::new();
        reg.counter(SERVE_REQUEST_PING).inc();
        reg.counter(ENGINE_CACHE_HIT).inc();
        reg.histogram(SERVE_REQUEST_LATENCY).record(5);
        let snap = reg.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["engine.cache.hit", "serve.request.ping"]);
        assert_eq!(snap.histograms["serve.request.latency"].count, 1);
    }

    #[test]
    fn prometheus_rendering_contains_quantiles_and_counts() {
        let reg = Registry::new();
        reg.counter(ENGINE_CACHE_HIT).add(7);
        reg.gauge(SERVE_INFLIGHT).set(2);
        let h = reg.histogram(SERVE_REQUEST_LATENCY);
        for v in [1_000_000u64, 2_000_000, 4_000_000] {
            h.record(v);
        }
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("ddtr_engine_cache_hit_total 7"));
        assert!(text.contains("ddtr_serve_inflight 2"));
        assert!(text.contains("ddtr_serve_request_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("ddtr_serve_request_latency_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("ddtr_serve_request_latency_seconds_count 3"));
        // Histograms are recorded in ns, exposed in seconds.
        assert!(text.contains("ddtr_serve_request_latency_seconds_sum 0.007"));
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let reg = Registry::new();
        reg.counter(ENGINE_CACHE_HIT).add(11);
        reg.gauge(SERVE_INFLIGHT).set(-3);
        let h = reg.histogram(SERVE_REQUEST_LATENCY);
        for v in [1u64, 2, 3, 4, 1 << 30] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).expect("serialise");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back, snap);
        // And an empty object deserialises thanks to the defaults.
        let empty: MetricsSnapshot = serde_json::from_str("{}").expect("empty");
        assert_eq!(empty, MetricsSnapshot::default());
    }
}
