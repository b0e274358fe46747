//! `ddtr_obs` — process-wide observability for the ddtr workspace.
//!
//! A wall-clock timing says how long an exploration took, not where the
//! time went: trace generation, simulation, Pareto/GA selection or
//! service overhead. `ddtr_obs` is the measurement layer inside the
//! program that splits it. It provides:
//!
//! * the catalog of every metric and span [`Name`] ([`names`]): only
//!   this crate can make a name, so an uncataloged one does not compile;
//! * a process-wide [`Registry`] of atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket log-scale latency [`Histogram`]s with p50/p90/p99
//!   extraction — all `Send + Sync`, all lock-free on the record path;
//! * lightweight [`Span`]s (`Span::enter(name)` RAII) recording into a
//!   bounded ring buffer, exportable as Chrome trace-event JSON for
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev) via
//!   `ddtr … --trace-json <file>`;
//! * a serialisable [`MetricsSnapshot`] (carried by the serve protocol's
//!   `Stats` event) and a Prometheus-style text exposition
//!   ([`render_prometheus`]) served on the `Metrics` request.
//!
//! # The contract: observation never steers results
//!
//! Nothing in this crate may sit on a result-determinism path. Counters,
//! gauges, histograms and spans are write-only from the exploration
//! code's point of view: no ddtr crate reads a metric back to make a
//! decision. The workspace's headline guarantee — byte-identical Pareto
//! fronts at any `--jobs N`, instrumentation on or off — is
//! regression-tested in `crates/core/tests/obs_determinism.rs`.
//! `ddtr-lint` covers this crate with the `no-panic-boundary`,
//! `lock-across-io` and `det-iter` rules: recording a metric must never
//! panic a server, stall a peer or introduce hash-order iteration.
//!
//! # Disabling
//!
//! All record paths are gated on [`enabled`]: set the environment
//! variable `DDTR_OBS=off` (or `0`/`false`) before the first metric is
//! touched, or call [`set_enabled`]`(false)` at runtime, and every
//! counter increment, histogram record and span becomes a no-op. The CI
//! overhead guard (`obs_overhead` in `ddtr_bench`) holds the instrumented
//! quick exploration within 5% of a disabled run.
//!
//! # Example
//!
//! ```
//! use ddtr_obs::names::{ENGINE_BATCH, ENGINE_JOBS_POOL_WAIT, ENGINE_SIM_EXECUTED};
//! use ddtr_obs::{counter, histogram, Span};
//! use std::time::Duration;
//!
//! let _span = Span::enter(ENGINE_BATCH);
//! counter(ENGINE_SIM_EXECUTED).inc();
//! histogram(ENGINE_JOBS_POOL_WAIT).record_duration(Duration::from_micros(250));
//! let snap = ddtr_obs::snapshot();
//! assert!(snap.counters["engine.sim.executed"] >= 1);
//! ```
//!
//! [`render_prometheus`]: crate::render_prometheus

pub mod hist;
pub mod metrics;
pub mod names;
pub mod span;

pub use hist::{BucketCount, Histogram, HistogramSnapshot};
pub use metrics::{
    counter, gauge, histogram, indexed_gauge, render_prometheus, snapshot, Counter, Gauge,
    MetricsSnapshot, Registry,
};
pub use names::Name;
pub use span::{chrome_trace_json, trace_dropped, trace_len, write_chrome_trace, Span};

use std::sync::atomic::{AtomicU8, Ordering};

/// [`enabled`] tri-state: not yet resolved from the environment.
const STATE_UNSET: u8 = 0;
/// [`enabled`] tri-state: recording on.
const STATE_ON: u8 = 1;
/// [`enabled`] tri-state: recording off.
const STATE_OFF: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);

/// Whether metric and span recording is currently on.
///
/// The first call resolves the `DDTR_OBS` environment variable (`off`,
/// `0` or `false` disable recording); afterwards the answer is a single
/// relaxed atomic load. [`set_enabled`] overrides the environment.
#[must_use]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let off = std::env::var("DDTR_OBS")
                .map(|v| matches!(v.as_str(), "0" | "off" | "false"))
                .unwrap_or(false);
            STATE.store(if off { STATE_OFF } else { STATE_ON }, Ordering::Relaxed);
            !off
        }
    }
}

/// Turns all metric and span recording on or off at runtime.
///
/// Reads ([`Counter::get`], [`snapshot`], the trace export) keep working
/// either way — only the record paths become no-ops. Used by the
/// `obs_overhead` CI guard to compare instrumented and bare runs inside
/// one process.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}
