//! `ddtr_engine` — the simulation-execution engine of the exploration
//! pipeline.
//!
//! The paper's central cost is the exhaustive simulation sweep: thousands
//! of `(application, DDT combination, network configuration)` runs whose
//! logs feed the Pareto analysis. This crate owns *how* those runs are
//! executed, so the methodology layers above it (`ddtr_core`'s steps and
//! NSGA-II) only say *what* to run:
//!
//! * [`run_ordered`] — a work-stealing scheduler with deterministic result
//!   ordering: the same batch yields byte-identical output at any worker
//!   count (`--jobs N` on the CLI).
//! * [`CacheKey`] / [`SimCache`] — a content-addressed result cache backed
//!   by the [`store`] pile format (page-aligned segments, verified on
//!   read, O(1) warm open; JSON-lines kept as the import/export
//!   interchange), making re-exploration incremental: a warm re-run
//!   answers from the cache instead of re-simulating.
//! * [`ExploreEngine::evaluate_batch`] — the batched evaluation API the
//!   steps, the GA population loop and the bench harness all share
//!   (cancellable via [`ExploreEngine::try_evaluate_batch`] and a
//!   [`BatchControl`]). It also decides how a [`StreamSpec`] workload's
//!   packets reach the simulator: generated once per batch up to
//!   [`MATERIALIZE_MAX_PACKETS`], streamed per unit above it.
//! * [`EngineSession`] — the resident-process form: one shared result
//!   cache and one FIFO [`JobsPool`] served to any number of concurrent
//!   requests (the substrate of `ddtr serve`).
//!
//! [`StreamSpec`]: ddtr_trace::StreamSpec
//!
//! The primitive simulation types ([`Simulator`], [`SimLog`], [`Combo`])
//! live here too and are re-exported by `ddtr_core` for compatibility.
//!
//! # Example
//!
//! ```
//! use ddtr_engine::{ExploreEngine, SimUnit, all_combos};
//! use ddtr_apps::{AppKind, AppParams};
//! use ddtr_mem::MemoryConfig;
//! use ddtr_trace::NetworkPreset;
//!
//! let trace = NetworkPreset::DartmouthBerry.generate(30);
//! let params = AppParams::default();
//! let units: Vec<SimUnit> = all_combos()[..5].iter()
//!     .map(|&c| SimUnit::new(AppKind::Drr, c, &params, &trace,
//!                            MemoryConfig::embedded_default()))
//!     .collect();
//! let mut engine = ExploreEngine::in_memory();
//! let logs = engine.evaluate_batch(&units);
//! assert_eq!(logs.len(), 5);
//! // The same batch again costs nothing.
//! engine.evaluate_batch(&units);
//! assert_eq!(engine.stats().misses, 5);
//! ```

mod cache;
mod combo;
mod engine;
mod key;
mod scheduler;
mod session;
mod sim;
pub mod store;
pub mod testing;

pub use cache::{CacheStats, ImportReport, SimCache};
pub use combo::{all_combos, combo_label, combos_from, parse_combo, Combo};
pub use engine::{
    EngineConfig, EngineError, ExploreEngine, SimUnit, TraceSource, MATERIALIZE_MAX_PACKETS,
};
pub use key::{
    fingerprint_stream_spec, fingerprint_trace, fingerprint_value, fnv1a64, CacheKey, ConfigKey,
    CACHE_FORMAT_VERSION,
};
pub use scheduler::{effective_jobs, run_ordered};
pub use session::{
    BatchControl, BatchProgress, CancelToken, Cancelled, EngineSession, JobsPermit, JobsPool,
};
pub use sim::{SimLog, Simulator};
pub use store::{CompactReport, PileStore, StoreError, StoreIssue, StoreStats, VerifyReport};
