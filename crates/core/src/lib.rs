//! The three-step Dynamic Data Type refinement methodology of the DATE 2006
//! paper, with its supporting automation.
//!
//! The methodology takes a network application whose dominant dynamic data
//! structures are pluggable (see [`ddtr_apps`]) and produces a small set of
//! Pareto-optimal DDT implementation choices:
//!
//! 1. **Application-level exploration** ([`explore_application_level`]): profile the
//!    application on a typical trace to confirm the dominant containers,
//!    then simulate *all* DDT combinations on one reference configuration
//!    and discard the ~80 % that are not best in any cost metric.
//! 2. **Network-level exploration** ([`explore_network_level`]): extract the network
//!    parameters of every configuration (networks × application
//!    parameters) and re-simulate only the surviving combinations on each.
//! 3. **Pareto-level exploration** ([`explore_pareto_level`]): prune the simulation logs
//!    into Pareto-optimal sets per configuration and globally, with the
//!    trade-off ranges the designer chooses from.
//!
//! [`Methodology`] ties the steps together; [`Simulator`] runs a single
//! (application, combination, configuration) measurement; the
//! [`headline_comparison`] helper reproduces the paper's comparison against
//! the original NetBench implementation.
//!
//! Simulation *execution* — parallel scheduling, result caching, batched
//! evaluation — is owned by the [`ddtr_engine`] crate; every step accepts
//! an [`ExploreEngine`] through its `*_with` variant, and the plain entry
//! points build a default engine from the configuration. The engine's
//! primitive types ([`Simulator`], [`SimLog`], [`Combo`], the combination
//! helpers) are re-exported here for compatibility.
//!
//! # Example
//!
//! ```
//! use ddtr_core::{Methodology, MethodologyConfig};
//! use ddtr_apps::AppKind;
//!
//! let outcome = Methodology::new(MethodologyConfig::quick(AppKind::Drr)).run()?;
//! // Step 1 pruned most of the 100 combinations...
//! assert!(outcome.step1.survivors.len() < 40);
//! // ...and step 3 produced a small Pareto-optimal set.
//! assert!(!outcome.pareto.global_front.is_empty());
//! # Ok::<(), ddtr_core::ExploreError>(())
//! ```

mod config;
mod constraints;
mod dispatch;
mod error;
mod ga;
mod headline;
mod log;
mod pipeline;
mod profile;
mod report;
mod scenarios;
mod step1;
mod step2;
mod step3;
mod sweep;

pub use config::MethodologyConfig;
pub use constraints::{DesignConstraints, Objective};
pub use ddtr_engine::{
    all_combos, combo_label, combos_from, fingerprint_stream_spec, parse_combo, BatchControl,
    BatchProgress, CacheKey, CacheStats, CancelToken, Combo, ConfigKey, EngineConfig,
    EngineSession, ExploreEngine, SimLog, SimUnit, Simulator, TraceSource,
};
pub use ddtr_mem::MemoryPreset;
pub use dispatch::{dispatch, dispatch_observed, dispatch_with, ExploreRequest, ExploreResult};
pub use error::ExploreError;
pub use ga::{explore_heuristic, explore_heuristic_with, GaConfig, GaOutcome, GenerationStats};
pub use headline::{headline_comparison, HeadlineReport};
pub use log::{read_logs, step2_from_logs, write_logs};
pub use pipeline::{EngineReport, Methodology, MethodologyOutcome, SimCounts};
pub use profile::{profile_application, ProfileReport};
pub use report::{
    render_pareto_chart, table1_markdown, table2_markdown, tradeoff_percentages, ParetoChartPlane,
    PAPER_TABLE1, PAPER_TABLE2,
};
pub use scenarios::{explore_scenarios_with, ScenarioCell, ScenarioConfig, ScenarioMatrix};
pub use step1::{explore_application_level, explore_application_level_with, Step1Result};
pub use step2::{explore_network_level, explore_network_level_with, NetworkConfig, Step2Result};
pub use step3::{explore_pareto_level, ConfigFront, ParetoPoint, ParetoReport};
pub use sweep::{
    explore_sweep_observed, explore_sweep_with, SweepCell, SweepConfig, SweepMatrix, SweepSurvivor,
};
