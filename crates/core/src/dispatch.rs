//! Request → exploration dispatch: one serialisable entry point over
//! every exploration mode.
//!
//! The CLI subcommands, the scenario matrix and the GA each used to be
//! reachable only through their own typed entry point. A resident service
//! (`ddtr serve`) needs the complementary shape: *one* value that names an
//! exploration — mode plus configuration — which can be serialised onto a
//! wire, fingerprinted, queued, and finally executed against whatever
//! [`ExploreEngine`] the caller supplies. [`ExploreRequest`] is that
//! value, [`ExploreResult`] its typed answer, and [`dispatch_with`] the
//! single execution path they meet in. Because every mode runs through
//! the engine's deterministic batches, equal requests produce
//! byte-identical results at any worker count and regardless of what else
//! runs on the same engine in between.

use crate::config::MethodologyConfig;
use crate::error::ExploreError;
use crate::ga::{explore_heuristic_with, GaConfig, GaOutcome};
use crate::headline::{headline_comparison, HeadlineReport};
use crate::pipeline::{Methodology, MethodologyOutcome};
use crate::scenarios::{explore_scenarios_with, ScenarioConfig, ScenarioMatrix};
use crate::sweep::{
    explore_sweep_observed, explore_sweep_with, SweepCell, SweepConfig, SweepMatrix,
};
use ddtr_engine::ExploreEngine;
use serde::{Deserialize, Serialize};

/// One exploration to run: the mode and its full configuration.
///
/// The request is plain data — serialisable, comparable by content,
/// executable on any engine via [`dispatch_with`]. `ddtr serve` queues
/// these; the CLI subcommands build them from flags.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ExploreRequest {
    /// The full three-step pipeline (profile → step 1 → step 2 sweep →
    /// Pareto pruning).
    Explore(MethodologyConfig),
    /// The seeded NSGA-II heuristic exploration.
    Ga(GaConfig),
    /// The application × scenario Pareto matrix (always streamed).
    Scenarios(ScenarioConfig),
    /// The scenarios × platforms sweep over the memory-preset catalog
    /// (always streamed).
    Sweep(SweepConfig),
    /// The pipeline plus the paper's headline comparison against the
    /// all-SLL baseline.
    Headline(MethodologyConfig),
}

impl ExploreRequest {
    /// The request's mode name (`explore`, `ga`, `scenarios`, `sweep`,
    /// `headline`).
    #[must_use]
    pub fn mode(&self) -> &'static str {
        match self {
            ExploreRequest::Explore(_) => "explore",
            ExploreRequest::Ga(_) => "ga",
            ExploreRequest::Scenarios(_) => "scenarios",
            ExploreRequest::Sweep(_) => "sweep",
            ExploreRequest::Headline(_) => "headline",
        }
    }

    /// Validates the embedded configuration without running anything.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidConfig`] describing the first
    /// problem.
    pub fn validate(&self) -> Result<(), ExploreError> {
        match self {
            ExploreRequest::Explore(cfg) | ExploreRequest::Headline(cfg) => cfg.validate(),
            ExploreRequest::Ga(cfg) => cfg.validate(),
            ExploreRequest::Scenarios(cfg) => cfg.validate(),
            ExploreRequest::Sweep(cfg) => cfg.validate(),
        }
    }
}

/// The typed answer of one dispatched [`ExploreRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ExploreResult {
    /// Answer of an [`ExploreRequest::Explore`] request.
    Explore(MethodologyOutcome),
    /// Answer of an [`ExploreRequest::Ga`] request.
    Ga(GaOutcome),
    /// Answer of an [`ExploreRequest::Scenarios`] request.
    Scenarios(ScenarioMatrix),
    /// Answer of an [`ExploreRequest::Sweep`] request.
    Sweep(SweepMatrix),
    /// Answer of an [`ExploreRequest::Headline`] request.
    Headline(HeadlineReport),
}

impl ExploreResult {
    /// The result's mode name, matching [`ExploreRequest::mode`].
    #[must_use]
    pub fn mode(&self) -> &'static str {
        match self {
            ExploreResult::Explore(_) => "explore",
            ExploreResult::Ga(_) => "ga",
            ExploreResult::Scenarios(_) => "scenarios",
            ExploreResult::Sweep(_) => "sweep",
            ExploreResult::Headline(_) => "headline",
        }
    }

    /// The Pareto-front combination labels the result carries, in the
    /// result's own deterministic order (global front for the pipeline,
    /// archive front for the GA, per-cell fronts flattened in matrix
    /// order for scenarios and sweep, the two headline points for
    /// headline).
    #[must_use]
    pub fn front_labels(&self) -> Vec<String> {
        match self {
            ExploreResult::Explore(outcome) => outcome
                .pareto
                .global_front
                .iter()
                .map(|p| p.combo.clone())
                .collect(),
            ExploreResult::Ga(outcome) => outcome.front.iter().map(|l| l.combo.clone()).collect(),
            ExploreResult::Scenarios(matrix) => matrix
                .cells
                .iter()
                .flat_map(|c| c.front.iter().map(|l| l.combo.clone()))
                .collect(),
            ExploreResult::Sweep(matrix) => matrix
                .cells
                .iter()
                .flat_map(|c| c.front.iter().map(|l| l.combo.clone()))
                .collect(),
            ExploreResult::Headline(report) => vec![
                report.best_energy_combo.clone(),
                report.best_time_combo.clone(),
            ],
        }
    }
}

/// Runs one request on a fresh in-memory engine. See [`dispatch_with`].
///
/// # Errors
///
/// Returns [`ExploreError`] when the configuration is invalid or the run
/// fails.
pub fn dispatch(request: &ExploreRequest) -> Result<ExploreResult, ExploreError> {
    dispatch_with(&mut ExploreEngine::in_memory(), request)
}

/// Runs one request on an explicit engine — the single execution path
/// behind the CLI's simulating subcommands and every `ddtr serve`
/// request.
///
/// All simulation work flows through the engine's batches, so results are
/// deterministic at any worker count, repeated requests answer from the
/// engine's (possibly session-shared) cache, and a cancelled engine
/// control surfaces as [`ExploreError::Cancelled`].
///
/// # Errors
///
/// Returns [`ExploreError`] when the configuration is invalid, the run
/// fails, or the engine's control was cancelled.
///
/// # Example
///
/// ```
/// use ddtr_core::{dispatch, ExploreRequest, ExploreResult, MethodologyConfig};
/// use ddtr_apps::AppKind;
///
/// let request = ExploreRequest::Explore(MethodologyConfig::quick(AppKind::Drr));
/// let ExploreResult::Explore(outcome) = dispatch(&request)? else {
///     unreachable!("explore requests produce explore results");
/// };
/// assert!(!outcome.pareto.global_front.is_empty());
/// # Ok::<(), ddtr_core::ExploreError>(())
/// ```
pub fn dispatch_with(
    engine: &mut ExploreEngine,
    request: &ExploreRequest,
) -> Result<ExploreResult, ExploreError> {
    match request {
        ExploreRequest::Explore(cfg) => Methodology::new(cfg.clone())
            .run_with(engine)
            .map(ExploreResult::Explore),
        ExploreRequest::Ga(cfg) => explore_heuristic_with(engine, cfg).map(ExploreResult::Ga),
        ExploreRequest::Scenarios(cfg) => {
            explore_scenarios_with(engine, cfg).map(ExploreResult::Scenarios)
        }
        ExploreRequest::Sweep(cfg) => explore_sweep_with(engine, cfg).map(ExploreResult::Sweep),
        ExploreRequest::Headline(cfg) => {
            let outcome = Methodology::new(cfg.clone()).run_with(engine)?;
            headline_comparison(engine, cfg, &outcome).map(ExploreResult::Headline)
        }
    }
}

/// [`dispatch_with`], but with a per-cell observer for sweep requests —
/// the hook `ddtr serve` streams `Cell` events from. Non-sweep requests
/// never invoke the observer and behave exactly like [`dispatch_with`].
///
/// # Errors
///
/// Returns [`ExploreError`] when the configuration is invalid, the run
/// fails, or the engine's control was cancelled.
pub fn dispatch_observed(
    engine: &mut ExploreEngine,
    request: &ExploreRequest,
    on_cell: impl FnMut(&SweepCell, usize, usize),
) -> Result<ExploreResult, ExploreError> {
    match request {
        ExploreRequest::Sweep(cfg) => {
            explore_sweep_observed(engine, cfg, on_cell).map(ExploreResult::Sweep)
        }
        other => dispatch_with(engine, other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddtr_apps::AppKind;
    use ddtr_trace::NetworkPreset;

    #[test]
    fn request_round_trips_through_json() {
        let requests = vec![
            ExploreRequest::Explore(MethodologyConfig::quick(AppKind::Drr)),
            ExploreRequest::Ga(GaConfig::quick(AppKind::Url)),
            ExploreRequest::Scenarios(ScenarioConfig::quick(NetworkPreset::DartmouthBerry)),
            ExploreRequest::Sweep(SweepConfig::quick(NetworkPreset::DartmouthBerry)),
            ExploreRequest::Headline(MethodologyConfig::quick(AppKind::Nat)),
        ];
        for request in requests {
            let json = serde_json::to_string(&request).expect("serialise");
            let back: ExploreRequest = serde_json::from_str(&json).expect("deserialise");
            assert_eq!(back.mode(), request.mode());
            assert_eq!(
                serde_json::to_string(&back).expect("re-serialise"),
                json,
                "round trip is lossless"
            );
        }
    }

    #[test]
    fn dispatch_matches_the_direct_entry_points() {
        let cfg = MethodologyConfig::quick(AppKind::Drr);
        let direct = Methodology::new(cfg.clone()).run().expect("direct");
        let via = dispatch(&ExploreRequest::Explore(cfg)).expect("dispatched");
        let ExploreResult::Explore(outcome) = &via else {
            panic!("wrong result mode {}", via.mode());
        };
        assert_eq!(
            serde_json::to_string(&outcome.pareto.global_front).expect("ser"),
            serde_json::to_string(&direct.pareto.global_front).expect("ser"),
            "byte-identical Pareto front"
        );
        assert_eq!(via.front_labels().len(), direct.pareto.global_front.len());
    }

    #[test]
    fn result_round_trips_and_labels_are_stable() {
        let mut cfg = ScenarioConfig::quick(NetworkPreset::DartmouthBerry);
        cfg.apps = vec![AppKind::Drr];
        cfg.scenarios = vec![ddtr_trace::Scenario::Baseline];
        cfg.packets_per_sim = 40;
        let result = dispatch(&ExploreRequest::Scenarios(cfg)).expect("matrix");
        let json = serde_json::to_string(&result).expect("ser");
        let back: ExploreResult = serde_json::from_str(&json).expect("de");
        assert_eq!(back.front_labels(), result.front_labels());
        assert!(!result.front_labels().is_empty());
    }

    #[test]
    fn sweep_dispatch_matches_the_direct_entry_point_and_observes_cells() {
        let mut cfg = SweepConfig::quick(NetworkPreset::DartmouthBerry);
        cfg.packets_per_sim = 40;
        let direct = explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg).expect("direct");
        let mut cells_seen = 0;
        let via = dispatch_observed(
            &mut ExploreEngine::in_memory(),
            &ExploreRequest::Sweep(cfg),
            |_, done, total| {
                cells_seen = done;
                assert_eq!(total, 4);
            },
        )
        .expect("dispatched");
        let ExploreResult::Sweep(matrix) = &via else {
            panic!("wrong result mode {}", via.mode());
        };
        assert_eq!(cells_seen, 4, "observer saw every cell");
        assert_eq!(
            serde_json::to_string(&matrix.cells).expect("ser"),
            serde_json::to_string(&direct.cells).expect("ser"),
            "byte-identical sweep cells"
        );
        assert_eq!(
            serde_json::to_string(&matrix.survivors).expect("ser"),
            serde_json::to_string(&direct.survivors).expect("ser"),
        );
    }

    #[test]
    fn invalid_requests_fail_validation_without_running() {
        let mut cfg = MethodologyConfig::quick(AppKind::Drr);
        cfg.packets_per_sim = 0;
        let request = ExploreRequest::Explore(cfg);
        assert!(request.validate().is_err());
        assert!(dispatch(&request).is_err());
    }
}
