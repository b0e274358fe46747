//! The full three-step methodology pipeline.

use crate::config::MethodologyConfig;
use crate::error::ExploreError;
use crate::profile::{profile_application, ProfileReport};
use crate::step1::{explore_application_level_with, Step1Result};
use crate::step2::{explore_network_level_with, Step2Result};
use crate::step3::{explore_pareto_level, ParetoReport};
use ddtr_engine::ExploreEngine;
use serde::{Deserialize, Serialize};

/// Simulation accounting, reproducing the paper's Table 1 columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimCounts {
    /// Simulations an exhaustive exploration would need.
    pub exhaustive: usize,
    /// Simulations the methodology actually ran (step 1 + step 2).
    pub reduced: usize,
    /// Pareto-optimal design points offered to the designer.
    pub pareto_optimal: usize,
}

impl SimCounts {
    /// Fraction of simulations avoided versus exhaustive exploration.
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.exhaustive == 0 {
            0.0
        } else {
            1.0 - self.reduced as f64 / self.exhaustive as f64
        }
    }
}

/// How the execution engine served one pipeline run, counted by the
/// engine's own [`ddtr_engine::BatchControl`], so work that other engines
/// sharing its cache do meanwhile is not included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineReport {
    /// Worker threads the engine's batches ran on.
    pub jobs: usize,
    /// Simulations of this run answered from the result cache.
    pub cache_hits: usize,
    /// Simulations this run actually executed.
    pub executed: usize,
}

/// Everything the methodology produces for one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodologyOutcome {
    /// The configuration explored.
    pub config: MethodologyConfig,
    /// Dominant-container profiling (step 1, first substep).
    pub profile: ProfileReport,
    /// Application-level exploration (step 1).
    pub step1: Step1Result,
    /// Network-level exploration (step 2).
    pub step2: Step2Result,
    /// Pareto-level exploration (step 3).
    pub pareto: ParetoReport,
    /// Simulation accounting.
    pub counts: SimCounts,
    /// Execution-engine accounting for this run (absent in logs persisted
    /// before the engine existed).
    #[serde(default)]
    pub engine: EngineReport,
}

/// The automated tool flow: profile → step 1 → step 2 → step 3.
///
/// # Example
///
/// ```
/// use ddtr_core::{Methodology, MethodologyConfig};
/// use ddtr_apps::AppKind;
///
/// let outcome = Methodology::new(MethodologyConfig::quick(AppKind::Url)).run()?;
/// // quick mode uses only two network configurations, so the
/// // reduction is modest; the paper-sized sweeps reach 60-75%.
/// assert!(outcome.counts.reduction() > 0.2);
/// # Ok::<(), ddtr_core::ExploreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Methodology {
    config: MethodologyConfig,
}

impl Methodology {
    /// Creates the pipeline for `config`.
    #[must_use]
    pub fn new(config: MethodologyConfig) -> Self {
        Methodology { config }
    }

    /// The configuration this pipeline will run.
    #[must_use]
    pub fn config(&self) -> &MethodologyConfig {
        &self.config
    }

    /// Runs all three steps on a default engine built from the
    /// configuration (see [`MethodologyConfig::default_engine`]),
    /// propagating restrictions from each step to the next (the point of
    /// the stepwise procedure: "decrease the number of total simulations
    /// needed").
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError`] if the configuration is invalid or a step
    /// receives unusable input.
    pub fn run(&self) -> Result<MethodologyOutcome, ExploreError> {
        self.run_with(&mut self.config.default_engine())
    }

    /// Runs all three steps on an explicit execution engine: `--jobs`
    /// parallelism, cross-step result reuse (step 2 revisits step 1's
    /// reference configuration for free) and, when the engine carries a
    /// cache directory, persistence that makes a re-run near-instant.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError`] if the configuration is invalid or a step
    /// receives unusable input.
    pub fn run_with(&self, engine: &mut ExploreEngine) -> Result<MethodologyOutcome, ExploreError> {
        self.config.validate()?;
        // The engine's own control, not the cache's counters: the cache may
        // be shared with other engines of a session that run meanwhile.
        let before = engine.control().progress();
        let profile = {
            let _span = ddtr_obs::Span::enter(ddtr_obs::names::CORE_PROFILE);
            profile_application(&self.config)?
        };
        let step1 = {
            let _span = ddtr_obs::Span::enter(ddtr_obs::names::CORE_STEP1);
            explore_application_level_with(engine, &self.config)?
        };
        let step2 = {
            let _span = ddtr_obs::Span::enter(ddtr_obs::names::CORE_STEP2);
            explore_network_level_with(engine, &self.config, &step1.survivor_combos())?
        };
        let pareto = {
            let _span = ddtr_obs::Span::enter(ddtr_obs::names::CORE_STEP3);
            explore_pareto_level(&step2)?
        };
        let counts = SimCounts {
            exhaustive: self.config.exhaustive_simulations(),
            reduced: step1.measurements.len() + step2.simulations(),
            pareto_optimal: pareto.global_front.len(),
        };
        let after = engine.control().progress();
        let engine_report = EngineReport {
            jobs: engine.jobs(),
            cache_hits: after.hits - before.hits,
            executed: after.executed - before.executed,
        };
        Ok(MethodologyOutcome {
            config: self.config.clone(),
            profile,
            step1,
            step2,
            pareto,
            counts,
            engine: engine_report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddtr_apps::AppKind;

    #[test]
    fn full_pipeline_on_drr() {
        let outcome = Methodology::new(MethodologyConfig::quick(AppKind::Drr))
            .run()
            .expect("pipeline");
        // Step 1 simulated the whole application-level space.
        assert_eq!(outcome.step1.measurements.len(), 100);
        // Step 2 only simulated survivors.
        assert_eq!(
            outcome.step2.simulations(),
            outcome.step1.survivors.len() * outcome.config.configurations()
        );
        // The reduction against exhaustive exploration is substantial.
        // Quick mode has 2 configurations: exhaustive = 200, reduced =
        // 100 + survivors*2, so ~0.3 is the expected ballpark. The
        // paper-sized sweeps reach 60-75% (Table 1 in REPRODUCTION.md).
        assert!(
            outcome.counts.reduction() > 0.25,
            "reduction {:.2}",
            outcome.counts.reduction()
        );
        // A small Pareto set comes out.
        let p = outcome.counts.pareto_optimal;
        assert!((1..=20).contains(&p), "pareto set size {p}");
        // Profiling identified the declared dominant slots.
        assert!(outcome.profile.matches_declared());
    }

    #[test]
    fn rerun_on_a_warm_engine_is_pure_cache_and_identical() {
        let cfg = MethodologyConfig::quick(AppKind::Drr);
        let mut engine = ExploreEngine::in_memory();
        let cold = Methodology::new(cfg.clone())
            .run_with(&mut engine)
            .expect("cold run");
        assert!(cold.engine.executed > 0);
        let warm = Methodology::new(cfg)
            .run_with(&mut engine)
            .expect("warm run");
        assert_eq!(warm.engine.executed, 0, "warm run must be pure cache");
        assert!(warm.engine.cache_hits >= warm.counts.reduced);
        let front = |o: &MethodologyOutcome| {
            serde_json::to_string(&o.pareto.global_front).expect("serialise")
        };
        assert_eq!(front(&cold), front(&warm), "byte-identical Pareto front");
    }

    #[test]
    fn engine_report_counts_only_this_run_on_a_shared_session() {
        use ddtr_engine::{BatchControl, EngineConfig, EngineSession};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let run = |app, engine: &mut ExploreEngine| {
            Methodology::new(MethodologyConfig::quick(app))
                .run_with(engine)
                .expect("pipeline")
        };
        let solo = run(AppKind::Drr, &mut ExploreEngine::in_memory());
        // Mid-run, this run's observer runs a URL explore on a second
        // engine of the same session, as a serve worker's concurrent
        // request would; its work lands in the shared cache's counters.
        let session = Arc::new(EngineSession::new(EngineConfig::with_jobs(2)).expect("session"));
        let interleaved = Arc::new(AtomicBool::new(false));
        let control = BatchControl::observed({
            let (session, interleaved) = (Arc::clone(&session), Arc::clone(&interleaved));
            move |_| {
                if !interleaved.swap(true, Ordering::SeqCst) {
                    run(AppKind::Url, &mut session.engine());
                }
            }
        });
        let shared = run(AppKind::Drr, &mut session.engine_with(control.clone()));
        let progress = control.progress();
        assert!(interleaved.load(Ordering::SeqCst), "the URL explore ran");
        assert!(
            session.stats().misses > progress.executed,
            "the URL explore executed on the shared cache"
        );
        assert_eq!(
            (shared.engine.executed, shared.engine.cache_hits),
            (progress.executed, progress.hits),
            "the report agrees with the run's own control"
        );
        assert_eq!(
            (shared.engine.executed, shared.engine.cache_hits),
            (solo.engine.executed, solo.engine.cache_hits),
            "the report matches a run with the engine to itself"
        );
    }

    #[test]
    fn reduction_accounts_are_consistent() {
        let counts = SimCounts {
            exhaustive: 1000,
            reduced: 250,
            pareto_optimal: 5,
        };
        assert!((counts.reduction() - 0.75).abs() < 1e-12);
        let zero = SimCounts {
            exhaustive: 0,
            reduced: 0,
            pareto_optimal: 0,
        };
        assert_eq!(zero.reduction(), 0.0);
    }

    #[test]
    fn outcome_serialises() {
        let outcome = Methodology::new(MethodologyConfig::quick(AppKind::Url))
            .run()
            .expect("pipeline");
        let json = serde_json::to_string(&outcome).expect("serialise");
        assert!(json.contains("global_front"));
    }
}
