//! Baseline comparison against the original NetBench implementation.

use crate::config::MethodologyConfig;
use crate::error::ExploreError;
use crate::pipeline::MethodologyOutcome;
use ddtr_ddt::DdtKind;
use ddtr_engine::{fingerprint_stream_spec, ExploreEngine, SimUnit, TraceSource};
use ddtr_mem::CostReport;
use ddtr_trace::StreamSpec;
use serde::{Deserialize, Serialize};

/// The paper's headline comparison: the best Pareto-optimal DDT choice
/// versus the original implementation ("both DDTs were implemented as
/// single linked lists"), averaged across the explored networks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeadlineReport {
    /// Metrics of the original (SLL+SLL) implementation, averaged over the
    /// explored configurations.
    pub baseline: CostReport,
    /// Metrics of the best-energy global Pareto point.
    pub best_energy: CostReport,
    /// Combination label of the best-energy point.
    pub best_energy_combo: String,
    /// Metrics of the best-time global Pareto point.
    pub best_time: CostReport,
    /// Combination label of the best-time point.
    pub best_time_combo: String,
}

impl HeadlineReport {
    /// Energy saving of the best-energy point versus the baseline, as a
    /// fraction in `[0, 1]` (negative if the baseline is better).
    #[must_use]
    pub fn energy_saving(&self) -> f64 {
        relative_gain(self.baseline.energy_nj, self.best_energy.energy_nj)
    }

    /// Execution-time improvement of the best-time point versus the
    /// baseline, as a fraction.
    #[must_use]
    pub fn time_improvement(&self) -> f64 {
        relative_gain(self.baseline.cycles as f64, self.best_time.cycles as f64)
    }

    /// Access reduction of the best-energy point versus the baseline.
    #[must_use]
    pub fn access_reduction(&self) -> f64 {
        relative_gain(
            self.baseline.accesses as f64,
            self.best_energy.accesses as f64,
        )
    }

    /// Footprint reduction of the best-energy point versus the baseline.
    #[must_use]
    pub fn footprint_reduction(&self) -> f64 {
        relative_gain(
            self.baseline.peak_footprint_bytes as f64,
            self.best_energy.peak_footprint_bytes as f64,
        )
    }
}

fn relative_gain(baseline: f64, improved: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (baseline - improved) / baseline
    }
}

/// Computes the headline comparison for a finished exploration: the
/// SLL+SLL baseline is evaluated on every configuration of `outcome` as
/// one `engine` batch, the units step 2 would build for it, and compared
/// against the global Pareto front's best-energy and best-time points.
/// A baseline point step 2 already simulated is a cache hit.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] if the outcome has an empty
/// Pareto front (cannot happen for outcomes produced by
/// [`crate::Methodology::run`]), and [`ExploreError::Cancelled`] when the
/// engine's control was cancelled.
pub fn headline_comparison(
    engine: &mut ExploreEngine,
    cfg: &MethodologyConfig,
    outcome: &MethodologyOutcome,
) -> Result<HeadlineReport, ExploreError> {
    let best_energy = outcome
        .pareto
        .best_by(0)
        .ok_or_else(|| ExploreError::InvalidConfig("empty Pareto front".into()))?;
    let best_time = outcome
        .pareto
        .best_by(1)
        .ok_or_else(|| ExploreError::InvalidConfig("empty Pareto front".into()))?;
    let specs = cfg
        .networks
        .iter()
        .map(|network| StreamSpec::single(network.spec(), cfg.packets_per_sim))
        .collect::<Result<Vec<_>, _>>()?;
    let units: Vec<SimUnit> = specs
        .iter()
        .flat_map(|spec| {
            let fp = fingerprint_stream_spec(spec);
            cfg.param_variants.iter().map(move |params| {
                let source = TraceSource::Streamed(spec);
                SimUnit::from_source(cfg.app, [DdtKind::Sll; 2], params, source, fp, cfg.mem)
            })
        })
        .collect();
    let logs = engine.try_evaluate_batch(&units)?;
    let reports: Vec<CostReport> = logs.into_iter().map(|log| log.report).collect();
    let n = reports.len() as f64;
    let baseline = CostReport {
        accesses: (reports.iter().map(|r| r.accesses).sum::<u64>() as f64 / n) as u64,
        cycles: (reports.iter().map(|r| r.cycles).sum::<u64>() as f64 / n) as u64,
        energy_nj: reports.iter().map(|r| r.energy_nj).sum::<f64>() / n,
        peak_footprint_bytes: (reports.iter().map(|r| r.peak_footprint_bytes).sum::<u64>() as f64
            / n) as u64,
    };
    Ok(HeadlineReport {
        baseline,
        best_energy: best_energy.report,
        best_energy_combo: best_energy.combo.clone(),
        best_time: best_time.report,
        best_time_combo: best_time.combo.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{dispatch_with, ExploreRequest};
    use crate::pipeline::Methodology;
    use ddtr_apps::AppKind;

    #[test]
    fn best_points_never_lose_to_the_baseline() {
        // The SLL+SLL baseline is itself part of the explored space, so the
        // best-energy point can only be at least as good.
        let cfg = MethodologyConfig::quick(AppKind::Url);
        let mut engine = ExploreEngine::in_memory();
        let outcome = Methodology::new(cfg.clone())
            .run_with(&mut engine)
            .expect("pipeline");
        let headline = headline_comparison(&mut engine, &cfg, &outcome).expect("headline");
        assert!(
            headline.energy_saving() >= 0.0,
            "saving {:.3}",
            headline.energy_saving()
        );
        assert!(
            headline.time_improvement() >= 0.0,
            "improvement {:.3}",
            headline.time_improvement()
        );
    }

    #[test]
    fn the_baseline_runs_on_the_engine_and_is_cached() {
        let cfg = MethodologyConfig::quick(AppKind::Drr);
        let mut engine = ExploreEngine::in_memory();
        let mut executed = |request: &ExploreRequest| {
            let before = engine.control().progress().executed;
            dispatch_with(&mut engine, request).expect("request runs");
            engine.control().progress().executed - before
        };
        executed(&ExploreRequest::Explore(cfg.clone()));
        let headline = ExploreRequest::Headline(cfg.clone());
        // Step 1 already simulated SLL+SLL on the reference network; the
        // baseline's other configurations are the headline's only misses.
        assert_eq!(executed(&headline), cfg.configurations() - 1);
        assert_eq!(executed(&headline), 0, "a repeat headline is pure cache");
    }

    #[test]
    fn relative_gain_handles_degenerate_baselines() {
        assert_eq!(relative_gain(0.0, 5.0), 0.0);
        assert!((relative_gain(10.0, 5.0) - 0.5).abs() < 1e-12);
        assert!(relative_gain(10.0, 20.0) < 0.0);
    }
}
