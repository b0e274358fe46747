//! Step 1 — application-level DDT exploration.

use crate::config::MethodologyConfig;
use crate::error::ExploreError;
use ddtr_engine::{
    combos_from, fingerprint_stream_spec, parse_combo, Combo, ExploreEngine, SimLog, SimUnit,
    TraceSource,
};
use ddtr_pareto::pareto_front_indices;
use ddtr_trace::StreamSpec;
use serde::{Deserialize, Serialize};

/// Result of the application-level exploration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Step1Result {
    /// One log per simulated combination (all 100).
    pub measurements: Vec<SimLog>,
    /// Combination labels that survive into step 2.
    pub survivors: Vec<String>,
}

impl Step1Result {
    /// The surviving combinations as typed values.
    ///
    /// # Panics
    ///
    /// Panics if a survivor label was corrupted (cannot happen for results
    /// produced by [`explore_application_level`]).
    #[must_use]
    pub fn survivor_combos(&self) -> Vec<Combo> {
        self.survivors
            .iter()
            .map(|s| parse_combo(s).expect("survivor labels are well-formed"))
            .collect()
    }

    /// Fraction of the design space discarded by this step.
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        if self.measurements.is_empty() {
            return 0.0;
        }
        1.0 - self.survivors.len() as f64 / self.measurements.len() as f64
    }
}

/// Runs step 1 on a default engine built from the configuration
/// (`cfg.parallel` selects auto worker count versus one). See
/// [`explore_application_level_with`].
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] when the configuration fails
/// validation.
pub fn explore_application_level(cfg: &MethodologyConfig) -> Result<Step1Result, ExploreError> {
    explore_application_level_with(&mut cfg.default_engine(), cfg)
}

/// Runs step 1: simulate **all** DDT combinations on the reference
/// configuration and keep only those that are best in at least one metric —
/// the 4-D Pareto front, topped up (or capped) to the configured survivor
/// fraction by normalised overall score.
///
/// The whole combination space is handed to `engine` as one batch: the
/// engine spreads it over its worker pool and answers repeat points from
/// its cache, while the returned measurements keep canonical combination
/// order at any worker count.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] when the configuration fails
/// validation.
pub fn explore_application_level_with(
    engine: &mut ExploreEngine,
    cfg: &MethodologyConfig,
) -> Result<Step1Result, ExploreError> {
    cfg.validate()?;
    let spec = StreamSpec::single(cfg.reference_network.spec(), cfg.packets_per_sim)?;
    let fp = fingerprint_stream_spec(&spec);
    let params = cfg
        .param_variants
        .first()
        .expect("validated config has at least one variant");
    let source = TraceSource::Streamed(&spec);
    let units: Vec<SimUnit> = combos_from(&cfg.candidates)
        .iter()
        .map(|&combo| SimUnit::from_source(cfg.app, combo, params, source, fp, cfg.mem))
        .collect();
    let measurements = engine.try_evaluate_batch(&units)?;
    let survivors = select_survivors(&measurements, cfg.survivor_fraction);
    Ok(Step1Result {
        survivors,
        measurements,
    })
}

/// Survivor selection: the 4-D Pareto-optimal combinations, plus the best
/// remaining combinations by normalised score until the target count is
/// reached. The front is never truncated, so every step-1 metric winner
/// reaches step 3; the step-1 pruning fidelity study of the reproduction
/// scorecard (`REPRODUCTION.md`) measures what pruning still loses
/// against exhaustive exploration.
pub(crate) fn select_survivors(measurements: &[SimLog], fraction: f64) -> Vec<String> {
    if measurements.is_empty() {
        return Vec::new();
    }
    let points: Vec<[f64; 4]> = measurements.iter().map(SimLog::objectives).collect();
    let target = ((measurements.len() as f64 * fraction).ceil() as usize).max(1);
    let mut keep: Vec<usize> = pareto_front_indices(&points);
    if keep.len() < target {
        // Normalise each metric to [0, 1] and rank the rest by total score.
        let mut maxima = [f64::MIN_POSITIVE; 4];
        for p in &points {
            for d in 0..4 {
                maxima[d] = maxima[d].max(p[d]);
            }
        }
        let mut rest: Vec<usize> = (0..points.len()).filter(|i| !keep.contains(i)).collect();
        rest.sort_by(|&a, &b| {
            let score = |i: usize| -> f64 {
                points[i]
                    .iter()
                    .zip(maxima.iter())
                    .map(|(v, m)| v / m)
                    .sum()
            };
            // total_cmp: a NaN score gets a deterministic position (IEEE
            // total order: after +inf, or before -inf when negative)
            // instead of panicking mid-sort.
            score(a).total_cmp(&score(b))
        });
        keep.extend(rest.into_iter().take(target - keep.len()));
    }
    keep.sort_unstable();
    keep.into_iter()
        .map(|i| measurements[i].combo.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddtr_apps::AppKind;
    use ddtr_mem::CostReport;

    fn fake_log(combo: &str, e: f64, t: u64, a: u64, f: u64) -> SimLog {
        SimLog {
            app: AppKind::Drr,
            combo: combo.into(),
            network: "X".into(),
            params: "p".into(),
            report: CostReport {
                accesses: a,
                cycles: t,
                energy_nj: e,
                peak_footprint_bytes: f,
            },
        }
    }

    #[test]
    fn survivors_include_per_metric_winners() {
        let logs = vec![
            fake_log("A+A", 1.0, 900, 900, 900),   // best energy
            fake_log("B+B", 900.0, 1, 900, 900),   // best time
            fake_log("C+C", 900.0, 900, 1, 900),   // best accesses
            fake_log("D+D", 900.0, 900, 900, 1),   // best footprint
            fake_log("E+E", 999.0, 999, 999, 999), // dominated
        ];
        let survivors = select_survivors(&logs, 0.2);
        for label in ["A+A", "B+B", "C+C", "D+D"] {
            assert!(survivors.contains(&label.to_string()), "{label}");
        }
        assert!(!survivors.contains(&"E+E".to_string()));
    }

    #[test]
    fn front_is_never_truncated() {
        // Six mutually non-dominated points with a 10% target: all kept.
        let logs: Vec<SimLog> = (0u32..6)
            .map(|i| {
                fake_log(
                    &format!("K{i}+K{i}"),
                    f64::from(i + 1),
                    u64::from(6 - i),
                    10,
                    10,
                )
            })
            .collect();
        let survivors = select_survivors(&logs, 0.1);
        assert_eq!(survivors.len(), 6);
    }

    #[test]
    fn target_filled_from_best_scores() {
        // One dominating point; fraction demands three survivors.
        let logs = vec![
            fake_log("A+A", 1.0, 1, 1, 1),
            fake_log("B+B", 2.0, 2, 2, 2),
            fake_log("C+C", 3.0, 3, 3, 3),
            fake_log("D+D", 9.0, 9, 9, 9),
        ];
        let survivors = select_survivors(&logs, 0.75);
        assert_eq!(survivors.len(), 3);
        assert!(survivors.contains(&"A+A".to_string()));
        assert!(survivors.contains(&"B+B".to_string()));
        assert!(survivors.contains(&"C+C".to_string()));
    }

    #[test]
    fn full_step1_prunes_most_of_the_space() {
        let cfg = MethodologyConfig::quick(AppKind::Drr);
        let result = explore_application_level(&cfg).expect("step 1");
        assert_eq!(result.measurements.len(), 100);
        assert!(
            result.pruned_fraction() >= 0.6,
            "pruned only {:.0}%",
            result.pruned_fraction() * 100.0
        );
        assert!(!result.survivors.is_empty());
        assert_eq!(result.survivor_combos().len(), result.survivors.len());
    }

    #[test]
    fn empty_input_yields_no_survivors() {
        assert!(select_survivors(&[], 0.5).is_empty());
    }

    #[test]
    fn parallel_and_sequential_step1_agree() {
        let cfg = MethodologyConfig::quick(AppKind::Url);
        let seq = explore_application_level_with(&mut ExploreEngine::with_jobs(1), &cfg)
            .expect("sequential");
        let par = explore_application_level_with(&mut ExploreEngine::with_jobs(4), &cfg)
            .expect("parallel");
        assert_eq!(seq.survivors, par.survivors);
        let key = |l: &SimLog| (l.combo.clone(), l.report.accesses, l.report.cycles);
        let a: Vec<_> = seq.measurements.iter().map(key).collect();
        let b: Vec<_> = par.measurements.iter().map(key).collect();
        assert_eq!(a, b, "parallel step 1 must be order-preserving");
    }

    #[test]
    fn warm_engine_skips_re_simulation() {
        let cfg = MethodologyConfig::quick(AppKind::Drr);
        let mut engine = ExploreEngine::in_memory();
        let first = explore_application_level_with(&mut engine, &cfg).expect("cold");
        assert_eq!(engine.stats().misses, 100);
        let second = explore_application_level_with(&mut engine, &cfg).expect("warm");
        assert_eq!(engine.stats().misses, 100, "warm step 1 executes nothing");
        assert_eq!(first.survivors, second.survivors);
    }
}
