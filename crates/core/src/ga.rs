//! Heuristic (NSGA-II) exploration of the DDT combination space.
//!
//! The paper explores the application level *exhaustively* — tractable at
//! `10^2 = 100` combinations, already expensive at `2100` simulations for
//! IPchains, and hopeless once applications expose more than two dominant
//! containers or the library grows (the extension direction of this
//! research line). This module provides the standard multi-objective
//! answer: a seeded, deterministic NSGA-II over combination genomes that
//! recovers (most of) the step-1 Pareto front from a fraction of the
//! simulations. The NSGA-II sections of the reproduction scorecard
//! (`REPRODUCTION.md`) quantify the trade.

use crate::error::ExploreError;
use ddtr_apps::{AppKind, AppParams, DOMINANT_SLOTS_PER_APP};
use ddtr_ddt::DdtKind;
use ddtr_engine::{
    combo_label, fingerprint_stream_spec, Combo, ExploreEngine, SimLog, SimUnit, TraceSource,
};
use ddtr_mem::MemoryConfig;
use ddtr_pareto::{pareto_front_indices, pareto_ranks};
use ddtr_trace::{NetworkPreset, StreamSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Configuration of one [`explore_heuristic`] run.
///
/// # Example
///
/// ```
/// use ddtr_core::GaConfig;
/// use ddtr_apps::AppKind;
/// use ddtr_ddt::DdtKind;
///
/// let mut cfg = GaConfig::quick(AppKind::Drr);
/// cfg.candidates = DdtKind::EXTENDED.to_vec(); // search the 12-kind space
/// cfg.validate().expect("valid");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaConfig {
    /// The application under exploration.
    pub app: AppKind,
    /// The DDT candidate set genes are drawn from (the paper's ten by
    /// default; use [`DdtKind::EXTENDED`] for the extended library).
    pub candidates: Vec<DdtKind>,
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations evolved after the initial population.
    pub generations: usize,
    /// Probability that an offspring mixes both parents (vs. cloning one).
    pub crossover_rate: f64,
    /// Per-gene probability of a random reassignment.
    pub mutation_rate: f64,
    /// RNG seed — equal seeds replay identical explorations.
    pub seed: u64,
    /// Early stop: end the run once the archive front has not changed for
    /// this many consecutive generations (`None` = always run all
    /// generations).
    #[serde(default)]
    pub stall_generations: Option<usize>,
    /// Packets simulated per fitness evaluation.
    pub packets_per_sim: usize,
    /// Network whose trace drives the evaluations.
    pub network: NetworkPreset,
    /// Application parameters of the evaluations.
    pub params: AppParams,
    /// Platform memory configuration.
    pub mem: MemoryConfig,
}

impl GaConfig {
    /// A small, fast configuration for tests and examples.
    #[must_use]
    pub fn quick(app: AppKind) -> Self {
        let params = AppParams {
            route_table_size: 48,
            firewall_rules: 16,
            table_cap: 24,
            ..AppParams::default()
        };
        GaConfig {
            app,
            candidates: DdtKind::ALL.to_vec(),
            population: 12,
            generations: 6,
            crossover_rate: 0.9,
            mutation_rate: 0.15,
            seed: 0xDD7,
            stall_generations: None,
            packets_per_sim: 80,
            network: NetworkPreset::DartmouthBerry,
            params,
            mem: MemoryConfig::embedded_default(),
        }
    }

    /// The configuration the reproduction scorecard (`REPRODUCTION.md`)
    /// compares against the paper-sized exhaustive step 1 (same trace
    /// length and parameters).
    #[must_use]
    pub fn paper(app: AppKind) -> Self {
        GaConfig {
            population: 16,
            generations: 8,
            packets_per_sim: 400,
            params: AppParams::default(),
            ..Self::quick(app)
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidConfig`] describing the first
    /// problem.
    pub fn validate(&self) -> Result<(), ExploreError> {
        crate::config::validate_candidates(&self.candidates)?;
        if self.population < 4 {
            return Err(ExploreError::InvalidConfig(
                "population must be at least 4".into(),
            ));
        }
        if self.packets_per_sim == 0 {
            return Err(ExploreError::InvalidConfig(
                "packets_per_sim must be non-zero".into(),
            ));
        }
        for rate in [self.crossover_rate, self.mutation_rate] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(ExploreError::InvalidConfig(format!(
                    "rate {rate} outside [0, 1]"
                )));
            }
        }
        if self.stall_generations == Some(0) {
            return Err(ExploreError::InvalidConfig(
                "stall window must be at least one generation".into(),
            ));
        }
        self.params
            .validate()
            .map_err(ExploreError::InvalidConfig)?;
        self.mem.validate().map_err(ExploreError::InvalidConfig)?;
        Ok(())
    }
}

/// Progress snapshot after one generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0 = the evaluated initial population).
    pub generation: usize,
    /// Unique simulations run so far.
    pub evaluations: usize,
    /// Size of the non-dominated archive so far.
    pub front_size: usize,
}

/// Result of a heuristic exploration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaOutcome {
    /// The non-dominated set over everything the GA evaluated.
    pub front: Vec<SimLog>,
    /// Unique simulations run (the cost the heuristic saves against an
    /// exhaustive sweep).
    pub evaluations: usize,
    /// Per-generation progress.
    pub history: Vec<GenerationStats>,
}

impl GaOutcome {
    /// Labels of the front combinations, sorted.
    #[must_use]
    pub fn front_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.front.iter().map(|l| l.combo.clone()).collect();
        labels.sort();
        labels
    }

    /// Picks, from the heuristic front, the point that satisfies
    /// `constraints` and minimises `objective` — the same designer step as
    /// [`ParetoReport::select`](crate::step3::ParetoReport::select), so
    /// constrained selection works identically whether the front came from
    /// exhaustive or heuristic exploration. `None` when no front point
    /// fits the budgets.
    #[must_use]
    pub fn select(
        &self,
        constraints: &crate::DesignConstraints,
        objective: crate::Objective,
    ) -> Option<&SimLog> {
        self.front
            .iter()
            .filter(|l| constraints.admits(&l.report))
            .min_by(|a, b| {
                // total_cmp: a NaN objective cannot panic the selection;
                // IEEE total order places positive NaN after +inf (negative
                // NaN before -inf), so the pick stays deterministic.
                a.objectives()[objective.dim()].total_cmp(&b.objectives()[objective.dim()])
            })
    }
}

/// A genome: one candidate-set index per dominant slot.
type Genome = [usize; DOMINANT_SLOTS_PER_APP];

/// Everything the GA ever evaluated, memoised per distinct combination and
/// kept in first-evaluation order so iteration is deterministic at any
/// engine worker count.
#[derive(Default)]
struct Archive {
    memo: HashMap<String, SimLog>,
    order: Vec<String>,
}

impl Archive {
    /// Batch-evaluates every combination not yet in the archive on the
    /// engine (one parallel batch per generation instead of the seed's one
    /// serial simulation per lookup).
    fn ensure(
        &mut self,
        engine: &mut ExploreEngine,
        cfg: &GaConfig,
        eval: &Eval,
        combos: &[Combo],
    ) -> Result<(), ExploreError> {
        let mut batch_seen: HashSet<String> = HashSet::new();
        let fresh: Vec<Combo> = combos
            .iter()
            .copied()
            .filter(|&c| {
                let label = combo_label(c);
                !self.memo.contains_key(&label) && batch_seen.insert(label)
            })
            .collect();
        if fresh.is_empty() {
            return Ok(());
        }
        let units: Vec<SimUnit> = fresh
            .iter()
            .map(|&combo| {
                SimUnit::from_source(
                    cfg.app,
                    combo,
                    &cfg.params,
                    eval.source,
                    eval.trace_fp,
                    cfg.mem,
                )
            })
            .collect();
        for log in engine.try_evaluate_batch(&units)? {
            self.order.push(log.combo.clone());
            self.memo.insert(log.combo.clone(), log);
        }
        Ok(())
    }

    fn objectives(&self, combo: Combo) -> [f64; 4] {
        self.memo[&combo_label(combo)].objectives()
    }

    fn logs(&self) -> impl Iterator<Item = &SimLog> {
        self.order.iter().map(|label| &self.memo[label])
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// The shared per-run evaluation inputs.
struct Eval<'a> {
    source: TraceSource<'a>,
    trace_fp: u64,
}

/// Runs the seeded NSGA-II exploration.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] when `cfg` fails validation.
///
/// # Example
///
/// ```
/// use ddtr_core::{explore_heuristic, GaConfig};
/// use ddtr_apps::AppKind;
///
/// let outcome = explore_heuristic(&GaConfig::quick(AppKind::Drr))?;
/// assert!(!outcome.front.is_empty());
/// assert!(outcome.evaluations < 100, "cheaper than exhaustive");
/// # Ok::<(), ddtr_core::ExploreError>(())
/// ```
pub fn explore_heuristic(cfg: &GaConfig) -> Result<GaOutcome, ExploreError> {
    explore_heuristic_with(&mut ExploreEngine::in_memory(), cfg)
}

/// Runs the seeded NSGA-II exploration on an explicit engine: each
/// generation's unseen combinations are evaluated as one parallel batch,
/// and a warm cache (e.g. from a previous exhaustive sweep over the same
/// trace) eliminates simulations entirely. The search trajectory — and
/// therefore the outcome — depends only on the seed, never on the worker
/// count.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] when `cfg` fails validation.
pub fn explore_heuristic_with(
    engine: &mut ExploreEngine,
    cfg: &GaConfig,
) -> Result<GaOutcome, ExploreError> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let spec = StreamSpec::single(cfg.network.spec(), cfg.packets_per_sim)?;
    let eval = Eval {
        source: TraceSource::Streamed(&spec),
        trace_fp: fingerprint_stream_spec(&spec),
    };
    let mut archive = Archive::default();
    let to_combo = |g: &Genome| -> Combo { [cfg.candidates[g[0]], cfg.candidates[g[1]]] };

    // Initial population: distinct random genomes (repetition would only
    // waste cache hits, not correctness).
    let mut population: Vec<Genome> = Vec::with_capacity(cfg.population);
    while population.len() < cfg.population {
        let g = [
            rng.gen_range(0..cfg.candidates.len()),
            rng.gen_range(0..cfg.candidates.len()),
        ];
        if !population.contains(&g) || population.len() * 2 > cfg.candidates.len().pow(2) {
            population.push(g);
        }
    }
    let mut history = Vec::new();
    // Records progress and returns the archive front's identity (sorted
    // combo labels) for the early-stop check.
    let record =
        |history: &mut Vec<GenerationStats>, archive: &Archive, generation: usize| -> Vec<String> {
            let logs: Vec<&SimLog> = archive.logs().collect();
            let points: Vec<[f64; 4]> = logs.iter().map(|l| l.objectives()).collect();
            let mut labels: Vec<String> = pareto_front_indices(&points)
                .into_iter()
                .map(|i| logs[i].combo.clone())
                .collect();
            labels.sort();
            history.push(GenerationStats {
                generation,
                evaluations: archive.len(),
                front_size: labels.len(),
            });
            labels
        };

    let initial: Vec<Combo> = population.iter().map(&to_combo).collect();
    archive.ensure(engine, cfg, &eval, &initial)?;
    let mut last_front = record(&mut history, &archive, 0);
    let mut stale = 0usize;

    for generation in 1..=cfg.generations {
        let _gen_span = ddtr_obs::Span::enter(ddtr_obs::names::CORE_GA_GENERATION);
        let fitness: Vec<[f64; 4]> = population
            .iter()
            .map(|g| archive.objectives(to_combo(g)))
            .collect();
        let ranks = pareto_ranks(&fitness);
        let crowding = crowding_distances(&fitness, &ranks);

        // Binary-tournament parent selection on (rank, crowding).
        let tournament = |rng: &mut StdRng| -> Genome {
            let a = rng.gen_range(0..population.len());
            let b = rng.gen_range(0..population.len());
            let better = if ranks[a] != ranks[b] {
                if ranks[a] < ranks[b] {
                    a
                } else {
                    b
                }
            } else if crowding[a] >= crowding[b] {
                a
            } else {
                b
            };
            population[better]
        };

        let mut offspring: Vec<Genome> = Vec::with_capacity(cfg.population);
        while offspring.len() < cfg.population {
            let p1 = tournament(&mut rng);
            let p2 = tournament(&mut rng);
            let mut child = if rng.gen::<f64>() < cfg.crossover_rate {
                // Uniform crossover over the slot genes.
                let mut c = p1;
                for (slot, gene) in c.iter_mut().enumerate() {
                    if rng.gen::<bool>() {
                        *gene = p2[slot];
                    }
                }
                c
            } else {
                p1
            };
            for gene in &mut child {
                if rng.gen::<f64>() < cfg.mutation_rate {
                    *gene = rng.gen_range(0..cfg.candidates.len());
                }
            }
            offspring.push(child);
        }

        // Environmental selection over parents + offspring.
        let mut pool: Vec<Genome> = population.iter().chain(offspring.iter()).copied().collect();
        pool.sort_unstable();
        pool.dedup(); // all duplicates, not only adjacent ones
        pool.shuffle(&mut rng); // tie-breaking independent of insertion order
        let pool_combos: Vec<Combo> = pool.iter().map(&to_combo).collect();
        archive.ensure(engine, cfg, &eval, &pool_combos)?;
        let pool_fitness: Vec<[f64; 4]> =
            pool_combos.iter().map(|&c| archive.objectives(c)).collect();
        let pool_ranks = pareto_ranks(&pool_fitness);
        let pool_crowding = crowding_distances(&pool_fitness, &pool_ranks);
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_by(|&a, &b| {
            pool_ranks[a]
                .cmp(&pool_ranks[b])
                .then(pool_crowding[b].total_cmp(&pool_crowding[a]))
        });
        population = order
            .into_iter()
            .take(cfg.population)
            .map(|i| pool[i])
            .collect();
        let front_now = record(&mut history, &archive, generation);
        if front_now == last_front {
            stale += 1;
            if cfg.stall_generations.is_some_and(|w| stale >= w) {
                break;
            }
        } else {
            stale = 0;
            last_front = front_now;
        }
    }

    // The archive front: non-dominated over everything ever evaluated.
    let logs: Vec<SimLog> = archive.logs().cloned().collect();
    let points: Vec<[f64; 4]> = logs.iter().map(SimLog::objectives).collect();
    let mut front: Vec<SimLog> = pareto_front_indices(&points)
        .into_iter()
        .map(|i| logs[i].clone())
        .collect();
    front.sort_by(|a, b| a.combo.cmp(&b.combo));
    Ok(GaOutcome {
        evaluations: logs.len(),
        front,
        history,
    })
}

/// NSGA-II crowding distance, computed within each rank (front).
/// Boundary points of every objective get `f64::INFINITY`.
fn crowding_distances(points: &[[f64; 4]], ranks: &[usize]) -> Vec<f64> {
    let n = points.len();
    let mut distance = vec![0.0f64; n];
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for rank in 0..=max_rank {
        let members: Vec<usize> = (0..n).filter(|&i| ranks[i] == rank).collect();
        if members.len() <= 2 {
            for &i in &members {
                distance[i] = f64::INFINITY;
            }
            continue;
        }
        // `dim` indexes a column across several parallel arrays, so an
        // iterator form would obscure the access pattern.
        #[allow(clippy::needless_range_loop)]
        for dim in 0..4 {
            let mut sorted = members.clone();
            // total_cmp: a NaN objective gets a deterministic position
            // (IEEE total order) instead of panicking or silently
            // corrupting the crowding order.
            sorted.sort_by(|&a, &b| points[a][dim].total_cmp(&points[b][dim]));
            let lo = points[sorted[0]][dim];
            let hi = points[*sorted.last().expect("non-empty front")][dim];
            distance[sorted[0]] = f64::INFINITY;
            distance[*sorted.last().expect("non-empty front")] = f64::INFINITY;
            if hi > lo {
                for w in sorted.windows(3) {
                    distance[w[1]] += (points[w[2]][dim] - points[w[0]][dim]) / (hi - lo);
                }
            }
        }
    }
    distance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_validates_for_every_app() {
        for app in AppKind::ALL {
            GaConfig::quick(app).validate().expect("valid");
            GaConfig::paper(app).validate().expect("valid");
        }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = GaConfig::quick(AppKind::Drr);
        cfg.candidates.truncate(1);
        assert!(cfg.validate().is_err());

        let mut cfg = GaConfig::quick(AppKind::Drr);
        cfg.population = 2;
        assert!(cfg.validate().is_err());

        let mut cfg = GaConfig::quick(AppKind::Drr);
        cfg.mutation_rate = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = GaConfig::quick(AppKind::Drr);
        cfg.packets_per_sim = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn heuristic_outcome_is_independent_of_worker_count() {
        let cfg = GaConfig::quick(AppKind::Drr);
        let a = explore_heuristic_with(&mut ExploreEngine::with_jobs(1), &cfg).expect("1 worker");
        let b = explore_heuristic_with(&mut ExploreEngine::with_jobs(8), &cfg).expect("8 workers");
        assert_eq!(a.front_labels(), b.front_labels());
        assert_eq!(a.evaluations, b.evaluations);
        let objectives =
            |o: &GaOutcome| -> Vec<[f64; 4]> { o.front.iter().map(SimLog::objectives).collect() };
        assert_eq!(objectives(&a), objectives(&b));
    }

    #[test]
    fn warm_engine_reruns_without_simulating() {
        let cfg = GaConfig::quick(AppKind::Url);
        let mut engine = ExploreEngine::in_memory();
        let first = explore_heuristic_with(&mut engine, &cfg).expect("cold");
        let executed = engine.stats().misses;
        assert_eq!(executed, first.evaluations);
        let second = explore_heuristic_with(&mut engine, &cfg).expect("warm");
        assert_eq!(engine.stats().misses, executed, "warm run executes nothing");
        assert_eq!(first.front_labels(), second.front_labels());
    }

    #[test]
    fn heuristic_is_deterministic_per_seed() {
        let cfg = GaConfig::quick(AppKind::Drr);
        let a = explore_heuristic(&cfg).expect("run a");
        let b = explore_heuristic(&cfg).expect("run b");
        assert_eq!(a.front_labels(), b.front_labels());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn different_seeds_may_explore_differently_but_stay_valid() {
        let mut cfg = GaConfig::quick(AppKind::Drr);
        let a = explore_heuristic(&cfg).expect("seed 1");
        cfg.seed = 99;
        let b = explore_heuristic(&cfg).expect("seed 2");
        for outcome in [&a, &b] {
            assert!(!outcome.front.is_empty());
            assert!(outcome.evaluations <= 100, "cannot exceed the space");
        }
    }

    #[test]
    fn evaluations_stay_well_under_exhaustive() {
        let cfg = GaConfig::quick(AppKind::Url);
        let outcome = explore_heuristic(&cfg).expect("run");
        assert!(
            outcome.evaluations < 70,
            "GA used {} of 100 exhaustive simulations",
            outcome.evaluations
        );
    }

    #[test]
    fn early_stop_cuts_generations_without_changing_the_found_front() {
        let mut cfg = GaConfig::quick(AppKind::Drr);
        cfg.generations = 40; // far more than the space needs
        let full = explore_heuristic(&cfg).expect("full run");
        cfg.stall_generations = Some(3);
        let stopped = explore_heuristic(&cfg).expect("early-stopped run");
        assert!(
            stopped.history.len() < full.history.len(),
            "stall window must terminate early ({} vs {})",
            stopped.history.len(),
            full.history.len()
        );
        // The early-stopped archive is a front over a subset of the same
        // deterministic search; it must not be empty and every member must
        // also exist in the full run's evaluations (same seed, same path).
        assert!(!stopped.front.is_empty());
        assert!(stopped.evaluations <= full.evaluations);
    }

    #[test]
    fn zero_stall_window_is_rejected() {
        let mut cfg = GaConfig::quick(AppKind::Drr);
        cfg.stall_generations = Some(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn history_is_monotone_in_evaluations() {
        let cfg = GaConfig::quick(AppKind::Drr);
        let outcome = explore_heuristic(&cfg).expect("run");
        assert_eq!(outcome.history.len(), cfg.generations + 1);
        for w in outcome.history.windows(2) {
            assert!(w[1].evaluations >= w[0].evaluations);
            assert_eq!(w[1].generation, w[0].generation + 1);
        }
        assert_eq!(
            outcome.history.last().expect("non-empty").evaluations,
            outcome.evaluations
        );
    }

    #[test]
    fn front_members_are_mutually_non_dominated() {
        let cfg = GaConfig::quick(AppKind::Ipchains);
        let outcome = explore_heuristic(&cfg).expect("run");
        let pts: Vec<[f64; 4]> = outcome.front.iter().map(SimLog::objectives).collect();
        let front = pareto_front_indices(&pts);
        assert_eq!(front.len(), pts.len(), "front must be internally optimal");
    }

    #[test]
    fn extended_candidate_set_is_searchable() {
        let mut cfg = GaConfig::quick(AppKind::Drr);
        cfg.candidates = DdtKind::EXTENDED.to_vec();
        let outcome = explore_heuristic(&cfg).expect("run");
        assert!(!outcome.front.is_empty());
        assert!(outcome.evaluations <= 144);
    }

    #[test]
    fn constrained_selection_over_the_heuristic_front() {
        use crate::{DesignConstraints, Objective};
        let cfg = GaConfig::quick(AppKind::Drr);
        let outcome = explore_heuristic(&cfg).expect("run");
        // Unconstrained: the energy minimum of the front.
        let best = outcome
            .select(&DesignConstraints::none(), Objective::Energy)
            .expect("front is non-empty");
        assert!(outcome
            .front
            .iter()
            .all(|l| l.report.energy_nj >= best.report.energy_nj));
        // A budget tight enough to exclude everything yields None.
        let impossible = DesignConstraints::none().with_max_cycles(0);
        assert!(outcome.select(&impossible, Objective::Energy).is_none());
        // A footprint budget at the front's median keeps only admitted
        // points and the winner satisfies it.
        let mut fps: Vec<u64> = outcome
            .front
            .iter()
            .map(|l| l.report.peak_footprint_bytes)
            .collect();
        fps.sort_unstable();
        let budget = fps[fps.len() / 2];
        if let Some(choice) = outcome.select(
            &DesignConstraints::none().with_max_footprint_bytes(budget),
            Objective::Time,
        ) {
            assert!(choice.report.peak_footprint_bytes <= budget);
        }
    }

    #[test]
    fn crowding_rewards_isolation() {
        // Four rank-0 points on a line: the middle ones compete, boundaries
        // are infinite.
        let points = [
            [0.0, 3.0, 0.0, 0.0],
            [1.0, 2.0, 0.0, 0.0],
            [2.0, 1.0, 0.0, 0.0],
            [3.0, 0.0, 0.0, 0.0],
        ];
        let ranks = vec![0, 0, 0, 0];
        let d = crowding_distances(&points, &ranks);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
        assert!((d[1] - d[2]).abs() < 1e-12, "symmetric interior points");
    }

    #[test]
    fn crowding_tolerates_nan_objectives() {
        // A NaN objective must not panic the sort; the NaN point simply
        // sorts last in that dimension.
        let points = [
            [0.0, 3.0, 0.0, 0.0],
            [1.0, f64::NAN, 0.0, 0.0],
            [2.0, 1.0, 0.0, 0.0],
            [3.0, 0.0, 0.0, 0.0],
        ];
        let ranks = vec![0, 0, 0, 0];
        let d = crowding_distances(&points, &ranks);
        assert_eq!(d.len(), 4);
        assert!(d[0].is_infinite());
    }

    #[test]
    fn crowding_handles_tiny_fronts() {
        let points = [[1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]];
        let ranks = vec![0, 1];
        let d = crowding_distances(&points, &ranks);
        assert!(d.iter().all(|x| x.is_infinite()));
    }
}
