//! The application × scenario exploration matrix.
//!
//! The paper explores one workload per network capture; the scenario
//! matrix asks the complementary question — *how do the Pareto-optimal DDT
//! choices shift when the same network goes through different traffic
//! regimes?* Every cell simulates the full combination space of one
//! application over one [`Scenario`] stream (bursty trains, a flash crowd,
//! a SYN flood, a mid-run phase shift) and reports that cell's Pareto
//! front. Everything runs streamed through the engine, so cells scale to
//! million-packet workloads in constant memory and repeat runs answer from
//! the result cache.

use crate::error::ExploreError;
use ddtr_apps::{AppKind, AppParams};
use ddtr_ddt::DdtKind;
use ddtr_engine::{combos_from, fingerprint_stream_spec, ExploreEngine, SimLog, SimUnit};
use ddtr_mem::MemoryConfig;
use ddtr_pareto::pareto_front_indices;
use ddtr_trace::{NetworkPreset, Scenario, StreamSpec};
use serde::{Deserialize, Serialize};

/// Configuration of one scenario-matrix run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Applications forming the matrix rows.
    pub apps: Vec<AppKind>,
    /// Scenarios forming the matrix columns.
    pub scenarios: Vec<Scenario>,
    /// Base network preset every scenario is derived from.
    pub base: NetworkPreset,
    /// The DDT candidate set explored per cell.
    pub candidates: Vec<DdtKind>,
    /// Packets streamed per simulation.
    pub packets_per_sim: usize,
    /// Application parameters of the runs.
    pub params: AppParams,
    /// Platform memory configuration.
    pub mem: MemoryConfig,
}

impl ScenarioConfig {
    /// The full matrix: all five applications × all scenarios over
    /// `base`, paper-sized traces.
    #[must_use]
    pub fn paper(base: NetworkPreset) -> Self {
        ScenarioConfig {
            apps: AppKind::ALL.to_vec(),
            scenarios: Scenario::ALL.to_vec(),
            base,
            candidates: DdtKind::ALL.to_vec(),
            packets_per_sim: 400,
            params: AppParams::default(),
            mem: MemoryConfig::embedded_default(),
        }
    }

    /// A reduced matrix for tests and examples.
    #[must_use]
    pub fn quick(base: NetworkPreset) -> Self {
        let params = AppParams {
            route_table_size: 48,
            firewall_rules: 16,
            table_cap: 24,
            ..AppParams::default()
        };
        ScenarioConfig {
            packets_per_sim: 80,
            params,
            ..Self::paper(base)
        }
    }

    /// Number of matrix cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.apps.len() * self.scenarios.len()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidConfig`] describing the first
    /// problem.
    pub fn validate(&self) -> Result<(), ExploreError> {
        if self.apps.is_empty() {
            return Err(ExploreError::InvalidConfig(
                "at least one application is required".into(),
            ));
        }
        if self.scenarios.is_empty() {
            return Err(ExploreError::InvalidConfig(
                "at least one scenario is required".into(),
            ));
        }
        crate::config::validate_candidates(&self.candidates)?;
        if self.packets_per_sim == 0 {
            return Err(ExploreError::InvalidConfig(
                "packets_per_sim must be non-zero".into(),
            ));
        }
        self.params
            .validate()
            .map_err(ExploreError::InvalidConfig)?;
        self.mem.validate().map_err(ExploreError::InvalidConfig)?;
        Ok(())
    }
}

/// One matrix cell: the Pareto front of one application under one
/// scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioCell {
    /// Application of this cell.
    pub app: AppKind,
    /// Scenario of this cell.
    pub scenario: Scenario,
    /// Scenario-qualified network name (e.g. `"BWY-I#flash-crowd"`).
    pub network: String,
    /// Combinations evaluated for this cell (answered from the engine's
    /// cache or executed — see the engine's stats for the split).
    pub evaluations: usize,
    /// The cell's Pareto-optimal logs, in canonical combination order.
    pub front: Vec<SimLog>,
}

impl ScenarioCell {
    /// Labels of the front combinations, in order.
    #[must_use]
    pub fn front_labels(&self) -> Vec<String> {
        self.front.iter().map(|l| l.combo.clone()).collect()
    }
}

/// Result of a scenario-matrix run: one cell per (application, scenario).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioMatrix {
    /// The configuration explored.
    pub config: ScenarioConfig,
    /// The cells, in `apps × scenarios` order.
    pub cells: Vec<ScenarioCell>,
}

impl ScenarioMatrix {
    /// The cell of one (application, scenario) pair, if present.
    #[must_use]
    pub fn cell(&self, app: AppKind, scenario: Scenario) -> Option<&ScenarioCell> {
        self.cells
            .iter()
            .find(|c| c.app == app && c.scenario == scenario)
    }

    /// Total combinations evaluated across all cells (cache hits
    /// included; the engine's stats report how many actually executed).
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.cells.iter().map(|c| c.evaluations).sum()
    }
}

/// Runs the application × scenario matrix on an explicit engine: every
/// cell streams its scenario workload through one engine batch (parallel
/// across `--jobs` workers, cached by the scenario's [`StreamSpec`]
/// description) and is pruned to its Pareto front.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] when the configuration fails
/// validation.
///
/// # Example
///
/// ```
/// use ddtr_core::{explore_scenarios_with, ExploreEngine, ScenarioConfig};
/// use ddtr_apps::AppKind;
/// use ddtr_trace::{NetworkPreset, Scenario};
///
/// let mut cfg = ScenarioConfig::quick(NetworkPreset::DartmouthBerry);
/// cfg.apps = vec![AppKind::Drr];
/// cfg.scenarios = vec![Scenario::Baseline, Scenario::DdosSyn];
/// let matrix = explore_scenarios_with(&mut ExploreEngine::in_memory(), &cfg)?;
/// assert_eq!(matrix.cells.len(), 2);
/// assert!(matrix.cells.iter().all(|c| !c.front.is_empty()));
/// # Ok::<(), ddtr_core::ExploreError>(())
/// ```
pub fn explore_scenarios_with(
    engine: &mut ExploreEngine,
    cfg: &ScenarioConfig,
) -> Result<ScenarioMatrix, ExploreError> {
    cfg.validate()?;
    let combos = combos_from(&cfg.candidates);
    let mut cells = Vec::with_capacity(cfg.cells());
    for &app in &cfg.apps {
        for &scenario in &cfg.scenarios {
            let spec: StreamSpec = scenario.stream_spec(cfg.base, cfg.packets_per_sim);
            let fp = fingerprint_stream_spec(&spec);
            let units: Vec<SimUnit> = combos
                .iter()
                .map(|&combo| {
                    SimUnit::from_source(
                        app,
                        combo,
                        &cfg.params,
                        ddtr_engine::TraceSource::Streamed(&spec),
                        fp,
                        cfg.mem,
                    )
                })
                .collect();
            let logs = engine.try_evaluate_batch(&units)?;
            let points: Vec<[f64; 4]> = logs.iter().map(SimLog::objectives).collect();
            let front: Vec<SimLog> = pareto_front_indices(&points)
                .into_iter()
                .map(|i| logs[i].clone())
                .collect();
            cells.push(ScenarioCell {
                app,
                scenario,
                network: spec.name().to_owned(),
                evaluations: logs.len(),
                front,
            });
        }
    }
    Ok(ScenarioMatrix {
        config: cfg.clone(),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::quick(NetworkPreset::DartmouthBerry);
        cfg.apps = vec![AppKind::Drr, AppKind::Url];
        cfg.scenarios = vec![Scenario::Baseline, Scenario::FlashCrowd, Scenario::DdosSyn];
        cfg.packets_per_sim = 40;
        cfg
    }

    #[test]
    fn matrix_covers_every_cell_with_a_front() {
        let matrix =
            explore_scenarios_with(&mut ExploreEngine::in_memory(), &tiny()).expect("matrix");
        assert_eq!(matrix.cells.len(), 6);
        for cell in &matrix.cells {
            assert_eq!(cell.evaluations, 100, "{}/{}", cell.app, cell.scenario);
            assert!(!cell.front.is_empty(), "{}/{}", cell.app, cell.scenario);
            assert!(
                cell.network.contains('#'),
                "scenario-qualified name: {}",
                cell.network
            );
            for log in &cell.front {
                assert_eq!(log.network, cell.network);
            }
        }
        assert_eq!(matrix.evaluations(), 600);
        assert!(matrix.cell(AppKind::Drr, Scenario::DdosSyn).is_some());
        assert!(matrix.cell(AppKind::Route, Scenario::Baseline).is_none());
    }

    #[test]
    fn scenarios_shift_the_measured_costs() {
        // The point of the matrix: the same app must measure differently
        // under different traffic regimes.
        let mut cfg = tiny();
        cfg.apps = vec![AppKind::Drr];
        let matrix = explore_scenarios_with(&mut ExploreEngine::in_memory(), &cfg).expect("matrix");
        let accesses = |s: Scenario| {
            matrix
                .cell(AppKind::Drr, s)
                .expect("cell")
                .front
                .first()
                .expect("front")
                .report
                .accesses
        };
        assert_ne!(accesses(Scenario::Baseline), accesses(Scenario::DdosSyn));
    }

    #[test]
    fn matrix_is_deterministic_at_any_worker_count() {
        let cfg = tiny();
        let a = explore_scenarios_with(&mut ExploreEngine::with_jobs(1), &cfg).expect("1 job");
        let b = explore_scenarios_with(&mut ExploreEngine::with_jobs(8), &cfg).expect("8 jobs");
        assert_eq!(
            serde_json::to_string(&a.cells).expect("ser"),
            serde_json::to_string(&b.cells).expect("ser"),
        );
    }

    #[test]
    fn warm_engine_replays_the_matrix_from_cache() {
        let cfg = tiny();
        let mut engine = ExploreEngine::in_memory();
        let first = explore_scenarios_with(&mut engine, &cfg).expect("cold");
        let executed = engine.stats().misses;
        assert!(executed > 0);
        let second = explore_scenarios_with(&mut engine, &cfg).expect("warm");
        assert_eq!(engine.stats().misses, executed, "warm run executes nothing");
        assert_eq!(
            serde_json::to_string(&first.cells).expect("ser"),
            serde_json::to_string(&second.cells).expect("ser"),
        );
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = tiny();
        cfg.apps.clear();
        assert!(explore_scenarios_with(&mut ExploreEngine::in_memory(), &cfg).is_err());
        let mut cfg = tiny();
        cfg.scenarios.clear();
        assert!(explore_scenarios_with(&mut ExploreEngine::in_memory(), &cfg).is_err());
        let mut cfg = tiny();
        cfg.candidates.truncate(1);
        assert!(explore_scenarios_with(&mut ExploreEngine::in_memory(), &cfg).is_err());
        let mut cfg = tiny();
        cfg.packets_per_sim = 0;
        assert!(explore_scenarios_with(&mut ExploreEngine::in_memory(), &cfg).is_err());
    }
}
