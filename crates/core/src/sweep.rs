//! The scenarios × platforms sweep: one run over the whole platform
//! family.
//!
//! The scenario matrix ([`crate::scenarios`]) varies *what the network is
//! going through*; this module adds the orthogonal axis the paper's
//! methodology is actually parameterised by — *which platform the
//! application runs on*. A sweep evaluates every (application, scenario,
//! memory preset) cell to its Pareto front and then answers the
//! cross-platform question directly: **which DDT combinations stay
//! Pareto-optimal across the platform family?** ([`SweepMatrix::survivors`]).
//!
//! Everything streams through the engine, and because the engine's
//! [`CacheKey`](ddtr_engine::CacheKey) fingerprints the memory
//! configuration, sweep cells are individually reusable: a repeated sweep
//! executes nothing, and adding one platform column re-executes only that
//! column (both test-enforced).

use crate::error::ExploreError;
use ddtr_apps::{AppKind, AppParams};
use ddtr_ddt::DdtKind;
use ddtr_engine::{combos_from, fingerprint_stream_spec, ExploreEngine, SimLog, SimUnit};
use ddtr_mem::MemoryPreset;
use ddtr_pareto::pareto_front_indices;
use ddtr_trace::{NetworkPreset, Scenario, StreamSpec};
use serde::{Deserialize, Serialize};

/// Configuration of one scenarios × platforms sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Applications forming the matrix rows.
    pub apps: Vec<AppKind>,
    /// Scenarios forming the workload axis.
    pub scenarios: Vec<Scenario>,
    /// Memory presets forming the platform axis.
    pub mem_presets: Vec<MemoryPreset>,
    /// Base network preset every scenario is derived from.
    pub base: NetworkPreset,
    /// The DDT candidate set explored per cell.
    pub candidates: Vec<DdtKind>,
    /// Packets streamed per simulation.
    pub packets_per_sim: usize,
    /// Application parameters of the runs.
    pub params: AppParams,
}

impl SweepConfig {
    /// The full sweep: all four paper applications × all scenarios × the
    /// whole platform catalog, paper-sized traces.
    #[must_use]
    pub fn paper(base: NetworkPreset) -> Self {
        SweepConfig {
            apps: AppKind::ALL.to_vec(),
            scenarios: Scenario::ALL.to_vec(),
            mem_presets: MemoryPreset::ALL.to_vec(),
            base,
            candidates: DdtKind::ALL.to_vec(),
            packets_per_sim: 400,
            params: AppParams::default(),
        }
    }

    /// A reduced sweep for tests and examples: one app row, two
    /// scenarios, two platforms, short traces.
    #[must_use]
    pub fn quick(base: NetworkPreset) -> Self {
        let params = AppParams {
            route_table_size: 48,
            firewall_rules: 16,
            table_cap: 24,
            ..AppParams::default()
        };
        SweepConfig {
            apps: vec![AppKind::Drr],
            scenarios: vec![Scenario::Baseline, Scenario::FlashCrowd],
            mem_presets: vec![MemoryPreset::Embedded, MemoryPreset::L2],
            packets_per_sim: 80,
            params,
            ..Self::paper(base)
        }
    }

    /// Number of sweep cells (apps × scenarios × presets).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.apps.len() * self.scenarios.len() * self.mem_presets.len()
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
        if self.mem_presets.is_empty() {
            return Err(ExploreError::InvalidConfig(format!(
                "at least one memory preset is required (expected {})",
                MemoryPreset::names()
            )));
        }
        // Duplicates on any axis would silently double-count cells in the
        // survivors aggregation — reject them all.
        fn distinct<T: Ord + Clone>(axis: &[T], what: &str) -> Result<(), ExploreError> {
            let mut seen = axis.to_vec();
            seen.sort();
            seen.dedup();
            if seen.len() != axis.len() {
                return Err(ExploreError::InvalidConfig(format!(
                    "{what} must be distinct (duplicates would double-count sweep cells)"
                )));
            }
            Ok(())
        }
        distinct(&self.mem_presets, "memory presets")?;
        distinct(&self.scenarios, "scenarios")?;
        distinct(&self.apps, "applications")?;
        crate::config::validate_candidates(&self.candidates)?;
        if self.packets_per_sim == 0 {
            return Err(ExploreError::InvalidConfig(
                "packets_per_sim must be non-zero".into(),
            ));
        }
        self.params
            .validate()
            .map_err(ExploreError::InvalidConfig)?;
        for preset in &self.mem_presets {
            preset
                .config()
                .validate()
                .map_err(ExploreError::InvalidConfig)?;
        }
        Ok(())
    }
}

/// One sweep cell: the Pareto front of one application under one scenario
/// on one platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCell {
    /// Application of this cell.
    pub app: AppKind,
    /// Scenario of this cell.
    pub scenario: Scenario,
    /// Platform (memory preset) of this cell.
    pub mem: MemoryPreset,
    /// Scenario-qualified network name (e.g. `"BWY-I#flash-crowd"`).
    pub network: String,
    /// Combinations evaluated for this cell.
    pub evaluations: usize,
    /// The cell's Pareto-optimal logs, in canonical combination order.
    pub front: Vec<SimLog>,
}

impl SweepCell {
    /// Labels of the front combinations, in order.
    #[must_use]
    pub fn front_labels(&self) -> Vec<String> {
        self.front.iter().map(|l| l.combo.clone()).collect()
    }
}

/// Cross-platform standing of one DDT combination: how many sweep cells
/// keep it on their Pareto front.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepSurvivor {
    /// The combination label (e.g. `"AR+SLL(AR)"`).
    pub combo: String,
    /// Cells whose Pareto front contains the combination.
    pub cells_on_front: usize,
}

/// Result of a sweep: one cell per (application, scenario, preset), plus
/// the cross-platform aggregation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepMatrix {
    /// The configuration swept.
    pub config: SweepConfig,
    /// The cells, in `apps × scenarios × presets` order.
    pub cells: Vec<SweepCell>,
    /// Every combination appearing on at least one cell front, with its
    /// cell count — ordered by count (descending), then label.
    pub survivors: Vec<SweepSurvivor>,
}

impl SweepMatrix {
    fn from_cells(config: SweepConfig, cells: Vec<SweepCell>) -> Self {
        let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for cell in &cells {
            for log in &cell.front {
                *counts.entry(log.combo.as_str()).or_insert(0) += 1;
            }
        }
        let mut survivors: Vec<SweepSurvivor> = counts
            .into_iter()
            .map(|(combo, cells_on_front)| SweepSurvivor {
                combo: combo.to_owned(),
                cells_on_front,
            })
            .collect();
        // BTreeMap iteration already ordered by label; a stable sort by
        // descending count keeps the label order within equal counts.
        survivors.sort_by_key(|s| std::cmp::Reverse(s.cells_on_front));
        SweepMatrix {
            config,
            cells,
            survivors,
        }
    }

    /// The cell of one (application, scenario, preset) triple, if present.
    #[must_use]
    pub fn cell(&self, app: AppKind, scenario: Scenario, mem: MemoryPreset) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.app == app && c.scenario == scenario && c.mem == mem)
    }

    /// Total combinations evaluated across all cells (cache hits
    /// included; the engine's stats report how many actually executed).
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.cells.iter().map(|c| c.evaluations).sum()
    }

    /// Labels of the combinations on the Pareto front of **at least `k`**
    /// cells — the "which DDTs survive across the platform family?"
    /// answer. `robust_combos(cells.len())` is the intersection of every
    /// front.
    #[must_use]
    pub fn robust_combos(&self, k: usize) -> Vec<&str> {
        self.survivors
            .iter()
            .filter(|s| s.cells_on_front >= k)
            .map(|s| s.combo.as_str())
            .collect()
    }
}

/// Runs the scenarios × platforms sweep on an explicit engine. See
/// [`explore_sweep_observed`] for the streaming variant the service uses.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] when the configuration fails
/// validation.
///
/// # Example
///
/// ```
/// use ddtr_core::{explore_sweep_with, ExploreEngine, SweepConfig};
/// use ddtr_trace::NetworkPreset;
///
/// let mut cfg = SweepConfig::quick(NetworkPreset::DartmouthBerry);
/// cfg.packets_per_sim = 40;
/// let matrix = explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg)?;
/// assert_eq!(matrix.cells.len(), 4); // 1 app x 2 scenarios x 2 platforms
/// // Some combination survives on every platform cell.
/// assert!(!matrix.robust_combos(matrix.cells.len()).is_empty());
/// # Ok::<(), ddtr_core::ExploreError>(())
/// ```
pub fn explore_sweep_with(
    engine: &mut ExploreEngine,
    cfg: &SweepConfig,
) -> Result<SweepMatrix, ExploreError> {
    explore_sweep_observed(engine, cfg, |_, _, _| {})
}

/// Runs the sweep, invoking `on_cell(&cell, done, total)` after each cell
/// completes — the hook `ddtr serve` streams per-cell progress from.
/// Cells complete in deterministic `apps × scenarios × presets` order.
///
/// Presets whose configurations differ only in the L2 (`embedded`, `l2`
/// and `l2-small`; see [`MemoryConfig::lane_base`]) form a lane group.
/// One engine batch evaluates a group's cells of an (application,
/// scenario) together, so each combination runs once for the whole group
/// and its cells complete together.
///
/// [`MemoryConfig::lane_base`]: ddtr_mem::MemoryConfig::lane_base
///
/// # Errors
///
/// Returns [`ExploreError::InvalidConfig`] when the configuration fails
/// validation, and propagates engine failures (including cancellation).
pub fn explore_sweep_observed(
    engine: &mut ExploreEngine,
    cfg: &SweepConfig,
    mut on_cell: impl FnMut(&SweepCell, usize, usize),
) -> Result<SweepMatrix, ExploreError> {
    cfg.validate()?;
    let combos = combos_from(&cfg.candidates);
    let groups = lane_groups(&cfg.mem_presets);
    let params = &cfg.params;
    let total = cfg.cells();
    let mut cells = Vec::with_capacity(total);
    for &app in &cfg.apps {
        for &scenario in &cfg.scenarios {
            let spec: StreamSpec = scenario.stream_spec(cfg.base, cfg.packets_per_sim);
            let source = ddtr_engine::TraceSource::Streamed(&spec);
            let fp = fingerprint_stream_spec(&spec);
            let mut ready: Vec<Option<SweepCell>> = vec![None; cfg.mem_presets.len()];
            for p in 0..cfg.mem_presets.len() {
                if ready[p].is_none() {
                    // The first unfinished preset leads its lane group.
                    let group = groups
                        .iter()
                        .find(|g| g[0] == p)
                        .expect("an unfinished preset leads its lane group");
                    let _cell_span = ddtr_obs::Span::enter(ddtr_obs::names::CORE_SWEEP_CELL);
                    let units: Vec<SimUnit> = group
                        .iter()
                        .flat_map(|&q| {
                            let mem_cfg = cfg.mem_presets[q].config();
                            combos.iter().map(move |&combo| {
                                SimUnit::from_source(app, combo, params, source, fp, mem_cfg)
                            })
                        })
                        .collect();
                    let logs = engine.try_evaluate_batch(&units)?;
                    for (&q, logs) in group.iter().zip(logs.chunks(combos.len())) {
                        ready[q] = Some(SweepCell {
                            app,
                            scenario,
                            mem: cfg.mem_presets[q],
                            network: spec.name().to_owned(),
                            evaluations: logs.len(),
                            front: front_of(logs),
                        });
                    }
                }
                let cell = ready[p].take().expect("its lane group evaluated the cell");
                on_cell(&cell, cells.len() + 1, total);
                cells.push(cell);
            }
        }
    }
    Ok(SweepMatrix::from_cells(cfg.clone(), cells))
}

/// The presets' lane groups: indices into `presets` of configurations
/// with equal [`MemoryConfig::lane_base`]s, each group in preset order
/// and the groups in the order of their first preset.
///
/// [`MemoryConfig::lane_base`]: ddtr_mem::MemoryConfig::lane_base
fn lane_groups(presets: &[MemoryPreset]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (p, preset) in presets.iter().enumerate() {
        let base = preset.config().lane_base();
        match groups
            .iter_mut()
            .find(|g| presets[g[0]].config().lane_base() == base)
        {
            Some(group) => group.push(p),
            None => groups.push(vec![p]),
        }
    }
    groups
}

/// The Pareto-optimal logs of one cell, in canonical combination order.
fn front_of(logs: &[SimLog]) -> Vec<SimLog> {
    let points: Vec<[f64; 4]> = logs.iter().map(SimLog::objectives).collect();
    pareto_front_indices(&points)
        .into_iter()
        .map(|i| logs[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddtr_engine::EngineSession;

    fn tiny() -> SweepConfig {
        let mut cfg = SweepConfig::quick(NetworkPreset::DartmouthBerry);
        cfg.packets_per_sim = 40;
        cfg
    }

    #[test]
    fn sweep_covers_every_cell_and_aggregates_survivors() {
        let mut cfg = tiny();
        cfg.apps = vec![AppKind::Drr, AppKind::Url];
        let matrix = explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg).expect("sweep");
        assert_eq!(matrix.cells.len(), 8, "2 apps x 2 scenarios x 2 presets");
        assert_eq!(matrix.evaluations(), 8 * 100);
        for cell in &matrix.cells {
            assert!(
                !cell.front.is_empty(),
                "{}/{}/{}",
                cell.app,
                cell.scenario,
                cell.mem
            );
            assert!(cell.network.contains('#'));
        }
        assert!(matrix
            .cell(AppKind::Drr, Scenario::Baseline, MemoryPreset::L2)
            .is_some());
        assert!(matrix
            .cell(AppKind::Drr, Scenario::Baseline, MemoryPreset::Deep)
            .is_none());
        // Survivor counts are consistent with the cells.
        let total_front_entries: usize = matrix.cells.iter().map(|c| c.front.len()).sum();
        assert_eq!(
            matrix
                .survivors
                .iter()
                .map(|s| s.cells_on_front)
                .sum::<usize>(),
            total_front_entries
        );
        // Ordered by count descending.
        assert!(matrix
            .survivors
            .windows(2)
            .all(|w| w[0].cells_on_front >= w[1].cells_on_front));
        // robust_combos(1) lists everything; the intersection is a subset.
        assert_eq!(matrix.robust_combos(1).len(), matrix.survivors.len());
        assert!(matrix.robust_combos(matrix.cells.len()).len() <= matrix.survivors.len());
    }

    #[test]
    fn platforms_shift_the_measured_costs() {
        // The point of the axis: the same (app, scenario) must measure
        // differently on different platforms.
        let matrix = explore_sweep_with(&mut ExploreEngine::in_memory(), &tiny()).expect("sweep");
        let cycles = |mem: MemoryPreset| {
            matrix
                .cell(AppKind::Drr, Scenario::Baseline, mem)
                .expect("cell")
                .front
                .first()
                .expect("front")
                .report
                .cycles
        };
        assert_ne!(cycles(MemoryPreset::Embedded), cycles(MemoryPreset::L2));
    }

    #[test]
    fn sweep_is_deterministic_at_any_worker_count() {
        let cfg = tiny();
        let a = explore_sweep_with(&mut ExploreEngine::with_jobs(1), &cfg).expect("1 job");
        let b = explore_sweep_with(&mut ExploreEngine::with_jobs(8), &cfg).expect("8 jobs");
        assert_eq!(
            serde_json::to_string(&a.cells).expect("ser"),
            serde_json::to_string(&b.cells).expect("ser"),
        );
        assert_eq!(
            serde_json::to_string(&a.survivors).expect("ser"),
            serde_json::to_string(&b.survivors).expect("ser"),
        );
    }

    #[test]
    fn repeated_sweep_executes_nothing_and_a_new_preset_only_its_column() {
        // Through the session — the resident-service shape — so the
        // counters are per-request-exact.
        let session = EngineSession::new(ddtr_engine::EngineConfig::with_jobs(2)).expect("session");
        let cfg = tiny();

        let mut cold = session.engine();
        let first = explore_sweep_with(&mut cold, &cfg).expect("cold");
        let cold_executed = cold.control().progress().executed;
        assert_eq!(cold_executed, 4 * 100, "every cell simulates");

        // Identical sweep: 0 executions, byte-identical matrix.
        let mut warm = session.engine();
        let second = explore_sweep_with(&mut warm, &cfg).expect("warm");
        let warm_progress = warm.control().progress();
        assert_eq!(warm_progress.executed, 0, "warm sweep executes nothing");
        assert_eq!(warm_progress.hits, 4 * 100);
        assert_eq!(
            serde_json::to_string(&first.cells).expect("ser"),
            serde_json::to_string(&second.cells).expect("ser"),
        );

        // Swap one platform column: only that column's cells execute.
        let mut wider = cfg.clone();
        wider.mem_presets = vec![MemoryPreset::Embedded, MemoryPreset::L2, MemoryPreset::Deep];
        let mut column = session.engine();
        explore_sweep_with(&mut column, &wider).expect("new column");
        let progress = column.control().progress();
        assert_eq!(
            progress.executed,
            2 * 100,
            "only the new preset's column (1 app x 2 scenarios) executes"
        );
        assert_eq!(progress.hits, 4 * 100, "the old columns replay from cache");
    }

    #[test]
    fn observer_sees_every_cell_in_order() {
        let mut seen = Vec::new();
        let matrix = explore_sweep_observed(
            &mut ExploreEngine::in_memory(),
            &tiny(),
            |cell, done, total| {
                seen.push((cell.app, cell.scenario, cell.mem, done, total));
            },
        )
        .expect("sweep");
        assert_eq!(seen.len(), matrix.cells.len());
        for (i, (app, scenario, mem, done, total)) in seen.iter().enumerate() {
            assert_eq!(*done, i + 1);
            assert_eq!(*total, matrix.cells.len());
            let cell = &matrix.cells[i];
            assert_eq!((cell.app, cell.scenario, cell.mem), (*app, *scenario, *mem));
        }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = tiny();
        cfg.apps.clear();
        assert!(explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg).is_err());
        let mut cfg = tiny();
        cfg.scenarios.clear();
        assert!(explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg).is_err());
        let mut cfg = tiny();
        cfg.mem_presets.clear();
        let err = explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg)
            .unwrap_err()
            .to_string();
        assert!(err.contains("embedded"), "lists the catalog: {err}");
        let mut cfg = tiny();
        cfg.mem_presets = vec![MemoryPreset::L2, MemoryPreset::L2];
        let err = explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg)
            .unwrap_err()
            .to_string();
        assert!(err.contains("distinct"), "{err}");
        // Duplicates on the other axes would double-count survivors too.
        let mut cfg = tiny();
        cfg.scenarios = vec![Scenario::Baseline, Scenario::Baseline];
        let err = explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg)
            .unwrap_err()
            .to_string();
        assert!(err.contains("distinct"), "{err}");
        let mut cfg = tiny();
        cfg.apps = vec![AppKind::Drr, AppKind::Drr];
        let err = explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg)
            .unwrap_err()
            .to_string();
        assert!(err.contains("distinct"), "{err}");
        let mut cfg = tiny();
        cfg.candidates.truncate(1);
        assert!(explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg).is_err());
        let mut cfg = tiny();
        cfg.packets_per_sim = 0;
        assert!(explore_sweep_with(&mut ExploreEngine::in_memory(), &cfg).is_err());
    }

    #[test]
    fn sweep_matrix_serialises_round_trip() {
        let matrix = explore_sweep_with(&mut ExploreEngine::in_memory(), &tiny()).expect("sweep");
        let json = serde_json::to_string(&matrix).expect("ser");
        let back: SweepMatrix = serde_json::from_str(&json).expect("de");
        assert_eq!(serde_json::to_string(&back).expect("ser"), json);
    }
}
