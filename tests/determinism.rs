//! Engine determinism regression tests: the exploration outcome is a pure
//! function of the configuration and seed, never of the worker count or of
//! whether results came from the cache.

use ddtr::apps::AppKind;
use ddtr::core::{
    explore_heuristic_with, GaConfig, Methodology, MethodologyConfig, MethodologyOutcome,
};
use ddtr::engine::{EngineConfig, ExploreEngine};

/// The byte-exact identity of a Pareto front: the serialised objective
/// vectors of every global-front point, in order.
fn front_bytes(outcome: &MethodologyOutcome) -> String {
    let objectives: Vec<[f64; 4]> = outcome
        .pareto
        .global_front
        .iter()
        .map(|p| p.report.as_array())
        .collect();
    serde_json::to_string(&objectives).expect("objective vectors serialise")
}

#[test]
fn explore_drr_quick_is_identical_at_1_2_and_8_threads() {
    let cfg = MethodologyConfig::quick(AppKind::Drr);
    let reference = Methodology::new(cfg.clone())
        .run_with(&mut ExploreEngine::with_jobs(1))
        .expect("1-thread explore");
    for jobs in [2usize, 8] {
        let outcome = Methodology::new(cfg.clone())
            .run_with(&mut ExploreEngine::with_jobs(jobs))
            .expect("explore");
        assert_eq!(outcome.engine.jobs, jobs);
        assert_eq!(
            front_bytes(&outcome),
            front_bytes(&reference),
            "global front must be byte-identical at {jobs} threads"
        );
        // Not just the front: every step-2 log must agree.
        let logs = |o: &MethodologyOutcome| serde_json::to_string(&o.step2.logs).expect("logs");
        assert_eq!(logs(&outcome), logs(&reference));
    }
}

#[test]
fn scenario_matrix_is_identical_at_1_2_and_8_threads() {
    use ddtr::core::{explore_scenarios_with, ScenarioConfig};
    use ddtr::trace::{NetworkPreset, Scenario};
    let mut cfg = ScenarioConfig::quick(NetworkPreset::DartmouthBerry);
    cfg.apps = vec![AppKind::Drr];
    cfg.scenarios = vec![Scenario::Bursty, Scenario::PhaseShift];
    cfg.packets_per_sim = 40;
    let reference = explore_scenarios_with(&mut ExploreEngine::with_jobs(1), &cfg)
        .expect("1-thread scenario matrix");
    for jobs in [2usize, 8] {
        let matrix =
            explore_scenarios_with(&mut ExploreEngine::with_jobs(jobs), &cfg).expect("matrix");
        assert_eq!(
            serde_json::to_string(&matrix.cells).expect("ser"),
            serde_json::to_string(&reference.cells).expect("ser"),
            "scenario cells must be byte-identical at {jobs} threads"
        );
    }
}

#[test]
fn warm_disk_cache_replays_the_identical_front() {
    let dir = std::env::temp_dir().join(format!("ddtr-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine_cfg = EngineConfig {
        jobs: 0,
        cache_dir: Some(dir.clone()),
        no_cache: false,
    };
    let cfg = MethodologyConfig::quick(AppKind::Url);
    let cold = Methodology::new(cfg.clone())
        .run_with(&mut ExploreEngine::new(engine_cfg.clone()).expect("cold engine"))
        .expect("cold explore");
    assert!(cold.engine.executed > 0);
    // A brand-new engine over the same directory: everything replays.
    let warm = Methodology::new(cfg)
        .run_with(&mut ExploreEngine::new(engine_cfg).expect("warm engine"))
        .expect("warm explore");
    assert_eq!(warm.engine.executed, 0, "warm run must not simulate");
    assert_eq!(front_bytes(&cold), front_bytes(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ga_front_is_identical_at_any_thread_count() {
    let cfg = GaConfig::quick(AppKind::Drr);
    let reference =
        explore_heuristic_with(&mut ExploreEngine::with_jobs(1), &cfg).expect("1 thread");
    for jobs in [2usize, 8] {
        let outcome =
            explore_heuristic_with(&mut ExploreEngine::with_jobs(jobs), &cfg).expect("ga");
        assert_eq!(outcome.front_labels(), reference.front_labels());
        assert_eq!(outcome.evaluations, reference.evaluations);
        let bytes = |o: &ddtr::core::GaOutcome| {
            serde_json::to_string(&o.front.iter().map(|l| l.objectives()).collect::<Vec<_>>())
                .expect("front serialises")
        };
        assert_eq!(bytes(&outcome), bytes(&reference));
    }
}
