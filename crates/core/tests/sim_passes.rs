//! `engine.sim.passes` counts simulation passes and `engine.sim.executed`
//! counts units, so a sweep whose presets share lanes runs fewer passes
//! than units. This binary holds one test, because the counters are
//! process-global.

use ddtr_core::{explore_sweep_with, ExploreEngine, SweepConfig};
use ddtr_mem::MemoryPreset;
use ddtr_trace::NetworkPreset;

#[test]
fn an_embedded_and_l2_sweep_runs_one_pass_per_two_units() {
    let mut cfg = SweepConfig::quick(NetworkPreset::DartmouthBerry);
    cfg.packets_per_sim = 40;
    assert_eq!(cfg.mem_presets, [MemoryPreset::Embedded, MemoryPreset::L2]);
    let count = |name: &str| {
        ddtr_obs::snapshot()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    };
    let (executed, passes) = (count("engine.sim.executed"), count("engine.sim.passes"));
    let mut engine = ExploreEngine::with_jobs(2);
    let matrix = explore_sweep_with(&mut engine, &cfg).expect("sweep");
    let executed = count("engine.sim.executed") - executed;
    let passes = count("engine.sim.passes") - passes;
    assert_eq!(executed, matrix.evaluations() as u64);
    assert_eq!(
        executed, 400,
        "1 app x 2 scenarios x 2 presets x 100 combinations"
    );
    assert_eq!(passes, 200, "embedded and l2 share every pass");
    assert_eq!(engine.stats().misses, 400);
}
