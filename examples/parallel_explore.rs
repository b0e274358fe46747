//! Walkthrough of the execution engine: run the full methodology on an
//! explicit [`ExploreEngine`] — parallel workers, a persistent result
//! cache, and a warm re-run that answers entirely from disk.
//!
//! ```sh
//! cargo run --example parallel_explore --release
//! ```

use ddtr::apps::AppKind;
use ddtr::core::{Methodology, MethodologyConfig};
use ddtr::engine::{EngineConfig, ExploreEngine};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache_dir = std::env::temp_dir().join("ddtr-parallel-explore-example");
    let _ = std::fs::remove_dir_all(&cache_dir);

    // An engine with one worker per core and a persistent result cache —
    // exactly what `ddtr explore drr --cache-dir <dir>` builds.
    let engine_cfg = EngineConfig {
        jobs: 0, // auto: one worker per available core
        cache_dir: Some(cache_dir.clone()),
        no_cache: false,
    };
    let cfg = MethodologyConfig::quick(AppKind::Drr);

    // Cold run: every simulation executes on the work-stealing pool and is
    // appended to the pile store's `<cache-dir>/seg-*.ddts` segments as it
    // completes.
    let mut cold_engine = ExploreEngine::new(engine_cfg.clone())?;
    println!("cold run on {} workers...", cold_engine.jobs());
    let start = Instant::now();
    let cold = Methodology::new(cfg.clone()).run_with(&mut cold_engine)?;
    let cold_secs = start.elapsed().as_secs_f64();
    println!(
        "  {} simulations executed, {} cache hits, {:.3}s",
        cold.engine.executed, cold.engine.cache_hits, cold_secs
    );

    // Warm run: a brand-new engine (think: a new process, days later) over
    // the same cache directory. Nothing simulates; the Pareto front is
    // byte-identical.
    let mut warm_engine = ExploreEngine::new(engine_cfg)?;
    let start = Instant::now();
    let warm = Methodology::new(cfg).run_with(&mut warm_engine)?;
    let warm_secs = start.elapsed().as_secs_f64();
    println!(
        "warm run: {} executed, {} cache hits, {:.3}s ({:.0}x faster)",
        warm.engine.executed,
        warm.engine.cache_hits,
        warm_secs,
        cold_secs / warm_secs
    );
    assert_eq!(warm.engine.executed, 0);

    let identical = serde_json::to_string(&cold.pareto.global_front)?
        == serde_json::to_string(&warm.pareto.global_front)?;
    println!("fronts byte-identical: {identical}");

    println!("\nglobal Pareto-optimal DDT choices for DRR:");
    for p in &warm.pareto.global_front {
        println!("  {:20} {}", p.combo, p.report);
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
    Ok(())
}
