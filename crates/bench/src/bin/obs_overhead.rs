//! Guards the observability overhead: a quick DRR explore with the
//! metrics/span layer recording must stay within 5% of the same explore
//! with recording disabled (`ddtr_obs::set_enabled(false)`).
//!
//! Both variants run `ROUNDS` times and the best (minimum) wall-clock of
//! each is compared — the minimum is the run least disturbed by the
//! host, which is what an overhead bound is about. A small absolute
//! floor keeps sub-millisecond jitter from failing the ratio on very
//! fast hosts. Exits non-zero when the bound is exceeded, so CI can run
//! it directly.
//!
//! Run with `cargo run -p ddtr_bench --bin obs_overhead --release`.

use ddtr_apps::AppKind;
use ddtr_core::{ExploreEngine, Methodology, MethodologyConfig};
use std::process::ExitCode;
use std::time::Instant;

/// Timed runs per variant; the minimum is compared.
const ROUNDS: usize = 5;

/// Allowed instrumented/disabled ratio.
const MAX_RATIO: f64 = 1.05;

/// Absolute slack (seconds) so scheduler jitter on a fast host cannot
/// fail the relative bound on its own.
const ABS_SLACK_SECS: f64 = 0.010;

/// Best-of-[`ROUNDS`] wall-clock of a quick DRR explore on one worker.
fn best_explore_secs() -> f64 {
    let cfg = MethodologyConfig::quick(AppKind::Drr);
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let mut engine = ExploreEngine::with_jobs(1);
        let start = Instant::now();
        let outcome = Methodology::new(cfg.clone())
            .run_with(&mut engine)
            .expect("exploration runs");
        best = best.min(start.elapsed().as_secs_f64());
        assert!(
            !outcome.pareto.global_front.is_empty(),
            "explore produces a front"
        );
    }
    best
}

fn main() -> ExitCode {
    println!("# observability overhead guard\n");

    // Interleaving would let one variant warm caches for the other
    // asymmetrically; instead each variant gets its own contiguous
    // best-of-N block, with the disabled block first as the baseline.
    ddtr_obs::set_enabled(false);
    let disabled = best_explore_secs();
    ddtr_obs::set_enabled(true);
    let enabled = best_explore_secs();

    let ratio = enabled / disabled;
    let bound = (disabled * MAX_RATIO).max(disabled + ABS_SLACK_SECS);
    println!("disabled (baseline) : {disabled:8.4}s  (best of {ROUNDS})");
    println!("enabled             : {enabled:8.4}s  (best of {ROUNDS})");
    println!(
        "ratio               : {ratio:8.4}x  (bound {MAX_RATIO}x or +{:.0}ms)",
        ABS_SLACK_SECS * 1e3
    );
    if enabled <= bound {
        println!("\nOK: instrumentation overhead within bounds");
        ExitCode::SUCCESS
    } else {
        println!("\nFAIL: instrumented explore exceeds the overhead bound");
        ExitCode::FAILURE
    }
}
