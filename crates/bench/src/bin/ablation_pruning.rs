//! Ablation — **pruning fidelity**: does step 1's 80 % pruning ever drop a
//! combination that exhaustive exploration would have placed on the final
//! Pareto front?
//!
//! Run with `cargo run -p ddtr_bench --bin ablation_pruning --release`.

use ddtr_apps::AppKind;
use ddtr_core::{
    all_combos, explore_network_level, explore_pareto_level, Methodology, MethodologyConfig,
};
use std::collections::BTreeSet;

fn main() {
    println!("Ablation — step-1 pruning fidelity (methodology vs exhaustive)\n");
    for app in [
        AppKind::Url,
        AppKind::Drr,
        AppKind::Route,
        AppKind::Ipchains,
    ] {
        let cfg = MethodologyConfig::paper(app);
        // Methodology flow (pruned).
        let outcome = Methodology::new(cfg.clone()).run().expect("pipeline runs");
        let pruned_front: BTreeSet<String> = outcome
            .pareto
            .global_front
            .iter()
            .map(|p| p.combo.clone())
            .collect();
        // Exhaustive flow: all 100 combos through steps 2-3.
        let step2 = explore_network_level(&cfg, &all_combos()).expect("exhaustive step 2");
        let pareto = explore_pareto_level(&step2).expect("exhaustive step 3");
        let full_front: BTreeSet<String> = pareto
            .global_front
            .iter()
            .map(|p| p.combo.clone())
            .collect();
        let missed: Vec<&String> = full_front.difference(&pruned_front).collect();
        let spurious: Vec<&String> = pruned_front.difference(&full_front).collect();
        println!("{app}:");
        println!(
            "  exhaustive front {:2} points | methodology front {:2} points | missed {} | spurious {}",
            full_front.len(),
            pruned_front.len(),
            missed.len(),
            spurious.len(),
        );
        if !missed.is_empty() {
            println!("  missed combos: {missed:?}");
        }
        println!(
            "  simulations: exhaustive {} vs methodology {}",
            100 * cfg.configurations() + 100,
            outcome.counts.reduced
        );
    }
    println!("\nShape check: the methodology's front should recover all (or nearly");
    println!("all) of the exhaustive front at a fraction of the simulations —");
    println!("the paper's premise that step-1 pruning is effectively loss-free.");
}
