//! Regenerates **Table 1** of the paper: "Reduction of total simulations
//! needed to explore the design space".
//!
//! Run with `cargo run -p ddtr_bench --bin table1 --release`.

use ddtr_apps::AppKind;
use ddtr_bench::{paper_outcome, vs_paper, PAPER_TABLE1};

fn main() {
    println!("Table 1 — Reduction of total simulations (measured vs paper)\n");
    println!(
        "| {:20} | {:>24} | {:>24} | {:>16} | {:>10} |",
        "Network application",
        "Exhaustive simulations",
        "Reduced simulations",
        "Pareto optimal",
        "Reduction"
    );
    println!(
        "|{}|{}|{}|{}|{}|",
        "-".repeat(22),
        "-".repeat(26),
        "-".repeat(26),
        "-".repeat(18),
        "-".repeat(12)
    );
    for (i, app) in AppKind::ALL.iter().enumerate() {
        let outcome = paper_outcome(*app).expect("paper exploration runs");
        let (_, p_exh, p_red, p_par) = PAPER_TABLE1[i];
        println!(
            "| {:20} | {:>24} | {:>24} | {:>16} | {:>9.0}% |",
            format!("{}. {app}", i + 1),
            vs_paper(outcome.counts.exhaustive, p_exh),
            vs_paper(outcome.counts.reduced, p_red),
            vs_paper(outcome.counts.pareto_optimal, p_par),
            outcome.counts.reduction() * 100.0,
        );
    }
    println!("\nShape check: exhaustive counts match the paper exactly;");
    println!("reduced counts land in the same ~70-80% reduction band;");
    println!("Pareto sets stay small (single digits).");
}
