//! Regenerates **Table 2** of the paper: "Trade-offs achieved among
//! Pareto-optimal points".
//!
//! Run with `cargo run -p ddtr_bench --bin table2 --release`.

use ddtr_apps::AppKind;
use ddtr_bench::{paper_outcome, vs_paper, PAPER_TABLE2};
use ddtr_core::tradeoff_percentages;

fn main() {
    println!("Table 2 — Trade-offs among Pareto-optimal points (measured vs paper)\n");
    println!(
        "| {:14} | {:>16} | {:>16} | {:>16} | {:>16} |",
        "Application", "Energy", "Exec. Time", "Mem. Accesses", "Mem. Footprint"
    );
    println!(
        "|{}|{}|{}|{}|{}|",
        "-".repeat(16),
        "-".repeat(18),
        "-".repeat(18),
        "-".repeat(18),
        "-".repeat(18)
    );
    for (i, app) in AppKind::ALL.iter().enumerate() {
        let outcome = paper_outcome(*app).expect("paper exploration runs");
        let [e, t, a, f] = tradeoff_percentages(&outcome);
        let (_, pe, pt, pa, pf) = PAPER_TABLE2[i];
        println!(
            "| {:14} | {:>16} | {:>16} | {:>16} | {:>16} |",
            format!("{}. {app}", i + 1),
            vs_paper(format!("{e}%"), format!("{pe}%")),
            vs_paper(format!("{t}%"), format!("{pt}%")),
            vs_paper(format!("{a}%"), format!("{pa}%")),
            vs_paper(format!("{f}%"), format!("{pf}%")),
        );
    }
    println!("\nShape check: every metric offers a substantial (tens of percent)");
    println!("spread along the front, so the designer has real trade-offs to");
    println!("choose from in all four dimensions, as in the paper.");
}
