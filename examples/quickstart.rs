//! Quickstart: run the three-step DDT refinement methodology on one
//! application and pick a design point.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

use ddtr::apps::AppKind;
use ddtr::core::{headline_comparison, ExploreEngine, Methodology, MethodologyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Explore the deficit-round-robin scheduler with a reduced (quick)
    // sweep; use `MethodologyConfig::paper` for the full paper-sized one.
    // One engine runs the exploration and the headline's baseline, so the
    // baseline reuses what the exploration already simulated.
    let cfg = MethodologyConfig::quick(AppKind::Drr);
    let mut engine = ExploreEngine::in_memory();
    let outcome = Methodology::new(cfg.clone()).run_with(&mut engine)?;

    println!("== step 1: application-level exploration ==");
    println!(
        "simulated {} DDT combinations on {}, kept {} ({:.0}% pruned)",
        outcome.step1.measurements.len(),
        cfg.reference_network,
        outcome.step1.survivors.len(),
        outcome.step1.pruned_fraction() * 100.0
    );

    println!("\n== step 2: network-level exploration ==");
    for config in &outcome.step2.configs {
        println!(
            "{}: {} nodes, {:.0} pps, MTU {}",
            config.network,
            config.extracted.nodes_observed,
            config.extracted.throughput_pps,
            config.extracted.mtu_bytes
        );
    }

    println!("\n== step 3: Pareto-optimal design points ==");
    for point in &outcome.pareto.global_front {
        println!("  {:20} {}", point.combo, point.report);
    }

    let headline = headline_comparison(&mut engine, &cfg, &outcome)?;
    println!(
        "\nversus the original SLL implementation: {:.0}% energy saving, {:.0}% faster",
        headline.energy_saving() * 100.0,
        headline.time_improvement() * 100.0
    );
    Ok(())
}
