//! Regenerates **Figure 3** of the paper: (a) the performance–energy
//! exploration space of URL (all 100 DDT combinations on one
//! configuration) and (b) its Pareto-optimal points.
//!
//! Run with `cargo run -p ddtr_bench --bin fig3 --release`.

use ddtr_apps::AppKind;
use ddtr_core::{explore_application_level, MethodologyConfig};
use ddtr_pareto::{pareto_front_indices, ScatterChart};

fn main() {
    let cfg = MethodologyConfig::paper(AppKind::Url);
    // Figure 3 shows the full application-level space: all 100 combos on
    // the reference configuration (step 1's measurements).
    let step1 = explore_application_level(&cfg).expect("step 1 runs");
    let points: Vec<[f64; 2]> = step1
        .measurements
        .iter()
        .map(|l| [l.report.cycles as f64, l.report.energy_nj])
        .collect();
    println!(
        "Figure 3a — Performance vs Energy Pareto space of URL ({} combos, {} net)\n",
        points.len(),
        cfg.reference_network
    );
    let chart = ScatterChart::new("execution time [cycles]", "energy [nJ]");
    print!("{}", chart.render(&points));

    // The paper's step-3 tool prunes over all four metrics and then plots
    // the surviving points in the time-energy plane; points optimal on
    // accesses or footprint appear slightly off the 2-D hull.
    let points4: Vec<[f64; 4]> = step1.measurements.iter().map(|l| l.objectives()).collect();
    let front4 = pareto_front_indices(&points4);
    println!(
        "\nFigure 3b — Pareto-optimal points over the four metrics ({}):\n",
        front4.len()
    );
    println!(
        "{:20} {:>14} {:>14} {:>12} {:>12}",
        "combo", "time [cycles]", "energy [nJ]", "accesses", "footprint B"
    );
    let mut rows: Vec<_> = front4
        .iter()
        .map(|&i| (&step1.measurements[i].combo, points4[i]))
        .collect();
    rows.sort_by(|a, b| a.1[1].total_cmp(&b.1[1]));
    for (combo, p) in rows {
        println!(
            "{combo:20} {:>14.0} {:>14.1} {:>12.0} {:>12.0}",
            p[1], p[0], p[2], p[3]
        );
    }
    println!("\nCSV (label,time,energy,pareto):");
    let labels: Vec<String> = step1.measurements.iter().map(|l| l.combo.clone()).collect();
    print!("{}", chart.to_csv(&labels, &points));
}
