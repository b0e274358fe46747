//! Regenerates **Figure 4** of the paper: Route Pareto charts —
//! (a) time–energy curves for radix size 128 across seven networks,
//! (b) the radix-256 curve on the Berry trace (`BWY I`) with the
//! highlighted balanced point, and (c) the accesses–footprint chart for
//! the same configuration, plus the §4 "factors versus non-Pareto points"
//! comparison.
//!
//! Run with `cargo run -p ddtr_bench --bin fig4 --release`.

use ddtr_apps::{AppKind, AppParams};
use ddtr_bench::paper_outcome;
use ddtr_core::{
    all_combos, explore_network_level, render_pareto_chart, ConfigKey, MethodologyConfig,
    ParetoChartPlane, SimLog,
};
use ddtr_pareto::curve_2d;
use ddtr_trace::NetworkPreset;

fn main() {
    let outcome = paper_outcome(AppKind::Route).expect("paper exploration runs");

    println!("Figure 4a — Route time-energy Pareto curves, radix 128, 7 networks\n");
    for front in &outcome.pareto.per_config {
        if front.config_key.params != "radix128" {
            continue;
        }
        println!("network {}:", front.config_key);
        let mut pts: Vec<(&str, f64, f64)> = front
            .front
            .iter()
            .map(|p| (p.combo.as_str(), p.report.cycles as f64, p.report.energy_nj))
            .collect();
        pts.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (combo, t, e) in pts {
            println!("  {combo:20} time {t:>9.0} cycles   energy {e:>10.1} nJ");
        }
    }

    // Figures 4b/4c and the factor comparison span the FULL 100-combo
    // space on the Berry radix-256 configuration: the paper compares the
    // Pareto curve against the points off it, which step 1 pruned away.
    let bwy_key = ConfigKey::new("BWY-I", "radix256");
    let mut bwy_cfg = MethodologyConfig::paper(AppKind::Route);
    bwy_cfg.networks = vec![NetworkPreset::DartmouthBerry];
    bwy_cfg.param_variants = AppParams::variants_for(AppKind::Route)
        .into_iter()
        .filter(|p| p.route_table_size == 256)
        .collect();
    let full = explore_network_level(&bwy_cfg, &all_combos()).expect("full sweep runs");
    let logs: Vec<&SimLog> = full.logs_for(&bwy_key);
    println!("\nFigure 4b — time-energy space, radix 256, Berry trace ({bwy_key})\n");
    print!(
        "{}",
        render_pareto_chart(&logs, ParetoChartPlane::TimeEnergy)
    );

    // The paper highlights a balanced Pareto point (AR + DLL in their run):
    // pick the front point minimising the normalised energy+time sum.
    let points: Vec<[f64; 4]> = logs.iter().map(|l| l.objectives()).collect();
    let te: Vec<[f64; 2]> = points.iter().map(|p| [p[1], p[0]]).collect();
    let front = curve_2d(&te, 0, 1);
    let (max_t, max_e) = te
        .iter()
        .fold((f64::MIN, f64::MIN), |(t, e), p| (t.max(p[0]), e.max(p[1])));
    let balanced = front
        .iter()
        .copied()
        .min_by(|&a, &b| {
            let score = |i: usize| te[i][0] / max_t + te[i][1] / max_e;
            score(a).total_cmp(&score(b))
        })
        .expect("front is non-empty");
    println!("\nhighlighted balanced Pareto point (paper run: AR+DLL):");
    println!("  {:20} {}", logs[balanced].combo, logs[balanced].report);

    println!("\nFigure 4c — accesses vs footprint, radix 256, Berry trace\n");
    print!(
        "{}",
        render_pareto_chart(&logs, ParetoChartPlane::AccessesFootprint)
    );

    // §4: "a reduction in memory accesses up to a factor of 8, for memory
    // footprint up to a factor of 12, for dissipated energy up to a factor
    // of 11 and for execution time up to a factor of 2" versus points off
    // the Pareto-optimal curve.
    let front4 = ddtr_pareto::pareto_front_indices(&points);
    let metric_factor = |dim: usize| -> f64 {
        let best_front = front4
            .iter()
            .map(|&i| points[i][dim])
            .fold(f64::INFINITY, f64::min);
        let worst_any = points.iter().map(|p| p[dim]).fold(f64::MIN, f64::max);
        worst_any / best_front
    };
    println!("\nfactors: worst non-Pareto point vs best Pareto point ({bwy_key})");
    println!(
        "  energy    x{:>5.1}   (paper: up to x11)",
        metric_factor(0)
    );
    println!("  time      x{:>5.1}   (paper: up to x2)", metric_factor(1));
    println!("  accesses  x{:>5.1}   (paper: up to x8)", metric_factor(2));
    println!(
        "  footprint x{:>5.1}   (paper: up to x12)",
        metric_factor(3)
    );
}
