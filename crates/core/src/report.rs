//! Report formatting: the paper's tables and figure data.

use crate::config::MethodologyConfig;
use crate::pipeline::MethodologyOutcome;
use ddtr_apps::AppKind;
use ddtr_engine::SimLog;
use ddtr_pareto::ScatterChart;
use std::fmt::{Display, Write as _};

/// Which 2-D plane of the four metrics a chart shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParetoChartPlane {
    /// Execution time (x) versus energy (y) — Figures 3, 4a, 4b.
    TimeEnergy,
    /// Memory accesses (x) versus memory footprint (y) — Figure 4c.
    AccessesFootprint,
}

impl ParetoChartPlane {
    /// Metric indices (into `[energy, time, accesses, footprint]`) of the
    /// x and y axes.
    #[must_use]
    pub fn dims(self) -> (usize, usize) {
        match self {
            ParetoChartPlane::TimeEnergy => (1, 0),
            ParetoChartPlane::AccessesFootprint => (2, 3),
        }
    }

    /// Axis labels.
    #[must_use]
    pub fn labels(self) -> (&'static str, &'static str) {
        match self {
            ParetoChartPlane::TimeEnergy => ("execution time [cycles]", "energy [nJ]"),
            ParetoChartPlane::AccessesFootprint => ("memory accesses", "memory footprint [bytes]"),
        }
    }
}

/// Renders one configuration's exploration space in the requested plane as
/// an ASCII scatter chart (Pareto points highlighted), exactly what the
/// paper's post-processing tool draws from the log files.
#[must_use]
pub fn render_pareto_chart(logs: &[&SimLog], plane: ParetoChartPlane) -> String {
    let (x, y) = plane.dims();
    let (xl, yl) = plane.labels();
    let points: Vec<[f64; 2]> = logs
        .iter()
        .map(|l| {
            let o = l.objectives();
            [o[x], o[y]]
        })
        .collect();
    ScatterChart::new(xl, yl).render(&points)
}

/// The paper's Table 1 per application: exhaustive simulations, reduced
/// simulations and Pareto-optimal points.
pub const PAPER_TABLE1: [(AppKind, [usize; 3]); 4] = [
    (AppKind::Route, [1400, 271, 7]),
    (AppKind::Url, [500, 110, 4]),
    (AppKind::Ipchains, [2100, 546, 6]),
    (AppKind::Drr, [500, 60, 3]),
];

/// The paper's Table 2 per application: energy, time, accesses and
/// footprint trade-offs in percent.
pub const PAPER_TABLE2: [(AppKind, [u32; 4]); 4] = [
    (AppKind::Route, [90, 20, 88, 30]),
    (AppKind::Url, [52, 13, 70, 82]),
    (AppKind::Ipchains, [38, 3, 87, 63]),
    (AppKind::Drr, [93, 48, 53, 80]),
];

/// The Markdown cells of `outcome`'s `measured` values, each followed by
/// the paper's value when `outcome` ran [`MethodologyConfig::paper`] of an
/// application `paper` has a row for. Any other configuration (quick,
/// another platform, extended candidates) explores a different space, so
/// the paper's value beside it would compare unlike runs.
fn paper_cells<T: Display, const N: usize>(
    outcome: &MethodologyOutcome,
    measured: [T; N],
    paper: &[(AppKind, [T; N])],
    unit: &str,
) -> String {
    let app = outcome.config.app;
    let paper = paper
        .iter()
        .find(|row| row.0 == app && outcome.config == MethodologyConfig::paper(app))
        .map(|row| &row.1);
    let cells = measured.iter().enumerate().map(|(i, m)| match paper {
        Some(p) => format!("{m}{unit} (paper: {}{unit})", p[i]),
        None => format!("{m}{unit}"),
    });
    cells.collect::<Vec<_>>().join(" | ")
}

/// The paper's Table 1 ("Reduction of total simulations needed to explore
/// the design space") in Markdown, one row per outcome, with the paper's
/// counts beside the measured ones for the paper-sized runs of the
/// applications it reports.
#[must_use]
pub fn table1_markdown(outcomes: &[&MethodologyOutcome]) -> String {
    let mut out = String::from(
        "| Network application | Exhaustive simulations | Reduced simulations | Pareto optimal | Reduction |\n|---|---|---|---|---|\n",
    );
    for o in outcomes {
        let (app, c) = (o.config.app, &o.counts);
        let counts = [c.exhaustive, c.reduced, c.pareto_optimal];
        let cells = paper_cells(o, counts, &PAPER_TABLE1, "");
        let _ = writeln!(out, "| {app} | {cells} | {:.0}% |", c.reduction() * 100.0);
    }
    out
}

/// The percentage trade-offs of one outcome, in the paper's Table 2 metric
/// order `[energy, time, accesses, footprint]`.
#[must_use]
pub fn tradeoff_percentages(outcome: &MethodologyOutcome) -> [u32; 4] {
    let mut out = [0u32; 4];
    for (i, r) in outcome.pareto.tradeoffs.iter().take(4).enumerate() {
        out[i] = r.spread_percent();
    }
    out
}

/// The paper's Table 2 ("Trade-offs achieved among Pareto-optimal points")
/// in Markdown, with the paper's percentages beside the measured ones for
/// the paper-sized runs of the applications it reports.
#[must_use]
pub fn table2_markdown(outcomes: &[&MethodologyOutcome]) -> String {
    let mut out = String::from(
        "| Application | Energy | Exec. Time | Mem. Accesses | Mem. Footprint |\n|---|---|---|---|---|\n",
    );
    for o in outcomes {
        let cells = paper_cells(o, tradeoff_percentages(o), &PAPER_TABLE2, "%");
        let _ = writeln!(out, "| {} | {cells} |", o.config.app);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MethodologyConfig;
    use crate::pipeline::Methodology;

    fn outcome() -> MethodologyOutcome {
        Methodology::new(MethodologyConfig::quick(AppKind::Drr))
            .run()
            .expect("pipeline")
    }

    #[test]
    fn tables_render_markdown() {
        let quick = outcome();
        let t1 = table1_markdown(&[&quick]);
        assert!(t1.contains("Exhaustive"));
        assert!(t1.contains("| DRR | 200 | "), "{t1}");
        let t2 = table2_markdown(&[&quick]);
        assert!(t2.contains("| DRR | "), "{t2}");
        assert!(!t1.contains("paper") && !t2.contains("paper"), "{t1}{t2}");
        // The same outcome labelled paper-sized gets the paper's cells;
        // NAT has none to get.
        let mut paper = quick;
        paper.config = MethodologyConfig::paper(AppKind::Drr);
        let mut nat = Methodology::new(MethodologyConfig::quick(AppKind::Nat))
            .run()
            .expect("pipeline");
        nat.config = MethodologyConfig::paper(AppKind::Nat);
        let t1 = table1_markdown(&[&paper, &nat]);
        assert!(t1.contains("| DRR | 200 (paper: 500) |"), "{t1}");
        assert!(t1.contains("| NAT | 200 | "), "{t1}");
        let t2 = table2_markdown(&[&paper, &nat]);
        assert!(t2.contains("% (paper: 93%) |"), "{t2}");
        let nat_row = t2
            .lines()
            .find(|l| l.starts_with("| NAT |"))
            .expect("NAT row");
        assert!(!nat_row.contains("paper"), "{nat_row}");
    }

    #[test]
    fn paper_constants_cover_all_apps() {
        for app in AppKind::ALL {
            assert!(PAPER_TABLE1.iter().any(|r| r.0 == app));
            assert!(PAPER_TABLE2.iter().any(|r| r.0 == app));
        }
    }

    #[test]
    fn chart_renders_both_planes() {
        let o = outcome();
        let key = o.step2.logs[0].config_key();
        let logs = o.step2.logs_for(&key);
        for plane in [
            ParetoChartPlane::TimeEnergy,
            ParetoChartPlane::AccessesFootprint,
        ] {
            let chart = render_pareto_chart(&logs, plane);
            assert!(chart.contains('o'), "chart must mark Pareto points");
        }
    }

    #[test]
    fn plane_dims_are_consistent_with_labels() {
        assert_eq!(ParetoChartPlane::TimeEnergy.dims(), (1, 0));
        assert_eq!(ParetoChartPlane::AccessesFootprint.dims(), (2, 3));
        assert!(ParetoChartPlane::TimeEnergy.labels().1.contains("energy"));
    }

    #[test]
    fn tradeoff_percentages_are_bounded() {
        let o = outcome();
        for p in tradeoff_percentages(&o) {
            assert!(p <= 100);
        }
    }
}
