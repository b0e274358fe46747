//! ASCII scatter charts and CSV emission for the paper's figures.

use crate::front::pareto_front_indices;
use std::fmt::Write as _;

/// Renders 2-D exploration spaces the way the paper's post-processing tool
/// does: every simulated DDT combination as a point, the Pareto-optimal
/// ones highlighted, plus a CSV emitter for external plotting.
///
/// # Example
///
/// ```
/// use ddtr_pareto::ScatterChart;
///
/// let chart = ScatterChart::new("time [cycles]", "energy [nJ]")
///     .with_size(40, 12);
/// let points = vec![[1.0, 8.0], [4.0, 4.0], [8.0, 1.0], [8.0, 8.0]];
/// let text = chart.render(&points);
/// assert!(text.contains('o'));      // Pareto point marker
/// assert!(text.contains("energy")); // axis label
/// ```
#[derive(Debug, Clone)]
pub struct ScatterChart {
    x_label: String,
    y_label: String,
    width: usize,
    height: usize,
}

impl ScatterChart {
    /// Creates a chart with the given axis labels and a default 60x20 grid.
    #[must_use]
    pub fn new(x_label: impl Into<String>, y_label: impl Into<String>) -> Self {
        ScatterChart {
            x_label: x_label.into(),
            y_label: y_label.into(),
            width: 60,
            height: 20,
        }
    }

    /// Overrides the grid size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is smaller than 2.
    #[must_use]
    pub fn with_size(mut self, width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "chart grid too small");
        self.width = width;
        self.height = height;
        self
    }

    /// Renders the points: `.` for dominated combinations, `o` for
    /// Pareto-optimal ones (in the 2-D plane shown). Returns a printable
    /// multi-line string; empty input yields a note instead of a chart.
    #[must_use]
    pub fn render(&self, points: &[[f64; 2]]) -> String {
        if points.is_empty() {
            return format!("(no points: {} vs {})\n", self.y_label, self.x_label);
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in points {
            min_x = min_x.min(p[0]);
            max_x = max_x.max(p[0]);
            min_y = min_y.min(p[1]);
            max_y = max_y.max(p[1]);
        }
        let span_x = (max_x - min_x).max(f64::MIN_POSITIVE);
        let span_y = (max_y - min_y).max(f64::MIN_POSITIVE);
        let mut grid = vec![vec![' '; self.width]; self.height];
        let front: std::collections::BTreeSet<usize> =
            pareto_front_indices(points).into_iter().collect();
        // Plot dominated points first so front markers overwrite them.
        for pass in 0..2 {
            for (i, p) in points.iter().enumerate() {
                let is_front = front.contains(&i);
                if (pass == 0) == is_front {
                    continue;
                }
                let cx = (((p[0] - min_x) / span_x) * (self.width - 1) as f64).round() as usize;
                let cy = (((p[1] - min_y) / span_y) * (self.height - 1) as f64).round() as usize;
                // y axis grows upward
                grid[self.height - 1 - cy][cx] = if is_front { 'o' } else { '.' };
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} (min {:.3}, max {:.3})", self.y_label, min_y, max_y);
        for row in &grid {
            let _ = writeln!(out, "|{}", row.iter().collect::<String>().trim_end());
        }
        let _ = writeln!(out, "+{}", "-".repeat(self.width));
        let _ = writeln!(
            out,
            " {} (min {:.3}, max {:.3})   [o = Pareto-optimal, . = dominated]",
            self.x_label, min_x, max_x
        );
        out
    }

    /// Emits `label,x,y,pareto` CSV rows for external plotting, one per
    /// point, labels supplied by the caller.
    ///
    /// # Panics
    ///
    /// Panics if `labels` and `points` have different lengths.
    #[must_use]
    pub fn to_csv(&self, labels: &[String], points: &[[f64; 2]]) -> String {
        assert_eq!(labels.len(), points.len(), "one label per point");
        let front: std::collections::BTreeSet<usize> =
            pareto_front_indices(points).into_iter().collect();
        let mut out = format!("label,{},{},pareto\n", self.x_label, self.y_label);
        for (i, (label, p)) in labels.iter().zip(points.iter()).enumerate() {
            let _ = writeln!(
                out,
                "{label},{},{},{}",
                p[0],
                p[1],
                u8::from(front.contains(&i))
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> ScatterChart {
        ScatterChart::new("x", "y").with_size(20, 10)
    }

    #[test]
    fn empty_input_renders_note() {
        let s = chart().render(&[]);
        assert!(s.contains("no points"));
    }

    #[test]
    fn front_points_marked_o() {
        let s = chart().render(&[[0.0, 0.0], [1.0, 1.0]]);
        assert!(s.contains('o'));
        assert!(s.contains('.'));
    }

    #[test]
    fn no_line_ends_in_a_blank() {
        let s = chart().render(&[[0.0, 0.0], [1.0, 1.0], [0.2, 0.9]]);
        assert!(s.lines().all(|l| !l.ends_with(' ')), "{s:?}");
    }

    #[test]
    fn single_point_renders() {
        let s = chart().render(&[[5.0, 5.0]]);
        let markers: usize = s
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.matches('o').count())
            .sum();
        assert_eq!(markers, 1);
    }

    #[test]
    fn axis_labels_present() {
        let s = ScatterChart::new("cycles", "nanojoules").render(&[[1.0, 2.0]]);
        assert!(s.contains("cycles"));
        assert!(s.contains("nanojoules"));
    }

    #[test]
    fn csv_flags_pareto_membership() {
        let labels = vec!["a".to_string(), "b".to_string()];
        let csv = chart().to_csv(&labels, &[[0.0, 0.0], [1.0, 1.0]]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].ends_with(",1"));
        assert!(lines[2].ends_with(",0"));
    }

    #[test]
    #[should_panic(expected = "one label per point")]
    fn csv_checks_label_count() {
        let _ = chart().to_csv(&[], &[[0.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn tiny_grid_rejected() {
        let _ = ScatterChart::new("x", "y").with_size(1, 5);
    }

    #[test]
    fn identical_points_do_not_divide_by_zero() {
        let s = chart().render(&[[3.0, 3.0], [3.0, 3.0]]);
        assert!(s.contains('o'));
    }
}
