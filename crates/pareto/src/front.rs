//! Dominance, fronts, ranks, curves and hypervolume.

/// Returns `true` when `a` Pareto-dominates `b` under minimisation: `a` is
/// no worse in every objective and strictly better in at least one.
///
/// # Panics
///
/// Panics if the points have different dimensionality.
///
/// # Example
///
/// ```
/// use ddtr_pareto::dominates;
///
/// assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
/// assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0])); // incomparable
/// assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal
/// ```
#[must_use]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut strict = false;
    for (&x, &y) in a.iter().zip(b.iter()) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

/// Indices of the Pareto-optimal points of `points` (minimisation), in
/// input order.
///
/// Duplicated points are all kept: a point equal to another is not
/// dominated by it.
///
/// # Panics
///
/// Panics if points have inconsistent dimensionality.
#[must_use]
pub fn pareto_front_indices<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && dominates(q.as_ref(), points[i].as_ref()))
        })
        .collect()
}

/// Non-dominated sorting: assigns every point its front rank (0 = the
/// Pareto front, 1 = the front after removing rank 0, …).
///
/// # Panics
///
/// Panics if points have inconsistent dimensionality.
#[must_use]
pub fn pareto_ranks<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    let n = points.len();
    let mut rank = vec![usize::MAX; n];
    let mut assigned = 0;
    let mut current = 0;
    while assigned < n {
        let mut this_front = Vec::new();
        for i in 0..n {
            if rank[i] != usize::MAX {
                continue;
            }
            let dominated = (0..n).any(|j| {
                j != i && rank[j] == usize::MAX && dominates(points[j].as_ref(), points[i].as_ref())
            });
            if !dominated {
                this_front.push(i);
            }
        }
        debug_assert!(!this_front.is_empty(), "peeling must make progress");
        for &i in &this_front {
            rank[i] = current;
        }
        assigned += this_front.len();
        current += 1;
    }
    rank
}

/// Extracts the 2-D Pareto curve of `points` restricted to objectives
/// `(x_dim, y_dim)`: the indices of the non-dominated points in that plane,
/// sorted by ascending x. This is how the paper draws each chart
/// (time–energy, accesses–footprint) from 4-metric logs.
///
/// # Panics
///
/// Panics if a dimension index is out of range for any point.
#[must_use]
pub fn curve_2d<P: AsRef<[f64]>>(points: &[P], x_dim: usize, y_dim: usize) -> Vec<usize> {
    let projected: Vec<[f64; 2]> = points
        .iter()
        .map(|p| {
            let p = p.as_ref();
            [p[x_dim], p[y_dim]]
        })
        .collect();
    let mut front = pareto_front_indices(&projected);
    // total_cmp: a NaN coordinate gets a deterministic position (IEEE
    // total order: positive NaN after +inf, negative NaN before -inf)
    // instead of panicking or corrupting the order.
    front.sort_by(|&a, &b| projected[a][0].total_cmp(&projected[b][0]));
    front
}

/// 2-D hypervolume (area dominated by the front, bounded by `reference`),
/// a scalar quality indicator the reproduction scorecard reports for the
/// NSGA-II front (`REPRODUCTION.md`). Points worse
/// than the reference in either objective contribute nothing; a NaN
/// coordinate fails the reference-box comparison, so NaN points are
/// silently excluded rather than panicking (the n-dimensional
/// [`hypervolume`] instead rejects NaN input with an assertion).
#[must_use]
pub fn hypervolume_2d<P: AsRef<[f64]>>(points: &[P], reference: [f64; 2]) -> f64 {
    let mut front: Vec<[f64; 2]> = {
        let idx = pareto_front_indices(
            &points
                .iter()
                .map(|p| {
                    let p = p.as_ref();
                    [p[0], p[1]]
                })
                .collect::<Vec<_>>(),
        );
        idx.iter()
            .map(|&i| {
                let p = points[i].as_ref();
                [p[0], p[1]]
            })
            .filter(|p| p[0] < reference[0] && p[1] < reference[1])
            .collect()
    };
    front.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let mut volume = 0.0;
    let mut prev_y = reference[1];
    for p in front {
        volume += (reference[0] - p[0]) * (prev_y - p[1]);
        prev_y = p[1];
    }
    volume
}

/// Exact hypervolume in any dimensionality (minimisation, bounded by
/// `reference`), by the classic recursive slicing scheme: sort by the last
/// objective and sum per-slab `(d-1)`-dimensional volumes. Exponential in
/// the number of objectives in the worst case, but exact — intended for
/// the 4-objective fronts of this methodology (tens of points), where it
/// is instant.
///
/// Points not strictly better than the reference in every objective
/// contribute nothing. Returns 0 for an empty set.
///
/// # Panics
///
/// Panics if points have inconsistent dimensionality, the reference
/// dimensionality differs, or any coordinate is NaN.
///
/// # Example
///
/// ```
/// use ddtr_pareto::hypervolume;
///
/// // One point dominating a unit corner of the 4-D reference box.
/// let hv = hypervolume(&[[1.0, 1.0, 1.0, 1.0]], &[2.0, 2.0, 2.0, 2.0]);
/// assert!((hv - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn hypervolume<P: AsRef<[f64]>>(points: &[P], reference: &[f64]) -> f64 {
    let dims = reference.len();
    assert!(dims >= 1, "reference must have at least one objective");
    let mut front: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            let p = p.as_ref();
            assert_eq!(p.len(), dims, "dimension mismatch with reference");
            assert!(p.iter().all(|v| !v.is_nan()), "NaN objective");
            p.to_vec()
        })
        .filter(|p| p.iter().zip(reference).all(|(v, r)| v < r))
        .collect();
    // Only the non-dominated subset contributes volume.
    let keep = pareto_front_indices(&front);
    front = keep.into_iter().map(|i| front[i].clone()).collect();
    hv_recursive(&mut front, reference)
}

/// Recursive slicing: integrate over the last objective.
fn hv_recursive(front: &mut [Vec<f64>], reference: &[f64]) -> f64 {
    let dims = reference.len();
    if front.is_empty() {
        return 0.0;
    }
    if dims == 1 {
        let best = front.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        return (reference[0] - best).max(0.0);
    }
    // Sort descending by the last objective: slabs sweep from the
    // reference towards the best point, accumulating the points whose last
    // coordinate is below the slab.
    front.sort_by(|a, b| b[dims - 1].total_cmp(&a[dims - 1]));
    let mut volume = 0.0;
    let mut upper = reference[dims - 1];
    for i in 0..front.len() {
        let z = front[i][dims - 1];
        if z < upper {
            // All points from index i on reach into this slab.
            let mut projected: Vec<Vec<f64>> =
                front[i..].iter().map(|p| p[..dims - 1].to_vec()).collect();
            let keep = pareto_front_indices(&projected);
            projected = keep.into_iter().map(|j| projected[j].clone()).collect();
            volume += (upper - z) * hv_recursive(&mut projected, &reference[..dims - 1]);
            upper = z;
        }
    }
    volume
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_of_empty_is_empty() {
        let empty: Vec<Vec<f64>> = Vec::new();
        assert!(pareto_front_indices(&empty).is_empty());
    }

    #[test]
    fn single_point_is_optimal() {
        assert_eq!(pareto_front_indices(&[vec![3.0, 4.0]]), vec![0]);
    }

    #[test]
    fn dominated_points_are_dropped() {
        let pts = vec![
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![2.0, 2.0], // dominated by neither? (1,2) vs (2,2): dominates
            vec![3.0, 3.0],
        ];
        assert_eq!(pareto_front_indices(&pts), vec![0, 1]);
    }

    #[test]
    fn duplicates_all_survive() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        assert_eq!(pareto_front_indices(&pts), vec![0, 1]);
    }

    #[test]
    fn four_dimensional_front() {
        let pts = vec![
            vec![1.0, 9.0, 9.0, 9.0],
            vec![9.0, 1.0, 9.0, 9.0],
            vec![9.0, 9.0, 1.0, 9.0],
            vec![9.0, 9.0, 9.0, 1.0],
            vec![9.0, 9.0, 9.0, 9.0],
        ];
        assert_eq!(pareto_front_indices(&pts), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ranks_peel_layers() {
        let pts = vec![
            vec![1.0, 1.0], // rank 0
            vec![2.0, 2.0], // rank 1
            vec![3.0, 3.0], // rank 2
            vec![1.5, 0.5], // rank 0
        ];
        assert_eq!(pareto_ranks(&pts), vec![0, 1, 2, 0]);
    }

    #[test]
    fn curve_2d_projects_and_sorts() {
        // 4-D points; in the (0, 1) plane only three are non-dominated.
        let pts = vec![
            vec![3.0, 1.0, 0.0, 0.0],
            vec![1.0, 3.0, 9.0, 9.0],
            vec![2.0, 2.0, 5.0, 5.0],
            vec![3.0, 3.0, 0.0, 0.0],
        ];
        assert_eq!(curve_2d(&pts, 0, 1), vec![1, 2, 0]);
    }

    #[test]
    fn curve_respects_chosen_dims() {
        let pts = vec![vec![1.0, 9.0, 5.0], vec![9.0, 1.0, 4.0]];
        // In the (2, 2) degenerate plane the smaller third coord wins.
        assert_eq!(curve_2d(&pts, 2, 2), vec![1]);
    }

    #[test]
    fn curve_2d_with_nan_point_does_not_panic() {
        // A single NaN objective used to panic the sort's
        // `partial_cmp(..).expect(..)`; with total_cmp the NaN point sorts
        // last and the finite curve stays intact and ordered.
        let pts = vec![
            vec![3.0, 1.0],
            vec![f64::NAN, 2.0],
            vec![1.0, 3.0],
            vec![2.0, 2.0],
        ];
        let curve = curve_2d(&pts, 0, 1);
        let xs: Vec<f64> = curve
            .iter()
            .filter(|&&i| pts[i][0].is_finite())
            .map(|&i| pts[i][0])
            .collect();
        assert!(!xs.is_empty());
        assert!(
            xs.windows(2).all(|w| w[0] <= w[1]),
            "finite points stay x-sorted: {xs:?}"
        );
    }

    #[test]
    fn hypervolume_of_single_point() {
        let hv = hypervolume_2d(&[vec![1.0, 1.0]], [3.0, 3.0]);
        assert!((hv - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_adds_staircase_area() {
        let hv = hypervolume_2d(&[vec![1.0, 2.0], vec![2.0, 1.0]], [3.0, 3.0]);
        // (3-1)*(3-2) + (3-2)*(2-1) = 2 + 1 = 3
        assert!((hv - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_ignores_points_beyond_reference() {
        let hv = hypervolume_2d(&[vec![5.0, 5.0]], [3.0, 3.0]);
        assert_eq!(hv, 0.0);
    }

    #[test]
    fn bigger_front_has_bigger_hypervolume() {
        let small = hypervolume_2d(&[vec![2.0, 2.0]], [4.0, 4.0]);
        let big = hypervolume_2d(
            &[vec![2.0, 2.0], vec![1.0, 3.0], vec![3.0, 1.0]],
            [4.0, 4.0],
        );
        assert!(big > small);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let _ = dominates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn hypervolume_nd_matches_2d_on_planar_fronts() {
        let pts = vec![
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![0.5, 3.5],
            vec![3.0, 3.0], // dominated
        ];
        let reference = [4.0, 4.0];
        let a = hypervolume_2d(&pts, reference);
        let b = hypervolume(&pts, &reference);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn hypervolume_nd_single_point_is_the_box_volume() {
        let hv = hypervolume(&[[1.0, 2.0, 3.0]], &[5.0, 5.0, 5.0]);
        assert!((hv - 4.0 * 3.0 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_nd_union_subtracts_overlap() {
        // Two overlapping boxes in 3-D: |A| + |B| - |A ∩ B|.
        let a = [1.0, 1.0, 3.0]; // box 3 x 3 x 1 = 9
        let b = [3.0, 3.0, 1.0]; // box 1 x 1 x 3 = 3
                                 // intersection: max coords (3,3,3) -> 1 x 1 x 1 = 1
        let hv = hypervolume(&[a, b], &[4.0, 4.0, 4.0]);
        assert!((hv - (9.0 + 3.0 - 1.0)).abs() < 1e-12, "got {hv}");
    }

    #[test]
    fn hypervolume_nd_ignores_points_at_or_beyond_reference() {
        let hv = hypervolume(&[[4.0, 1.0, 1.0], [5.0, 0.0, 0.0]], &[4.0, 4.0, 4.0]);
        assert_eq!(hv, 0.0);
    }

    #[test]
    fn hypervolume_nd_of_empty_set_is_zero() {
        let empty: Vec<Vec<f64>> = Vec::new();
        assert_eq!(hypervolume(&empty, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn hypervolume_nd_handles_duplicate_coordinates() {
        // Two points sharing the last coordinate: the slab logic must not
        // double-count them.
        let hv = hypervolume(&[[1.0, 2.0, 2.0], [2.0, 1.0, 2.0]], &[3.0, 3.0, 3.0]);
        // Area in the first two dims: (3-1)(3-2) + (3-2)(2-1) = 3; depth 1.
        assert!((hv - 3.0).abs() < 1e-12, "got {hv}");
    }

    #[test]
    fn hypervolume_nd_four_dimensional_corner() {
        let hv = hypervolume(&[[0.0, 0.0, 0.0, 0.0]], &[1.0, 2.0, 3.0, 4.0]);
        assert!((hv - 24.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one objective")]
    fn hypervolume_nd_rejects_empty_reference() {
        let _ = hypervolume(&[[0.0; 0]], &[]);
    }
}
