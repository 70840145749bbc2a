//! The Greedy Reorder Strategy — Algorithm 1 of the paper.
//!
//! Given the match-degree matrix of a window of `n` sampled mini-batches,
//! the greedy reorder keeps the first mini-batch in place, then repeatedly
//! appends the not-yet-scheduled mini-batch with the highest match degree
//! to the last scheduled one. Consecutive batches in the returned order
//! therefore overlap maximally (greedily), which is what the Match step
//! converts into saved PCIe traffic.

/// Computes the greedy execution order over a symmetric match-degree
/// matrix. Returns a permutation of `0..n` starting at index 0, exactly as
/// Algorithm 1 inserts `SubG_1` first.
///
/// Ties break towards the lower index, making the order deterministic.
///
/// # Example
///
/// ```
/// use fastgl_core::match_reorder::greedy_reorder;
///
/// // Batch 0 overlaps batch 2 most, batch 2 overlaps batch 1 next.
/// let m = vec![
///     vec![0.0, 0.4, 0.6],
///     vec![0.4, 0.0, 0.5],
///     vec![0.6, 0.5, 0.0],
/// ];
/// assert_eq!(greedy_reorder(&m), vec![0, 2, 1]);
/// ```
///
/// # Panics
///
/// Panics if `matrix` is not square.
pub fn greedy_reorder(matrix: &[Vec<f64>]) -> Vec<usize> {
    let n = matrix.len();
    for (i, row) in matrix.iter().enumerate() {
        assert_eq!(row.len(), n, "match matrix row {i} is not length {n}");
    }
    if n == 0 {
        return Vec::new();
    }
    let mut order = Vec::with_capacity(n);
    let mut scheduled = vec![false; n];
    let mut z = 0usize; // index of the last inserted mini-batch
    order.push(0);
    scheduled[0] = true;
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut best_degree = f64::NEG_INFINITY;
        for (k, &done) in scheduled.iter().enumerate() {
            if !done && matrix[z][k] > best_degree {
                best_degree = matrix[z][k];
                best = k;
            }
        }
        debug_assert_ne!(best, usize::MAX);
        order.push(best);
        scheduled[best] = true;
        z = best;
    }
    order
}

/// The total consecutive match degree of an order — the quantity the
/// greedy strategy maximises step-by-step (used by tests to
/// compare orders).
pub fn consecutive_match_sum(matrix: &[Vec<f64>], order: &[usize]) -> f64 {
    order.windows(2).map(|w| matrix[w[0]][w[1]]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure_6b_example() {
        // m12 = 0.4, m13 = 0.6, m23 = 0.5 (made-up values with m13 > m12):
        // starting from SubG1 the greedy order must be 1, 3, 2.
        let m = vec![
            vec![0.0, 0.4, 0.6],
            vec![0.4, 0.0, 0.5],
            vec![0.6, 0.5, 0.0],
        ];
        assert_eq!(greedy_reorder(&m), vec![0, 2, 1]);
    }

    #[test]
    fn output_is_permutation_starting_at_zero() {
        let n = 7;
        let m: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            0.0
                        } else {
                            ((i * 31 + j * 17) % 97) as f64 / 97.0
                        }
                    })
                    .collect()
            })
            .collect();
        let order = greedy_reorder(&m);
        assert_eq!(order[0], 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn greedy_beats_identity_when_structure_exists() {
        // Batches 0 and 2 overlap heavily, 1 and 3 overlap heavily; the
        // identity order alternates badly.
        let m = vec![
            vec![0.0, 0.1, 0.9, 0.1],
            vec![0.1, 0.0, 0.1, 0.9],
            vec![0.9, 0.1, 0.0, 0.2],
            vec![0.1, 0.9, 0.2, 0.0],
        ];
        let order = greedy_reorder(&m);
        let identity: Vec<usize> = (0..4).collect();
        assert!(
            consecutive_match_sum(&m, &order) > consecutive_match_sum(&m, &identity),
            "greedy must improve on the default order"
        );
        assert_eq!(order, vec![0, 2, 3, 1]);
    }

    #[test]
    fn ties_break_low_index() {
        let m = vec![
            vec![0.0, 0.5, 0.5],
            vec![0.5, 0.0, 0.5],
            vec![0.5, 0.5, 0.0],
        ];
        assert_eq!(greedy_reorder(&m), vec![0, 1, 2]);
    }

    #[test]
    fn trivial_sizes() {
        assert_eq!(greedy_reorder(&[]), Vec::<usize>::new());
        assert_eq!(greedy_reorder(&[vec![0.0]]), vec![0]);
    }

    #[test]
    #[should_panic(expected = "not length")]
    fn non_square_matrix_panics() {
        let _ = greedy_reorder(&[vec![0.0, 1.0], vec![0.0]]);
    }

    #[test]
    fn consecutive_sum_of_identity() {
        let m = vec![
            vec![0.0, 0.3, 0.0],
            vec![0.3, 0.0, 0.7],
            vec![0.0, 0.7, 0.0],
        ];
        let identity = [0, 1, 2];
        assert!((consecutive_match_sum(&m, &identity) - 1.0).abs() < 1e-12);
    }
}
