//! Activations and row-wise softmax utilities.

use crate::matrix::Matrix;
use crate::parallel;

/// ReLU, elementwise.
pub fn relu(x: &Matrix) -> Matrix {
    x.map(|v| v.max(0.0))
}

/// Backward of ReLU: passes `grad` where the forward input was positive.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn relu_backward(input: &Matrix, grad: &Matrix) -> Matrix {
    assert_eq!(
        (input.rows(), input.cols()),
        (grad.rows(), grad.cols()),
        "relu_backward shape mismatch"
    );
    masked_grad(input, grad, 0.0)
}

/// Leaky ReLU with slope `alpha` for negative inputs (GAT uses 0.2).
pub fn leaky_relu(x: &Matrix, alpha: f32) -> Matrix {
    x.map(|v| if v > 0.0 { v } else { alpha * v })
}

/// Backward of leaky ReLU.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn leaky_relu_backward(input: &Matrix, grad: &Matrix, alpha: f32) -> Matrix {
    assert_eq!(
        (input.rows(), input.cols()),
        (grad.rows(), grad.cols()),
        "leaky_relu_backward shape mismatch"
    );
    masked_grad(input, grad, alpha)
}

/// `mask(x) * g` elementwise in one pass, where `mask(x)` is `1` for a
/// positive forward input and `negative` otherwise. The product is kept
/// (rather than a select) so signed zeros and NaN propagate exactly as
/// multiplying by a materialised mask would.
fn masked_grad(input: &Matrix, grad: &Matrix, negative: f32) -> Matrix {
    let (x, g) = (input.as_slice(), grad.as_slice());
    let mut out = Matrix::zeros(input.rows(), input.cols());
    parallel::par_row_chunks_mut(
        out.as_mut_slice(),
        1,
        parallel::ELEMWISE_GRAIN,
        |first, chunk| {
            let end = first + chunk.len();
            for ((o, &x), &g) in chunk.iter_mut().zip(&x[first..end]).zip(&g[first..end]) {
                let mask = if x > 0.0 { 1.0 } else { negative };
                *o = mask * g;
            }
        },
    );
    out
}

/// Numerically-stable row-wise softmax.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Numerically-stable row-wise log-softmax.
pub fn log_softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
    out
}

/// Exponential over a slice normalised to sum 1 (softmax of a vector),
/// written in place. Used for per-node attention coefficients in GAT.
pub fn softmax_slice(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in xs.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in xs.iter_mut() {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_vec(1, 4, vec![-2.0, -0.5, 0.0, 3.0]);
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let x = Matrix::from_vec(1, 3, vec![-1.0, 2.0, 0.0]);
        let g = Matrix::from_vec(1, 3, vec![5.0, 5.0, 5.0]);
        assert_eq!(relu_backward(&x, &g).as_slice(), &[0.0, 5.0, 0.0]);
    }

    /// The one-pass backward must reproduce the old two-pass formula (a
    /// materialised mask, then a Hadamard product) bit for bit, including
    /// signed zeros, infinities and NaN in either operand. The operands are
    /// tiled past the elementwise grain so the parallel split runs too.
    #[test]
    fn one_pass_activation_backward_matches_two_pass_bits() {
        let specials = [
            0.0,
            -0.0,
            1.5,
            -2.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        let pairs: Vec<(f32, f32)> = specials
            .iter()
            .flat_map(|&x| specials.iter().map(move |&g| (x, g)))
            .collect();
        let n = 3 * parallel::ELEMWISE_GRAIN + 7;
        let cols = pairs.len();
        let rows = n.div_ceil(cols);
        let x = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| pairs[i % cols].0).collect(),
        );
        let g = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| pairs[i % cols].1).collect(),
        );
        let bits = |m: &Matrix| {
            m.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>()
        };
        for negative in [0.0, 0.2, -0.0] {
            let two_pass = x.map(|v| if v > 0.0 { 1.0 } else { negative }).hadamard(&g);
            let one_pass = if negative == 0.0 && negative.is_sign_positive() {
                relu_backward(&x, &g)
            } else {
                leaky_relu_backward(&x, &g, negative)
            };
            assert_eq!(
                bits(&one_pass),
                bits(&two_pass),
                "negative slope {negative}"
            );
        }
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let x = Matrix::from_vec(1, 2, vec![-10.0, 10.0]);
        assert_eq!(leaky_relu(&x, 0.2).as_slice(), &[-2.0, 10.0]);
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        assert_eq!(leaky_relu_backward(&x, &g, 0.2).as_slice(), &[0.2, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Monotone in the input.
        assert!(s.get(0, 2) > s.get(0, 1));
        // Large inputs do not overflow.
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Matrix::from_vec(1, 4, vec![0.1, -2.0, 3.0, 0.7]);
        let ls = log_softmax_rows(&x);
        let s = softmax_rows(&x);
        for c in 0..4 {
            assert!((ls.get(0, c) - s.get(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_slice_normalises() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax_slice(&mut xs);
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
        let mut empty: Vec<f32> = vec![];
        softmax_slice(&mut empty); // must not panic
    }
}
