//! Activations, losses and reductions with explicit backward passes.

use crate::kernel::row_fold_mut;
use crate::matrix::Matrix;
use ds_simgpu::par;

/// ReLU forward: `max(x, 0)` elementwise.
pub fn relu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    relu_in_place(&mut out);
    out
}

/// [`relu`] over `x` itself, for callers that no longer need the
/// pre-activation (inference keeps no tape).
pub fn relu_in_place(x: &mut Matrix) {
    par::apply_indexed(x.data_mut(), |_, v| *v = v.max(0.0));
}

/// ReLU backward: gradient passes where the *input* was positive.
pub fn relu_backward(input: &Matrix, grad_out: &Matrix) -> Matrix {
    assert_eq!(
        (input.rows(), input.cols()),
        (grad_out.rows(), grad_out.cols())
    );
    let mut out = grad_out.clone();
    let input_data = input.data();
    // Branchless select: the sign mask of the input is data-random in
    // practice, so a conditional store would mispredict half the time.
    par::apply_indexed(out.data_mut(), |i, g| {
        *g = if input_data[i] > 0.0 { *g } else { 0.0 };
    });
    out
}

/// Row-wise L2 normalization (GraphSAGE's final-layer normalization).
pub fn l2_normalize_rows(x: &Matrix) -> Matrix {
    let cols = x.cols();
    let mut out = x.clone();
    par::chunk_map_mut(out.data_mut(), cols, |_, row| {
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-12);
        for v in row {
            *v /= norm;
        }
    });
    out
}

/// Softmax cross-entropy over rows. Returns (mean loss, probabilities).
///
/// The max/exp/sum reduction is a *single* online pass per row (the
/// flash-attention style running rescale): each element costs one `exp`,
/// and when a new running max appears the already-written prefix and the
/// running sum are lazily rescaled by `exp(old_max - new_max)` — an
/// amortized-rare event. The prefix rescale and the final normalization
/// run on the kernels' shared [`row_fold_mut`] helper. Two row sweeps
/// (one exp, one multiply) instead of the old four
/// (max, exp+sum, divide, on a cloned matrix). Numerics are pinned by
/// the finite-difference gradient test below.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[u32]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len());
    let cols = logits.cols();
    let mut probs = Matrix::zeros(logits.rows(), cols);
    let losses: Vec<f32> = par::chunk_map_mut(probs.data_mut(), cols, |i, row| {
        let y = labels[i];
        let src = logits.row(i);
        let mut max = f32::NEG_INFINITY;
        let mut sum = 0.0f32;
        for j in 0..row.len() {
            let v = src[j];
            if v > max {
                if j > 0 {
                    let r = (max - v).exp();
                    row_fold_mut(&mut row[..j], (), |(), w| *w *= r);
                    sum *= r;
                }
                max = v;
                row[j] = 1.0;
                sum += 1.0;
            } else {
                let e = (v - max).exp();
                row[j] = e;
                sum += e;
            }
        }
        let inv = 1.0 / sum;
        row_fold_mut(row, (), |(), w| *w *= inv);
        -(row[y as usize].max(1e-12)).ln()
    });
    let loss = losses.iter().sum::<f32>() / labels.len().max(1) as f32;
    (loss, probs)
}

/// Gradient of mean softmax cross-entropy w.r.t. logits:
/// `(probs - onehot) / batch`.
pub fn softmax_cross_entropy_backward(probs: &Matrix, labels: &[u32]) -> Matrix {
    assert_eq!(probs.rows(), labels.len());
    let cols = probs.cols();
    let scale = 1.0 / labels.len().max(1) as f32;
    let mut grad = probs.clone();
    par::chunk_map_mut(grad.data_mut(), cols, |i, row| {
        row[labels[i] as usize] -= 1.0;
        for v in row {
            *v *= scale;
        }
    });
    grad
}

/// Classification accuracy of logits against labels.
pub fn accuracy(logits: &Matrix, labels: &[u32]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let correct: usize = (0..logits.rows())
        .filter(|&i| {
            let row = logits.row(i);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(j, _)| j as u32)
                .unwrap();
            argmax == labels[i]
        })
        .count();
    correct as f64 / labels.len() as f64
}

/// Mean of rows grouped by a segment id per row: `out[s] = mean of rows
/// with segment == s` (the neighbor-mean aggregation of GraphSAGE).
/// `num_segments` rows are produced; empty segments stay zero.
pub fn segment_mean(x: &Matrix, segments: &[u32], num_segments: usize) -> Matrix {
    assert_eq!(x.rows(), segments.len());
    let mut out = Matrix::zeros(num_segments, x.cols());
    let mut counts = vec![0u32; num_segments];
    for (i, &s) in segments.iter().enumerate() {
        counts[s as usize] += 1;
        let dst = out.row_mut(s as usize);
        for (d, &v) in dst.iter_mut().zip(x.row(i)) {
            *d += v;
        }
    }
    for (s, &c) in counts.iter().enumerate() {
        if c > 1 {
            let inv = 1.0 / c as f32;
            for v in out.row_mut(s) {
                *v *= inv;
            }
        }
    }
    out
}

/// Backward of [`segment_mean`]: distributes each segment's output
/// gradient equally over its member rows.
pub fn segment_mean_backward(grad_out: &Matrix, segments: &[u32], num_rows: usize) -> Matrix {
    let mut counts = vec![0u32; grad_out.rows()];
    for &s in segments {
        counts[s as usize] += 1;
    }
    let mut grad_in = Matrix::zeros(num_rows, grad_out.cols());
    for (i, &s) in segments.iter().enumerate() {
        let inv = 1.0 / counts[s as usize].max(1) as f32;
        let dst = grad_in.row_mut(i);
        for (d, &g) in dst.iter_mut().zip(grad_out.row(s as usize)) {
            *d += g * inv;
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_zeroes_negatives_and_backward_masks() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = relu_backward(&x, &Matrix::from_vec(1, 4, vec![1.0; 4]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_ce_uniform_logits_give_log_c() {
        let logits = Matrix::zeros(2, 4);
        let (loss, probs) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        for v in probs.data() {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_ce_gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = vec![2u32, 0];
        let (_, probs) = softmax_cross_entropy(&logits, &labels);
        let grad = softmax_cross_entropy_backward(&probs, &labels);
        let eps = 1e-3f32;
        for i in 0..2 {
            for j in 0..3 {
                let mut plus = logits.clone();
                plus.set(i, j, plus.get(i, j) + eps);
                let mut minus = logits.clone();
                minus.set(i, j, minus.get(i, j) - eps);
                let (lp, _) = softmax_cross_entropy(&plus, &labels);
                let (lm, _) = softmax_cross_entropy(&minus, &labels);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad.get(i, j)).abs() < 1e-3,
                    "fd {fd} vs analytic {} at ({i},{j})",
                    grad.get(i, j)
                );
            }
        }
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    fn l2_normalize_gives_unit_rows() {
        let x = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        let y = l2_normalize_rows(&x);
        assert!((y.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((y.get(0, 1) - 0.8).abs() < 1e-6);
        // Zero rows stay finite.
        assert_eq!(y.get(1, 0), 0.0);
    }

    #[test]
    fn segment_mean_and_backward_are_consistent() {
        // 4 rows into 2 segments: [0,0,1,0].
        let x = Matrix::from_vec(4, 2, vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 5.0, 6.0]);
        let seg = vec![0u32, 0, 1, 0];
        let m = segment_mean(&x, &seg, 2);
        assert_eq!(m.row(0), &[3.0, 4.0]);
        assert_eq!(m.row(1), &[10.0, 20.0]);
        let g = segment_mean_backward(&Matrix::from_vec(2, 2, vec![3.0, 3.0, 7.0, 7.0]), &seg, 4);
        assert_eq!(g.row(0), &[1.0, 1.0]);
        assert_eq!(g.row(2), &[7.0, 7.0]);
    }

    #[test]
    fn empty_segment_stays_zero() {
        let x = Matrix::from_vec(1, 1, vec![5.0]);
        let m = segment_mean(&x, &[1], 3);
        assert_eq!(m.row(0), &[0.0]);
        assert_eq!(m.row(1), &[5.0]);
        assert_eq!(m.row(2), &[0.0]);
    }
}
