//! GNN convolution layers with explicit backward passes.
//!
//! Both layers implement Eq. 1 of the paper with a mean aggregator:
//!
//! * **GraphSAGE**: `h'_v = σ(W · [h_v ‖ mean_{u∈N(v)} h_u] + b)` —
//!   weight shape `(2·in, out)`.
//! * **GCN** (mean-normalized form): `h'_v = σ(W · mean_{u∈N(v)∪{v}} h_u + b)`
//!   — weight shape `(in, out)`; note the paper's observation that GCN is
//!   computationally *lighter* than GraphSAGE (Table 5 discussion), which
//!   falls straight out of the halved GEMM width.

use ds_sampling::SampleLayer;
use ds_simgpu::par;
use ds_tensor::kernel;
use ds_tensor::matrix::Matrix;
use ds_tensor::ops;

/// Per-edge destination segment ids for a block (edge `e` of dst `i`
/// gets segment `i`).
pub fn edge_segments(block: &SampleLayer) -> Vec<u32> {
    let mut seg = Vec::with_capacity(block.num_edges());
    for i in 0..block.num_dst() {
        for _ in block.offsets[i]..block.offsets[i + 1] {
            seg.push(i as u32);
        }
    }
    seg
}

/// Fused gather + segment-mean over a block: row `i` of the result is
/// the mean of `h_src[neighbor_pos]` over dst `i`'s sampled edges, with
/// the self row folded in when `closed` (GCN's closed neighborhood).
/// Nothing is materialized in between, and because each destination's
/// edge range is independent (`block.offsets`), the rows parallelize
/// over fixed chunks. Per row, neighbors accumulate in edge order then
/// the self term — exactly the serial gather→vstack→segment_mean
/// order, so results are bit-identical to the unfused path.
fn fused_mean(h_src: &Matrix, block: &SampleLayer, closed: bool) -> Matrix {
    let d = h_src.cols();
    let mut out = Matrix::zeros(block.num_dst(), d);
    par::chunk_map_mut(out.data_mut(), d, |i, row| {
        let (lo, hi) = (block.offsets[i] as usize, block.offsets[i + 1] as usize);
        for &p in &block.neighbor_pos_in_src[lo..hi] {
            let src = h_src.row(p as usize);
            for (o, &v) in row.iter_mut().zip(src) {
                *o += v;
            }
        }
        let mut count = hi - lo;
        if closed {
            let src = h_src.row(block.dst_pos_in_src[i] as usize);
            for (o, &v) in row.iter_mut().zip(src) {
                *o += v;
            }
            count += 1;
        }
        if count > 1 {
            let inv = 1.0 / count as f32;
            for o in row.iter_mut() {
                *o *= inv;
            }
        }
    });
    out
}

/// Backward of [`fused_mean`]: adds each destination's output gradient,
/// scaled by its neighbor count, onto the gradient rows of its
/// neighbors (and of itself when `closed`). Serial over edges —
/// neighbor indices repeat across destinations — in the same order as
/// the old materialize-then-scatter_add pair: all neighbor
/// contributions in edge order first, then (for `closed`) all self
/// contributions.
fn fused_mean_backward(gh_src: &mut Matrix, block: &SampleLayer, g_agg: &Matrix, closed: bool) {
    let extra = usize::from(closed);
    for i in 0..block.num_dst() {
        let (lo, hi) = (block.offsets[i] as usize, block.offsets[i + 1] as usize);
        let inv = 1.0 / (hi - lo + extra).max(1) as f32;
        let g = g_agg.row(i);
        for &p in &block.neighbor_pos_in_src[lo..hi] {
            let dst = gh_src.row_mut(p as usize);
            for (d, &v) in dst.iter_mut().zip(g) {
                *d += v * inv;
            }
        }
    }
    if closed {
        for i in 0..block.num_dst() {
            let (lo, hi) = (block.offsets[i] as usize, block.offsets[i + 1] as usize);
            let inv = 1.0 / (hi - lo + 1) as f32;
            let g = g_agg.row(i);
            let dst = gh_src.row_mut(block.dst_pos_in_src[i] as usize);
            for (d, &v) in dst.iter_mut().zip(g) {
                *d += v * inv;
            }
        }
    }
}

/// One dense parameter block: weights + bias.
#[derive(Clone, Debug)]
pub struct DenseParam {
    /// Weight matrix, `(fan_in, fan_out)`.
    pub w: Matrix,
    /// Bias, `fan_out`.
    pub b: Vec<f32>,
}

impl DenseParam {
    /// Xavier-initialized parameters.
    pub fn new(fan_in: usize, fan_out: usize, seed: u64) -> Self {
        DenseParam {
            w: ds_tensor::init::xavier_uniform(fan_in, fan_out, seed),
            b: vec![0.0; fan_out],
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// True when the parameter block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the flattened parameters to `out`.
    pub fn flatten_into(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.data());
        out.extend_from_slice(&self.b);
    }

    /// Loads parameters from a flat slice; returns the scalars consumed.
    pub fn unflatten_from(&mut self, flat: &[f32]) -> usize {
        let wn = self.w.rows() * self.w.cols();
        let bn = self.b.len();
        self.w.data_mut().copy_from_slice(&flat[..wn]);
        self.b.copy_from_slice(&flat[wn..wn + bn]);
        wn + bn
    }
}

/// Saved forward state for one convolution (what backward needs).
///
/// Since the fused gather+GEMM rework the tape stores the *aggregated*
/// neighborhood (`agg`, `in_dim` wide) instead of the old materialized
/// GEMM input (`2·in_dim` wide for SAGE): the self half of the concat
/// never exists as a matrix — the kernels pack it straight from
/// `h_src` via the block's index maps, forward and backward.
#[derive(Clone, Debug)]
pub struct LayerTape {
    /// Input activations on the block's src set.
    pub h_src: Matrix,
    /// Aggregated neighborhood per dst: the neighbor mean for SAGE, the
    /// closed-neighborhood mean for GCN.
    pub agg: Matrix,
    /// Pre-activation output.
    pub z: Matrix,
    /// Whether ReLU was applied.
    pub relu: bool,
}

/// Gradients of one convolution.
#[derive(Clone, Debug)]
pub struct LayerGrads {
    /// Weight gradient.
    pub gw: Matrix,
    /// Bias gradient.
    pub gb: Vec<f32>,
    /// Gradient w.r.t. the input activations (block src set).
    pub gh_src: Matrix,
}

/// GraphSAGE forward on one block. `relu` is false for the output layer.
///
/// Fully fused: the neighbor mean comes from [`fused_mean`] (no gather,
/// no segment materialization) and the concat GEMM runs as
/// `kernel::gather_concat_matmul` — the self rows are packed straight
/// out of `h_src` by index, so neither the gather nor the hstack ever
/// exists in memory.
pub fn sage_forward(
    p: &DenseParam,
    block: &SampleLayer,
    h_src: &Matrix,
    relu: bool,
) -> (Matrix, LayerTape) {
    let (agg, z) = sage_pre_activation(p, block, h_src);
    let out = if relu { ops::relu(&z) } else { z.clone() };
    (
        out,
        LayerTape {
            h_src: h_src.clone(),
            agg,
            z,
            relu,
        },
    )
}

/// The kernels of [`sage_forward`]: the neighbor mean and the biased
/// concat GEMM over it.
fn sage_pre_activation(p: &DenseParam, block: &SampleLayer, h_src: &Matrix) -> (Matrix, Matrix) {
    let agg = fused_mean(h_src, block, false);
    let mut z = kernel::gather_concat_matmul(h_src, &block.dst_pos_in_src, &agg, &p.w);
    z.add_bias(&p.b);
    (agg, z)
}

/// [`sage_forward`] without the tape: the same kernels in the same
/// order, so the output is bit-identical, with no activation kept or
/// copied.
pub(crate) fn sage_infer(
    p: &DenseParam,
    block: &SampleLayer,
    h_src: &Matrix,
    relu: bool,
) -> Matrix {
    activate(sage_pre_activation(p, block, h_src).1, relu)
}

/// Applies the layer's optional ReLU to a pre-activation it consumes.
pub(crate) fn activate(mut z: Matrix, relu: bool) -> Matrix {
    if relu {
        ops::relu_in_place(&mut z);
    }
    z
}

/// GraphSAGE backward on one block, on the same fused paths as the
/// forward: the top (self) half of the weight gradient is a fused
/// `gather(h_src)ᵀ · gz`, and the two input-gradient halves come from
/// row-sliced `gz·Wᵀ` products instead of a materialized concat
/// gradient plus hsplit.
pub fn sage_backward(
    p: &DenseParam,
    block: &SampleLayer,
    tape: &LayerTape,
    grad_out: &Matrix,
) -> LayerGrads {
    let gz = if tape.relu {
        ops::relu_backward(&tape.z, grad_out)
    } else {
        grad_out.clone()
    };
    let in_dim = tape.h_src.cols();
    let gw_self = kernel::gather_matmul_tn(&tape.h_src, &block.dst_pos_in_src, &gz);
    let gw_agg = tape.agg.matmul_tn(&gz);
    let gw = gw_self.vstack(&gw_agg);
    let gb = gz.col_sum();
    let g_self = kernel::matmul_nt_rows(&gz, &p.w, 0, in_dim);
    let g_agg = kernel::matmul_nt_rows(&gz, &p.w, in_dim, 2 * in_dim);
    let mut gh_src = Matrix::zeros(tape.h_src.rows(), in_dim);
    gh_src.scatter_add_rows(&block.dst_pos_in_src, &g_self);
    fused_mean_backward(&mut gh_src, block, &g_agg, false);
    LayerGrads { gw, gb, gh_src }
}

/// GraphSAGE forward for the split-parallel innermost convolution: the
/// neighbor mean arrives precomputed (combined from per-owner partial
/// sums) and `h_dst` holds raw feature rows for the block's *dst* set
/// only — the full src feature matrix never exists on this rank. The
/// concat GEMM still runs on the fused gather+GEMM path, with an
/// identity row map standing in for `dst_pos_in_src`.
pub fn sage_forward_preagg(
    p: &DenseParam,
    h_dst: &Matrix,
    agg: &Matrix,
    relu: bool,
) -> (Matrix, LayerTape) {
    assert_eq!(h_dst.rows(), agg.rows(), "dst rows must match agg rows");
    let idx: Vec<u32> = (0..h_dst.rows() as u32).collect();
    let mut z = kernel::gather_concat_matmul(h_dst, &idx, agg, &p.w);
    z.add_bias(&p.b);
    let out = if relu { ops::relu(&z) } else { z.clone() };
    (
        out,
        LayerTape {
            h_src: h_dst.clone(),
            agg: agg.clone(),
            z,
            relu,
        },
    )
}

/// Backward of [`sage_forward_preagg`]: weight and bias gradients only.
/// The innermost convolution's inputs are raw features, which take no
/// gradient, so neither the dst-row nor the aggregate input gradient is
/// ever formed — exactly the property that makes the split exchange
/// forward-only.
pub fn sage_backward_preagg(tape: &LayerTape, grad_out: &Matrix) -> (Matrix, Vec<f32>) {
    let gz = if tape.relu {
        ops::relu_backward(&tape.z, grad_out)
    } else {
        grad_out.clone()
    };
    let gw_self = tape.h_src.matmul_tn(&gz);
    let gw_agg = tape.agg.matmul_tn(&gz);
    (gw_self.vstack(&gw_agg), gz.col_sum())
}

/// GCN forward for the split-parallel innermost convolution: `agg` is
/// the precomputed *closed*-neighborhood mean (the home rank folds the
/// dst's own feature row into the combined partial sums before the
/// divide), so the layer reduces to the dense GEMM.
pub fn gcn_forward_preagg(p: &DenseParam, agg: &Matrix, relu: bool) -> (Matrix, LayerTape) {
    let mut z = agg.matmul(&p.w);
    z.add_bias(&p.b);
    let out = if relu { ops::relu(&z) } else { z.clone() };
    (
        out,
        LayerTape {
            h_src: Matrix::zeros(0, 0),
            agg: agg.clone(),
            z,
            relu,
        },
    )
}

/// Backward of [`gcn_forward_preagg`]: weight and bias gradients only
/// (see [`sage_backward_preagg`] on why no input gradient exists).
pub fn gcn_backward_preagg(tape: &LayerTape, grad_out: &Matrix) -> (Matrix, Vec<f32>) {
    let gz = if tape.relu {
        ops::relu_backward(&tape.z, grad_out)
    } else {
        grad_out.clone()
    };
    (tape.agg.matmul_tn(&gz), gz.col_sum())
}

/// GCN forward: mean over the closed neighborhood, via [`fused_mean`]
/// with the self row folded in — no vstack, no segment vector.
pub fn gcn_forward(
    p: &DenseParam,
    block: &SampleLayer,
    h_src: &Matrix,
    relu: bool,
) -> (Matrix, LayerTape) {
    let (agg, z) = gcn_pre_activation(p, block, h_src);
    let out = if relu { ops::relu(&z) } else { z.clone() };
    (
        out,
        LayerTape {
            h_src: h_src.clone(),
            agg,
            z,
            relu,
        },
    )
}

/// The kernels of [`gcn_forward`]: the closed mean and the biased GEMM.
fn gcn_pre_activation(p: &DenseParam, block: &SampleLayer, h_src: &Matrix) -> (Matrix, Matrix) {
    let agg = fused_mean(h_src, block, true);
    let mut z = agg.matmul(&p.w);
    z.add_bias(&p.b);
    (agg, z)
}

/// [`gcn_forward`] without the tape (see [`sage_infer`]).
pub(crate) fn gcn_infer(p: &DenseParam, block: &SampleLayer, h_src: &Matrix, relu: bool) -> Matrix {
    activate(gcn_pre_activation(p, block, h_src).1, relu)
}

/// GCN backward.
pub fn gcn_backward(
    p: &DenseParam,
    block: &SampleLayer,
    tape: &LayerTape,
    grad_out: &Matrix,
) -> LayerGrads {
    let gz = if tape.relu {
        ops::relu_backward(&tape.z, grad_out)
    } else {
        grad_out.clone()
    };
    let gw = tape.agg.matmul_tn(&gz);
    let gb = gz.col_sum();
    let g_agg = gz.matmul_nt(&p.w);
    let mut gh_src = Matrix::zeros(tape.h_src.rows(), tape.h_src.cols());
    fused_mean_backward(&mut gh_src, block, &g_agg, true);
    LayerGrads { gw, gb, gh_src }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_sampling::sample::SampleLayer;

    /// dst = [0, 1]; node 0 samples {1, 2}, node 1 samples {2}.
    fn toy_block() -> SampleLayer {
        SampleLayer::new(vec![0, 1], vec![0, 2, 3], vec![1, 2, 2])
    }

    fn toy_input() -> Matrix {
        // src = [0, 1, 2], dim 2.
        Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5])
    }

    #[test]
    fn sage_forward_aggregates_means() {
        let block = toy_block();
        let h = toy_input();
        // Identity-ish weights to observe the concat directly.
        let p = DenseParam {
            w: ds_tensor::init::uniform(4, 3, 0.5, 1),
            b: vec![0.0; 3],
        };
        let (out, tape) = sage_forward(&p, &block, &h, false);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.cols(), 3);
        // agg row 0 = mean(h_1, h_2) = [.25,.75]; row 1 = h_2.
        assert_eq!(tape.agg.row(0), &[0.25, 0.75]);
        assert_eq!(tape.agg.row(1), &[0.5, 0.5]);
        // The fused concat GEMM must equal the materialized
        // [self | agg] · W product bit-for-bit.
        let gemm_in = h.gather_rows(&block.dst_pos_in_src).hstack(&tape.agg);
        let z_ref = gemm_in.matmul(&p.w);
        assert_eq!(tape.z.data(), z_ref.data());
    }

    #[test]
    fn gcn_forward_includes_self_in_mean() {
        let block = toy_block();
        let h = toy_input();
        let p = DenseParam {
            w: ds_tensor::init::uniform(2, 2, 0.5, 2),
            b: vec![0.0; 2],
        };
        let (_, tape) = gcn_forward(&p, &block, &h, false);
        // dst 0: mean(h_1, h_2, h_0) = ((0,1)+(.5,.5)+(1,0))/3 = (.5, .5).
        assert_eq!(tape.agg.row(0), &[0.5, 0.5]);
        // dst 1: mean(h_2, h_1) = (.25, .75).
        assert_eq!(tape.agg.row(1), &[0.25, 0.75]);
    }

    /// Finite-difference check of the full layer gradient (weights, bias
    /// and inputs) through a scalar loss `sum(out^2)/2`.
    fn fd_check(kind: &str) {
        let block = toy_block();
        let h = toy_input();
        let (fan_in, fan_out) = if kind == "sage" { (4, 3) } else { (2, 3) };
        let p = DenseParam {
            w: ds_tensor::init::uniform(fan_in, fan_out, 0.5, 3),
            b: vec![0.1, -0.2, 0.3],
        };
        let forward = |p: &DenseParam, h: &Matrix| -> (Matrix, LayerTape) {
            if kind == "sage" {
                sage_forward(p, &block, h, true)
            } else {
                gcn_forward(p, &block, h, true)
            }
        };
        let loss_of = |p: &DenseParam, h: &Matrix| -> f32 {
            let (out, _) = forward(p, h);
            out.data().iter().map(|x| x * x).sum::<f32>() / 2.0
        };
        let (out, tape) = forward(&p, &h);
        // dL/dout = out.
        let grads = if kind == "sage" {
            sage_backward(&p, &block, &tape, &out)
        } else {
            gcn_backward(&p, &block, &tape, &out)
        };
        let eps = 1e-3f32;
        // Weight gradient.
        for i in 0..fan_in {
            for j in 0..fan_out {
                let mut pp = p.clone();
                pp.w.set(i, j, pp.w.get(i, j) + eps);
                let mut pm = p.clone();
                pm.w.set(i, j, pm.w.get(i, j) - eps);
                let fd = (loss_of(&pp, &h) - loss_of(&pm, &h)) / (2.0 * eps);
                let an = grads.gw.get(i, j);
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                    "{kind} gW[{i}{j}] fd {fd} an {an}"
                );
            }
        }
        // Bias gradient.
        for j in 0..fan_out {
            let mut pp = p.clone();
            pp.b[j] += eps;
            let mut pm = p.clone();
            pm.b[j] -= eps;
            let fd = (loss_of(&pp, &h) - loss_of(&pm, &h)) / (2.0 * eps);
            assert!(
                (fd - grads.gb[j]).abs() < 2e-2,
                "{kind} gb[{j}] fd {fd} an {}",
                grads.gb[j]
            );
        }
        // Input gradient.
        for r in 0..3 {
            for c in 0..2 {
                let mut hp = h.clone();
                hp.set(r, c, hp.get(r, c) + eps);
                let mut hm = h.clone();
                hm.set(r, c, hm.get(r, c) - eps);
                let fd = (loss_of(&p, &hp) - loss_of(&p, &hm)) / (2.0 * eps);
                let an = grads.gh_src.get(r, c);
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                    "{kind} gh[{r}{c}] fd {fd} an {an}"
                );
            }
        }
    }

    #[test]
    fn sage_gradients_match_finite_differences() {
        fd_check("sage");
    }

    #[test]
    fn gcn_gradients_match_finite_differences() {
        fd_check("gcn");
    }

    #[test]
    fn dense_param_flatten_round_trip() {
        let p = DenseParam::new(3, 4, 7);
        let mut flat = Vec::new();
        p.flatten_into(&mut flat);
        assert_eq!(flat.len(), p.len());
        let mut q = DenseParam::new(3, 4, 8);
        let consumed = q.unflatten_from(&flat);
        assert_eq!(consumed, p.len());
        assert_eq!(q.w.data(), p.w.data());
        assert_eq!(q.b, p.b);
    }

    #[test]
    fn empty_dst_block_is_handled() {
        let block = SampleLayer::new(vec![], vec![0], vec![]);
        let h = Matrix::zeros(0, 2);
        let p = DenseParam::new(4, 3, 1);
        let (out, tape) = sage_forward(&p, &block, &h, true);
        assert_eq!(out.rows(), 0);
        let g = sage_backward(&p, &block, &tape, &out);
        assert_eq!(g.gh_src.rows(), 0);
        assert_eq!(g.gw.norm(), 0.0);
    }
}
