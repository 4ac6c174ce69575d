//! Graph attention (GAT, Veličković et al.) — the third model family
//! the paper's introduction names alongside GCN and GraphSAGE. Single
//! attention head, GATv1 scoring, self-loop included:
//!
//! ```text
//! z        = h_src · W
//! s_e      = LeakyReLU(a_l · z_dst(e) + a_r · z_src(e))
//! α        = softmax over each destination's edges (incl. self-edge)
//! out_dst  = Σ_e α_e · z_src(e) + b        (optional ReLU)
//! ```
//!
//! The backward pass is hand-written like the other layers and verified
//! against finite differences.

use ds_sampling::SampleLayer;
use ds_tensor::matrix::Matrix;
use ds_tensor::ops;

const LEAKY_SLOPE: f32 = 0.2;

/// GAT layer parameters (single head).
#[derive(Clone, Debug)]
pub struct GatParam {
    /// Projection, `(in, out)`.
    pub w: Matrix,
    /// Destination-side attention vector, `out`.
    pub a_l: Vec<f32>,
    /// Source-side attention vector, `out`.
    pub a_r: Vec<f32>,
    /// Bias, `out`.
    pub b: Vec<f32>,
}

impl GatParam {
    /// Xavier-initialized parameters.
    pub fn new(fan_in: usize, fan_out: usize, seed: u64) -> Self {
        let a = ds_tensor::init::uniform(
            2,
            fan_out,
            (3.0 / fan_out as f64).sqrt() as f32,
            seed ^ 0xa77,
        );
        GatParam {
            w: ds_tensor::init::xavier_uniform(fan_in, fan_out, seed),
            a_l: a.row(0).to_vec(),
            a_r: a.row(1).to_vec(),
            b: vec![0.0; fan_out],
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.w.rows() * self.w.cols() + self.a_l.len() + self.a_r.len() + self.b.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the flattened parameters (w, a_l, a_r, b).
    pub fn flatten_into(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.data());
        out.extend_from_slice(&self.a_l);
        out.extend_from_slice(&self.a_r);
        out.extend_from_slice(&self.b);
    }

    /// Loads from a flat slice; returns scalars consumed.
    pub fn unflatten_from(&mut self, flat: &[f32]) -> usize {
        let wn = self.w.rows() * self.w.cols();
        let an = self.a_l.len();
        self.w.data_mut().copy_from_slice(&flat[..wn]);
        self.a_l.copy_from_slice(&flat[wn..wn + an]);
        self.a_r.copy_from_slice(&flat[wn + an..wn + 2 * an]);
        self.b.copy_from_slice(&flat[wn + 2 * an..wn + 2 * an + an]);
        wn + 3 * an
    }
}

/// Forward state saved for backward.
#[derive(Clone, Debug)]
pub struct GatTape {
    h_src: Matrix,
    z: Matrix,
    /// Per extended edge (graph edges then self-edges): src row in z.
    edge_src: Vec<u32>,
    /// Per extended edge: dst index.
    edge_dst: Vec<u32>,
    /// Raw scores s_e (before LeakyReLU).
    scores: Vec<f32>,
    /// Attention weights α_e.
    alpha: Vec<f32>,
    /// Pre-activation outputs.
    z_out: Matrix,
    relu: bool,
}

/// GAT gradients.
#[derive(Clone, Debug)]
pub struct GatGrads {
    /// d/dW.
    pub gw: Matrix,
    /// d/da_l.
    pub ga_l: Vec<f32>,
    /// d/da_r.
    pub ga_r: Vec<f32>,
    /// d/db.
    pub gb: Vec<f32>,
    /// d/dh_src.
    pub gh_src: Matrix,
}

/// GAT forward over one block.
pub fn gat_forward(
    p: &GatParam,
    block: &SampleLayer,
    h_src: &Matrix,
    relu: bool,
) -> (Matrix, GatTape) {
    let mut tape = attend(p, block, h_src, relu);
    let out = if relu {
        ops::relu(&tape.z_out)
    } else {
        tape.z_out.clone()
    };
    tape.h_src = h_src.clone();
    (out, tape)
}

/// [`gat_forward`] without the tape: the same kernels in the same
/// order, so the output is bit-identical.
pub(crate) fn gat_infer(p: &GatParam, block: &SampleLayer, h_src: &Matrix, relu: bool) -> Matrix {
    crate::layers::activate(attend(p, block, h_src, relu).z_out, relu)
}

/// The kernels of [`gat_forward`]: projection, scores, per-destination
/// softmax and weighted aggregation. Returns the tape without `h_src`,
/// which only the backward pass reads.
fn attend(p: &GatParam, block: &SampleLayer, h_src: &Matrix, relu: bool) -> GatTape {
    let out_dim = p.w.cols();
    let z = h_src.matmul(&p.w);
    // Extended edge list: sampled edges then one self-edge per dst.
    let mut edge_src: Vec<u32> = block.neighbor_pos_in_src.clone();
    let mut edge_dst: Vec<u32> = Vec::with_capacity(block.num_edges() + block.num_dst());
    for i in 0..block.num_dst() {
        for _ in block.offsets[i]..block.offsets[i + 1] {
            edge_dst.push(i as u32);
        }
    }
    edge_src.extend_from_slice(&block.dst_pos_in_src);
    edge_dst.extend(0..block.num_dst() as u32);

    // Scores.
    let dot = |row: &[f32], a: &[f32]| -> f32 { row.iter().zip(a).map(|(x, y)| x * y).sum() };
    let dst_score: Vec<f32> = (0..block.num_dst())
        .map(|i| dot(z.row(block.dst_pos_in_src[i] as usize), &p.a_l))
        .collect();
    let scores: Vec<f32> = edge_src
        .iter()
        .zip(&edge_dst)
        .map(|(&s, &d)| dst_score[d as usize] + dot(z.row(s as usize), &p.a_r))
        .collect();
    // Per-destination softmax over LeakyReLU(scores), numerically stable.
    let act: Vec<f32> = scores
        .iter()
        .map(|&s| if s > 0.0 { s } else { LEAKY_SLOPE * s })
        .collect();
    let mut max_per_dst = vec![f32::NEG_INFINITY; block.num_dst()];
    for (e, &d) in edge_dst.iter().enumerate() {
        max_per_dst[d as usize] = max_per_dst[d as usize].max(act[e]);
    }
    let mut alpha: Vec<f32> = act
        .iter()
        .zip(&edge_dst)
        .map(|(&a, &d)| (a - max_per_dst[d as usize]).exp())
        .collect();
    let mut denom = vec![0.0f32; block.num_dst()];
    for (e, &d) in edge_dst.iter().enumerate() {
        denom[d as usize] += alpha[e];
    }
    for (e, &d) in edge_dst.iter().enumerate() {
        alpha[e] /= denom[d as usize].max(1e-12);
    }
    // Weighted aggregation.
    let mut z_out = Matrix::zeros(block.num_dst(), out_dim);
    for (e, (&s, &d)) in edge_src.iter().zip(&edge_dst).enumerate() {
        let src_row = z.row(s as usize);
        let dst_row = z_out.row_mut(d as usize);
        let a = alpha[e];
        for (o, &x) in dst_row.iter_mut().zip(src_row) {
            *o += a * x;
        }
    }
    z_out.add_bias(&p.b);
    GatTape {
        h_src: Matrix::zeros(0, 0),
        z,
        edge_src,
        edge_dst,
        scores,
        alpha,
        z_out,
        relu,
    }
}

/// GAT backward over one block.
pub fn gat_backward(
    p: &GatParam,
    block: &SampleLayer,
    tape: &GatTape,
    grad_out: &Matrix,
) -> GatGrads {
    let out_dim = p.w.cols();
    let gz_out = if tape.relu {
        ops::relu_backward(&tape.z_out, grad_out)
    } else {
        grad_out.clone()
    };
    let gb = gz_out.col_sum();
    let n_src = tape.z.rows();
    let mut gz = Matrix::zeros(n_src, out_dim);
    // d/dα_e = g_i · z_src ; accumulate the aggregation path into gz_src.
    let mut galpha = vec![0.0f32; tape.alpha.len()];
    for (e, (&s, &d)) in tape.edge_src.iter().zip(&tape.edge_dst).enumerate() {
        let g_row = gz_out.row(d as usize);
        let z_row = tape.z.row(s as usize);
        galpha[e] = g_row.iter().zip(z_row).map(|(g, z)| g * z).sum();
        let a = tape.alpha[e];
        let dst = gz.row_mut(s as usize);
        for (o, &g) in dst.iter_mut().zip(g_row) {
            *o += a * g;
        }
    }
    // Softmax backward per destination: gσ_e = α_e (gα_e − Σ α gα).
    let mut inner = vec![0.0f32; block.num_dst()];
    for (e, &d) in tape.edge_dst.iter().enumerate() {
        inner[d as usize] += tape.alpha[e] * galpha[e];
    }
    let mut ga_l = vec![0.0f32; out_dim];
    let mut ga_r = vec![0.0f32; out_dim];
    for (e, (&s, &d)) in tape.edge_src.iter().zip(&tape.edge_dst).enumerate() {
        let gsigma = tape.alpha[e] * (galpha[e] - inner[d as usize]);
        let gs = gsigma
            * if tape.scores[e] > 0.0 {
                1.0
            } else {
                LEAKY_SLOPE
            };
        let zd = tape.z.row(block.dst_pos_in_src[d as usize] as usize);
        let zs = tape.z.row(s as usize);
        // Score path: s_e = a_l·z_dst + a_r·z_src.
        for j in 0..out_dim {
            ga_l[j] += gs * zd[j];
            ga_r[j] += gs * zs[j];
        }
        let dst_pos = block.dst_pos_in_src[d as usize] as usize;
        {
            let row = gz.row_mut(dst_pos);
            for (o, &al) in row.iter_mut().zip(&p.a_l) {
                *o += gs * al;
            }
        }
        {
            let row = gz.row_mut(s as usize);
            for (o, &ar) in row.iter_mut().zip(&p.a_r) {
                *o += gs * ar;
            }
        }
    }
    // Linear path: z = h_src · W.
    let gw = tape.h_src.matmul_tn(&gz);
    let gh_src = gz.matmul_nt(&p.w);
    GatGrads {
        gw,
        ga_l,
        ga_r,
        gb,
        gh_src,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_sampling::sample::SampleLayer;

    fn toy_block() -> SampleLayer {
        SampleLayer::new(vec![0, 1], vec![0, 2, 3], vec![1, 2, 2])
    }

    fn toy_input() -> Matrix {
        Matrix::from_vec(3, 2, vec![0.9, -0.3, 0.1, 0.7, -0.5, 0.4])
    }

    #[test]
    fn forward_attention_weights_sum_to_one_per_dst() {
        let p = GatParam::new(2, 3, 5);
        let block = toy_block();
        let (out, tape) = gat_forward(&p, &block, &toy_input(), false);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.cols(), 3);
        // dst 0 has 2 edges + 1 self; dst 1 has 1 edge + 1 self.
        let mut sums = vec![0.0f32; 2];
        for (e, &d) in tape.edge_dst.iter().enumerate() {
            sums[d as usize] += tape.alpha[e];
        }
        assert!((sums[0] - 1.0).abs() < 1e-5);
        assert!((sums[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let block = toy_block();
        let h = toy_input();
        let p = GatParam::new(2, 3, 7);
        let loss_of = |p: &GatParam, h: &Matrix| -> f32 {
            let (out, _) = gat_forward(p, &block, h, true);
            out.data().iter().map(|x| x * x).sum::<f32>() / 2.0
        };
        let (out, tape) = gat_forward(&p, &block, &h, true);
        let grads = gat_backward(&p, &block, &tape, &out);
        let eps = 1e-3f32;
        // Weights.
        for i in 0..2 {
            for j in 0..3 {
                let mut pp = p.clone();
                pp.w.set(i, j, pp.w.get(i, j) + eps);
                let mut pm = p.clone();
                pm.w.set(i, j, pm.w.get(i, j) - eps);
                let fd = (loss_of(&pp, &h) - loss_of(&pm, &h)) / (2.0 * eps);
                let an = grads.gw.get(i, j);
                assert!(
                    (fd - an).abs() < 3e-2 * (1.0 + an.abs()),
                    "gW[{i}{j}] fd {fd} an {an}"
                );
            }
        }
        // Attention vectors.
        for j in 0..3 {
            let mut pp = p.clone();
            pp.a_l[j] += eps;
            let mut pm = p.clone();
            pm.a_l[j] -= eps;
            let fd = (loss_of(&pp, &h) - loss_of(&pm, &h)) / (2.0 * eps);
            assert!(
                (fd - grads.ga_l[j]).abs() < 3e-2,
                "ga_l[{j}] fd {fd} an {}",
                grads.ga_l[j]
            );
            let mut pp = p.clone();
            pp.a_r[j] += eps;
            let mut pm = p.clone();
            pm.a_r[j] -= eps;
            let fd = (loss_of(&pp, &h) - loss_of(&pm, &h)) / (2.0 * eps);
            assert!(
                (fd - grads.ga_r[j]).abs() < 3e-2,
                "ga_r[{j}] fd {fd} an {}",
                grads.ga_r[j]
            );
        }
        // Inputs.
        for r in 0..3 {
            for c in 0..2 {
                let mut hp = h.clone();
                hp.set(r, c, hp.get(r, c) + eps);
                let mut hm = h.clone();
                hm.set(r, c, hm.get(r, c) - eps);
                let fd = (loss_of(&p, &hp) - loss_of(&p, &hm)) / (2.0 * eps);
                let an = grads.gh_src.get(r, c);
                assert!(
                    (fd - an).abs() < 3e-2 * (1.0 + an.abs()),
                    "gh[{r}{c}] fd {fd} an {an}"
                );
            }
        }
    }

    #[test]
    fn params_flatten_round_trip() {
        let p = GatParam::new(4, 5, 1);
        let mut flat = Vec::new();
        p.flatten_into(&mut flat);
        assert_eq!(flat.len(), p.len());
        let mut q = GatParam::new(4, 5, 2);
        let consumed = q.unflatten_from(&flat);
        assert_eq!(consumed, p.len());
        assert_eq!(q.w.data(), p.w.data());
        assert_eq!(q.a_l, p.a_l);
        assert_eq!(q.a_r, p.a_r);
    }
}
