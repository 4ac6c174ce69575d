//! K-layer GNN models over graph samples.

use crate::gat::{self, GatParam, GatTape};
use crate::layers::{self, DenseParam, LayerTape};
use ds_sampling::GraphSample;
use ds_tensor::matrix::Matrix;
use ds_tensor::ops;

/// Which convolution family the model stacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GnnKind {
    /// GraphSAGE with mean aggregation (§7.1's default model).
    GraphSage,
    /// GCN (Table 5's model).
    Gcn,
    /// Graph attention (single head) — the third family the paper's
    /// introduction names.
    Gat,
}

/// Parameters of one convolution, by family.
#[derive(Clone, Debug)]
enum LayerParams {
    Dense(DenseParam),
    Gat(GatParam),
}

impl LayerParams {
    fn len(&self) -> usize {
        match self {
            LayerParams::Dense(p) => p.len(),
            LayerParams::Gat(p) => p.len(),
        }
    }

    fn flatten_into(&self, out: &mut Vec<f32>) {
        match self {
            LayerParams::Dense(p) => p.flatten_into(out),
            LayerParams::Gat(p) => p.flatten_into(out),
        }
    }

    fn unflatten_from(&mut self, flat: &[f32]) -> usize {
        match self {
            LayerParams::Dense(p) => p.unflatten_from(flat),
            LayerParams::Gat(p) => p.unflatten_from(flat),
        }
    }
}

/// Saved forward state of one convolution, by family.
#[derive(Clone, Debug)]
enum TapeEntry {
    Dense(LayerTape),
    Gat(GatTape),
}

/// A K-layer GNN with flat-parameter access for BSP allreduce.
#[derive(Clone, Debug)]
pub struct GnnModel {
    kind: GnnKind,
    /// Per-conv dims: `dims[0]` = feature dim, `dims[K]` = classes.
    dims: Vec<usize>,
    params: Vec<LayerParams>,
}

/// Forward tape for a whole model evaluation.
#[derive(Clone, Debug)]
pub struct ModelTape {
    tapes: Vec<TapeEntry>,
    logits: Matrix,
    probs: Matrix,
}

impl ModelTape {
    /// The output logits (rows = seeds).
    pub fn logits(&self) -> &Matrix {
        &self.logits
    }
}

impl GnnModel {
    /// Builds a model: `num_layers` convolutions from `in_dim` through
    /// `hidden` to `classes`. The paper's default is 3 layers, hidden
    /// size 256.
    pub fn new(
        kind: GnnKind,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        num_layers: usize,
        seed: u64,
    ) -> Self {
        assert!(num_layers >= 1);
        let mut dims = Vec::with_capacity(num_layers + 1);
        dims.push(in_dim);
        for _ in 1..num_layers {
            dims.push(hidden);
        }
        dims.push(classes);
        let params = (0..num_layers)
            .map(|k| {
                let layer_seed = seed ^ ((k as u64 + 1) << 32);
                match kind {
                    GnnKind::GraphSage => {
                        LayerParams::Dense(DenseParam::new(2 * dims[k], dims[k + 1], layer_seed))
                    }
                    GnnKind::Gcn => {
                        LayerParams::Dense(DenseParam::new(dims[k], dims[k + 1], layer_seed))
                    }
                    GnnKind::Gat => {
                        LayerParams::Gat(GatParam::new(dims[k], dims[k + 1], layer_seed))
                    }
                }
            })
            .collect();
        GnnModel { kind, dims, params }
    }

    /// The convolution family.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Number of convolutions.
    pub fn num_layers(&self) -> usize {
        self.params.len()
    }

    /// Layer dimensions (`[in, hidden, ..., classes]`).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total scalar parameters.
    pub fn num_params(&self) -> usize {
        self.params.iter().map(|p| p.len()).sum()
    }

    /// Flattens all parameters (layer order, weights then bias).
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for p in &self.params {
            p.flatten_into(&mut out);
        }
        out
    }

    /// Loads parameters from a flat vector.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params());
        let mut off = 0;
        for p in &mut self.params {
            off += p.unflatten_from(&flat[off..]);
        }
    }

    /// Forward pass: `input` holds feature rows for
    /// `sample.input_nodes()` in order. Returns logits for the seeds and
    /// the tape for backward.
    pub fn forward(
        &self,
        sample: &GraphSample,
        input: &Matrix,
        labels: &[u32],
    ) -> (f32, ModelTape) {
        let nl = self.num_layers();
        self.check_input(sample, input);
        let mut h = input.clone();
        let mut tapes = Vec::with_capacity(nl);
        for k in 0..nl {
            // Conv k consumes block layers[nl-1-k] (innermost first).
            let block = &sample.layers[nl - 1 - k];
            let relu = k + 1 < nl;
            let (out, tape) = match (&self.params[k], self.kind) {
                (LayerParams::Dense(p), GnnKind::GraphSage) => {
                    let (o, t) = layers::sage_forward(p, block, &h, relu);
                    (o, TapeEntry::Dense(t))
                }
                (LayerParams::Dense(p), _) => {
                    let (o, t) = layers::gcn_forward(p, block, &h, relu);
                    (o, TapeEntry::Dense(t))
                }
                (LayerParams::Gat(p), _) => {
                    let (o, t) = gat::gat_forward(p, block, &h, relu);
                    (o, TapeEntry::Gat(t))
                }
            };
            tapes.push(tape);
            h = out;
        }
        let logits = h;
        let (loss, probs) = ops::softmax_cross_entropy(&logits, labels);
        (
            loss,
            ModelTape {
                tapes,
                logits,
                probs,
            },
        )
    }

    /// Inference: the logits of [`Self::forward`], bit for bit, from the
    /// same kernels in the same order, with no tape, no loss and no
    /// copy of `input` — what serving and evaluation need.
    pub fn infer(&self, sample: &GraphSample, input: &Matrix) -> Matrix {
        let nl = self.num_layers();
        self.check_input(sample, input);
        let mut h: Option<Matrix> = None;
        for k in 0..nl {
            let block = &sample.layers[nl - 1 - k];
            let relu = k + 1 < nl;
            let src = h.as_ref().unwrap_or(input);
            h = Some(match (&self.params[k], self.kind) {
                (LayerParams::Dense(p), GnnKind::GraphSage) => {
                    layers::sage_infer(p, block, src, relu)
                }
                (LayerParams::Dense(p), _) => layers::gcn_infer(p, block, src, relu),
                (LayerParams::Gat(p), _) => gat::gat_infer(p, block, src, relu),
            });
        }
        h.expect("a model has at least one layer")
    }

    fn check_input(&self, sample: &GraphSample, input: &Matrix) {
        assert_eq!(
            sample.num_layers(),
            self.num_layers(),
            "sample depth must match model depth"
        );
        assert_eq!(
            input.rows(),
            sample.input_nodes().len(),
            "input rows must cover the input set"
        );
        assert_eq!(input.cols(), self.dims[0]);
    }

    /// Split-parallel forward: the innermost convolution's aggregated
    /// neighborhood arrives precomputed (`inner_agg`, one row per dst of
    /// the innermost block — the neighbor mean for SAGE, the closed
    /// mean for GCN) together with raw feature rows for those dst nodes
    /// only (`h_dst`). No feature matrix over the full input set ever
    /// exists on this rank; outer convolutions run exactly as
    /// [`Self::forward`]. GAT is rejected — attention weights depend on
    /// both endpoints, so its aggregation does not decompose into
    /// per-owner partial sums.
    pub fn forward_split(
        &self,
        sample: &GraphSample,
        h_dst: &Matrix,
        inner_agg: &Matrix,
        labels: &[u32],
    ) -> (f32, ModelTape) {
        let nl = self.num_layers();
        assert_ne!(
            self.kind,
            GnnKind::Gat,
            "split mode is mean-aggregation only"
        );
        assert_eq!(
            sample.num_layers(),
            nl,
            "sample depth must match model depth"
        );
        let inner = &sample.layers[nl - 1];
        assert_eq!(inner_agg.rows(), inner.num_dst());
        assert_eq!(inner_agg.cols(), self.dims[0]);
        assert_eq!(h_dst.rows(), inner.num_dst());
        let mut tapes = Vec::with_capacity(nl);
        let relu0 = nl > 1;
        let (out, tape0) = match (&self.params[0], self.kind) {
            (LayerParams::Dense(p), GnnKind::GraphSage) => {
                layers::sage_forward_preagg(p, h_dst, inner_agg, relu0)
            }
            (LayerParams::Dense(p), _) => layers::gcn_forward_preagg(p, inner_agg, relu0),
            (LayerParams::Gat(_), _) => unreachable!("GAT rejected above"),
        };
        tapes.push(TapeEntry::Dense(tape0));
        let mut h = out;
        for k in 1..nl {
            let block = &sample.layers[nl - 1 - k];
            let relu = k + 1 < nl;
            let (out, tape) = match (&self.params[k], self.kind) {
                (LayerParams::Dense(p), GnnKind::GraphSage) => {
                    layers::sage_forward(p, block, &h, relu)
                }
                (LayerParams::Dense(p), _) => layers::gcn_forward(p, block, &h, relu),
                (LayerParams::Gat(_), _) => unreachable!("GAT rejected above"),
            };
            tapes.push(TapeEntry::Dense(tape));
            h = out;
        }
        let logits = h;
        let (loss, probs) = ops::softmax_cross_entropy(&logits, labels);
        (
            loss,
            ModelTape {
                tapes,
                logits,
                probs,
            },
        )
    }

    /// Backward of [`Self::forward_split`]: identical to
    /// [`Self::backward`] except the innermost convolution yields only
    /// weight and bias gradients — its inputs are raw features, which
    /// take no gradient, so the split exchange needs no backward leg.
    pub fn backward_split(
        &self,
        sample: &GraphSample,
        tape: &ModelTape,
        labels: &[u32],
    ) -> Vec<f32> {
        let nl = self.num_layers();
        let mut grad = ops::softmax_cross_entropy_backward(&tape.probs, labels);
        let mut per_layer: Vec<Vec<f32>> = vec![Vec::new(); nl];
        for k in (0..nl).rev() {
            let (LayerParams::Dense(p), TapeEntry::Dense(t)) = (&self.params[k], &tape.tapes[k])
            else {
                unreachable!("split tapes are dense");
            };
            let (gw, gb) = if k == 0 {
                match self.kind {
                    GnnKind::GraphSage => layers::sage_backward_preagg(t, &grad),
                    _ => layers::gcn_backward_preagg(t, &grad),
                }
            } else {
                let block = &sample.layers[nl - 1 - k];
                let g = match self.kind {
                    GnnKind::GraphSage => layers::sage_backward(p, block, t, &grad),
                    _ => layers::gcn_backward(p, block, t, &grad),
                };
                grad = g.gh_src;
                (g.gw, g.gb)
            };
            let mut flat_layer = Vec::with_capacity(p.len());
            flat_layer.extend_from_slice(gw.data());
            flat_layer.extend_from_slice(&gb);
            per_layer[k] = flat_layer;
        }
        let mut flat = Vec::with_capacity(self.num_params());
        for layer in per_layer {
            flat.extend_from_slice(&layer);
        }
        flat
    }

    /// Convenience: split-mode forward + backward + accuracy.
    pub fn loss_and_grad_split(
        &self,
        sample: &GraphSample,
        h_dst: &Matrix,
        inner_agg: &Matrix,
        labels: &[u32],
    ) -> (f32, f64, Vec<f32>) {
        let (loss, tape) = self.forward_split(sample, h_dst, inner_agg, labels);
        let acc = ops::accuracy(&tape.logits, labels);
        let grads = self.backward_split(sample, &tape, labels);
        (loss, acc, grads)
    }

    /// Backward pass: returns the flat gradient vector.
    pub fn backward(&self, sample: &GraphSample, tape: &ModelTape, labels: &[u32]) -> Vec<f32> {
        let nl = self.num_layers();
        let mut grad = ops::softmax_cross_entropy_backward(&tape.probs, labels);
        // Collect per-layer grads from last conv to first, then flatten
        // in layer order.
        let mut per_layer: Vec<Vec<f32>> = vec![Vec::new(); nl];
        for k in (0..nl).rev() {
            let block = &sample.layers[nl - 1 - k];
            match (&self.params[k], &tape.tapes[k]) {
                (LayerParams::Dense(p), TapeEntry::Dense(t)) => {
                    let g = match self.kind {
                        GnnKind::GraphSage => layers::sage_backward(p, block, t, &grad),
                        _ => layers::gcn_backward(p, block, t, &grad),
                    };
                    grad = g.gh_src;
                    let mut flat_layer = Vec::with_capacity(p.len());
                    flat_layer.extend_from_slice(g.gw.data());
                    flat_layer.extend_from_slice(&g.gb);
                    per_layer[k] = flat_layer;
                }
                (LayerParams::Gat(p), TapeEntry::Gat(t)) => {
                    let g = gat::gat_backward(p, block, t, &grad);
                    grad = g.gh_src;
                    let mut flat_layer = Vec::with_capacity(p.len());
                    flat_layer.extend_from_slice(g.gw.data());
                    flat_layer.extend_from_slice(&g.ga_l);
                    flat_layer.extend_from_slice(&g.ga_r);
                    flat_layer.extend_from_slice(&g.gb);
                    per_layer[k] = flat_layer;
                }
                _ => unreachable!("tape/param family mismatch"),
            }
        }
        let mut flat = Vec::with_capacity(self.num_params());
        for layer in per_layer {
            flat.extend_from_slice(&layer);
        }
        flat
    }

    /// Convenience: forward + backward + accuracy in one call.
    pub fn loss_and_grad(
        &self,
        sample: &GraphSample,
        input: &Matrix,
        labels: &[u32],
    ) -> (f32, f64, Vec<f32>) {
        let (loss, tape) = self.forward(sample, input, labels);
        let acc = ops::accuracy(&tape.logits, labels);
        let grads = self.backward(sample, &tape, labels);
        (loss, acc, grads)
    }

    /// Approximate FLOPs of one forward+backward over `sample` (GEMMs
    /// only — 3× the forward GEMM cost, the standard estimate). Used by
    /// the timing model.
    pub fn train_flops(&self, sample: &GraphSample) -> u64 {
        let nl = self.num_layers();
        let mut flops = 0u64;
        for k in 0..nl {
            let block = &sample.layers[nl - 1 - k];
            let fan_in = match self.kind {
                GnnKind::GraphSage => 2 * self.dims[k],
                GnnKind::Gcn | GnnKind::Gat => self.dims[k],
            };
            flops += 2 * block.num_dst() as u64 * fan_in as u64 * self.dims[k + 1] as u64;
            if self.kind == GnnKind::Gat {
                // Attention scores + weighted aggregation, per edge.
                flops += 6 * block.num_edges() as u64 * self.dims[k + 1] as u64;
            }
        }
        3 * flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_sampling::sample::SampleLayer;

    /// A 2-layer sample: seeds [0,1]; layer0 neighbors {1,2}/{2};
    /// layer1 over src {0,1,2} with small lists.
    fn toy_sample() -> GraphSample {
        let l0 = SampleLayer::new(vec![0, 1], vec![0, 2, 3], vec![1, 2, 2]);
        let l1 = SampleLayer::new(vec![0, 1, 2], vec![0, 1, 2, 3], vec![2, 0, 1]);
        GraphSample::new(vec![0, 1], vec![l0, l1])
    }

    fn toy_input(dim: usize) -> Matrix {
        // Hash-scrambled values: smooth inputs (e.g. a sine ramp) make
        // row 1 ≈ mean(row 0, row 2), which renders the two seeds
        // indistinguishable under GCN's mean aggregation.
        Matrix::from_vec(
            3,
            dim,
            (0..3 * dim)
                .map(|i| ((i * 2654435761) % 101) as f32 / 50.0 - 1.0)
                .collect(),
        )
    }

    #[test]
    fn forward_shapes_and_loss_are_sane() {
        for kind in [GnnKind::GraphSage, GnnKind::Gcn] {
            let m = GnnModel::new(kind, 4, 8, 3, 2, 42);
            let sample = toy_sample();
            let (loss, tape) = m.forward(&sample, &toy_input(4), &[0, 2]);
            assert_eq!(tape.logits().rows(), 2);
            assert_eq!(tape.logits().cols(), 3);
            assert!(loss.is_finite() && loss > 0.0, "{kind:?} loss {loss}");
        }
    }

    #[test]
    fn params_flat_round_trips() {
        let m = GnnModel::new(GnnKind::GraphSage, 4, 8, 3, 2, 42);
        let flat = m.params_flat();
        assert_eq!(flat.len(), m.num_params());
        let mut m2 = GnnModel::new(GnnKind::GraphSage, 4, 8, 3, 2, 99);
        assert_ne!(m2.params_flat(), flat);
        m2.set_params_flat(&flat);
        assert_eq!(m2.params_flat(), flat);
    }

    #[test]
    fn whole_model_gradient_matches_finite_differences() {
        let mut m = GnnModel::new(GnnKind::GraphSage, 3, 5, 2, 2, 7);
        let sample = toy_sample();
        let input = toy_input(3);
        let labels = vec![1u32, 0];
        let (_, _, grads) = m.loss_and_grad(&sample, &input, &labels);
        let base = m.params_flat();
        let eps = 1e-2f32;
        // Spot-check a spread of parameter coordinates.
        for idx in (0..m.num_params()).step_by(m.num_params() / 17 + 1) {
            let mut plus = base.clone();
            plus[idx] += eps;
            m.set_params_flat(&plus);
            let (lp, _) = m.forward(&sample, &input, &labels);
            let mut minus = base.clone();
            minus[idx] -= eps;
            m.set_params_flat(&minus);
            let (lm, _) = m.forward(&sample, &input, &labels);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grads[idx]).abs() < 5e-2 * (1.0 + grads[idx].abs()),
                "param {idx}: fd {fd} vs analytic {}",
                grads[idx]
            );
            m.set_params_flat(&base);
        }
    }

    #[test]
    fn training_reduces_loss_on_toy_problem() {
        use ds_tensor::{Adam, Optimizer};
        let mut m = GnnModel::new(GnnKind::Gcn, 4, 8, 2, 2, 3);
        let sample = toy_sample();
        let input = toy_input(4);
        let labels = vec![1u32, 0];
        let mut opt = Adam::new(0.05, m.num_params());
        let (first, _, _) = m.loss_and_grad(&sample, &input, &labels);
        let mut last = first;
        for _ in 0..60 {
            let (loss, _, grads) = m.loss_and_grad(&sample, &input, &labels);
            let mut p = m.params_flat();
            opt.step(&mut p, &grads);
            m.set_params_flat(&p);
            last = loss;
        }
        assert!(last < first * 0.2, "loss {first} -> {last}");
    }

    /// Recomputes the innermost aggregate the way the split exchange
    /// would with a single owner: neighbor rows summed in edge order,
    /// the self row folded in for GCN, one divide at the end.
    fn inner_agg_of(sample: &GraphSample, input: &Matrix, closed: bool) -> Matrix {
        let inner = sample.layers.last().unwrap();
        let d = input.cols();
        let mut agg = Matrix::zeros(inner.num_dst(), d);
        for i in 0..inner.num_dst() {
            let (lo, hi) = (inner.offsets[i] as usize, inner.offsets[i + 1] as usize);
            for &p in &inner.neighbor_pos_in_src[lo..hi] {
                for (o, &v) in agg.row_mut(i).iter_mut().zip(input.row(p as usize)) {
                    *o += v;
                }
            }
            let mut count = hi - lo;
            if closed {
                let p = inner.dst_pos_in_src[i] as usize;
                for (o, &v) in agg.row_mut(i).iter_mut().zip(input.row(p)) {
                    *o += v;
                }
                count += 1;
            }
            if count > 1 {
                let inv = 1.0 / count as f32;
                for o in agg.row_mut(i).iter_mut() {
                    *o *= inv;
                }
            }
        }
        agg
    }

    #[test]
    fn split_forward_matches_dense_forward() {
        for kind in [GnnKind::GraphSage, GnnKind::Gcn] {
            let m = GnnModel::new(kind, 4, 8, 3, 2, 42);
            let sample = toy_sample();
            let input = toy_input(4);
            let labels = [0u32, 2];
            let (loss, tape) = m.forward(&sample, &input, &labels);
            let inner = sample.layers.last().unwrap();
            let h_dst = input.gather_rows(&inner.dst_pos_in_src);
            let agg = inner_agg_of(&sample, &input, kind == GnnKind::Gcn);
            let (loss_s, tape_s) = m.forward_split(&sample, &h_dst, &agg, &labels);
            // With one owner the partial-sum order equals the fused
            // edge order, so the forward is bit-identical.
            assert_eq!(loss.to_bits(), loss_s.to_bits(), "{kind:?} loss diverged");
            assert_eq!(tape.logits().data(), tape_s.logits().data());
            // Gradients agree numerically (the weight-grad GEMMs run on
            // different but equivalent kernels).
            let g = m.backward(&sample, &tape, &labels);
            let gs = m.backward_split(&sample, &tape_s, &labels);
            assert_eq!(g.len(), gs.len());
            for (a, b) in g.iter().zip(&gs) {
                assert!(
                    (a - b).abs() <= 1e-5 * (1.0 + a.abs()),
                    "{kind:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn infer_logits_equal_forward_logits_bit_for_bit() {
        let g = ds_graph::gen::erdos_renyi(300, 3000, true, 11);
        let seeds: Vec<u32> = (0..24).map(|i| i * 7).collect();
        for kind in [GnnKind::GraphSage, GnnKind::Gcn, GnnKind::Gat] {
            for layers in 1..=3 {
                let fanout = vec![5; layers];
                let sample = ds_sampling::local::local_sample(&g, &seeds, &fanout, 3, 0);
                let n = sample.input_nodes().len();
                let input = Matrix::from_vec(
                    n,
                    6,
                    (0..n * 6)
                        .map(|i| ((i * 2654435761) % 103) as f32 / 51.0 - 1.0)
                        .collect(),
                );
                let m = GnnModel::new(kind, 6, 8, 4, layers, 5);
                let labels = vec![0u32; seeds.len()];
                let (_, tape) = m.forward(&sample, &input, &labels);
                let logits = m.infer(&sample, &input);
                assert_eq!((logits.rows(), logits.cols()), (seeds.len(), 4));
                let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&logits),
                    bits(tape.logits()),
                    "{kind:?} at {layers} layers"
                );
            }
        }
    }

    #[test]
    fn gcn_is_lighter_than_sage_in_flops() {
        let sage = GnnModel::new(GnnKind::GraphSage, 16, 32, 4, 2, 1);
        let gcn = GnnModel::new(GnnKind::Gcn, 16, 32, 4, 2, 1);
        let s = toy_sample();
        assert!(gcn.train_flops(&s) < sage.train_flops(&s));
    }
}
