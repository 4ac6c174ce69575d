//! The per-rank trainer worker (§3.2).
//!
//! Each rank holds a full model replica; a mini-batch step is forward →
//! backward → synchronous gradient **allreduce** (average) → identical
//! optimizer step on every rank. This is exactly BSP data parallelism:
//! replicas stay bit-equal, which integration tests assert.

use crate::model::{GnnKind, GnnModel};
use ds_comm::{CommError, Communicator};
use ds_sampling::GraphSample;
use ds_simgpu::{Clock, Cluster};
use ds_tensor::matrix::Matrix;
use ds_tensor::{Adam, Optimizer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wall-clock nanoseconds spent in real trainer model math
/// (`loss_and_grad`) across all ranks. Only advances when
/// `exec_compute` runs the actual kernels; the wall-clock benches read
/// it to isolate the trainer stage from the simulated pipeline around
/// it.
static TRAIN_WALL_NS: AtomicU64 = AtomicU64::new(0);

/// Cumulative wall-clock seconds of real trainer compute so far.
pub fn train_wall_seconds() -> f64 {
    TRAIN_WALL_NS.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Result of one training mini-batch on one rank.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchResult {
    /// Local mini-batch loss (0 for an empty padding batch).
    pub loss: f32,
    /// Local mini-batch accuracy.
    pub accuracy: f64,
    /// Seeds in this rank's batch.
    pub seeds: usize,
}

/// Per-rank BSP trainer.
pub struct Trainer {
    model: GnnModel,
    opt: Adam,
    comm: Arc<Communicator>,
    cluster: Arc<Cluster>,
    rank: usize,
    /// FNV-1a over every applied (allreduced, averaged) gradient
    /// stream — the cross-run / cross-thread-count determinism witness.
    grad_hash: u64,
}

impl Trainer {
    /// Creates a trainer whose replica is identical on every rank (same
    /// seed ⇒ same initialization).
    pub fn new(
        kind: GnnKind,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        num_layers: usize,
        lr: f32,
        comm: Arc<Communicator>,
        cluster: Arc<Cluster>,
        rank: usize,
        seed: u64,
    ) -> Self {
        let model = GnnModel::new(kind, in_dim, hidden, classes, num_layers, seed);
        let opt = Adam::new(lr, model.num_params());
        Trainer {
            model,
            opt,
            comm,
            cluster,
            rank,
            grad_hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// The model replica.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// FNV-1a over the bit patterns of every averaged gradient this
    /// replica has applied. BSP keeps the stream identical across
    /// ranks; determinism keeps it identical across runs and
    /// `DS_PAR_THREADS` settings.
    pub fn grad_stream_hash(&self) -> u64 {
        self.grad_hash
    }

    /// Folds one applied gradient vector into the stream hash.
    fn hash_grads(&mut self, grads: &[f32]) {
        let mut h = self.grad_hash;
        for g in grads {
            for b in g.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.grad_hash = h;
    }

    /// Charges the modelled kernel time of one forward+backward over
    /// `sample`: GEMMs (3× forward), gathers and segment reductions.
    /// In `split` mode the innermost convolution's aggregation sweep is
    /// skipped: the owners already charged it while serving partial
    /// sums during the exchange, and raw features take no gradient so
    /// there is no backward scatter either.
    fn charge_compute(&self, clock: &mut Clock, sample: &GraphSample, split: bool) {
        let m = *self.cluster.model();
        let nl = self.model.num_layers();
        let dims = self.model.dims();
        for k in 0..nl {
            let block = &sample.layers[nl - 1 - k];
            let fan_in = match self.model.kind() {
                GnnKind::GraphSage => 2 * dims[k],
                GnnKind::Gcn | GnnKind::Gat => dims[k],
            };
            // Forward GEMM + two backward GEMMs (weight + input grads).
            let t = m.gemm_time(block.num_dst() as u64, fan_in as u64, dims[k + 1] as u64);
            clock.work_on(3.0 * t, ds_simgpu::clock::ResKind::Gemm);
            if split && k == 0 {
                continue;
            }
            // Gather + segment mean, forward and backward. The fused
            // gather+GEMM path removes the materialized forward gather
            // (rows are packed straight into GEMM panels), so only the
            // aggregation sweep and the backward scatter pay full
            // gather traffic: 1.5× instead of the old 2×.
            let row_bytes = dims[k] as u64 * 4;
            clock.work_on(
                1.5 * m.gather_time(block.num_edges() as u64 + block.num_dst() as u64, row_bytes),
                ds_simgpu::clock::ResKind::Hbm,
            );
        }
    }

    /// Allreduce-average `grads`, fold them into the stream hash, apply
    /// the optimizer step and charge its kernel. Shared tail of both
    /// executing train paths; failures surface *before* the step, so a
    /// retried batch never double-applies gradients.
    fn allreduce_apply(&mut self, clock: &mut Clock, grads: Vec<f32>) -> Result<(), CommError> {
        let n = self.comm.num_ranks() as f32;
        let mut summed = self.comm.try_all_reduce_sum(self.rank, clock, grads)?;
        if n > 1.0 {
            for g in &mut summed {
                *g /= n;
            }
        }
        self.hash_grads(&summed);
        let mut params = self.model.params_flat();
        self.opt.step(&mut params, &summed);
        self.model.set_params_flat(&params);
        // Optimizer kernel.
        let m = *self.cluster.model();
        clock.work(m.gpu.time_full(self.model.num_params() as u64, 4.0));
        Ok(())
    }

    /// One BSP training step. `input` holds feature rows for
    /// `sample.input_nodes()`. Empty batches still join the allreduce
    /// (with zero gradients) to preserve lockstep.
    pub fn train_batch(
        &mut self,
        clock: &mut Clock,
        sample: &GraphSample,
        input: &Matrix,
        labels: &[u32],
    ) -> BatchResult {
        self.try_train_batch(clock, sample, input, labels)
            .unwrap_or_else(|e| panic!("training step failed: {e}"))
    }

    /// Fallible [`Self::train_batch`] for the supervised pipeline: a
    /// failed gradient allreduce surfaces as a typed error *before* the
    /// optimizer step, so the replica is untouched and the batch can be
    /// retried without double-applying gradients.
    pub fn try_train_batch(
        &mut self,
        clock: &mut Clock,
        sample: &GraphSample,
        input: &Matrix,
        labels: &[u32],
    ) -> Result<BatchResult, CommError> {
        let (result, grads) = if sample.seeds.is_empty() {
            (BatchResult::default(), vec![0.0; self.model.num_params()])
        } else {
            self.charge_compute(clock, sample, false);
            let t0 = std::time::Instant::now();
            let (loss, acc, grads) = self.model.loss_and_grad(sample, input, labels);
            TRAIN_WALL_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            (
                BatchResult {
                    loss,
                    accuracy: acc,
                    seeds: sample.seeds.len(),
                },
                grads,
            )
        };
        // Synchronous gradient allreduce (average) — "GNN models are
        // small, gradient communication is usually much cheaper than
        // sampling and loading" (§3.2); the ring volume model reflects it.
        self.allreduce_apply(clock, grads)?;
        Ok(result)
    }

    /// Split-parallel training step: the innermost aggregate was
    /// computed cooperatively by the partial-aggregate exchange, so
    /// this rank holds only `h_dst` (feature rows for the innermost
    /// block's dst set) and `inner_agg` rather than the full input
    /// matrix. BSP semantics — allreduce before step, empty batches
    /// join with zero gradients — are identical to
    /// [`Self::try_train_batch`].
    pub fn try_train_batch_split(
        &mut self,
        clock: &mut Clock,
        sample: &GraphSample,
        h_dst: &Matrix,
        inner_agg: &Matrix,
        labels: &[u32],
    ) -> Result<BatchResult, CommError> {
        let (result, grads) = if sample.seeds.is_empty() {
            (BatchResult::default(), vec![0.0; self.model.num_params()])
        } else {
            self.charge_compute(clock, sample, true);
            let t0 = std::time::Instant::now();
            let (loss, acc, grads) = self
                .model
                .loss_and_grad_split(sample, h_dst, inner_agg, labels);
            TRAIN_WALL_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            (
                BatchResult {
                    loss,
                    accuracy: acc,
                    seeds: sample.seeds.len(),
                },
                grads,
            )
        };
        self.allreduce_apply(clock, grads)?;
        Ok(result)
    }

    /// Timing-only variant of [`Self::train_batch`]: charges the full
    /// modelled compute time and performs the real gradient allreduce
    /// (with zero gradients, which leaves the replica unchanged) but
    /// skips the actual GEMM math. Used by the timing-focused
    /// experiments where convergence is irrelevant; BSP lockstep and all
    /// communication stay fully real.
    pub fn train_batch_timing_only(
        &mut self,
        clock: &mut Clock,
        sample: &GraphSample,
    ) -> BatchResult {
        self.try_train_batch_timing_only(clock, sample)
            .unwrap_or_else(|e| panic!("training step failed: {e}"))
    }

    /// Fallible [`Self::train_batch_timing_only`].
    pub fn try_train_batch_timing_only(
        &mut self,
        clock: &mut Clock,
        sample: &GraphSample,
    ) -> Result<BatchResult, CommError> {
        self.timing_only(clock, sample, false)
    }

    /// Timing-only split-mode step: the innermost aggregation charge is
    /// omitted here because the owners paid it during the exchange.
    pub fn try_train_batch_timing_only_split(
        &mut self,
        clock: &mut Clock,
        sample: &GraphSample,
    ) -> Result<BatchResult, CommError> {
        self.timing_only(clock, sample, true)
    }

    fn timing_only(
        &mut self,
        clock: &mut Clock,
        sample: &GraphSample,
        split: bool,
    ) -> Result<BatchResult, CommError> {
        if !sample.seeds.is_empty() {
            self.charge_compute(clock, sample, split);
        }
        let grads = vec![0.0f32; self.model.num_params()];
        let _ = self.comm.try_all_reduce_sum(self.rank, clock, grads)?;
        let m = *self.cluster.model();
        clock.work(m.gpu.time_full(self.model.num_params() as u64, 4.0));
        Ok(BatchResult {
            loss: 0.0,
            accuracy: 0.0,
            seeds: sample.seeds.len(),
        })
    }

    /// Evaluation without gradients (validation/test accuracy).
    pub fn evaluate(&self, sample: &GraphSample, input: &Matrix, labels: &[u32]) -> BatchResult {
        if sample.seeds.is_empty() {
            return BatchResult::default();
        }
        let logits = self.model.infer(sample, input);
        let (loss, _) = ds_tensor::ops::softmax_cross_entropy(&logits, labels);
        let accuracy = ds_tensor::ops::accuracy(&logits, labels);
        BatchResult {
            loss,
            accuracy,
            seeds: sample.seeds.len(),
        }
    }

    /// Fingerprint of the replica parameters (for BSP-equality tests).
    pub fn param_checksum(&self) -> f64 {
        self.model.params_flat().iter().map(|&x| x as f64).sum()
    }

    /// Snapshot of everything a checkpoint needs from this replica:
    /// flattened parameters plus Adam's step count and moment vectors.
    /// Replicas are BSP-identical, so rank 0's snapshot stands for all.
    pub fn checkpoint_state(&self) -> (Vec<f32>, u64, Vec<f32>, Vec<f32>) {
        let (t, m, v) = self.opt.state();
        (self.model.params_flat(), t, m.to_vec(), v.to_vec())
    }

    /// Restores a snapshot taken by [`Self::checkpoint_state`] onto this
    /// replica. Future steps are then bit-identical to a run that never
    /// stopped.
    pub fn restore_checkpoint_state(&mut self, params: &[f32], t: u64, m: &[f32], v: &[f32]) {
        self.model.set_params_flat(params);
        self.opt.restore(t, m, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_sampling::sample::SampleLayer;
    use ds_simgpu::ClusterSpec;

    fn toy_sample(seed_nodes: Vec<u32>) -> GraphSample {
        // One layer: every seed samples node 0 and 1.
        let n = seed_nodes.len();
        let offsets: Vec<u32> = (0..=n as u32).map(|i| i * 2).collect();
        let neighbors: Vec<u32> = (0..n).flat_map(|_| [0u32, 1]).collect();
        let l = SampleLayer::new(seed_nodes.clone(), offsets, neighbors);
        GraphSample::new(seed_nodes, vec![l])
    }

    fn input_for(sample: &GraphSample, dim: usize) -> Matrix {
        let n = sample.input_nodes().len();
        Matrix::from_vec(
            n,
            dim,
            (0..n * dim)
                .map(|i| ((i * 31 % 17) as f32) / 17.0)
                .collect(),
        )
    }

    #[test]
    fn single_rank_training_reduces_loss() {
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let comm = Arc::new(Communicator::new(41, Arc::clone(&cluster)));
        let mut t = Trainer::new(GnnKind::GraphSage, 4, 8, 3, 1, 0.05, comm, cluster, 0, 1);
        let sample = toy_sample(vec![2, 3, 4]);
        let input = input_for(&sample, 4);
        let labels = vec![0u32, 1, 2];
        let mut clock = Clock::new();
        let first = t.train_batch(&mut clock, &sample, &input, &labels).loss;
        let mut last = first;
        for _ in 0..50 {
            last = t.train_batch(&mut clock, &sample, &input, &labels).loss;
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
        assert!(clock.now() > 0.0);
    }

    #[test]
    fn replicas_stay_identical_across_ranks() {
        let cluster = Arc::new(ClusterSpec::v100(2).build());
        let comm = Arc::new(Communicator::new(42, Arc::clone(&cluster)));
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let comm = Arc::clone(&comm);
                let cluster = Arc::clone(&cluster);
                std::thread::spawn(move || {
                    let mut t =
                        Trainer::new(GnnKind::Gcn, 4, 8, 3, 1, 0.05, comm, cluster, rank, 1);
                    // Different data per rank.
                    let sample = toy_sample(vec![2 + rank as u32 * 3, 3 + rank as u32 * 3]);
                    let input = input_for(&sample, 4);
                    let labels = vec![rank as u32, (rank as u32 + 1) % 3];
                    let mut clock = Clock::new();
                    for _ in 0..10 {
                        t.train_batch(&mut clock, &sample, &input, &labels);
                    }
                    t.param_checksum()
                })
            })
            .collect();
        let sums: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(sums[0], sums[1], "BSP replicas diverged");
    }

    #[test]
    fn empty_batches_join_the_allreduce() {
        let cluster = Arc::new(ClusterSpec::v100(2).build());
        let comm = Arc::new(Communicator::new(43, Arc::clone(&cluster)));
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let comm = Arc::clone(&comm);
                let cluster = Arc::clone(&cluster);
                std::thread::spawn(move || {
                    let mut t =
                        Trainer::new(GnnKind::GraphSage, 4, 8, 3, 1, 0.05, comm, cluster, rank, 1);
                    let mut clock = Clock::new();
                    // Rank 1 has no seeds (padding batch) but must not hang.
                    let result = if rank == 0 {
                        let sample = toy_sample(vec![2, 3]);
                        let input = input_for(&sample, 4);
                        t.train_batch(&mut clock, &sample, &input, &[0, 1])
                    } else {
                        let sample = GraphSample::new(
                            vec![],
                            vec![SampleLayer::new(vec![], vec![0], vec![])],
                        );
                        t.train_batch(&mut clock, &sample, &Matrix::zeros(0, 4), &[])
                    };
                    (result.seeds, t.param_checksum())
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results[0].0, 2);
        assert_eq!(results[1].0, 0);
        assert_eq!(results[0].1, results[1].1);
    }

    #[test]
    fn evaluate_does_not_touch_params() {
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let comm = Arc::new(Communicator::new(44, Arc::clone(&cluster)));
        let t = Trainer::new(GnnKind::GraphSage, 4, 8, 3, 1, 0.05, comm, cluster, 0, 1);
        let before = t.param_checksum();
        let sample = toy_sample(vec![5, 6]);
        let input = input_for(&sample, 4);
        let r = t.evaluate(&sample, &input, &[0, 1]);
        assert!(r.loss > 0.0);
        assert_eq!(t.param_checksum(), before);
    }
}
