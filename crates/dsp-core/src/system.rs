//! The common system interface and shared evaluation machinery.

use crate::stats::EpochStats;
use ds_graph::{Csr, Features, Labels, NodeId};
use ds_sampling::local;
use ds_sampling::sample::GraphSample;
use ds_sampling::{BatchSampler, SeedSchedule};
use ds_simgpu::{Clock, Cluster};
use ds_tensor::matrix::Matrix;
use std::sync::Arc;

/// A buildable, runnable GNN training system.
pub trait System {
    /// Runs one full training epoch and reports its statistics.
    fn run_epoch(&mut self, epoch: u64) -> EpochStats;

    /// Runs the sampler alone over one epoch's batches ("without
    /// interference from other workers", §7.3) and returns the
    /// simulated sampling time — the Table 6 metric.
    fn run_sampler_epoch(&mut self, epoch: u64) -> f64;

    /// Classification accuracy of the current model on the held-out
    /// validation set (each system resolves the ids in its own id
    /// space — DSP renumbers nodes, the baselines do not).
    fn evaluate_validation(&mut self) -> f64;

    /// Display name for tables.
    fn name(&self) -> &'static str;

    /// The simulated machine (traffic meters etc.).
    fn cluster(&self) -> &Arc<Cluster>;
}

/// The [`System::run_sampler_epoch`] body every system shares: each
/// rank's sampler alone, one thread per rank, over its share of
/// `epoch`. Returns the slowest rank's simulated sampling time.
pub(crate) fn sampler_epoch<'a, S: BatchSampler + Send + ?Sized + 'a>(
    samplers: impl Iterator<Item = &'a mut S>,
    schedules: &[SeedSchedule],
    epoch: u64,
) -> f64 {
    let batches: Vec<Vec<Vec<NodeId>>> = schedules.iter().map(|s| s.epoch_batches(epoch)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = samplers
            .zip(batches)
            .enumerate()
            .map(|(rank, (sampler, rank_batches))| {
                ds_exec::spawn_scoped_named(scope, format!("dev-{rank}"), move || {
                    let mut clock = Clock::new();
                    for seeds in &rank_batches {
                        let _ = sampler.sample_batch(&mut clock, seeds);
                    }
                    clock.now()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sampler thread panicked"))
            .fold(0.0, f64::max)
    })
}

/// Deterministic local sampling used for *evaluation only* (no timing,
/// no communication): the batch index is offset so evaluation never
/// reuses a training batch's random stream. Online serving (`ds-serve`)
/// uses the same kernel under its own disjoint batch base.
pub fn eval_sample(graph: &Csr, seeds: &[NodeId], fanout: &[usize], seed: u64) -> GraphSample {
    const EVAL_BATCH_BASE: u64 = 1 << 40;
    local::local_sample(graph, seeds, fanout, seed, EVAL_BATCH_BASE)
}

/// Evaluates a trainer's model on `nodes` in chunks, gathering input
/// features from the host copy. Returns mean accuracy.
pub fn evaluate_model(
    trainer: &ds_gnn::Trainer,
    graph: &Csr,
    features: &Features,
    labels: &Labels,
    nodes: &[NodeId],
    fanout: &[usize],
    seed: u64,
    chunk: usize,
) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    let mut correct_weighted = 0.0;
    for batch in nodes.chunks(chunk.max(1)) {
        let sample = eval_sample(graph, batch, fanout, seed);
        let gathered = features.gather(sample.input_nodes());
        let input = Matrix::from_vec(
            sample.input_nodes().len(),
            features.dim(),
            gathered.into_vec(),
        );
        let batch_labels: Vec<u32> = batch.iter().map(|&v| labels.get(v)).collect();
        let r = trainer.evaluate(&sample, &input, &batch_labels);
        correct_weighted += r.accuracy * batch.len() as f64;
    }
    correct_weighted / nodes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::gen;
    use ds_sampling::local::request_rng;
    use ds_sampling::sample::SampleLayer;

    #[test]
    fn eval_sample_is_valid_and_deterministic() {
        let g = gen::erdos_renyi(200, 3000, true, 5);
        let a = eval_sample(&g, &[1, 2, 3], &[4, 3], 7);
        let b = eval_sample(&g, &[1, 2, 3], &[4, 3], 7);
        assert_eq!(a, b);
        assert_eq!(a.num_layers(), 2);
        for layer in &a.layers {
            for (i, &dst) in layer.dst.iter().enumerate() {
                for &nb in layer.neighbors_of(i) {
                    assert!(g.neighbors(dst).contains(&nb));
                }
            }
        }
    }

    #[test]
    fn eval_sample_differs_from_training_batches() {
        let g = gen::erdos_renyi(100, 2000, true, 5);
        // Training batch 0 with the same seed nodes must not equal the
        // evaluation sample (different stream).
        let eval = eval_sample(&g, &[5, 6], &[3], 7);
        let mut offsets = vec![0u32];
        let mut neighbors = Vec::new();
        for &v in &[5u32, 6] {
            let mut rng = request_rng(7, 0, 0, v);
            local::sample_uniform_into(g.neighbors(v), 3, &mut rng, &mut neighbors);
            offsets.push(neighbors.len() as u32);
        }
        let train0 = GraphSample::new(
            vec![5, 6],
            vec![SampleLayer::new(vec![5, 6], offsets, neighbors)],
        );
        assert_ne!(eval, train0);
    }
}
