//! The baseline systems of §7.1 — Quiver, DGL-UVA, DGL-CPU and PyG —
//! plus the FastGCN CPU layer-wise sampler of Table 7.
//!
//! All baselines share DSP's trainer (the paper's systems share the
//! same training backend semantics) and differ in sampler and loader:
//!
//! | system  | sampler                   | feature loader            |
//! |---------|---------------------------|---------------------------|
//! | Quiver  | GPU UVA (+cudaMalloc)     | replicated cache + UVA    |
//! | DGL-UVA | GPU UVA (caching alloc)   | all UVA                   |
//! | DGL-CPU | CPU (native)              | CPU gather + PCIe copy    |
//! | PyG     | CPU (Python-assisted)     | CPU gather + PCIe copy    |
//!
//! They run their per-batch tasks sequentially (their published
//! implementations overlap far less than DSP's pipeline; the paper
//! compares against them as-is).

use crate::config::{SystemKind, TrainConfig};
use crate::layout::{build_host_layout, HostLayout};
use crate::stats::{EpochStats, MetricAccumulator, RankEpoch};
use crate::system::{evaluate_model, sampler_epoch, System};
use ds_cache::{CpuLoader, FeatureLoader, HostLoader, ReplicatedLoader};
use ds_comm::Communicator;
use ds_gnn::Trainer;
use ds_graph::{Dataset, NodeId};
use ds_sampling::baselines::{CpuSampler, CpuVariant, UvaSampler, UvaVariant};
use ds_sampling::BatchSampler;
use ds_simgpu::{Clock, Cluster};
use std::sync::Arc;

struct BaselineRank {
    sampler: Box<dyn BatchSampler + Send>,
    loader: Box<dyn FeatureLoader + Send>,
    trainer: Trainer,
}

/// One of the four baseline systems.
pub struct BaselineSystem {
    kind: SystemKind,
    layout: HostLayout,
    cfg: TrainConfig,
    ranks: Vec<BaselineRank>,
}

impl BaselineSystem {
    /// Builds the baseline `kind` over `gpus` devices.
    pub fn new(kind: SystemKind, dataset: &Dataset, gpus: usize, cfg: &TrainConfig) -> Self {
        assert!(
            matches!(
                kind,
                SystemKind::Quiver | SystemKind::DglUva | SystemKind::DglCpu | SystemKind::PyG
            ),
            "use DspSystem for {kind:?}"
        );
        let layout = build_host_layout(dataset, gpus, cfg, kind == SystemKind::Quiver);
        let cluster = Arc::clone(&layout.cluster);
        let trainer_comm = Arc::new(Communicator::new(3, Arc::clone(&cluster)));
        let ranks = (0..gpus)
            .map(|rank| {
                let sampler: Box<dyn BatchSampler + Send> = match kind {
                    SystemKind::Quiver => Box::new(UvaSampler::new(
                        Arc::clone(&layout.graph),
                        Arc::clone(&cluster),
                        rank,
                        cfg.fanout.clone(),
                        cfg.biased,
                        UvaVariant::Quiver,
                        cfg.seed,
                    )),
                    SystemKind::DglUva => Box::new(UvaSampler::new(
                        Arc::clone(&layout.graph),
                        Arc::clone(&cluster),
                        rank,
                        cfg.fanout.clone(),
                        cfg.biased,
                        UvaVariant::DglUva,
                        cfg.seed,
                    )),
                    SystemKind::DglCpu => Box::new(CpuSampler::new(
                        Arc::clone(&layout.graph),
                        Arc::clone(&cluster),
                        rank,
                        gpus,
                        cfg.fanout.clone(),
                        CpuVariant::DglCpu,
                        cfg.seed,
                    )),
                    SystemKind::PyG => Box::new(CpuSampler::new(
                        Arc::clone(&layout.graph),
                        Arc::clone(&cluster),
                        rank,
                        gpus,
                        cfg.fanout.clone(),
                        CpuVariant::PyG,
                        cfg.seed,
                    )),
                    _ => unreachable!(),
                };
                let loader: Box<dyn FeatureLoader + Send> = match kind {
                    SystemKind::Quiver => Box::new(ReplicatedLoader::new(
                        Arc::clone(layout.replicated.as_ref().unwrap()),
                        Arc::clone(&layout.features),
                        Arc::clone(&cluster),
                        rank,
                    )),
                    SystemKind::DglUva => Box::new(HostLoader::new(
                        Arc::clone(&layout.features),
                        Arc::clone(&cluster),
                        rank,
                    )),
                    SystemKind::DglCpu => Box::new(CpuLoader::new(
                        Arc::clone(&layout.features),
                        Arc::clone(&cluster),
                        rank,
                    )),
                    SystemKind::PyG => Box::new(
                        CpuLoader::new(Arc::clone(&layout.features), Arc::clone(&cluster), rank)
                            .with_gather_efficiency(0.45),
                    ),
                    _ => unreachable!(),
                };
                BaselineRank {
                    sampler,
                    loader,
                    trainer: Trainer::new(
                        cfg.model,
                        layout.in_dim,
                        cfg.hidden,
                        layout.classes,
                        cfg.num_layers,
                        cfg.lr,
                        Arc::clone(&trainer_comm),
                        Arc::clone(&cluster),
                        rank,
                        cfg.seed,
                    ),
                }
            })
            .collect();
        BaselineSystem {
            kind,
            layout,
            cfg: cfg.clone(),
            ranks,
        }
    }

    /// The host layout (for inspection).
    pub fn layout(&self) -> &HostLayout {
        &self.layout
    }
}

impl System for BaselineSystem {
    fn run_epoch(&mut self, epoch: u64) -> EpochStats {
        self.layout.cluster.reset_traffic();
        let exec = self.cfg.exec_compute;
        let labels = &self.layout.labels;
        let batches: Vec<Vec<Vec<NodeId>>> = self
            .layout
            .schedules
            .iter()
            .map(|s| s.epoch_batches(epoch))
            .collect();
        let num_batches = batches.first().map(|b| b.len()).unwrap_or(0);
        let results: Vec<RankEpoch> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .ranks
                .iter_mut()
                .zip(batches)
                .enumerate()
                .map(|(rank, (state, rank_batches))| {
                    ds_exec::spawn_scoped_named(scope, format!("dev-{rank}"), move || {
                        let mut clock = Clock::new();
                        let mut metrics = MetricAccumulator::default();
                        let (mut sb, mut lb, mut tb) = (0.0, 0.0, 0.0);
                        for seeds in &rank_batches {
                            let b0 = clock.busy();
                            let sample = state.sampler.sample_batch(&mut clock, seeds);
                            let b1 = clock.busy();
                            let feats = state.loader.load(&mut clock, sample.input_nodes());
                            let b2 = clock.busy();
                            let r = if exec {
                                let lab: Vec<u32> =
                                    sample.seeds.iter().map(|&v| labels.get(v)).collect();
                                state.trainer.train_batch(&mut clock, &sample, &feats, &lab)
                            } else {
                                state.trainer.train_batch_timing_only(&mut clock, &sample)
                            };
                            let b3 = clock.busy();
                            sb += b1 - b0;
                            lb += b2 - b1;
                            tb += b3 - b2;
                            metrics.add(r.loss, r.accuracy, r.seeds);
                        }
                        RankEpoch {
                            sample_busy: sb,
                            load_busy: lb,
                            train_busy: tb,
                            useful: clock.device_useful(),
                            makespan: clock.now(),
                            metrics,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });
        // Baselines run unsupervised: no retry or degradation machinery
        // (faults still perturb their transfer timings).
        EpochStats::fold(&results, &self.layout.cluster, num_batches)
    }

    fn run_sampler_epoch(&mut self, epoch: u64) -> f64 {
        let samplers = self.ranks.iter_mut().map(|r| &mut *r.sampler);
        sampler_epoch(samplers, &self.layout.schedules, epoch)
    }

    fn evaluate_validation(&mut self) -> f64 {
        evaluate_model(
            &self.ranks[0].trainer,
            &self.layout.graph,
            &self.layout.features,
            &self.layout.labels,
            &self.layout.val_nodes,
            &self.cfg.fanout,
            self.cfg.seed,
            4 * self.cfg.batch_size,
        )
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn cluster(&self) -> &Arc<Cluster> {
        &self.layout.cluster
    }
}

/// Table 7's FastGCN baseline: single-process TensorFlow-CPU layer-wise
/// sampling. The implementation recomputes layer-sampling probabilities
/// by scanning the candidate nodes' full adjacency lists on the CPU —
/// which is why its cost explodes with average degree — plus a fat
/// per-batch framework overhead. Returns the simulated sampling seconds
/// for one epoch.
pub fn fastgcn_cpu_sampling_time(dataset: &Dataset, fanout: &[usize], batch_size: usize) -> f64 {
    // Effective single-core scan rate of the TF gather/softmax path and
    // the per-batch session overhead (calibrated against Table 7's
    // Products row; the Friendster blow-up then follows from degree).
    const NS_PER_EDGE: f64 = 45.0;
    const BATCH_OVERHEAD: f64 = 80.0e-3;
    let n_batches = dataset.train.len().div_ceil(batch_size).max(1);
    let edges_scanned = fastgcn_scanned_edges_per_batch(dataset, fanout, batch_size);
    let overhead = BATCH_OVERHEAD * ds_simgpu::model::batch_overhead_factor(batch_size);
    n_batches as f64 * (overhead + edges_scanned * NS_PER_EDGE * 1e-9)
}

/// Adjacency entries the FastGCN CPU sampler touches per mini-batch:
/// each layer scans the full adjacency lists of the frontier's candidate
/// neighborhood to build the layer-sampling distribution — so cost grows
/// with the *square* of the average degree.
pub fn fastgcn_scanned_edges_per_batch(
    dataset: &Dataset,
    fanout: &[usize],
    batch_size: usize,
) -> f64 {
    let g = &dataset.graph;
    let avg_deg = g.num_edges() as f64 / g.num_nodes() as f64;
    let mut frontier = batch_size as f64;
    let mut edges_scanned = 0.0;
    for &fan in fanout {
        // Candidates = union of the current frontier's neighborhoods.
        let candidates = (frontier * avg_deg).min(g.num_nodes() as f64);
        edges_scanned += candidates * avg_deg;
        frontier = (fan as f64).min(candidates) + frontier;
    }
    edges_scanned
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::DatasetSpec;

    #[test]
    fn fastgcn_scan_grows_superlinearly_with_degree() {
        let light = DatasetSpec::tiny(4000).build();
        let mut heavy_spec = DatasetSpec::tiny(4000);
        heavy_spec.avg_degree = 48.0;
        let heavy = heavy_spec.build();
        let e_light = fastgcn_scanned_edges_per_batch(&light, &[100, 100], 64);
        let e_heavy = fastgcn_scanned_edges_per_batch(&heavy, &[100, 100], 64);
        // Degree enters quadratically (candidates × their degree).
        assert!(
            e_heavy > 3.0 * e_light,
            "heavy {e_heavy} vs light {e_light}"
        );
        // And the end-to-end time is monotone in the scan volume.
        assert!(
            fastgcn_cpu_sampling_time(&heavy, &[100, 100], 64)
                > fastgcn_cpu_sampling_time(&light, &[100, 100], 64)
        );
    }
}
