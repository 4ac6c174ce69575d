//! System and training configuration.

use ds_cache::{CachePolicy, DynamicPolicyKind};
use ds_gnn::GnnKind;
use ds_sampling::csp::Scheme;

/// Which of the evaluated systems to build (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// DSP: partitioned topology + partitioned cache + CSP + pipeline.
    Dsp,
    /// DSP with the pipeline disabled — sampler, loader and trainer of
    /// each mini-batch run back-to-back (Fig. 12's ablation).
    DspSeq,
    /// Quiver: UVA sampling, replicated GPU feature cache, cudaMalloc
    /// memory management.
    Quiver,
    /// DGL-UVA: UVA sampling, all features in host memory, caching
    /// allocator.
    DglUva,
    /// DGL-CPU: CPU sampling, host features.
    DglCpu,
    /// PyG: Python-assisted CPU sampling, host features.
    PyG,
}

impl SystemKind {
    /// Display name used in benchmark tables (paper spelling).
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Dsp => "DSP",
            SystemKind::DspSeq => "DSP-Seq",
            SystemKind::Quiver => "Quiver",
            SystemKind::DglUva => "DGL-UVA",
            SystemKind::DglCpu => "DGL-CPU",
            SystemKind::PyG => "PyG",
        }
    }

    /// The five systems of Tables 4–6, in paper row order.
    pub fn paper_suite() -> Vec<SystemKind> {
        vec![
            SystemKind::PyG,
            SystemKind::DglCpu,
            SystemKind::Quiver,
            SystemKind::DglUva,
            SystemKind::Dsp,
        ]
    }
}

/// How the mini-batch work is distributed across GPUs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrainMode {
    /// DSP's native data parallelism: every GPU samples, loads and
    /// trains its own mini-batch end to end, tolerating redundant
    /// feature loads across ranks. The default; bit-identical to the
    /// pre-split-mode system.
    DataParallel,
    /// Split parallelism (GSplit): the innermost aggregation of each
    /// mini-batch is computed cooperatively. Every sampled vertex is
    /// served by its owning rank — owners load their rows locally,
    /// compute partial neighbor sums, and a partial-aggregate exchange
    /// over NVLink replaces the redundant raw-feature loads.
    Split,
}

impl TrainMode {
    /// Display name used in benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            TrainMode::DataParallel => "DSP",
            TrainMode::Split => "GSplit",
        }
    }
}

/// Training + system configuration (paper §7.1 defaults).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// GNN model family.
    pub model: GnnKind,
    /// Hidden width (paper: 256).
    pub hidden: usize,
    /// Number of GNN layers (paper: 3).
    pub num_layers: usize,
    /// Fan-out per layer (paper: [15, 10, 5]). Length must equal
    /// `num_layers`.
    pub fanout: Vec<usize>,
    /// Sampling scheme.
    pub scheme: Scheme,
    /// Data-parallel (default) or split-parallel (GSplit) training.
    /// Split mode requires
    /// a mean-aggregating model (GraphSAGE or GCN, not GAT) and
    /// disables the epoch-ahead prefetcher (owners already serve their
    /// shard locally, so there is no cold demand stream to hide).
    pub train_mode: TrainMode,
    /// Biased (edge-weighted) sampling.
    pub biased: bool,
    /// Per-GPU mini-batch seed count. The paper uses 1024 on the full
    /// datasets; the scaled default is 64 so that epochs retain a
    /// paper-like number of iterations (see DESIGN.md §5).
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Base RNG seed (sampling + init).
    pub seed: u64,
    /// Hot-node ranking policy (paper default: in-degree).
    pub cache_policy: CachePolicy,
    /// Runtime cache policy over the per-rank cached capacity. The
    /// default, [`DynamicPolicyKind::StaticDegree`], keeps the warm
    /// contents frozen — DSP's behavior.
    pub dynamic_policy: DynamicPolicyKind,
    /// Epoch-ahead prefetch window: how many batches the prefetcher
    /// replays ahead of the loader (the `q.prefetch` queue capacity).
    /// `0` disables prefetching. Pipelined mode only.
    pub prefetch_window: usize,
    /// Fraction of GPU memory reserved for activations/framework (the
    /// remainder goes to topology + feature cache).
    pub mem_reserve_frac: f64,
    /// Per-GPU feature-cache byte override (Fig. 10's sweep); `None`
    /// means "whatever remains after the topology".
    pub cache_budget_override: Option<u64>,
    /// Pipeline queue capacity (paper: 2).
    pub queue_capacity: usize,
    /// Kernel slots per device for communication kernels.
    pub slots_per_device: u32,
    /// Coordinate communication-kernel launches through CCC (required
    /// for the pipelined DSP; see §5).
    pub use_ccc: bool,
    /// Execute the actual training math. Timing-only experiments switch
    /// this off: samples, feature loads and all communication remain
    /// fully real, but forward/backward GEMMs are skipped while their
    /// modelled time is still charged. Convergence experiments (Fig. 9)
    /// keep it on.
    pub exec_compute: bool,
    /// Watchdog deadline (real seconds) for every blocking collective —
    /// the bound after which a wedged round returns a typed timeout with
    /// diagnostics instead of hanging (replaces the old hard-coded
    /// one-hour wait).
    pub comm_deadline_secs: f64,
    /// Write a deterministic checkpoint every this many completed
    /// global batches (rank 0's trainer, at the batch boundary after
    /// the optimizer step). `0` disables checkpointing.
    pub ckpt_every: u64,
    /// Directory checkpoint snapshots are written to.
    pub ckpt_dir: std::path::PathBuf,
}

impl TrainConfig {
    /// §7.1 defaults: 3-layer GraphSAGE, hidden 256, fan-out [15,10,5],
    /// unbiased node-wise sampling.
    pub fn paper_default() -> Self {
        TrainConfig {
            model: GnnKind::GraphSage,
            hidden: 256,
            num_layers: 3,
            fanout: vec![15, 10, 5],
            scheme: Scheme::NodeWise,
            train_mode: TrainMode::DataParallel,
            biased: false,
            batch_size: 64,
            lr: 3e-3,
            seed: 0xD5B0,
            cache_policy: CachePolicy::InDegree,
            dynamic_policy: DynamicPolicyKind::StaticDegree,
            prefetch_window: 2,
            mem_reserve_frac: 0.5,
            cache_budget_override: None,
            queue_capacity: ds_pipeline::DEFAULT_QUEUE_CAPACITY,
            slots_per_device: 2,
            use_ccc: true,
            exec_compute: false,
            comm_deadline_secs: 30.0,
            ckpt_every: 0,
            ckpt_dir: "results/ckpt".into(),
        }
    }

    /// A light configuration for tests: tiny model, real compute, and a
    /// short watchdog so induced failures surface quickly.
    pub fn test_default() -> Self {
        TrainConfig {
            hidden: 16,
            batch_size: 32,
            exec_compute: true,
            comm_deadline_secs: 10.0,
            ..Self::paper_default()
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) {
        assert_eq!(
            self.fanout.len(),
            self.num_layers,
            "fanout length must equal num_layers"
        );
        assert!(self.batch_size > 0);
        assert!(self.queue_capacity >= 1);
        assert!((0.0..1.0).contains(&self.mem_reserve_frac));
        assert!(
            self.comm_deadline_secs > 0.0,
            "comm deadline must be positive"
        );
        // Split mode distributes the innermost *mean* aggregation as
        // per-owner partial sums; GAT's attention weights depend on
        // both endpoints, so its aggregation does not decompose.
        assert!(
            !(self.train_mode == TrainMode::Split && self.model == GnnKind::Gat),
            "split-parallel training supports GraphSAGE and GCN only"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_section_7_1() {
        let c = TrainConfig::paper_default();
        c.validate();
        assert_eq!(c.fanout, vec![15, 10, 5]);
        assert_eq!(c.hidden, 256);
        assert_eq!(c.num_layers, 3);
        assert_eq!(c.queue_capacity, 2);
        assert!(matches!(c.model, GnnKind::GraphSage));
        // The runtime cache stays frozen and the prefetcher runs one
        // queue (2 batches) ahead.
        assert_eq!(c.dynamic_policy, DynamicPolicyKind::StaticDegree);
        assert_eq!(c.prefetch_window, 2);
        assert_eq!(
            c.train_mode,
            TrainMode::DataParallel,
            "DSP is the default mode"
        );
        assert_eq!(c.ckpt_every, 0, "checkpointing is opt-in");
        assert_eq!(c.ckpt_dir, std::path::Path::new("results/ckpt"));
    }

    #[test]
    fn suite_order_matches_paper_tables() {
        let names: Vec<_> = SystemKind::paper_suite().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["PyG", "DGL-CPU", "Quiver", "DGL-UVA", "DSP"]);
    }

    #[test]
    #[should_panic(expected = "fanout length")]
    fn mismatched_fanout_is_rejected() {
        let mut c = TrainConfig::paper_default();
        c.fanout = vec![5];
        c.validate();
    }

    #[test]
    fn split_mode_with_mean_models_is_valid() {
        for model in [GnnKind::GraphSage, GnnKind::Gcn] {
            let mut c = TrainConfig::test_default();
            c.model = model;
            c.train_mode = TrainMode::Split;
            c.validate();
        }
        assert_eq!(TrainMode::Split.name(), "GSplit");
        assert_eq!(TrainMode::DataParallel.name(), "DSP");
    }

    #[test]
    #[should_panic(expected = "GraphSAGE and GCN only")]
    fn split_mode_rejects_gat() {
        let mut c = TrainConfig::test_default();
        c.model = GnnKind::Gat;
        c.train_mode = TrainMode::Split;
        c.validate();
    }
}
