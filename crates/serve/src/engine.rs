//! The serving engine: replays an open-loop arrival trace on the
//! virtual clock, coalescing requests into micro-batches and running
//! each through sampling → partitioned-cache fetch → forward pass.
//!
//! The engine is a single discrete-event loop over [`BatcherCore`]:
//! every admission, shed and batch-composition decision is a pure
//! function of the arrival trace and the config, so the whole run —
//! including the produced logits — is bit-reproducible for a given
//! seed regardless of `DS_PAR_THREADS` (the numeric kernels underneath
//! are chunk-deterministic on the shared `ds-exec` pool).
//!
//! Fault handling: when the cluster's `ds-fault` hook reports a
//! feature shard Lost or Recovering, cached rows owned by that rank
//! are served from the stale pre-loss copy and the whole micro-batch
//! is flagged degraded (the batch shares one fused gather, so
//! staleness attribution is batch-granular). Uncached rows always take
//! the serve-local LRU + UVA cold path, which never wedges.

use crate::batcher::{BatcherCore, Offer};
use crate::request::{ReqClass, Request};
use crate::ShedReason;
use ds_cache::dynamic::Access;
use ds_cache::{shard_rebuild_status, DynamicPolicyKind, PolicyCache, RebuildStatus};
use ds_gnn::{charge_forward, GnnKind, GnnModel};
use ds_graph::NodeId;
use ds_sampling::local::local_sample;
use ds_simgpu::clock::ResKind;
use ds_simgpu::Clock;
use ds_tensor::Matrix;
use dsp_core::layout::DspLayout;
use dsp_core::{RetryPolicy, Supervisor};

/// Base of the serving sampling-stream id space: keeps per-request RNG
/// streams disjoint from training batches (low ids) and evaluation
/// (`1 << 40`).
pub const SERVE_BATCH_BASE: u64 = 1 << 41;

/// The rank that fronts client traffic in the simulation. Remote
/// cached rows reach it over NVLink; cold rows over UVA/PCIe.
const SERVING_RANK: usize = 0;

/// Serving-side knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// Size trigger: a micro-batch flushes as soon as this many
    /// requests are queued.
    pub batch_max: usize,
    /// Deadline trigger: a partial batch flushes once its oldest
    /// request has waited this long.
    pub batch_delay_s: f64,
    /// Bounded admission queue; arrivals beyond it shed with
    /// `QueueFull`.
    pub queue_cap: usize,
    /// Serve-local LRU capacity (rows) fronting the UVA cold path.
    pub serve_cache_rows: usize,
    /// Sampling fanout per layer (also fixes model depth).
    pub fanout: Vec<usize>,
    /// Hidden width of the served model.
    pub hidden: usize,
    /// Seed for model init and the per-request sampling streams.
    pub seed: u64,
    /// Per-class response deadlines, seconds, indexed by
    /// [`ReqClass::index`] (interactive/standard/bulk).
    pub deadlines_s: [f64; 3],
}

impl ServeConfig {
    /// Defaults used by `bench_serve` and the tests.
    pub fn paper_default() -> Self {
        ServeConfig {
            batch_max: 8,
            batch_delay_s: 200e-6,
            queue_cap: 64,
            serve_cache_rows: 256,
            fanout: vec![10, 10],
            hidden: 16,
            seed: 42,
            deadlines_s: [2e-3, 10e-3, 50e-3],
        }
    }

    /// Panics on inconsistent settings.
    pub fn validate(&self) {
        assert!(self.batch_max >= 1, "batch_max must be >= 1");
        assert!(
            self.queue_cap >= self.batch_max,
            "queue_cap must hold at least one full batch"
        );
        assert!(self.batch_delay_s > 0.0, "batch_delay must be positive");
        assert!(!self.fanout.is_empty(), "need at least one sampling layer");
        assert!(self.serve_cache_rows >= 1, "serve cache needs capacity");
        assert!(
            self.deadlines_s.iter().all(|&d| d > 0.0),
            "deadlines must be positive"
        );
    }
}

/// One answered request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Response {
    /// Trace id of the request.
    pub id: u64,
    /// Service class.
    pub class: ReqClass,
    /// Arrival-to-answer virtual latency (seconds).
    pub latency_s: f64,
    /// Answer used at least one stale shard row (batch-granular flag).
    pub degraded: bool,
    /// Latency within the class deadline (counts toward goodput).
    pub deadline_met: bool,
}

/// One shed request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShedRecord {
    /// Trace id of the request.
    pub id: u64,
    /// Service class.
    pub class: ReqClass,
    /// Why it was shed.
    pub reason: ShedReason,
}

/// Everything one engine run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeStats {
    /// Answered requests, in completion order.
    pub responses: Vec<Response>,
    /// Shed requests, in shed order.
    pub sheds: Vec<ShedRecord>,
    /// Micro-batches executed.
    pub batches: u64,
    /// Micro-batches that used at least one stale row.
    pub degraded_batches: u64,
    /// Virtual time at the last answer (trace span).
    pub duration_s: f64,
    /// FNV-1a fold of every batch composition and its logits bits —
    /// the determinism probe compared across `DS_PAR_THREADS`.
    pub batch_hash: u64,
    /// Per-rank time from first degraded observation to fresh answers
    /// (seconds), one entry per recovered shard.
    pub time_to_fresh_s: Vec<f64>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Per-rank shard bookkeeping while serving through a fault.
struct ShardWatch {
    recovering_seen: Vec<bool>,
    healthy_seen: Vec<bool>,
}

/// The serving engine for one built layout. Construction initializes
/// the model; each [`ServeEngine::run`] starts a fresh virtual clock,
/// serve-local cache and supervisor, so runs are independent.
pub struct ServeEngine<'a> {
    layout: &'a DspLayout,
    cfg: ServeConfig,
    model: GnnModel,
}

impl<'a> ServeEngine<'a> {
    /// A GraphSAGE serving engine over `layout` (depth = fanout len).
    pub fn new(layout: &'a DspLayout, cfg: ServeConfig) -> Self {
        cfg.validate();
        let model = GnnModel::new(
            GnnKind::GraphSage,
            layout.in_dim,
            cfg.hidden,
            layout.classes,
            cfg.fanout.len(),
            cfg.seed,
        );
        ServeEngine { layout, cfg, model }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Replays `trace` (ascending `arrival_s`) to completion: admits
    /// arrivals, flushes micro-batches on size or deadline, drains the
    /// queue after the last arrival. Never blocks on a lost shard.
    pub fn run(&self, trace: &[Request]) -> ServeStats {
        let cfg = &self.cfg;
        let _guard = ds_trace::worker(SERVING_RANK as u32, ds_trace::TID_SERVE);
        let mut clock = Clock::new();
        let mut core: BatcherCore<Request> = BatcherCore::new(cfg.batch_max, cfg.queue_cap);
        let mut serve_cache =
            PolicyCache::new(cfg.serve_cache_rows, DynamicPolicyKind::Lru.build());
        let supervisor = Supervisor::new(RetryPolicy::default());
        let gpus = self.layout.cluster.num_gpus();
        let mut watch = ShardWatch {
            recovering_seen: vec![false; gpus],
            healthy_seen: vec![false; gpus],
        };
        let mut stats = ServeStats {
            responses: Vec::new(),
            sheds: Vec::new(),
            batches: 0,
            degraded_batches: 0,
            duration_s: 0.0,
            batch_hash: FNV_OFFSET,
            time_to_fresh_s: Vec::new(),
        };

        let mut next = 0usize;
        loop {
            // Admit everything that has arrived by the current virtual
            // time; the bounded queue sheds the overflow.
            while next < trace.len() && trace[next].arrival_s <= clock.now() {
                let r = trace[next];
                next += 1;
                if let Offer::Shed { reason, item } = core.offer(r) {
                    stats.sheds.push(ShedRecord {
                        id: item.id,
                        class: item.class,
                        reason,
                    });
                    if ds_trace::active() {
                        ds_trace::instant(clock.now(), "serve.shed", item.id);
                        ds_trace::counter(clock.now(), "serve", "shed", 1.0);
                    }
                }
            }
            // Size trigger (or a pending deadline flush from below).
            if core.batch_ready() {
                let batch = core.take_ready_batch().expect("ready batch");
                self.exec_batch(
                    &mut clock,
                    &mut serve_cache,
                    &supervisor,
                    &mut watch,
                    &batch,
                    &mut stats,
                );
                continue;
            }
            // Next event: the oldest queued request's flush deadline vs
            // the next arrival — ties flush first (the queued request
            // is strictly older).
            let t_flush = core.front().map(|r| r.arrival_s + cfg.batch_delay_s);
            let t_arrival = trace.get(next).map(|r| r.arrival_s);
            match (t_flush, t_arrival) {
                (None, None) => break,
                (Some(tf), Some(ta)) if ta < tf => clock.wait_until(ta),
                (Some(tf), _) => {
                    clock.wait_until(tf);
                    core.request_flush();
                }
                (None, Some(ta)) => clock.wait_until(ta),
            }
        }
        stats.duration_s = clock.now();
        stats
    }

    /// Runs one micro-batch: deadline shed, sample, fetch (NVLink /
    /// stale / serve-local LRU / UVA), forward; appends responses.
    fn exec_batch(
        &self,
        clock: &mut Clock,
        serve_cache: &mut PolicyCache,
        supervisor: &Supervisor,
        watch: &mut ShardWatch,
        batch: &[Request],
        stats: &mut ServeStats,
    ) {
        let cfg = &self.cfg;
        let cluster = &self.layout.cluster;
        let machine = cluster.model();
        let cache = &self.layout.cache;
        let dim = cache.dim();
        let start = clock.now();

        // Requests already past their class deadline would deliver a
        // dead answer — shed them before spending any kernel time.
        let mut live: Vec<Request> = Vec::with_capacity(batch.len());
        for r in batch {
            if start - r.arrival_s > cfg.deadlines_s[r.class.index()] {
                stats.sheds.push(ShedRecord {
                    id: r.id,
                    class: r.class,
                    reason: ShedReason::DeadlineExceeded,
                });
                if ds_trace::active() {
                    ds_trace::counter(start, "serve", "shed", 1.0);
                }
            } else {
                live.push(*r);
            }
        }
        if live.is_empty() {
            return;
        }

        let batch_idx = stats.batches;
        stats.batches += 1;
        let tracing = ds_trace::active();
        if tracing {
            ds_trace::span_begin_arg(start, "serve.batch", batch_idx);
        }

        // --- Sampling (CSP-style local streams, serving id space).
        if tracing {
            ds_trace::span_begin(clock.now(), "serve.sample");
        }
        let seeds: Vec<NodeId> = live.iter().map(|r| r.node).collect();
        let sample = local_sample(
            &self.layout.graph,
            &seeds,
            &cfg.fanout,
            cfg.seed,
            SERVE_BATCH_BASE + batch_idx,
        );
        clock.work_on(
            machine.gpu.time_full(
                (sample.num_edges() + seeds.len()) as u64,
                machine.sample_cycles_per_item,
            ),
            ResKind::Light,
        );
        if tracing {
            ds_trace::span_end(clock.now());
        }

        // --- Feature fetch for the input set.
        if tracing {
            ds_trace::span_begin(clock.now(), "serve.fetch");
        }
        let input_nodes = sample.input_nodes();
        let mut remote_rows = vec![0u64; cluster.num_gpus()];
        let mut cold = 0u64;
        let mut stale_rows = 0u64;
        for &v in input_nodes {
            let owner = cache.owner(v);
            let status =
                shard_rebuild_status(cluster, owner, cache.cached_rows(owner) as u64, batch_idx);
            let shard_down = matches!(
                status,
                Some(RebuildStatus::Lost | RebuildStatus::Recovering { .. })
            );
            if shard_down && !watch.recovering_seen[owner] {
                watch.recovering_seen[owner] = true;
                supervisor.mark_recovering(owner, batch_idx, clock.now());
            }
            if let Some(RebuildStatus::Healthy { .. }) = status {
                if watch.recovering_seen[owner] && !watch.healthy_seen[owner] {
                    watch.healthy_seen[owner] = true;
                    if let Some(dt) = supervisor.mark_healthy(owner, batch_idx, clock.now()) {
                        stats.time_to_fresh_s.push(dt);
                    }
                }
            }
            if cache.is_cached(v) {
                // Cached rows move over NVLink (or local HBM when the
                // serving rank owns them). A down shard still *serves*
                // its warm pre-loss copy — degraded, never wedged.
                remote_rows[owner] += 1;
                if shard_down {
                    stale_rows += 1;
                }
            } else {
                // Cold path: serve-local LRU in front of UVA.
                if let Access::Miss { .. } = serve_cache.access(v) {
                    cold += 1;
                }
            }
        }
        let row_bytes = dim as u64 * 4;
        let nv: f64 = remote_rows
            .iter()
            .enumerate()
            .filter(|&(o, &rows)| o != SERVING_RANK && rows > 0)
            .map(|(o, &rows)| cluster.nvlink_transfer(o, SERVING_RANK, rows * row_bytes))
            .sum();
        let uva = cluster.uva_read(SERVING_RANK, cold, row_bytes);
        // NVLink pulls and UVA reads overlap; the batch waits for the
        // slower of the two, then assembles the input on local HBM.
        clock.work_on(nv, ResKind::NvLink);
        if uva > nv {
            clock.work_on(uva - nv, ResKind::Pcie);
        }
        clock.work_on(
            machine.gather_time(input_nodes.len() as u64, row_bytes),
            ResKind::Hbm,
        );
        let degraded = stale_rows > 0;
        if degraded {
            stats.degraded_batches += 1;
            for (o, &rows) in remote_rows.iter().enumerate() {
                if rows > 0 && watch.recovering_seen[o] && !watch.healthy_seen[o] {
                    supervisor.mark_degraded(o);
                }
            }
        }
        if tracing {
            ds_trace::span_end(clock.now());
        }

        // --- Forward pass (charged + actually computed: the logits
        // feed the determinism hash).
        if tracing {
            ds_trace::span_begin(clock.now(), "serve.forward");
        }
        charge_forward(clock, machine, &self.model, &sample);
        let mut flat = Vec::with_capacity(input_nodes.len() * dim);
        for &v in input_nodes {
            flat.extend_from_slice(self.layout.features.row(v));
        }
        let input = Matrix::from_vec(input_nodes.len(), dim, flat);
        let labels = vec![0u32; seeds.len()];
        let (_loss, tape) = self.model.forward(&sample, &input, &labels);
        if tracing {
            ds_trace::span_end(clock.now());
        }

        let finish = clock.now();
        fnv1a(&mut stats.batch_hash, &batch_idx.to_le_bytes());
        for r in &live {
            fnv1a(&mut stats.batch_hash, &r.id.to_le_bytes());
        }
        for &x in tape.logits().data() {
            fnv1a(&mut stats.batch_hash, &x.to_bits().to_le_bytes());
        }
        for r in &live {
            let latency_s = finish - r.arrival_s;
            let deadline_met = latency_s <= cfg.deadlines_s[r.class.index()];
            stats.responses.push(Response {
                id: r.id,
                class: r.class,
                latency_s,
                degraded,
                deadline_met,
            });
        }
        if tracing {
            ds_trace::span_end(finish); // serve.batch
                                        // Per-batch deltas: the telemetry folder sums counters, so
                                        // these aggregate to run totals in BENCH telemetry.
            ds_trace::counter(finish, "serve", "completed", live.len() as f64);
            if degraded {
                ds_trace::counter(finish, "serve", "degraded_batches", 1.0);
            }
            let last = live.last().expect("non-empty batch");
            ds_trace::counter(finish, "serve", "latency_s", finish - last.arrival_s);
        }
    }
}
