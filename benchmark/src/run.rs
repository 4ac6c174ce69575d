//! The timed run (`--trace 0`): set-up, a serve phase and a training
//! phase over one layout, tracing off, reporting every end-to-end
//! metric. Both phases always run, because every run must report every
//! end-to-end metric; the workload decides which phase is sized to
//! dominate.

use crate::report::{describe, median, timed, Outcome};
use crate::spec::Workload;
use dsp::cache::DynamicPolicyKind;
use dsp::core::config::{TrainConfig, TrainMode};
use dsp::core::layout::DspLayout;
use dsp::core::{DspSystem, EpochStats, System};
use dsp::graph::{Dataset, DatasetSpec};
use dsp::serve::{open_loop_trace, LoadPoint, ServeConfig, ServeEngine, ServeStats};
use std::time::Instant;

/// Offered rates of the fixed replays besides the workload's latency
/// rate: far below capacity (nothing may be shed) and overload (goodput).
pub const LOW_RPS: f64 = 5e3;
pub const OVERLOAD_RPS: f64 = 600e3;
/// A rate is "ok" when at most this share of requests is shed or late
/// and p99 stays within the limit.
const OK_FAILED_SHARE: f64 = 0.01;
const OK_P99_MS: f64 = 1.0;
/// Bisection steps between `LOW_RPS` and `OVERLOAD_RPS` (geometric, so
/// the highest ok rate is resolved to about half a percent).
const BISECT_STEPS: usize = 10;

/// How much of a workload one run does: all of it, or under `--smoke`
/// the least that still exercises every output check (quarter-size
/// graphs, one measured epoch, 2 000 requests per replay).
pub struct Plan {
    /// Extra `scaled_down` factor on the dataset.
    pub shrink: usize,
    pub setups: usize,
    /// Measured epochs a timed run never goes below.
    pub timed_epochs: u64,
    /// Measured epochs of each pass of the traced run.
    pub traced_epochs: u64,
    pub serve_requests: usize,
    /// Divides the rounds of the layers driven alone.
    pub rounds_div: usize,
    /// Whether training runs long enough for the loss to fall below 0.01.
    pub converges: bool,
}

impl Plan {
    pub fn new(w: &Workload, smoke: bool) -> Plan {
        if smoke {
            Plan {
                shrink: 4,
                setups: 1,
                timed_epochs: 1,
                traced_epochs: 1,
                serve_requests: w.serve_requests.min(2000),
                rounds_div: 10,
                converges: false,
            }
        } else {
            Plan {
                shrink: 1,
                setups: 3,
                timed_epochs: w.epochs,
                traced_epochs: 3,
                serve_requests: w.serve_requests,
                rounds_div: 1,
                converges: true,
            }
        }
    }
}

pub fn dataset_spec(w: &Workload, seed: u64, plan: &Plan) -> DatasetSpec {
    let mut spec = (w.dataset)().scaled_down(w.shrink * plan.shrink);
    spec.seed = seed;
    spec
}

/// `TrainConfig::paper_default()` with the seed, the workload's mode,
/// and every field the default would read from the environment pinned.
pub fn train_config(w: &Workload, seed: u64, dataset: &Dataset) -> TrainConfig {
    TrainConfig {
        seed,
        train_mode: if w.split {
            TrainMode::Split
        } else {
            TrainMode::DataParallel
        },
        exec_compute: w.exec_compute,
        dynamic_policy: DynamicPolicyKind::StaticDegree,
        prefetch_window: 2,
        ckpt_every: 0,
        cache_budget_override: w
            .quarter_cache
            .then(|| dataset.features.total_bytes() / 4 / w.gpus as u64),
        ..TrainConfig::paper_default()
    }
}

/// One full set-up: dataset build → partition → layout → system.
pub fn set_up(w: &Workload, seed: u64, plan: &Plan) -> (Dataset, DspSystem) {
    let dataset = dataset_spec(w, seed, plan).build();
    let cfg = train_config(w, seed, &dataset);
    let system = DspSystem::new(&dataset, w.gpus, &cfg, w.pipelined);
    (dataset, system)
}

/// One open-loop replay at a fixed offered rate.
pub struct Replay {
    pub stats: ServeStats,
    pub point: LoadPoint,
    /// Answered after their class deadline.
    pub late: u64,
    pub wall_s: f64,
}

impl Replay {
    pub fn ok(&self) -> bool {
        let failed = (self.point.shed + self.late) as f64;
        failed <= OK_FAILED_SHARE * self.point.requests as f64 && self.point.p99_ms <= OK_P99_MS
    }
}

/// Replays `n` Poisson arrivals at `rate` and checks conservation.
/// Arrivals are scheduled in virtual time, so the generator is never
/// late; latency counts from the scheduled arrival.
pub fn replay(
    engine: &ServeEngine,
    seed: u64,
    rate: f64,
    n: usize,
    num_nodes: usize,
    out: &mut Outcome,
) -> Replay {
    let trace = open_loop_trace(seed, rate, n, num_nodes);
    let (stats, wall_s) = timed(|| engine.run(&trace));
    let late = stats.responses.iter().filter(|r| !r.deadline_met).count() as u64;
    let point = LoadPoint::from_stats(rate, &stats);
    out.check(point.completed + point.shed == n as u64, || {
        format!(
            "serve at {rate} rps: completed {} + shed {} != offered {n}",
            point.completed, point.shed
        )
    });
    Replay {
        stats,
        point,
        late,
        wall_s,
    }
}

pub fn serve_engine(layout: &DspLayout, seed: u64) -> ServeEngine<'_> {
    ServeEngine::new(
        layout,
        ServeConfig {
            seed,
            ..ServeConfig::paper_default()
        },
    )
}

/// The three fixed-rate replays with their output checks; counts the
/// low-rate requests as the serve operations attempted.
pub fn fixed_replays(
    engine: &ServeEngine,
    seed: u64,
    latency_rps: f64,
    n: usize,
    num_nodes: usize,
    out: &mut Outcome,
) -> [Replay; 3] {
    let low = replay(engine, seed, LOW_RPS, n, num_nodes, out);
    let mid = replay(engine, seed, latency_rps, n, num_nodes, out);
    let high = replay(engine, seed, OVERLOAD_RPS, n, num_nodes, out);
    out.check(low.point.shed == 0, || {
        format!("serve shed {} requests at {LOW_RPS} rps", low.point.shed)
    });
    out.check(high.point.shed_queue > 0, || {
        format!("serve shed nothing from the queue at {OVERLOAD_RPS} rps")
    });
    out.attempted += n as u64;
    out.failed += low.point.shed + low.late;
    [low, mid, high]
}

/// The serve phase of a timed run. Returns its wall seconds.
fn serve_phase(layout: &DspLayout, w: &Workload, seed: u64, n: usize, out: &mut Outcome) -> f64 {
    let num_nodes = layout.graph.num_nodes();
    let engine = serve_engine(layout, seed);
    let start = Instant::now();
    // Discarded: lets the allocator and the host caches settle.
    replay(&engine, seed, w.latency_rps, n.min(1000), num_nodes, out);
    let [low, mid, high] = fixed_replays(&engine, seed, w.latency_rps, n, num_nodes, out);
    out.check(low.ok(), || {
        format!("serve misses its limits already at {LOW_RPS} rps")
    });
    let mut replay_wall = low.wall_s + mid.wall_s + high.wall_s;
    let (mut lo, mut hi) = (LOW_RPS, OVERLOAD_RPS);
    for _ in 0..BISECT_STEPS {
        let rate = (lo * hi).sqrt();
        let r = replay(&engine, seed, rate, n, num_nodes, out);
        replay_wall += r.wall_s;
        if r.ok() {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    out.set("serve_p50_virt_ms", mid.point.p50_ms);
    out.set("serve_p99_virt_ms", mid.point.p99_ms);
    out.set("serve_goodput_virt_rps", high.point.goodput_rps);
    out.set("serve_max_ok_rate_rps", lo);
    out.set("serve_replay_wall_s", replay_wall);
    out.notes.push(format!(
        "serve: {n} requests per replay, {} replays; at {} rps p50 {:.4} ms p99 {:.4} ms ({} samples), shed {}; generator lateness 0 (virtual arrivals)",
        3 + BISECT_STEPS,
        w.latency_rps,
        mid.point.p50_ms,
        mid.point.p99_ms,
        mid.point.completed,
        mid.point.shed,
    ));
    start.elapsed().as_secs_f64()
}

pub struct Epoch {
    pub stats: EpochStats,
    pub wall_s: f64,
    /// Host-memory bytes the cluster metered (`EpochStats` has the links).
    pub host_bytes: u64,
}

pub fn run_epoch(system: &mut DspSystem, epoch: u64) -> Epoch {
    let (stats, wall_s) = timed(|| system.run_epoch(epoch));
    Epoch {
        stats,
        wall_s,
        host_bytes: system.cluster().traffic_totals().2,
    }
}

/// Output checks every training epoch must pass.
pub fn check_epoch(w: &Workload, dataset: &Dataset, e: u64, stats: &EpochStats, out: &mut Outcome) {
    out.check(stats.retried_batches == 0, || {
        format!("epoch {e}: {} batches were retried", stats.retried_batches)
    });
    out.check(stats.degraded_ranks == 0, || {
        format!("epoch {e}: {} ranks degraded", stats.degraded_ranks)
    });
    out.check(stats.seeds == dataset.train.len(), || {
        format!(
            "epoch {e}: trained {} seeds of {}",
            stats.seeds,
            dataset.train.len()
        )
    });
    out.attempted += (stats.num_batches * w.gpus) as u64;
    out.failed += stats.retried_batches as u64;
}

/// Warm-up epochs (discarded); returns epoch 0's loss.
pub fn warm_up(system: &mut DspSystem, w: &Workload, dataset: &Dataset, out: &mut Outcome) -> f64 {
    let mut first_loss = 0.0;
    for e in 0..w.warmup {
        let warm = run_epoch(system, e);
        check_epoch(w, dataset, e, &warm.stats, out);
        if e == 0 {
            first_loss = warm.stats.loss;
        }
    }
    first_loss
}

/// Real compute must learn: the last loss is below the first, and
/// below 0.01 when the run trains long enough.
pub fn check_convergence(first: f64, last: f64, plan: &Plan, out: &mut Outcome) {
    out.check(last < first && (last < 0.01 || !plan.converges), || {
        format!("loss went from {first} to {last}; expected a fall below 0.01")
    });
}

/// Peak resident set of this process (`VmHWM`, MB) since the previous
/// call, which reset it. Where the kernel refuses the reset, peaks
/// accumulate and every call returns the peak so far.
fn take_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    kb / 1024.0
}

pub fn timed_run(w: &Workload, seed: u64, seconds: f64, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is repeated so that its median is steady; the last one is
    // the system the run measures.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..plan.setups {
        drop(built.take());
        let (b, t) = timed(|| set_up(w, seed, plan));
        setups.push(t);
        built = Some(b);
    }
    out.set("setup_s", median(&setups));
    let (dataset, mut system) = built.expect("at least one set-up");

    let setup_peak = take_peak_rss_mb();
    let serve_s = serve_phase(system.layout(), w, seed, plan.serve_requests, &mut out);
    let serve_peak = take_peak_rss_mb();

    let first_loss = warm_up(&mut system, w, &dataset, &mut out);
    // Virtual metrics come from a fixed number of epochs so that they
    // repeat exactly for a seed; wall samples keep coming while the
    // run's seconds last.
    let fixed = plan.timed_epochs as usize;
    take_peak_rss_mb(); // the warm-up's
    let train_start = Instant::now();
    let mut epochs = Vec::new();
    let mut epoch_peaks = Vec::new();
    while epochs.len() < fixed || serve_s + train_start.elapsed().as_secs_f64() < seconds {
        let e = w.warmup + epochs.len() as u64;
        let epoch = run_epoch(&mut system, e);
        check_epoch(w, &dataset, e, &epoch.stats, &mut out);
        epochs.push(epoch);
        epoch_peaks.push(take_peak_rss_mb());
    }
    if w.exec_compute {
        let last = epochs.last().expect("measured epochs").stats.loss;
        check_convergence(first_loss, last, plan, &mut out);
    }
    let virt: Vec<f64> = epochs[..fixed].iter().map(|e| e.stats.epoch_time).collect();
    let util: f64 = epochs[..fixed]
        .iter()
        .map(|e| e.stats.utilization)
        .sum::<f64>()
        / fixed as f64;
    let wall: Vec<f64> = epochs.iter().map(|e| e.wall_s).collect();
    out.set("epoch_virt_s", median(&virt));
    out.set("gpu_util_virt", util);
    out.set("epoch_wall_s", median(&wall));
    // The pipelined executor's peak varies by a tenth from run to run
    // (allocator arenas under short-lived threads), so the training
    // phase counts with the median of its per-epoch peaks.
    out.set(
        "peak_rss_mb",
        setup_peak.max(serve_peak).max(median(&epoch_peaks)),
    );
    out.notes
        .push(format!("setup_s: {}", describe(&setups, "s")));
    out.notes
        .push(format!("epoch_wall_s: {}", describe(&wall, "s")));
    out.notes.push(format!(
        "epoch_virt_s: {} (first {fixed} measured epochs)",
        describe(&virt, "s")
    ));
    out
}
