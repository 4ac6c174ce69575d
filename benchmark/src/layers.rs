//! The traced run (`--trace 1`): every per-layer metric.
//!
//! * an untraced reference of the real executor (wall baseline);
//! * pass A, the same epochs on a fresh system with the existing
//!   `ds_trace` recorder on, folded into the virtual-clock layer
//!   metrics and the tracing overhead; its virtual results must equal
//!   the reference's bit for bit;
//! * pass B, the stage driver of [`crate::driver`], for wall time per
//!   stage and the sum check;
//! * collectives, the queue, two kernels and a checkpoint driven alone;
//! * the serve replays, one of them traced.

use crate::driver::{self, DriverEpoch, Span, StageDriver};
use crate::report::{median, timed, Outcome};
use crate::run::{
    check_convergence, check_epoch, dataset_spec, fixed_replays, replay, run_epoch, serve_engine,
    train_config, warm_up, Epoch, Plan,
};
use crate::spec::Workload;
use dsp::comm::Communicator;
use dsp::core::layout::{build_dsp_layout, DspLayout};
use dsp::core::DspSystem;
use dsp::gnn::trainer::train_wall_seconds;
use dsp::graph::Dataset;
use dsp::partition::{edge_cut_fraction, MultilevelPartitioner, Partitioner};
use dsp::pipeline::virtual_queue;
use dsp::simgpu::{Clock, Cluster};
use dsp::store::Checkpoint;
use dsp::tensor::kernel::{gather_matmul, matmul};
use dsp::tensor::matrix::Matrix;
use dsp::trace::{self, summary, Event, Payload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const A2A_ROUNDS: usize = 1000;
/// Fewer: every rank sums every rank's full gradient each round.
const ALLREDUCE_ROUNDS: usize = 100;
const HANDOFF_ITEMS: u64 = 100_000;

/// Totals of the `ds_trace` stream by name: inclusive virtual seconds
/// and count per span name, and sum, maximum and count per counter.
#[derive(Default)]
struct Fold {
    spans: BTreeMap<String, (f64, u64)>,
    counters: BTreeMap<String, (f64, f64, u64)>,
}

impl Fold {
    fn span_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.0)
    }

    fn counter_sum(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |c| c.0)
    }
}

/// `events` must be in canonical order (as `Recorder::take` returns).
fn fold(events: &[Event]) -> Fold {
    let mut out = Fold::default();
    let mut open: BTreeMap<(u64, u32, u32), Vec<(String, f64)>> = BTreeMap::new();
    for e in events {
        match &e.payload {
            Payload::Begin { label, name, .. } => open
                .entry((e.epoch, e.rank, e.tid))
                .or_default()
                .push((trace::full_name(label, name), e.t)),
            Payload::End { .. } => {
                let stack = open.entry((e.epoch, e.rank, e.tid)).or_default();
                if let Some((name, t0)) = stack.pop() {
                    let s = out.spans.entry(name).or_insert((0.0, 0));
                    s.0 += e.t - t0;
                    s.1 += 1;
                }
            }
            Payload::Counter { label, name, value } => {
                let c = out
                    .counters
                    .entry(trace::full_name(label, name))
                    .or_insert((0.0, f64::MIN, 0));
                c.0 += value;
                c.1 = c.1.max(*value);
                c.2 += 1;
            }
            Payload::Instant { .. } => {}
        }
    }
    out
}

/// Runs `f` with the recorder on and returns what it recorded.
fn record<T>(f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    let rec = trace::recorder();
    rec.clear();
    rec.set_enabled(true);
    // Also records the CCC queue length, which depends on real timing.
    rec.set_realtime(true);
    let out = f();
    rec.set_enabled(false);
    rec.set_realtime(false);
    (out, rec.take())
}

/// The `n` epochs after the warm-up.
fn measure(
    system: &mut DspSystem,
    w: &Workload,
    dataset: &Dataset,
    n: u64,
    out: &mut Outcome,
) -> Vec<Epoch> {
    (w.warmup..w.warmup + n)
        .map(|e| {
            let epoch = run_epoch(system, e);
            check_epoch(w, dataset, e, &epoch.stats, out);
            epoch
        })
        .collect()
}

pub fn traced_run(w: &Workload, seed: u64, plan: &Plan, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let n = plan.traced_epochs;

    // Set-up, timed call by call. The layout is kept for pass B;
    // `DspSystem::new` builds its own (so its time includes a layout,
    // and a layout's includes a partition).
    let spec = dataset_spec(w, seed, plan);
    let (dataset, t) = timed(|| spec.build());
    out.set("graph.build_wall_s", t);
    let cfg = train_config(w, seed, &dataset);
    let (partition, t) =
        timed(|| MultilevelPartitioner::default().partition(&dataset.graph, w.gpus));
    out.set("partition.partition_wall_s", t);
    out.set(
        "partition.edge_cut_frac",
        edge_cut_fraction(&dataset.graph, &partition),
    );
    let (layout, t) = timed(|| build_dsp_layout(&dataset, w.gpus, &cfg));
    out.set("dsp-core.layout_wall_s", t);
    let (mut reference, t) = timed(|| DspSystem::new(&dataset, w.gpus, &cfg, w.pipelined));
    out.set("dsp-core.system_new_wall_s", t);

    // Untraced reference of the real executor.
    let first_loss = warm_up(&mut reference, w, &dataset, &mut out);
    let exec0 = dsp::exec::stats();
    let untraced = measure(&mut reference, w, &dataset, n, &mut out);
    let exec1 = dsp::exec::stats();
    drop(reference);
    let per_epoch = 1.0 / n as f64;
    for (name, delta) in [
        ("exec.submitted", exec1.submitted - exec0.submitted),
        ("exec.executed", exec1.executed - exec0.executed),
        ("exec.helped", exec1.helped - exec0.helped),
        ("exec.stolen", exec1.stolen - exec0.stolen),
    ] {
        out.set(name, delta as f64 * per_epoch);
    }
    let last = untraced.last().expect("measured epochs").stats;
    if w.exec_compute {
        check_convergence(first_loss, last.loss, plan, &mut out);
    }
    out.set("gnn.loss_final", last.loss);
    let mean = |f: &dyn Fn(&Epoch) -> f64| untraced.iter().map(f).sum::<f64>() * per_epoch;
    let nvlink = mean(&|e| e.stats.nvlink_bytes as f64);
    let pcie = mean(&|e| e.stats.pcie_bytes as f64);
    out.set("simgpu.nvlink_bytes", nvlink);
    out.set("simgpu.pcie_bytes", pcie);
    out.set("simgpu.host_bytes", mean(&|e| e.host_bytes as f64));
    out.set("simgpu.bytes_per_seed", (nvlink + pcie) / last.seeds as f64);
    out.set(
        "dsp-core.retried_batches",
        mean(&|e| e.stats.retried_batches as f64),
    );
    out.set(
        "dsp-core.degraded_ranks",
        mean(&|e| e.stats.degraded_ranks as f64),
    );
    let untraced_wall = median(&untraced.iter().map(|e| e.wall_s).collect::<Vec<_>>());

    // Pass A: the same epochs on a fresh system, recorder on.
    let mut system = DspSystem::new(&dataset, w.gpus, &cfg, w.pipelined);
    warm_up(&mut system, w, &dataset, &mut out);
    let (traced, events) = record(|| measure(&mut system, w, &dataset, n, &mut out));
    drop(system);
    for (a, b) in untraced.iter().zip(&traced) {
        let (a, b) = (&a.stats, &b.stats);
        let same = a.epoch_time.to_bits() == b.epoch_time.to_bits()
            && a.utilization.to_bits() == b.utilization.to_bits()
            && a.loss.to_bits() == b.loss.to_bits()
            && (a.nvlink_bytes, a.pcie_bytes) == (b.nvlink_bytes, b.pcie_bytes);
        out.check(same, || {
            format!("tracing changed the virtual results: {a:?} became {b:?}")
        });
    }
    let traced_wall = median(&traced.iter().map(|e| e.wall_s).collect::<Vec<_>>());
    out.set("trace.overhead_wall_ratio", traced_wall / untraced_wall);
    let trace = virtual_layers(&events, w, per_epoch, &mut out);

    // Pass B: the stage driver over the layout built above.
    let mut stage_driver = StageDriver::new(&layout, &cfg);
    let origin = Instant::now();
    for e in 0..w.warmup {
        stage_driver.run_epoch(e, origin);
    }
    let compute0 = train_wall_seconds();
    let driven: Vec<DriverEpoch> = (w.warmup..w.warmup + n)
        .map(|e| stage_driver.run_epoch(e, origin))
        .collect();
    out.set(
        "gnn.compute_wall_s",
        (train_wall_seconds() - compute0) * per_epoch,
    );
    if !w.pipelined {
        // The driver is the non-pipelined executor minus supervision,
        // so both clocks of the model must agree with it.
        for (d, e) in driven.iter().zip(&untraced) {
            let s = &e.stats;
            let close = (d.makespan_virt_s - s.epoch_time).abs() <= 1e-9 * s.epoch_time;
            out.check(
                close && (d.nvlink_bytes, d.pcie_bytes) == (s.nvlink_bytes, s.pcie_bytes),
                || {
                    format!(
                        "stage driver: {} s, {} + {} B; DspSystem: {} s, {} + {} B",
                        d.makespan_virt_s,
                        d.nvlink_bytes,
                        d.pcie_bytes,
                        s.epoch_time,
                        s.nvlink_bytes,
                        s.pcie_bytes
                    )
                },
            );
        }
    }
    let (hits, cold) = (
        trace.counter_sum("cache.hits"),
        trace.counter_sum("cache.cold"),
    );
    let rows: u64 = driven.iter().map(|d| d.rows_requested).sum();
    out.check(hits + cold == rows as f64, || {
        format!("cache: {hits} hits + {cold} cold != {rows} rows requested")
    });
    out.set("cache.hit_ratio", hits / rows as f64);
    let spans = wall_layers(driven, w, untraced_wall, per_epoch, &mut out);
    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let span_file = out_dir.join(format!("{}.trace.json", w.name));
    std::fs::write(&span_file, driver::spans_json(w.name, seed, &spans))
        .expect("write the span file");
    out.notes
        .push(format!("{} spans in {}", spans.len(), span_file.display()));

    // Layers driven alone, at this workload's rank count and sizes.
    let rank_batches = (last.num_batches * w.gpus) as f64;
    let a2a_items = (out.get("sampling.sampled_edges") / rank_batches / w.gpus as f64) as usize;
    let params = stage_driver.trainer().model().num_params();
    let [a2a, allreduce, barrier] = collective_rounds(
        &layout.cluster,
        a2a_items,
        params,
        A2A_ROUNDS / plan.rounds_div,
        ALLREDUCE_ROUNDS / plan.rounds_div,
    );
    out.set("comm.a2a_wall_us", a2a);
    out.set("comm.allreduce_wall_us", allreduce);
    out.set("comm.barrier_wall_us", barrier);
    out.notes.push(format!(
        "collectives alone: {} ranks, all_to_all_v of {a2a_items} u32 per peer, all_reduce_sum of {params} f32",
        w.gpus
    ));
    out.set(
        "pipeline.handoff_wall_us",
        queue_handoff(HANDOFF_ITEMS / plan.rounds_div as u64),
    );
    let a = Matrix::from_vec(512, 256, ramp(512 * 256));
    let b = Matrix::from_vec(256, 512, ramp(256 * 512));
    out.set(
        "tensor.gemm_512x512x256_wall_ms",
        median_ms(9, || black_box(matmul(black_box(&a), black_box(&b)))),
    );
    let src = Matrix::from_vec(6000, 64, ramp(6000 * 64));
    let weights = Matrix::from_vec(64, 32, ramp(64 * 32));
    let idx: Vec<u32> = (0..6000u32).map(|i| (i * 7919) % 6000).collect();
    out.set(
        "tensor.gather_gemm_6000x64x32_wall_ms",
        median_ms(21, || {
            black_box(gather_matmul(
                black_box(&src),
                black_box(&idx),
                black_box(&weights),
            ))
        }),
    );
    out.set(
        "store.ckpt_save_wall_ms",
        checkpoint_save_ms(&stage_driver, seed, w.gpus, &out_dir.join("ckpt")),
    );

    serve_layers(&layout, w, seed, plan.serve_requests, &mut out);
    out
}

/// Pass A's stream folded into the virtual-clock layer metrics, with
/// the queue checks. Returns the fold.
fn virtual_layers(events: &[Event], w: &Workload, per_epoch: f64, out: &mut Outcome) -> Fold {
    let f = fold(events);
    out.set("trace.events", events.len() as f64 * per_epoch);
    for (metric, span) in [
        ("sampling.sample_virt_s", "sample"),
        ("sampling.csp_shuffle_virt_s", "csp.shuffle"),
        ("sampling.csp_sample_virt_s", "csp.sample"),
        ("sampling.csp_reshuffle_virt_s", "csp.reshuffle"),
        ("cache.load_virt_s", "load"),
        ("cache.hot_virt_s", "load.hot"),
        ("cache.cold_virt_s", "load.cold"),
        ("gnn.train_virt_s", "train"),
        ("dsp-core.exchange_virt_s", "exchange"),
    ] {
        out.set(metric, f.span_s(span) * per_epoch);
    }
    for (metric, counter) in [
        ("cache.hits", "cache.hits"),
        ("cache.cold", "cache.cold"),
        ("cache.prefetch_hits", "cache.prefetch_hits"),
        ("cache.prefetch_rows", "prefetch.rows"),
        ("pipeline.q_sample_wait_virt_s", "q.sample.wait_s"),
        ("pipeline.q_feat_wait_virt_s", "q.feat.wait_s"),
        ("pipeline.q_prefetch_wait_virt_s", "q.prefetch.wait_s"),
    ] {
        out.set(metric, f.counter_sum(counter) * per_epoch);
    }
    let rounds: u64 = f
        .spans
        .iter()
        .filter(|(name, _)| name.starts_with("comm."))
        .map(|(_, s)| s.1)
        .sum();
    out.set("comm.rounds", rounds as f64 * per_epoch);
    out.set(
        "comm.round_virt_s",
        f.counter_sum("comm.round_s") / rounds.max(1) as f64,
    );
    out.set(
        "comm.ccc_queue_len_max",
        f.counters.get("ccc.queue_len").map_or(0.0, |c| c.1),
    );
    let queues = summary::telemetry(events).queues;
    let depth = |label: &str| {
        queues
            .iter()
            .find(|q| q.label == label)
            .map_or(0.0, |q| q.mean_depth)
    };
    out.set("pipeline.q_sample_mean_depth", depth("q.sample"));
    out.set("pipeline.q_feat_mean_depth", depth("q.feat"));
    let pushes: u64 = queues.iter().map(|q| q.pushes).sum();
    let pops: u64 = queues.iter().map(|q| q.pops).sum();
    out.set("pipeline.pushes", pushes as f64 * per_epoch);
    out.set("pipeline.pops", pops as f64 * per_epoch);
    out.check(pushes == pops, || {
        format!("queues: {pushes} pushes but {pops} pops")
    });
    out.check((pushes > 0) == w.pipelined, || {
        format!("{pushes} queue pushes with pipelined = {}", w.pipelined)
    });
    f
}

/// Pass B's epochs reduced to the wall-clock stage metrics, the work
/// counts and the sum check. Returns all spans, parents re-indexed.
fn wall_layers(
    driven: Vec<DriverEpoch>,
    w: &Workload,
    untraced_wall: f64,
    per_epoch: f64,
    out: &mut Outcome,
) -> Vec<Span> {
    let total = |f: &dyn Fn(&DriverEpoch) -> u64| driven.iter().map(f).sum::<u64>() as f64;
    out.set(
        "sampling.sampled_edges",
        total(&|d| d.sampled_edges) * per_epoch,
    );
    out.set(
        "sampling.input_nodes",
        total(&|d| d.input_nodes) * per_epoch,
    );
    out.set(
        "cache.rows_requested",
        total(&|d| d.rows_requested) * per_epoch,
    );
    let driver_wall = median(&driven.iter().map(|d| d.wall_s).collect::<Vec<_>>());
    let mut spans: Vec<Span> = Vec::new();
    for d in driven {
        driver::append(&mut spans, d.spans);
    }
    let stage = |name: &str| driver::wall_s(&spans, name) * per_epoch;
    let (sample, load, exchange, train) = (
        stage("sample"),
        stage("load"),
        stage("exchange"),
        stage("train"),
    );
    let stage_sum = sample + load + exchange + train;
    let rank_epochs = stage("epoch");
    let unattributed = 1.0 - stage_sum / rank_epochs;
    out.set("sampling.sample_wall_s", sample);
    out.set("cache.load_wall_s", load);
    out.set("dsp-core.exchange_wall_s", exchange);
    out.set("gnn.train_wall_s", train);
    out.set("dsp-core.stage_sum_wall_s", stage_sum);
    out.set("dsp-core.driver_epoch_wall_s", driver_wall);
    out.set("dsp-core.unattributed_wall_frac", unattributed);
    out.set("dsp-core.executor_wall_ratio", untraced_wall / driver_wall);
    out.check((exchange > 0.0) == w.split, || {
        format!("exchange took {exchange} s with split = {}", w.split)
    });
    out.notes.push(format!(
        "stage driver, share of rank-summed epoch wall {rank_epochs:.4} s: sample {:.3}, load {:.3}, exchange {:.3}, train {:.3} (of which model math {:.3}), outside any stage {unattributed:.3}",
        sample / rank_epochs,
        load / rank_epochs,
        exchange / rank_epochs,
        train / rank_epochs,
        out.get("gnn.compute_wall_s") / rank_epochs,
    ));
    if unattributed > 0.10 {
        out.notes.push(format!(
            "GAP: {unattributed:.3} of the rank-summed epoch wall is in no stage span (thread start, seed schedule, span bookkeeping)"
        ));
    }
    spans
}

/// Median wall microseconds per round of each collective, with one
/// thread per rank and nothing else running; timed on rank 0, which
/// like every rank leaves a round only when all have arrived.
fn collective_rounds(
    cluster: &Arc<Cluster>,
    a2a_items: usize,
    params: usize,
    rounds: usize,
    allreduce_rounds: usize,
) -> [f64; 3] {
    let comm = Communicator::new(9, Arc::clone(cluster));
    let n = cluster.num_gpus();
    let timings: Vec<[f64; 3]> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                let comm = &comm;
                scope.spawn(move || {
                    let mut clock = Clock::new();
                    let sends = vec![vec![0u32; a2a_items]; n];
                    let grads = vec![0.0f32; params];
                    let per_round = |count: usize, f: &mut dyn FnMut()| {
                        let samples: Vec<f64> = (0..count)
                            .map(|_| {
                                let t = Instant::now();
                                f();
                                t.elapsed().as_secs_f64() * 1e6
                            })
                            .collect();
                        median(&samples)
                    };
                    let a2a = per_round(rounds, &mut || {
                        black_box(comm.all_to_all_v(rank, &mut clock, sends.clone(), 4));
                    });
                    let mut clock = Clock::new();
                    let allreduce = per_round(allreduce_rounds, &mut || {
                        black_box(comm.all_reduce_sum(rank, &mut clock, grads.clone()));
                    });
                    let mut clock = Clock::new();
                    let barrier = per_round(rounds, &mut || comm.barrier(rank, &mut clock));
                    [a2a, allreduce, barrier]
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("collective thread panicked"))
            .collect()
    });
    timings[0]
}

/// Wall microseconds per item handed through a `virtual_queue(2)`
/// between two threads.
fn queue_handoff(items: u64) -> f64 {
    let (mut tx, mut rx) = virtual_queue::<u64>(2);
    let ((), wall_s) = timed(|| {
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut clock = Clock::new();
                for i in 0..items {
                    tx.push(&mut clock, i).expect("consumer alive");
                }
            });
            let mut clock = Clock::new();
            let mut got = 0;
            while let Some(item) = rx.pop(&mut clock) {
                black_box(item);
                got += 1;
            }
            assert_eq!(got, items, "queue lost items");
        })
    });
    wall_s * 1e6 / items as f64
}

fn ramp(len: usize) -> Vec<f32> {
    (0..len).map(|i| (i % 97) as f32 * 0.01 - 0.4).collect()
}

fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    f(); // warm-up
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1 * 1e3).collect();
    median(&samples)
}

/// Median wall milliseconds of saving the driver's model and optimizer
/// state, the stall a checkpoint puts on training.
fn checkpoint_save_ms(driver: &StageDriver, seed: u64, gpus: usize, dir: &Path) -> f64 {
    let (params, adam_t, adam_m, adam_v) = driver.trainer().checkpoint_state();
    let snapshot = Checkpoint {
        seed,
        epoch: 0,
        batch_in_epoch: 0,
        cursors: vec![0; gpus],
        rng: dsp::rng::Rng::seed_from_u64(seed).state(),
        params,
        adam_t,
        adam_m,
        adam_v,
    };
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let (saved, wall_s) = timed(|| snapshot.save(dir));
            saved.unwrap_or_else(|e| panic!("checkpoint save failed: {e}"));
            wall_s * 1e3
        })
        .collect();
    median(&samples)
}

/// The `serve.*` metrics: the fixed replays untraced, then the
/// latency-rate replay again with the recorder on.
fn serve_layers(layout: &DspLayout, w: &Workload, seed: u64, n: usize, out: &mut Outcome) {
    let num_nodes = layout.graph.num_nodes();
    let engine = serve_engine(layout, seed);
    let [_, mid, high] = fixed_replays(&engine, seed, w.latency_rps, n, num_nodes, out);
    let (traced, events) = record(|| replay(&engine, seed, w.latency_rps, n, num_nodes, out));
    out.check(traced.stats == mid.stats, || {
        "tracing changed the serve replay".to_string()
    });
    let f = fold(&events);
    out.set("serve.batches", mid.point.batches as f64);
    out.set("serve.mean_batch", mid.point.mean_batch);
    out.set("serve.sample_virt_s", f.span_s("serve.sample"));
    out.set("serve.fetch_virt_s", f.span_s("serve.fetch"));
    out.set("serve.forward_virt_s", f.span_s("serve.forward"));
    out.set("serve.shed_queue", high.point.shed_queue as f64);
    out.set("serve.shed_deadline", high.point.shed_deadline as f64);
    out.set("serve.wall_us_per_req", mid.wall_s * 1e6 / n as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::trace::TraceSink;

    #[test]
    fn fold_totals_nested_spans_and_counters_by_name() {
        let mut s = TraceSink::new(0, trace::TID_SAMPLER, 0);
        s.begin(0.0, "", "sampler", 0);
        for b in 0..2u64 {
            let t0 = b as f64;
            s.begin(t0, "", "sample", b);
            s.begin(t0 + 0.1, "", "csp.shuffle", 0);
            s.end(t0 + 0.3);
            s.end(t0 + 0.8);
            s.counter(t0 + 0.8, "cache", "hits", 10.0 + b as f64);
        }
        s.end(2.0);
        let f = fold(s.events());
        assert_eq!(f.spans["sample"].1, 2);
        assert!((f.span_s("sample") - 1.6).abs() < 1e-12);
        assert!((f.span_s("csp.shuffle") - 0.4).abs() < 1e-12);
        assert!((f.span_s("sampler") - 2.0).abs() < 1e-12);
        assert_eq!(f.counters["cache.hits"], (21.0, 11.0, 2));
        assert_eq!(f.span_s("absent"), 0.0);
        assert_eq!(f.counter_sum("absent"), 0.0);
    }
}
