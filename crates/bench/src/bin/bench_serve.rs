//! Machine-readable serving benchmark: drives the `ds-serve` engine
//! with open-loop traces at several offered-load levels (plus one
//! fault lane with a lost feature shard) and writes the latency /
//! goodput / shed / degraded report to `BENCH_serve.json`.
//!
//! Every number comes off the virtual clock, so the file is
//! byte-deterministic for a given source tree: CI runs this binary
//! twice and `cmp`s the outputs, then gates the latency and goodput
//! columns against the committed `results/BENCH_serve_baseline.json`
//! via `bench_serve_diff`.
//!
//! ```sh
//! cargo run --release -p ds-bench --bin bench_serve [out.json]
//! ```

use ds_graph::DatasetSpec;
use ds_serve::{open_loop_trace, LoadPoint, ServeConfig, ServeEngine, ServeReport};
use dsp_core::config::TrainConfig;
use dsp_core::layout::{build_dsp_layout, DspLayout};

const GPUS: usize = 2;
const REQUESTS: usize = 600;
/// Offered-load sweep (requests/second). Tuned so the lowest point
/// sheds nothing and the highest point overruns the admission queue.
const RATES: [f64; 3] = [5_000.0, 80_000.0, 600_000.0];
/// Offered load of the shard-loss lane.
const FAULT_RATE: f64 = 80_000.0;

fn build(spec: &DatasetSpec, cfg: &TrainConfig) -> DspLayout {
    build_dsp_layout(&spec.build(), GPUS, cfg)
}

fn main() {
    ds_trace::recorder().set_enabled(true);
    ds_trace::recorder().clear();

    // Fixed sizes regardless of DS_BENCH_QUICK: the serving lane is
    // cheap, and a single shape keeps the committed baseline valid for
    // both CI and local runs.
    let spec = DatasetSpec::tiny(1500);
    let mut cfg = TrainConfig::paper_default();
    // Cap the per-rank cache below the working set so the serve-local
    // LRU and UVA cold path carry real traffic.
    cfg.cache_budget_override = Some((spec.num_nodes * spec.feat_dim * 4 / 4) as u64);
    let scfg = ServeConfig::from_env();
    let num_nodes = spec.num_nodes;

    let layout = build(&spec, &cfg);
    let engine = ServeEngine::new(&layout, scfg.clone());
    let mut points = Vec::new();
    for rate in RATES {
        let trace = open_loop_trace(scfg.seed, rate, REQUESTS, num_nodes);
        let stats = engine.run(&trace);
        let p = LoadPoint::from_stats(rate, &stats);
        eprintln!(
            "[bench_serve] {rate:>8.0} rps: {} ok / {} shed ({} queue, {} deadline), \
             p50 {:.3} ms p99 {:.3} ms, goodput {:.0} rps",
            p.completed, p.shed, p.shed_queue, p.shed_deadline, p.p50_ms, p.p99_ms, p.goodput_rps
        );
        points.push(p);
    }
    assert_eq!(
        points[0].shed, 0,
        "the low load point must shed nothing (retune RATES)"
    );
    assert!(
        points[2].shed_queue > 0,
        "the top load point must overrun the admission queue (retune RATES)"
    );
    assert!(
        points.iter().all(|p| p.degraded == 0),
        "clean lanes must not produce degraded answers"
    );

    // Fault lane: rank 1 loses its feature shard before serving starts
    // and rebuilds from batch 5 on. Cached rows owned by rank 1 come
    // back stale (degraded) until the rebuild completes; the engine
    // must keep answering throughout and return to fresh.
    let fault_layout = build(&spec, &cfg);
    assert!(
        fault_layout.cluster.install_fault_hook(std::sync::Arc::new(
            ds_fault::FaultPlan::new(0)
                .lose_shard(1)
                .rebuild_shard(1, 5)
        )),
        "fault lane needs its fault hook"
    );
    let fault_engine = ServeEngine::new(&fault_layout, scfg.clone());
    let trace = open_loop_trace(scfg.seed, FAULT_RATE, REQUESTS, num_nodes);
    let stats = fault_engine.run(&trace);
    let p = LoadPoint::from_stats(FAULT_RATE, &stats);
    eprintln!(
        "[bench_serve] fault lane: {} ok ({} degraded in {} batches), {} shed, \
         time-to-fresh {:?} s",
        p.completed, p.degraded, p.degraded_batches, p.shed, stats.time_to_fresh_s
    );
    assert!(
        p.degraded > 0 && p.degraded_batches > 0,
        "the fault lane must serve degraded answers while the shard is down"
    );
    assert!(
        !stats.time_to_fresh_s.is_empty(),
        "the rebuilt shard must return answers to fresh within the trace"
    );
    assert!(
        p.completed + p.shed == REQUESTS as u64,
        "every request accounted for"
    );
    points.push(p);

    // The serving lane must narrate itself: spans under the serve TID
    // and the running counters folded from the trace stream.
    let events = ds_trace::recorder().take();
    let t = ds_trace::summary::telemetry(&events);
    assert!(t.events > 0, "serving produced no trace events");
    for key in ["serve.completed", "serve.shed", "serve.degraded_batches"] {
        assert!(
            t.counters.iter().any(|(k, _)| k == key),
            "telemetry missing counter {key}"
        );
    }

    let report = ServeReport {
        seed: scfg.seed,
        batch_max: scfg.batch_max,
        batch_delay_s: scfg.batch_delay_s,
        queue_cap: scfg.queue_cap,
        points,
    };
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".into());
    std::fs::write(&out, report.to_json()).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "{out}: {} load points, p99 at {:.0} rps = {:.3} ms",
        report.points.len(),
        report.points[0].offered_rps,
        report.points[0].p99_ms
    );
}
