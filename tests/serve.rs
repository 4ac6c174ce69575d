//! End-to-end serving tests: overload shedding, deadline-triggered
//! partial batches, per-class deadline sheds, and the determinism
//! contract — same seed + trace ⇒ bit-identical batch compositions,
//! logits hash and `BENCH_serve`-style report, re-executed across
//! `DS_PAR_THREADS` ∈ {1, 2, 8} (the thread count is latched once per
//! process, so the driver re-execs this binary per count, exactly like
//! `tests/exec_determinism.rs`).

use dsp::core::config::TrainConfig;
use dsp::core::layout::{build_dsp_layout, DspLayout};
use dsp::fault::FaultPlan;
use dsp::graph::DatasetSpec;
use dsp::serve::{open_loop_trace, LoadPoint, ReqClass, ServeConfig, ServeEngine, ShedReason};
use std::sync::Arc;

const NODES: usize = 800;

fn layout() -> DspLayout {
    let spec = DatasetSpec::tiny(NODES);
    let mut cfg = TrainConfig::test_default();
    // Cap the cache below the working set so the serve-local LRU and
    // the UVA cold path both carry traffic.
    cfg.cache_budget_override = Some((spec.num_nodes * spec.feat_dim * 4 / 4) as u64);
    build_dsp_layout(&spec.build(), 2, &cfg)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn overload_sheds_with_queue_full_and_accounts_for_every_request() {
    let l = layout();
    let engine = ServeEngine::new(&l, ServeConfig::paper_default());
    // Offered load far past capacity: the bounded queue must shed.
    let trace = open_loop_trace(7, 2_000_000.0, 400, NODES);
    let stats = engine.run(&trace);
    assert_eq!(
        stats.responses.len() + stats.sheds.len(),
        400,
        "every request answered xor shed"
    );
    assert!(
        stats
            .sheds
            .iter()
            .any(|s| s.reason == ShedReason::QueueFull),
        "overload must overrun the admission queue"
    );
    assert!(
        !stats.responses.is_empty(),
        "overload must not starve completions"
    );
    assert!(stats.responses.iter().all(|r| r.latency_s > 0.0));
}

#[test]
fn deadline_trigger_flushes_partial_batches_at_light_load() {
    let l = layout();
    let cfg = ServeConfig::paper_default();
    let engine = ServeEngine::new(&l, cfg.clone());
    // Mean inter-arrival 10 ms >> batch_delay 200 µs: the size trigger
    // (batch_max 8) can essentially never fire, so every batch is a
    // deadline flush — mostly singletons.
    let trace = open_loop_trace(11, 100.0, 60, NODES);
    let stats = engine.run(&trace);
    assert_eq!(stats.sheds.len(), 0, "light load must not shed");
    assert_eq!(stats.responses.len(), 60);
    let mean_batch = stats.responses.len() as f64 / stats.batches as f64;
    assert!(
        mean_batch < cfg.batch_max as f64 / 2.0,
        "light load must flush partial batches (mean {mean_batch})"
    );
    // The oldest request of every deadline-flushed batch waits out the
    // full batch delay; later co-batched arrivals wait less. With
    // mostly-singleton batches the majority must carry the full delay.
    let delayed = stats
        .responses
        .iter()
        .filter(|r| r.latency_s >= cfg.batch_delay_s)
        .count();
    assert!(
        delayed * 2 > stats.responses.len(),
        "deadline flushes must dominate at light load ({delayed}/{})",
        stats.responses.len()
    );
}

#[test]
fn per_class_deadlines_shed_only_the_expired_class() {
    let l = layout();
    let mut cfg = ServeConfig::paper_default();
    // Interactive deadline tighter than the batch delay itself: every
    // interactive request is already dead at flush time. The other
    // classes keep their generous deadlines.
    cfg.deadlines_s = [cfg.batch_delay_s / 2.0, 10e-3, 50e-3];
    let engine = ServeEngine::new(&l, cfg);
    let trace = open_loop_trace(13, 100.0, 80, NODES);
    let stats = engine.run(&trace);
    assert!(
        stats
            .sheds
            .iter()
            .any(|s| s.reason == ShedReason::DeadlineExceeded),
        "expired requests must shed"
    );
    assert!(
        stats
            .sheds
            .iter()
            .filter(|s| s.reason == ShedReason::DeadlineExceeded)
            .all(|s| s.class == ReqClass::Interactive),
        "only the tight class may expire at light load"
    );
    assert!(
        stats
            .responses
            .iter()
            .all(|r| r.class != ReqClass::Interactive),
        "no interactive request can survive a sub-delay deadline"
    );
    assert!(
        stats.responses.iter().all(|r| r.deadline_met),
        "surviving classes meet their deadlines at light load"
    );
}

#[test]
fn same_seed_and_trace_give_identical_stats_and_report() {
    let l = layout();
    let cfg = ServeConfig::paper_default();
    let trace = open_loop_trace(cfg.seed, 50_000.0, 300, NODES);
    let a = ServeEngine::new(&l, cfg.clone()).run(&trace);
    let b = ServeEngine::new(&l, cfg).run(&trace);
    assert_eq!(a, b, "same seed + trace must replay bit-identically");
    let pa = LoadPoint::from_stats(50_000.0, &a);
    let pb = LoadPoint::from_stats(50_000.0, &b);
    assert_eq!(pa, pb);
}

/// Golden replays: the batch hash folds every batch composition and
/// every logit bit, so a change to the serve host path that moved a
/// single logit, LRU decision or batch boundary fails here. One clean
/// replay past capacity (the shed paths) and one through a
/// lost-then-rebuilt shard (the stale-row and supervisor path). Stale
/// rows are served from the pre-loss copy, so the shard lane's logits
/// match a clean run's; its degraded-batch count pins the fault path.
/// Pinned values: `(batch_hash, completed, shed, degraded_batches)`.
#[test]
fn golden_serve_batch_hashes_are_pinned() {
    let cfg = ServeConfig::paper_default();
    let clean_layout = layout();
    let shard_layout = layout();
    assert!(shard_layout.cluster.install_fault_hook(Arc::new(
        FaultPlan::new(0).lose_shard(1).rebuild_shard(1, 3)
    )));
    let lanes = [
        (
            "clean",
            &clean_layout,
            400_000.0,
            (0x79e4_1edd_ecc6_c389, 321, 179, 0),
        ),
        (
            "shard_loss",
            &shard_layout,
            60_000.0,
            (0x382d_1ae4_5cb0_9afe, 500, 0, 11),
        ),
    ];
    for (name, l, rate, want) in lanes {
        let trace = open_loop_trace(cfg.seed, rate, 500, NODES);
        let s = ServeEngine::new(l, cfg.clone()).run(&trace);
        let got = (
            s.batch_hash,
            s.responses.len(),
            s.sheds.len(),
            s.degraded_batches,
        );
        assert_eq!(
            got, want,
            "{name}: (batch_hash {:#018x}, completed, shed, degraded) moved",
            got.0
        );
        if name == "shard_loss" {
            assert!(!s.time_to_fresh_s.is_empty(), "the shard must recover");
        }
    }
}

/// Child mode: run one serving sweep under whatever `DS_PAR_THREADS`
/// the driver set and print the composition/logits hash plus the hash
/// of the rendered report. A no-op in a normal test run.
#[test]
fn serve_child_emit_hashes() {
    if std::env::var("DS_SERVE_DET_CHILD").is_err() {
        return;
    }
    let l = layout();
    let cfg = ServeConfig::paper_default();
    let engine = ServeEngine::new(&l, cfg.clone());
    let mut points = Vec::new();
    let mut batch_hashes = Vec::new();
    for rate in [5_000.0, 400_000.0] {
        let trace = open_loop_trace(cfg.seed, rate, 300, NODES);
        let stats = engine.run(&trace);
        batch_hashes.push(stats.batch_hash);
        points.push(LoadPoint::from_stats(rate, &stats));
    }
    let report = dsp::serve::ServeReport {
        seed: cfg.seed,
        batch_max: cfg.batch_max,
        batch_delay_s: cfg.batch_delay_s,
        queue_cap: cfg.queue_cap,
        points,
    };
    let json_hash = fnv1a(report.to_json().as_bytes());
    println!(
        "DET_HASH {:016x} {:016x} {json_hash:016x}",
        batch_hashes[0], batch_hashes[1]
    );
}

#[test]
fn serving_is_bit_identical_across_thread_counts() {
    let exe = std::env::current_exe().expect("current_exe");
    let mut lines: Vec<(String, String)> = Vec::new();
    for threads in ["1", "2", "8"] {
        let out = std::process::Command::new(&exe)
            .args(["--exact", "serve_child_emit_hashes", "--nocapture"])
            .env("DS_SERVE_DET_CHILD", "1")
            .env("DS_PAR_THREADS", threads)
            .env("DS_PAR_SERIAL_CUTOFF", "0")
            .output()
            .expect("re-exec test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "child with DS_PAR_THREADS={threads} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The libtest harness may glue its "test ... " prefix onto the
        // same line, so search by substring rather than line start.
        let line = stdout
            .lines()
            .find_map(|l| l.find("DET_HASH").map(|i| l[i..].trim().to_string()))
            .unwrap_or_else(|| panic!("no DET_HASH line in:\n{stdout}"));
        lines.push((threads.to_string(), line));
    }
    let (_, reference) = &lines[0];
    for (threads, line) in &lines[1..] {
        assert_eq!(
            line, reference,
            "serving outputs differ between DS_PAR_THREADS=1 and {threads}"
        );
    }
}
