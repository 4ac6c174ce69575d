//! Chaos tests: seed-driven fault injection against the full DSP
//! system.
//!
//! Three properties are locked in:
//! 1. **Delay-class chaos is invisible to convergence** — slowdowns,
//!    transfer delays and worker stalls perturb only the virtual
//!    timeline, so the loss trajectory stays bit-identical to the
//!    fault-free run.
//! 2. **A crashed sampler degrades, never hangs** — survivors fall back
//!    to degraded local pull-path sampling, retry their in-flight batch
//!    (bit-identical by RNG keying), and the epoch completes with the
//!    retries reported. Same seed twice → identical outcome.
//! 3. **A wedged collective terminates with a typed error** — dead-peer
//!    detection or the watchdog deadline, both carrying a non-empty
//!    diagnostics snapshot.

use dsp::comm::{CommConfig, CommError, Communicator};
use dsp::core::config::TrainConfig;
use dsp::core::dsp::DspSystem;
use dsp::core::error::DspError;
use dsp::core::{RetryPolicy, System};
use dsp::fault::FaultPlan;
use dsp::graph::{Dataset, DatasetSpec};
use dsp::simgpu::{Clock, ClusterSpec, WorkerKind};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two fixed seeds the CI chaos stage sweeps.
const CHAOS_SEEDS: [u64; 2] = [11, 23];

fn tiny() -> Dataset {
    DatasetSpec::tiny(1500).build()
}

fn chaos_cfg() -> TrainConfig {
    TrainConfig {
        batch_size: 16,
        comm_deadline_secs: 8.0,
        ..TrainConfig::test_default()
    }
}

/// Both executors: DSP's overlapped workers and DSP-Seq's inline loop
/// run the same stage functions, so every fault scenario that can reach
/// either runs under both.
const EXECUTORS: [bool; 2] = [true, false];

/// Losses and replica checksums of `epochs` epochs, plus the final
/// fault report (`pipelined` picks DSP or DSP-Seq).
fn run_epochs(
    plan: Option<FaultPlan>,
    gpus: usize,
    epochs: u64,
    pipelined: bool,
) -> (Vec<f64>, Vec<f64>, dsp::core::FaultReport, usize) {
    let d = tiny();
    let cfg = chaos_cfg();
    let mut sys = DspSystem::new(&d, gpus, &cfg, pipelined);
    if let Some(p) = plan {
        assert!(sys.cluster().install_fault_hook(Arc::new(p)));
    }
    let mut losses = Vec::new();
    let mut retried = 0;
    for e in 0..epochs {
        let stats = sys.try_run_epoch(e).expect("epoch should complete");
        losses.push(stats.loss);
        retried += stats.retried_batches;
    }
    (
        losses,
        sys.all_checksums(),
        sys.last_fault_report(),
        retried,
    )
}

#[test]
fn delay_chaos_leaves_the_loss_trajectory_bit_identical() {
    for seed in CHAOS_SEEDS {
        let (base_loss, base_sums, base_report, _) = run_epochs(None, 2, 2, true);
        assert!(base_report.is_clean());
        let plan = FaultPlan::new(seed).chaos(2, 6);
        let (loss, sums, report, _) = run_epochs(Some(plan), 2, 2, true);
        // Delay-class faults shift timing, never data: exact equality.
        assert_eq!(base_loss, loss, "seed {seed}: loss trajectory diverged");
        assert_eq!(base_sums, sums, "seed {seed}: replicas diverged");
        assert!(report.crashed.is_empty() && report.degraded.is_empty());
    }
}

#[test]
fn sampler_crash_degrades_and_the_epoch_completes() {
    let gpus = 3;
    for pipelined in EXECUTORS {
        let (base_loss, base_sums, _, _) = run_epochs(None, gpus, 2, pipelined);
        for seed in CHAOS_SEEDS {
            let plan = FaultPlan::new(seed).crash(1, WorkerKind::Sampler, 2);
            let (loss, sums, report, retried) = run_epochs(Some(plan), gpus, 2, pipelined);
            // The crash is absorbed: every rank degrades to local
            // pull-path sampling, survivors retry the in-flight batch,
            // and because the sampling RNG is keyed on (seed, batch,
            // layer, node) the retried/degraded samples are
            // bit-identical — so is the loss.
            let tag = format!("seed {seed}, pipelined {pipelined}");
            assert_eq!(base_loss, loss, "{tag}: degraded run diverged");
            assert_eq!(base_sums, sums, "{tag}: replicas diverged");
            assert_eq!(report.crashed, vec![(1, WorkerKind::Sampler, 2)]);
            assert_eq!(report.degraded, vec![0, 1, 2]);
            assert!(
                retried >= gpus - 1,
                "{tag}: each survivor retries its in-flight batch, got {retried}"
            );
            assert_eq!(report.retried.len(), retried);
        }
    }
}

#[test]
fn same_seed_crash_runs_are_identical() {
    let plan = || FaultPlan::new(CHAOS_SEEDS[0]).crash(0, WorkerKind::Sampler, 1);
    let (loss_a, sums_a, report_a, retried_a) = run_epochs(Some(plan()), 2, 2, true);
    let (loss_b, sums_b, report_b, retried_b) = run_epochs(Some(plan()), 2, 2, true);
    assert_eq!(loss_a, loss_b);
    assert_eq!(sums_a, sums_b);
    assert_eq!(report_a, report_b);
    assert_eq!(retried_a, retried_b);
}

#[test]
fn lost_cache_shard_degrades_to_cold_fetches_not_wrong_features() {
    let (base_loss, base_sums, _, _) = run_epochs(None, 2, 1, true);
    let d = tiny();
    let cfg = chaos_cfg();
    let mut sys = DspSystem::new(&d, 2, &cfg, true);
    assert!(sys
        .cluster()
        .install_fault_hook(Arc::new(FaultPlan::new(0).lose_shard(1))));
    let stats = sys.try_run_epoch(0).expect("shard loss must not fail");
    // Cold fetches return the same bytes the cache would have: the loss
    // is unchanged, only the fetch path (and its cost) differs.
    assert_eq!(vec![stats.loss], base_loss);
    assert_eq!(sys.all_checksums(), base_sums);
    let (_, cold) = sys.loader_totals();
    assert!(cold > 0, "lost shard should force cold fetches");
}

#[test]
fn shard_loss_under_prefetch_drops_windows_but_never_wedges() {
    // The prefetcher predicts cold rows from the *static* cache
    // membership; a lost shard invalidates that prediction mid-epoch.
    // The loader must (a) serve the un-predicted rows as demand UVA
    // fetches with identical bytes, (b) report which windows it had to
    // drop, and (c) keep draining the prefetch queue afterwards — a
    // wedged queue would hang the epoch, not fail it.
    let d = tiny();
    // tiny()'s default cache budget holds every feature; shrink it so
    // cold rows — the prefetcher's whole subject — actually exist.
    let cfg = TrainConfig {
        cache_budget_override: Some(200 * 16 * 4), // 200 of 1500 rows
        ..chaos_cfg()
    };
    assert!(cfg.prefetch_window > 0, "prefetch must be on for this test");
    let mut base = DspSystem::new(&d, 2, &cfg, true);
    let base_stats = base.try_run_epoch(0).expect("clean epoch");
    let base_sums = base.all_checksums();
    assert!(
        base.prefetch_hit_total() > 0,
        "with a partial cache the prefetcher must stage rows"
    );
    let mut sys = DspSystem::new(&d, 2, &cfg, true);
    assert!(sys
        .cluster()
        .install_fault_hook(Arc::new(FaultPlan::new(0).lose_shard(1))));
    let stats = sys.try_run_epoch(0).expect("shard loss must not fail");
    assert_eq!(stats.loss, base_stats.loss, "degraded fetches changed data");
    assert_eq!(sys.all_checksums(), base_sums);
    let (_, cold) = sys.loader_totals();
    assert!(cold > 0, "lost shard should force cold fetches");
    let report = sys.last_fault_report();
    assert!(
        !report.dropped_windows.is_empty(),
        "the invalidated windows must be named in the fault report"
    );
    for &(rank, _) in &report.dropped_windows {
        assert!(rank < 2);
    }
    assert!(
        report.summary().contains("dropped prefetch window"),
        "summary: {}",
        report.summary()
    );
    // The queue kept flowing: staged rows still served the misses the
    // static membership *did* predict, before and after the drops.
    assert!(
        sys.prefetch_hit_total() > 0,
        "prefetch queue wedged after the drop"
    );
}

#[test]
fn trainer_crash_terminates_with_a_typed_error() {
    let d = tiny();
    let cfg = TrainConfig {
        comm_deadline_secs: 2.0,
        ..chaos_cfg()
    };
    for pipelined in EXECUTORS {
        let mut sys = DspSystem::new(&d, 2, &cfg, pipelined);
        assert!(sys
            .cluster()
            .install_fault_hook(Arc::new(
                FaultPlan::new(0).crash(1, WorkerKind::Trainer, 1,)
            )));
        let start = Instant::now();
        let err = sys
            .try_run_epoch(0)
            .expect_err("trainer has no replacement");
        // BSP lockstep cannot survive a dead trainer: the epoch fails
        // fast with the crash as root cause, not a hang.
        match &err {
            DspError::WorkerCrashed {
                rank,
                worker,
                batch,
            } => {
                assert_eq!((*rank, *worker, *batch), (1, WorkerKind::Trainer, 1));
            }
            other => panic!("pipelined {pipelined}: expected WorkerCrashed, got: {other}"),
        }
        let budget = Duration::from_secs_f64(
            cfg.comm_deadline_secs * (RetryPolicy::default().max_retries + 2) as f64,
        );
        assert!(
            start.elapsed() < budget,
            "pipelined {pipelined}: termination took {:?}, budget {budget:?}",
            start.elapsed()
        );
        let report = sys.last_fault_report();
        assert_eq!(report.crashed, vec![(1, WorkerKind::Trainer, 1)]);
        assert_eq!(report.retried, vec![], "{}", report.summary());
        assert_eq!(report.degraded, vec![], "{}", report.summary());
    }
}

#[test]
fn wedged_collective_reports_peer_failure_with_diagnostics() {
    let cluster = Arc::new(ClusterSpec::v100(2).build());
    let comm = Arc::new(Communicator::new(9, cluster).with_config(CommConfig {
        deadline: Duration::from_secs(30),
    }));
    let c2 = Arc::clone(&comm);
    let h = std::thread::spawn(move || {
        let mut clock = Clock::new();
        c2.try_all_reduce_sum(0, &mut clock, vec![1.0f32; 8])
    });
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    comm.mark_failed(1);
    let err = h.join().unwrap().expect_err("peer 1 never arrives");
    // Detection is event-driven: far faster than the 30s deadline.
    assert!(start.elapsed() < Duration::from_secs(5));
    match &err {
        CommError::PeerFailed { rank, diag } => {
            assert_eq!(*rank, 1);
            assert_eq!(diag.expected, 2);
            assert_eq!(diag.failed, vec![1]);
            assert!(!diag.summary().is_empty());
        }
        other => panic!("expected PeerFailed, got: {other}"),
    }
}

#[test]
fn wedged_collective_times_out_within_the_deadline() {
    let cluster = Arc::new(ClusterSpec::v100(2).build());
    let comm = Communicator::new(9, cluster).with_config(CommConfig {
        deadline: Duration::from_millis(300),
    });
    let mut clock = Clock::new();
    let start = Instant::now();
    let err = comm
        .try_all_reduce_sum(0, &mut clock, vec![1.0f32; 8])
        .expect_err("peer 1 never arrives");
    assert!(err.is_timeout(), "expected timeout, got: {err}");
    assert!(start.elapsed() < Duration::from_secs(5));
    let diag = err.diagnostics();
    assert_eq!((diag.arrived, diag.expected), (1, 2));
    assert!(!diag.summary().is_empty());
}

// ---------------------------------------------------------------------
// Elastic recovery: rejoin, flapping peers, shard rebuild, resume
// ---------------------------------------------------------------------

#[test]
fn crashed_sampler_rejoins_and_the_run_exits_degraded_mode() {
    let gpus = 2;
    // Four epochs = four crash→rejoin cycles: plan batches are
    // per-epoch, so the same window re-fires every epoch and the round
    // pairing must survive repeated membership churn, not just one
    // cycle (a real-time readmission race once wedged cycle three).
    for pipelined in EXECUTORS {
        let (base_loss, base_sums, _, _) = run_epochs(None, gpus, 4, pipelined);
        for seed in CHAOS_SEEDS {
            let plan = FaultPlan::new(seed)
                .crash(1, WorkerKind::Sampler, 1)
                .recover(1, WorkerKind::Sampler, 3);
            let (loss, sums, report, retried) = run_epochs(Some(plan), gpus, 4, pipelined);
            // Degraded local sampling and the post-rejoin collective
            // path draw the exact same samples (RNG keyed on (seed,
            // batch, layer, node)), so crash + rejoin is invisible to
            // the math.
            let tag = format!("seed {seed}, pipelined {pipelined}");
            assert_eq!(base_loss, loss, "{tag}: recovered run diverged");
            assert_eq!(base_sums, sums, "{tag}: replicas diverged");
            assert_eq!(report.crashed, vec![(1, WorkerKind::Sampler, 1)]);
            assert_eq!(report.recovered, vec![(1, WorkerKind::Sampler, 3)]);
            // Both sides leave and re-enter the group at planned
            // batches: nothing is discovered the hard way. A retry here
            // is a round that wedged and was rescued by its deadline —
            // the trajectory stays bit-identical, so only this line
            // would notice.
            assert_eq!(retried, 0, "{tag}: {}", report.summary());
            assert!(
                report.fully_recovered(),
                "{tag}: run must end out of degraded mode: {}",
                report.summary()
            );
            assert!(report.summary().contains("rejoin"), "{}", report.summary());
        }
    }
}

#[test]
fn flapping_peer_survives_crash_rejoin_recrash() {
    let gpus = 2;
    let (base_loss, base_sums, _, _) = run_epochs(None, gpus, 2, true);
    // Crash at 1, rejoin at 3, crash again at 5, rejoin again at 7: the
    // membership generation fences each boundary, and the supervisor
    // records every distinct (rank, worker, batch) transition.
    let plan = FaultPlan::new(CHAOS_SEEDS[0])
        .crash(1, WorkerKind::Sampler, 1)
        .recover(1, WorkerKind::Sampler, 3)
        .crash(1, WorkerKind::Sampler, 5)
        .recover(1, WorkerKind::Sampler, 7);
    let (loss, sums, report, retried) = run_epochs(Some(plan), gpus, 2, true);
    assert_eq!(base_loss, loss, "flapping peer changed the trajectory");
    assert_eq!(retried, 0, "a planned window wedged: {}", report.summary());
    assert_eq!(base_sums, sums, "replicas diverged");
    assert_eq!(
        report.crashed,
        vec![(1, WorkerKind::Sampler, 1), (1, WorkerKind::Sampler, 5)]
    );
    assert_eq!(
        report.recovered,
        vec![(1, WorkerKind::Sampler, 3), (1, WorkerKind::Sampler, 7)]
    );
    assert!(report.fully_recovered(), "{}", report.summary());
}

#[test]
fn lost_shard_rebuilds_in_background_and_reaches_healthy() {
    let (base_loss, base_sums, _, _) = run_epochs(None, 2, 1, true);
    let d = tiny();
    let cfg = chaos_cfg();
    let mut sys = DspSystem::new(&d, 2, &cfg, true);
    assert!(sys.cluster().install_fault_hook(Arc::new(
        FaultPlan::new(0).lose_shard(1).rebuild_shard(1, 2)
    )));
    let stats = sys
        .try_run_epoch(0)
        .expect("rebuild must not fail the epoch");
    // Degraded fetches and post-rebuild hits return identical bytes.
    assert_eq!(vec![stats.loss], base_loss);
    assert_eq!(sys.all_checksums(), base_sums);
    let report = sys.last_fault_report();
    assert_eq!(report.shard_recoveries.len(), 1, "{}", report.summary());
    let (rank, start, healthy) = report.shard_recoveries[0];
    assert_eq!(rank, 1);
    assert_eq!(start, 2, "rebuild starts at the planned batch");
    assert!(healthy > start, "bounded-bandwidth rebuild takes batches");
    assert!(
        report.summary().contains("healthy@"),
        "{}",
        report.summary()
    );
    let (hits, cold) = sys.loader_totals();
    assert!(cold > 0, "degraded window must have forced cold fetches");
    assert!(hits > 0, "rebuilt shard must serve hits again");
}

#[test]
fn checkpoints_are_byte_identical_across_same_seed_runs() {
    let d = tiny();
    let dirs: Vec<std::path::PathBuf> = ["a", "b"]
        .iter()
        .map(|tag| std::env::temp_dir().join(format!("ds-ckpt-{}-{tag}", std::process::id())))
        .collect();
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = TrainConfig {
            ckpt_every: 4,
            ckpt_dir: dir.clone(),
            ..chaos_cfg()
        };
        let mut sys = DspSystem::new(&d, 2, &cfg, true);
        sys.try_run_epoch(0).expect("clean epoch");
    }
    let list = |dir: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("checkpoint dir exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let (na, nb) = (list(&dirs[0]), list(&dirs[1]));
    assert_eq!(na, nb, "same cadence, same snapshot set");
    assert!(!na.is_empty(), "ckpt_every=4 must have produced snapshots");
    for name in &na {
        let a = std::fs::read(dirs[0].join(name)).unwrap();
        let b = std::fs::read(dirs[1].join(name)).unwrap();
        assert_eq!(a, b, "{name}: snapshots differ between same-seed runs");
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn resume_from_checkpoint_matches_the_uninterrupted_trajectory() {
    let d = tiny();
    let cfg = chaos_cfg();
    for pipelined in EXECUTORS {
        // Run A: two epochs, never interrupted, no checkpointing.
        let mut a = DspSystem::new(&d, 2, &cfg, pipelined);
        let _e0 = a.try_run_epoch(0).expect("epoch 0");
        let a_e1 = a.try_run_epoch(1).expect("epoch 1");
        let a_sums = a.all_checksums();
        // Run B: same seed with snapshots every 4 global batches; the
        // system is dropped mid-story and a fresh one resumed from the
        // latest snapshot on disk.
        let dir =
            std::env::temp_dir().join(format!("ds-ckpt-resume-{}-{pipelined}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt_cfg = TrainConfig {
            ckpt_every: 4,
            ckpt_dir: dir.clone(),
            ..chaos_cfg()
        };
        {
            let mut b = DspSystem::new(&d, 2, &ckpt_cfg, pipelined);
            b.try_run_epoch(0).expect("epoch 0 with snapshots");
            // "crash": the system is dropped here, all in-memory state
            // lost.
        }
        let ckpt = dsp::store::Checkpoint::latest(&dir)
            .expect("scan checkpoint dir")
            .expect("at least one snapshot");
        assert_eq!(ckpt.epoch, 0);
        assert!(ckpt.batch_in_epoch > 0);
        let mut b = DspSystem::resume(&d, 2, &cfg, pipelined, &ckpt);
        b.try_run_epoch_from(ckpt.epoch, ckpt.batch_in_epoch)
            .expect("finish the interrupted epoch");
        let b_e1 = b.try_run_epoch(1).expect("epoch 1 after resume");
        // Bit-identical: same losses for the post-resume epoch, same
        // final replica checksums — the interruption is invisible.
        let tag = format!("pipelined {pipelined}");
        assert_eq!(
            a_e1.loss, b_e1.loss,
            "{tag}: epoch-1 loss diverged after resume"
        );
        assert_eq!(
            a_sums,
            b.all_checksums(),
            "{tag}: final model diverged after resume"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Split-parallel mode: crash mid-exchange, crash→rejoin under split
// ---------------------------------------------------------------------

fn split_cfg() -> TrainConfig {
    TrainConfig {
        train_mode: dsp::core::config::TrainMode::Split,
        ..chaos_cfg()
    }
}

/// A peer crash in the middle of the partial-aggregate exchange must
/// terminate the epoch with a typed error within the comm deadline
/// budget — the dead loader leaves both the loader and the exchange
/// groups, so survivors parked in an exchange rendezvous wake with
/// `PeerFailed` instead of sleeping out the watchdog. Same seed twice →
/// identical outcome (survivors recover deterministically).
#[test]
fn split_peer_crash_mid_exchange_terminates_within_deadline() {
    let d = tiny();
    let cfg = TrainConfig {
        comm_deadline_secs: 2.0,
        ..split_cfg()
    };
    let run = |pipelined| {
        let mut sys = DspSystem::new(&d, 2, &cfg, pipelined);
        assert!(sys
            .cluster()
            .install_fault_hook(Arc::new(FaultPlan::new(0).crash(1, WorkerKind::Loader, 1))));
        let start = Instant::now();
        let err = sys
            .try_run_epoch(0)
            .expect_err("a dead loader peer has no replacement in split mode");
        let budget = Duration::from_secs_f64(
            cfg.comm_deadline_secs * (RetryPolicy::default().max_retries + 2) as f64,
        );
        assert!(
            start.elapsed() < budget,
            "termination took {:?}, budget {budget:?}",
            start.elapsed()
        );
        match &err {
            DspError::WorkerCrashed {
                rank,
                worker,
                batch,
            } => {
                assert_eq!((*rank, *worker, *batch), (1, WorkerKind::Loader, 1));
            }
            other => panic!("pipelined {pipelined}: expected WorkerCrashed, got: {other}"),
        }
        (format!("{err}"), sys.last_fault_report())
    };
    for pipelined in EXECUTORS {
        let (err_a, report_a) = run(pipelined);
        let (err_b, report_b) = run(pipelined);
        assert_eq!(err_a, err_b, "same-seed crash outcomes diverged");
        assert_eq!(report_a, report_b);
        assert_eq!(report_a.crashed, vec![(1, WorkerKind::Loader, 1)]);
        // The teardown is typed end to end: every worker that stops
        // early gives up its seat, so no survivor sat out a comm
        // deadline.
        assert_eq!(report_a.retried, vec![], "{}", report_a.summary());
    }
}

/// The PR-7 membership fences hold under split mode too: a sampler
/// crash→rejoin cycle while the exchange group is live leaves the loss
/// trajectory and replicas bit-identical to a fault-free split run.
#[test]
fn split_sampler_crash_rejoin_matches_clean_split_run() {
    let d = tiny();
    let cfg = split_cfg();
    let run = |plan: Option<FaultPlan>| {
        let mut sys = DspSystem::new(&d, 2, &cfg, true);
        if let Some(p) = plan {
            assert!(sys.cluster().install_fault_hook(Arc::new(p)));
        }
        let mut losses = Vec::new();
        for e in 0..4 {
            losses.push(sys.try_run_epoch(e).expect("epoch should complete").loss);
        }
        (losses, sys.all_checksums(), sys.last_fault_report())
    };
    let (base_loss, base_sums, base_report) = run(None);
    assert!(base_report.is_clean());
    let plan = FaultPlan::new(CHAOS_SEEDS[0])
        .crash(1, WorkerKind::Sampler, 1)
        .recover(1, WorkerKind::Sampler, 3);
    let (loss, sums, report) = run(Some(plan));
    assert_eq!(base_loss, loss, "split-mode recovered run diverged");
    assert_eq!(base_sums, sums, "split-mode replicas diverged");
    assert_eq!(report.crashed, vec![(1, WorkerKind::Sampler, 1)]);
    assert_eq!(report.recovered, vec![(1, WorkerKind::Sampler, 3)]);
    assert_eq!(report.retried, vec![], "{}", report.summary());
    assert!(report.fully_recovered(), "{}", report.summary());
}

/// Serving through a shard rebuild: rank 1's feature shard is lost
/// before the trace starts and rebuilds from batch 3 on. The engine
/// must keep answering throughout — stale cached rows come back
/// flagged degraded, never wedged — and once the rebuild completes,
/// answers return to fresh.
#[test]
fn serving_degrades_through_shard_rebuild_then_returns_to_fresh() {
    use dsp::serve::{open_loop_trace, ServeConfig, ServeEngine};

    let spec = DatasetSpec::tiny(1000);
    let mut cfg = chaos_cfg();
    cfg.cache_budget_override = Some((spec.num_nodes * spec.feat_dim * 4 / 4) as u64);
    let scfg = ServeConfig::paper_default();
    let trace = open_loop_trace(scfg.seed, 60_000.0, 500, spec.num_nodes);

    // Clean reference lane.
    let clean_layout = dsp::core::layout::build_dsp_layout(&spec.build(), 2, &cfg);
    let clean = ServeEngine::new(&clean_layout, scfg.clone()).run(&trace);
    assert_eq!(clean.responses.len() + clean.sheds.len(), 500);
    assert_eq!(clean.degraded_batches, 0, "clean lane must stay fresh");

    // Fault lane on its own layout (fault hooks install once per
    // cluster).
    let layout = dsp::core::layout::build_dsp_layout(&spec.build(), 2, &cfg);
    assert!(layout.cluster.install_fault_hook(Arc::new(
        FaultPlan::new(0).lose_shard(1).rebuild_shard(1, 3)
    )));
    let stats = ServeEngine::new(&layout, scfg).run(&trace);

    // No wedge, nothing lost: the run completed and every request was
    // answered or shed, exactly like the clean lane.
    assert_eq!(stats.responses.len() + stats.sheds.len(), 500);
    assert_eq!(
        stats.responses.len(),
        clean.responses.len(),
        "shard loss may degrade answers, not drop them"
    );
    // Degraded answers flow while the shard is down, with consistent
    // counts: every degraded response sits in a degraded batch.
    let degraded = stats.responses.iter().filter(|r| r.degraded).count();
    assert!(degraded > 0, "stale shard rows must be served flagged");
    assert!(
        stats.degraded_batches > 0 && stats.degraded_batches <= stats.batches,
        "degraded batches miscounted"
    );
    // Recovery: the supervisor saw the shard return to fresh, and the
    // tail of the trace is served undegraded.
    assert!(
        !stats.time_to_fresh_s.is_empty() && stats.time_to_fresh_s.iter().all(|&t| t > 0.0),
        "the rebuilt shard must report time-to-fresh"
    );
    let first_degraded = stats
        .responses
        .iter()
        .position(|r| r.degraded)
        .expect("degraded answers exist");
    let last_degraded = stats
        .responses
        .iter()
        .rposition(|r| r.degraded)
        .expect("degraded answers exist");
    assert!(
        last_degraded + 1 < stats.responses.len(),
        "answers must return to fresh after the rebuild"
    );
    assert!(first_degraded <= last_degraded);
    assert!(
        stats.responses[last_degraded + 1..]
            .iter()
            .all(|r| !r.degraded),
        "no degraded answers after recovery"
    );
}
