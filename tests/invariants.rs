//! Conservation laws of the load path, asserted on the real system
//! under `cargo test` (ROADMAP 4c, the load-path slice).
//!
//! The loader's counters are documented as a partition of the rows it
//! was asked for; the benchmark checks that only in its traced run.
//! Here every executor × training mode is swept on a small graph with a
//! partial cache, and the rows each rank *should* have requested are
//! recomputed independently by replaying the sampling schedule.
//!
//! The second test pins what recycling feature buffers must not touch:
//! the training trajectory.
//!
//! The trace recorder is process-global, so the tests serialize.

use dsp::core::config::{TrainConfig, TrainMode};
use dsp::core::dsp::DspSystem;
use dsp::graph::{Dataset, DatasetSpec};
use dsp::sampling::csp::CspConfig;
use dsp::sampling::shadow::shadow_batch;
use dsp::trace::{Event, Payload};
use std::sync::{Mutex, MutexGuard};

static GATE: Mutex<()> = Mutex::new(());

/// Serializes the tests and returns the recorder to its disabled, empty
/// default even if a test body panics.
struct TraceLock<'a> {
    _gate: MutexGuard<'a, ()>,
}

impl TraceLock<'_> {
    fn acquire() -> Self {
        let gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        dsp::trace::recorder().clear();
        TraceLock { _gate: gate }
    }
}

impl Drop for TraceLock<'_> {
    fn drop(&mut self) {
        dsp::trace::recorder().set_enabled(false);
        dsp::trace::recorder().clear();
    }
}

const GPUS: usize = 2;
const EPOCHS: u64 = 2;

fn tiny() -> Dataset {
    DatasetSpec::tiny(1500).build()
}

/// A fifth of each rank's 750 rows fit the cache (16-dim rows).
fn cfg(train_mode: TrainMode) -> TrainConfig {
    TrainConfig {
        batch_size: 16,
        train_mode,
        cache_budget_override: Some(150 * 16 * 4),
        ..TrainConfig::test_default()
    }
}

/// Sum of the `label.name` counter over `rank`'s lanes.
fn counter(events: &[Event], rank: usize, label: &str, name: &str) -> u64 {
    events
        .iter()
        .filter(|e| e.rank as usize == rank)
        .filter_map(|e| match &e.payload {
            Payload::Counter {
                label: l,
                name: n,
                value,
            } if *l == label && *n == name => Some(*value as u64),
            _ => None,
        })
        .sum()
}

#[test]
fn loader_counters_partition_the_rows_requested_in_every_executor() {
    let d = tiny();
    for train_mode in [TrainMode::DataParallel, TrainMode::Split] {
        for pipelined in [true, false] {
            let what = format!("{train_mode:?} pipelined={pipelined}");
            let cfg = cfg(train_mode);
            let _lock = TraceLock::acquire();
            dsp::trace::recorder().set_enabled(true);
            let mut sys = DspSystem::new(&d, GPUS, &cfg, pipelined);
            // Two epochs: the second runs on recycled feature buffers.
            let mut batches_per_rank = 0u64;
            for e in 0..EPOCHS {
                let stats = sys.try_run_epoch(e).expect("fault-free epoch");
                batches_per_rank += stats.num_batches as u64;
            }
            let events = dsp::trace::recorder().take();
            dsp::trace::recorder().set_enabled(false);

            // Rows each rank must have asked its loader for: the input
            // set of every batch under dp; under split only the
            // innermost block's dst rows, i.e. the frontier one hop
            // short of the input set.
            let split = train_mode == TrainMode::Split;
            let hops = cfg.fanout.len() - usize::from(split);
            let replay = CspConfig {
                fanout: cfg.fanout[..hops].to_vec(),
                scheme: cfg.scheme,
                biased: cfg.biased,
                fused: true,
                temporal_cutoff: None,
                seed: cfg.seed,
            };
            let layout = sys.layout();
            let (mut hits_total, mut cold_total) = (0, 0);
            for rank in 0..GPUS {
                let mut requested = 0u64;
                let mut batch = 0u64;
                for e in 0..EPOCHS {
                    for seeds in layout.schedules[rank].epoch_batches(e) {
                        let shadow = shadow_batch(&layout.dist_graph, &replay, batch, &seeds);
                        requested += shadow.input_nodes.len() as u64;
                        batch += 1;
                    }
                }
                let hits = counter(&events, rank, "cache", "hits");
                let cold = counter(&events, rank, "cache", "cold");
                let prefetch_hits = counter(&events, rank, "cache", "prefetch_hits");
                assert!(hits > 0 && cold > 0, "{what}: cache is partial");
                assert_eq!(hits + cold, requested, "{what}: rank {rank} rows");
                assert!(prefetch_hits <= cold, "{what}: rank {rank}");
                if pipelined && !split {
                    // Fault-free, the window covers every cold row, and
                    // what the prefetcher charged is what was used.
                    assert_eq!(prefetch_hits, cold, "{what}: rank {rank}");
                    let staged = counter(&events, rank, "prefetch", "rows");
                    assert_eq!(staged, cold, "{what}: rank {rank} staged rows");
                } else {
                    assert_eq!(prefetch_hits, 0, "{what}: no prefetcher runs");
                }
                hits_total += hits;
                cold_total += cold;
            }
            assert_eq!(sys.loader_totals(), (hits_total, cold_total), "{what}");
            let expect_prefetched = if pipelined && !split { cold_total } else { 0 };
            assert_eq!(sys.prefetch_hit_total(), expect_prefetched, "{what}");
            let report = sys.last_fault_report();
            assert!(report.dropped_windows.is_empty(), "{what}");
            assert!(report.is_clean(), "{what}: {report:?}");

            // Every queue hands over exactly what it was given, and
            // the sequential executor has no queues at all.
            let queues = dsp::trace::summary::telemetry(&events).queues;
            assert_eq!(queues.is_empty(), !pipelined, "{what}");
            for q in &queues {
                assert_eq!(q.pushes, q.pops, "{what}: {}", q.label);
                assert_eq!(q.pushes, GPUS as u64 * batches_per_rank, "{what}");
            }
        }
    }
}

/// Epoch 1 on buffers recycled from epoch 0 must train exactly as epoch
/// 1 on a system that has never loaded a batch: one built fresh and
/// restored from the end-of-epoch-0 checkpoint.
#[test]
fn recycled_feature_buffers_leave_the_trajectory_bit_identical() {
    let _lock = TraceLock::acquire();
    let d = tiny();
    for pipelined in [true, false] {
        let cfg = cfg(TrainMode::DataParallel);
        let mut a = DspSystem::new(&d, GPUS, &cfg, pipelined);
        let e0 = a.try_run_epoch(0).expect("epoch 0");
        let a_e1 = a.try_run_epoch(1).expect("epoch 1 on recycled buffers");

        let dir = std::env::temp_dir().join(format!(
            "ds-invariants-ckpt-{}-{pipelined}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt_cfg = TrainConfig {
            ckpt_every: e0.num_batches as u64,
            ckpt_dir: dir.clone(),
            ..cfg.clone()
        };
        DspSystem::new(&d, GPUS, &ckpt_cfg, pipelined)
            .try_run_epoch(0)
            .expect("epoch 0 with a snapshot at its end");
        let ckpt = dsp::store::Checkpoint::latest(&dir)
            .expect("scan checkpoint dir")
            .expect("the end-of-epoch snapshot");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            (ckpt.epoch, ckpt.batch_in_epoch),
            (0, e0.num_batches as u64)
        );

        let mut b = DspSystem::resume(&d, GPUS, &cfg, pipelined, &ckpt);
        let b_e1 = b.try_run_epoch(1).expect("epoch 1 on a fresh system");
        assert_eq!(a_e1.loss, b_e1.loss, "pipelined={pipelined}");
        assert_eq!(
            a.all_checksums(),
            b.all_checksums(),
            "pipelined={pipelined}"
        );
    }
}
