//! Epoch supervision: heartbeats, retry policy, and the fault report.
//!
//! Every worker thread reports a heartbeat (rank, worker, batch,
//! virtual time) at each batch boundary and routes its failures through
//! the shared [`Supervisor`], which decides between bounded retry with
//! exponential backoff and the degradation paths (degraded local
//! sampling for a dead sampler peer, UVA cold fetches for a lost cache
//! shard). The [`FaultReport`] accumulates what actually happened so
//! chaos tests — and operators — can see retries and degradations
//! instead of inferring them from timing.

use ds_simgpu::WorkerKind;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bounded-retry policy with exponential backoff (virtual seconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per batch before the worker gives up with
    /// [`crate::error::DspError::RetriesExhausted`].
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: f64,
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): `base · 2^(a-1)`.
    pub fn backoff(&self, attempt: u32) -> f64 {
        self.base_backoff * f64::powi(2.0, attempt.max(1) as i32 - 1)
    }

    /// [`Self::backoff`] plus a deterministic jitter in `[0, 25%)` of
    /// the exponential term, drawn from [`ds_rng::Rng`] keyed on
    /// `(seed, rank, batch, attempt)`. A pure function of its inputs:
    /// two peers that fail the same batch back off at *different* but
    /// *bit-reproducible* times, so retries de-synchronize without the
    /// run losing replayability.
    pub fn jittered_backoff(&self, seed: u64, rank: usize, batch: u64, attempt: u32) -> f64 {
        let key = seed
            ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ batch.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ (attempt as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
        let jitter = ds_rng::Rng::seed_from_u64(key ^ 0xBAC0_FF5E_D5B0_0001).gen::<f64>();
        self.backoff(attempt) * (1.0 + 0.25 * jitter)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: 1e-3,
        }
    }
}

/// Last observed progress of one worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Beat {
    /// Mini-batch the worker reported starting.
    pub batch: u64,
    /// Its virtual clock at that point.
    pub vtime: f64,
}

/// Recovery progress of one rank's lost cache shard, driven by the
/// loader's batch-keyed rebuild schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// Background rebuild in flight; lookups still degrade to UVA.
    Recovering,
    /// Rebuild complete; the shard serves hits again.
    Healthy,
}

/// What the supervisor observed (accumulates across epochs; entries are
/// reported sorted so thread scheduling cannot reorder them).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultReport {
    /// `(rank, batch)` pairs that were retried after a failure.
    pub retried: Vec<(usize, u64)>,
    /// Workers that crashed: `(rank, worker, batch)`.
    pub crashed: Vec<(usize, WorkerKind, u64)>,
    /// Ranks whose sampler fell back to degraded local (pull-path)
    /// sampling.
    pub degraded: Vec<usize>,
    /// Prefetch windows dropped on the floor: `(rank, batch)` pairs
    /// whose staged rows were discarded after a cache-shard loss and
    /// re-fetched cold over UVA.
    pub dropped_windows: Vec<(usize, u64)>,
    /// Workers that rejoined their collective group after a crash:
    /// `(rank, worker, batch)` of the rejoin boundary.
    pub recovered: Vec<(usize, WorkerKind, u64)>,
    /// Cache shards that went `Recovering → Healthy`:
    /// `(rank, rebuild_start_batch, healthy_batch)`.
    pub shard_recoveries: Vec<(usize, u64, u64)>,
}

impl FaultReport {
    /// True when nothing went wrong.
    pub fn is_clean(&self) -> bool {
        self.retried.is_empty()
            && self.crashed.is_empty()
            && self.degraded.is_empty()
            && self.dropped_windows.is_empty()
            && self.recovered.is_empty()
            && self.shard_recoveries.is_empty()
    }

    /// True when something crashed and every crashed worker later
    /// rejoined its collective group — the run ended out of degraded
    /// mode. (Shard rebuilds report separately via `shard_recoveries`:
    /// an entry exists only once the rebuild reached `Healthy`.)
    pub fn fully_recovered(&self) -> bool {
        !self.crashed.is_empty()
            && self.crashed.len() == self.recovered.len()
            && self
                .crashed
                .iter()
                .all(|&(r, w, _)| self.recovered.iter().any(|&(rr, rw, _)| (rr, rw) == (r, w)))
    }

    /// One-line operator summary.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return String::from("no faults observed");
        }
        format!(
            "{} retried batch(es) {:?}, {} crash(es) {:?}, degraded ranks {:?}, dropped prefetch window(s) {:?}, {} rejoin(s) {:?}, shard recoveries {:?}",
            self.retried.len(),
            self.retried,
            self.crashed.len(),
            self.crashed
                .iter()
                .map(|(r, w, b)| format!("{w}@rank{r}/batch{b}"))
                .collect::<Vec<_>>(),
            self.degraded,
            self.dropped_windows,
            self.recovered.len(),
            self.recovered
                .iter()
                .map(|(r, w, b)| format!("{w}@rank{r}/batch{b}"))
                .collect::<Vec<_>>(),
            self.shard_recoveries
                .iter()
                .map(|(r, s, h)| format!("rank{r}: batch{s}->healthy@{h}"))
                .collect::<Vec<_>>(),
        )
    }
}

/// Shared supervision state for one system's worker threads.
#[derive(Debug, Default)]
pub struct Supervisor {
    /// The retry policy every worker consults.
    pub policy: RetryPolicy,
    beats: Mutex<HashMap<(usize, WorkerKind), Beat>>,
    report: Mutex<FaultReport>,
    shards: Mutex<HashMap<usize, (ShardState, u64, f64)>>,
}

impl Supervisor {
    /// A supervisor applying `policy`.
    pub fn new(policy: RetryPolicy) -> Self {
        Supervisor {
            policy,
            ..Self::default()
        }
    }

    /// Records that `worker` on `rank` reached `batch` at virtual time
    /// `vtime`.
    pub fn heartbeat(&self, rank: usize, worker: WorkerKind, batch: u64, vtime: f64) {
        lock_unpoisoned(&self.beats).insert((rank, worker), Beat { batch, vtime });
    }

    /// Last heartbeat of one worker.
    pub fn last_beat(&self, rank: usize, worker: WorkerKind) -> Option<Beat> {
        lock_unpoisoned(&self.beats).get(&(rank, worker)).copied()
    }

    /// The worker with the oldest virtual-time heartbeat — where a
    /// watchdog should look first when the epoch stops progressing.
    pub fn stalest(&self) -> Option<((usize, WorkerKind), Beat)> {
        lock_unpoisoned(&self.beats)
            .iter()
            .min_by(|a, b| a.1.vtime.total_cmp(&b.1.vtime))
            .map(|(&k, &v)| (k, v))
    }

    /// Records one retry of `batch` on `rank`.
    pub fn record_retry(&self, rank: usize, batch: u64) {
        lock_unpoisoned(&self.report).retried.push((rank, batch));
    }

    /// Records a worker crash. Idempotent per `(rank, worker, batch)`:
    /// a fault plan that crashes a worker at batch `b` fires again when
    /// a later epoch reaches the same batch index, but the worker only
    /// dies once *per boundary* — a flapping peer that rejoined and
    /// crashed again at a different batch is a second, distinct entry.
    pub fn record_crash(&self, rank: usize, worker: WorkerKind, batch: u64) {
        let mut r = lock_unpoisoned(&self.report);
        if !r.crashed.contains(&(rank, worker, batch)) {
            r.crashed.push((rank, worker, batch));
        }
    }

    /// Records that a crashed worker rejoined its collective group at
    /// the `batch` boundary (idempotent per `(rank, worker, batch)`).
    pub fn record_recovery(&self, rank: usize, worker: WorkerKind, batch: u64) {
        let mut r = lock_unpoisoned(&self.report);
        if !r.recovered.contains(&(rank, worker, batch)) {
            r.recovered.push((rank, worker, batch));
        }
    }

    /// Marks `rank`'s cache shard as rebuilding from `batch` (virtual
    /// time `vtime`). Idempotent while already `Recovering`.
    pub fn mark_recovering(&self, rank: usize, batch: u64, vtime: f64) {
        let mut s = lock_unpoisoned(&self.shards);
        match s.get(&rank) {
            Some((ShardState::Recovering, _, _)) => {}
            _ => {
                s.insert(rank, (ShardState::Recovering, batch, vtime));
            }
        }
    }

    /// Marks `rank`'s shard rebuilt as of `batch`. On the
    /// `Recovering → Healthy` transition, records the recovery in the
    /// report and returns the virtual seconds spent degraded (the
    /// `recovery.time_to_healthy_s` telemetry input); `None` when the
    /// shard was not recovering.
    pub fn mark_healthy(&self, rank: usize, batch: u64, vtime: f64) -> Option<f64> {
        let mut s = lock_unpoisoned(&self.shards);
        match s.get(&rank).copied() {
            Some((ShardState::Recovering, start_batch, start_vtime)) => {
                s.insert(rank, (ShardState::Healthy, batch, vtime));
                drop(s);
                lock_unpoisoned(&self.report)
                    .shard_recoveries
                    .push((rank, start_batch, batch));
                Some(vtime - start_vtime)
            }
            _ => None,
        }
    }

    /// Current rebuild state of `rank`'s shard (`None` = never lost).
    pub fn shard_state(&self, rank: usize) -> Option<ShardState> {
        lock_unpoisoned(&self.shards)
            .get(&rank)
            .map(|&(st, _, _)| st)
    }

    /// Records that `rank`'s sampler switched to degraded local
    /// sampling (idempotent).
    pub fn mark_degraded(&self, rank: usize) {
        let mut r = lock_unpoisoned(&self.report);
        if !r.degraded.contains(&rank) {
            r.degraded.push(rank);
        }
    }

    /// Records that `rank` discarded the staged prefetch window for
    /// `batch` (cache-shard loss invalidated it) and degraded those
    /// rows to cold UVA fetches.
    pub fn record_dropped_window(&self, rank: usize, batch: u64) {
        lock_unpoisoned(&self.report)
            .dropped_windows
            .push((rank, batch));
    }

    /// Snapshot of everything observed so far, sorted for determinism.
    pub fn report(&self) -> FaultReport {
        let mut r = lock_unpoisoned(&self.report).clone();
        r.retried.sort_unstable();
        r.crashed
            .sort_unstable_by_key(|&(rank, w, b)| (rank, w as u8, b));
        r.degraded.sort_unstable();
        r.dropped_windows.sort_unstable();
        r.recovered
            .sort_unstable_by_key(|&(rank, w, b)| (rank, w as u8, b));
        r.shard_recoveries.sort_unstable();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: 0.5,
        };
        assert_eq!(p.backoff(1), 0.5);
        assert_eq!(p.backoff(2), 1.0);
        assert_eq!(p.backoff(3), 2.0);
        // Attempt 0 is clamped to the base.
        assert_eq!(p.backoff(0), 0.5);
    }

    #[test]
    fn heartbeats_track_the_stalest_worker() {
        let s = Supervisor::default();
        s.heartbeat(0, WorkerKind::Sampler, 4, 2.0);
        s.heartbeat(1, WorkerKind::Trainer, 3, 0.5);
        s.heartbeat(0, WorkerKind::Loader, 4, 1.5);
        let ((rank, worker), beat) = s.stalest().unwrap();
        assert_eq!((rank, worker), (1, WorkerKind::Trainer));
        assert_eq!(beat.batch, 3);
        assert_eq!(s.last_beat(0, WorkerKind::Sampler).unwrap().batch, 4);
    }

    #[test]
    fn report_is_sorted_and_degradation_is_idempotent() {
        let s = Supervisor::default();
        s.record_retry(2, 5);
        s.record_retry(0, 5);
        s.mark_degraded(1);
        s.mark_degraded(1);
        s.record_crash(1, WorkerKind::Sampler, 5);
        // Re-declaring the same corpse (e.g. next epoch reaches the
        // crash batch again) does not duplicate the entry.
        s.record_crash(1, WorkerKind::Sampler, 5);
        let r = s.report();
        assert_eq!(r.retried, vec![(0, 5), (2, 5)]);
        assert_eq!(r.degraded, vec![1]);
        assert_eq!(r.crashed, vec![(1, WorkerKind::Sampler, 5)]);
        assert!(!r.is_clean());
        assert!(r.summary().contains("sampler@rank1/batch5"));
    }

    #[test]
    fn clean_report_says_so() {
        let s = Supervisor::new(RetryPolicy::default());
        assert!(s.report().is_clean());
        assert_eq!(s.report().summary(), "no faults observed");
    }

    #[test]
    fn jittered_backoff_is_pinned_byte_for_byte() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: 0.5,
        };
        // Frozen golden value: any drift in the jitter derivation (key
        // mixing, rng, scale) changes retry timing on every replayed
        // run, so it fails loudly here first.
        let v = p.jittered_backoff(0xD5B0, 0, 3, 1);
        assert_eq!(v.to_bits(), 0x3fe37d888cb4e48b, "got {v:.17e}");
        // Pure function of its inputs.
        assert_eq!(v.to_bits(), p.jittered_backoff(0xD5B0, 0, 3, 1).to_bits());
        // Jitter stays within [backoff, 1.25 * backoff).
        for (rank, batch, attempt) in [(0usize, 3u64, 1u32), (1, 3, 1), (2, 9, 2), (3, 0, 3)] {
            let base = p.backoff(attempt);
            let j = p.jittered_backoff(7, rank, batch, attempt);
            assert!(j >= base && j < 1.25 * base, "{j} vs base {base}");
        }
        // Peers failing the same batch de-synchronize.
        assert_ne!(
            p.jittered_backoff(0xD5B0, 0, 3, 1).to_bits(),
            p.jittered_backoff(0xD5B0, 1, 3, 1).to_bits()
        );
    }

    #[test]
    fn flapping_crashes_are_distinct_entries_and_pair_with_recoveries() {
        let s = Supervisor::default();
        // Crash, rejoin, re-crash at a later batch: two crash entries,
        // not one — idempotence is per (rank, worker, batch).
        s.record_crash(1, WorkerKind::Sampler, 2);
        s.record_crash(1, WorkerKind::Sampler, 2);
        s.record_recovery(1, WorkerKind::Sampler, 4);
        s.record_recovery(1, WorkerKind::Sampler, 4);
        assert!(!s.report().fully_recovered() || s.report().crashed.len() == 1);
        s.record_crash(1, WorkerKind::Sampler, 6);
        let r = s.report();
        assert_eq!(
            r.crashed,
            vec![(1, WorkerKind::Sampler, 2), (1, WorkerKind::Sampler, 6)]
        );
        assert_eq!(r.recovered, vec![(1, WorkerKind::Sampler, 4)]);
        assert!(!r.fully_recovered(), "second crash never rejoined");
        s.record_recovery(1, WorkerKind::Sampler, 8);
        assert!(s.report().fully_recovered());
        assert!(s.report().summary().contains("sampler@rank1/batch4"));
    }

    #[test]
    fn shard_state_walks_recovering_to_healthy_once() {
        let s = Supervisor::default();
        assert_eq!(s.shard_state(0), None);
        s.mark_recovering(0, 3, 1.5);
        s.mark_recovering(0, 4, 9.0); // idempotent: keeps the first start
        assert_eq!(s.shard_state(0), Some(ShardState::Recovering));
        let dt = s
            .mark_healthy(0, 7, 4.0)
            .expect("transition yields duration");
        assert!((dt - 2.5).abs() < 1e-12, "degraded for {dt}");
        assert_eq!(s.shard_state(0), Some(ShardState::Healthy));
        // Re-marking healthy is a no-op, not a second report entry.
        assert_eq!(s.mark_healthy(0, 8, 5.0), None);
        let r = s.report();
        assert_eq!(r.shard_recoveries, vec![(0, 3, 7)]);
        assert!(!r.is_clean());
        assert!(r.summary().contains("rank0: batch3->healthy@7"));
    }
}
