//! The DSP system (§3–§5): CSP sampler + two-path loader + BSP trainer
//! per GPU, connected by bounded producer-consumer queues, with
//! communication-kernel launches coordinated through CCC.
//!
//! `DspSystem` also implements **DSP-Seq** (pipeline disabled): the same
//! workers run back-to-back inside one thread per GPU — the Fig. 6 /
//! Fig. 12 ablation.
//!
//! Every worker loop is *supervised*: it heartbeats at batch
//! boundaries, consults the cluster's fault hook for injected stalls
//! and crashes, and routes failures through the [`Supervisor`]'s
//! bounded-retry policy. Two failures degrade instead of failing the
//! epoch: a dead sampler peer (survivors and the crashed rank's
//! replacement fall back to degraded local pull-path sampling, which
//! reproduces the exact same samples because the sampling RNG is keyed
//! on `(seed, batch, layer, node)`) and a lost cache shard (requests
//! against it miss and fall back to UVA cold fetches inside the
//! loader). Everything else terminates with a typed [`DspError`].

use crate::config::{TrainConfig, TrainMode};
use crate::error::DspError;
use crate::layout::{build_dsp_layout, DspLayout};
use crate::prefetch::Prefetcher;
use crate::split::SplitExchange;
use crate::stats::{EpochStats, MetricAccumulator, RankEpoch};
use crate::supervisor::{FaultReport, RetryPolicy, Supervisor};
use crate::system::{evaluate_model, sampler_epoch, System};
use ds_cache::{
    DspLoader, DynamicPolicyKind, FeatureBuffers, FeatureLoader, PrefetchedWindow, RebuildStatus,
};
use ds_comm::{CommConfig, CommError, Communicator, Coordinator, DeviceSlots};
use ds_gnn::{GnnKind, Trainer};
use ds_graph::{Dataset, Labels, NodeId};
use ds_pipeline::queue::virtual_queue_labeled;
use ds_pipeline::QueueConsumer;
use ds_sampling::csp::{CspConfig, CspSampler};
use ds_sampling::shadow::shadow_batch;
use ds_sampling::GraphSample;
use ds_simgpu::{Clock, Cluster, WorkerKind};
use ds_tensor::matrix::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// Worker-group ids (peer workers share these across ranks).
const SAMPLER_WORKER: u32 = 1;
const LOADER_WORKER: u32 = 2;
const TRAINER_WORKER: u32 = 3;
/// Split mode's partial-aggregate exchange (rides the loader stage).
const EXCHANGE_WORKER: u32 = 4;

struct RankState {
    sampler: CspSampler,
    loader: DspLoader,
    trainer: Trainer,
    /// Epoch-ahead prefetcher (pipelined mode with a non-zero window).
    prefetcher: Option<Prefetcher>,
    /// Split mode's partial-aggregate exchange runtime (`None` under
    /// data-parallel training).
    exchange: Option<SplitExchange>,
}

/// What the loader stage hands the trainer: the batch, its input
/// features and split mode's combined innermost aggregate (`None`
/// under data-parallel).
type Loaded = (GraphSample, Matrix, Option<Matrix>);

/// Checkpoint cadence for one epoch run (rank 0's trainer writes).
#[derive(Clone)]
struct CkptCfg {
    /// Snapshot every this many completed *global* batches.
    every: u64,
    /// Snapshot directory.
    dir: std::path::PathBuf,
    /// Experiment seed, recorded in every snapshot.
    seed: u64,
    /// Batches of this epoch already complete before this run (the
    /// resume offset of `try_run_epoch_from`).
    start: u64,
    /// GPU count — the cursor vector's length.
    num_ranks: usize,
}

/// What the worker threads of one epoch run share besides the
/// long-lived communicators. Built fresh per run, so nothing here can
/// go stale across epochs or a re-run of the same epoch.
#[derive(Default)]
struct EpochShared {
    /// Set (before anything a peer can observe) once a worker leaves
    /// its schedule early: the epoch can only end in an error, and
    /// every failure seen from here on is teardown, not a fault to
    /// retry, degrade around or report.
    doomed: AtomicBool,
    /// Per sampler rejoin boundary (batch): how many sampler threads
    /// stand at it, and whether the last of them has healed the group.
    rejoins: Mutex<HashMap<u64, (usize, bool)>>,
    rejoin_cv: Condvar,
}

impl EpochShared {
    fn doomed(&self) -> bool {
        self.doomed.load(Ordering::SeqCst)
    }

    /// Dooms the epoch and wakes whoever is parked at a rejoin
    /// boundary (the lock round-trip closes the check-then-park race).
    fn doom(&self) {
        self.doomed.store(true, Ordering::SeqCst);
        drop(lock_unpoisoned(&self.rejoins));
        self.rejoin_cv.notify_all();
    }

    /// The rejoin boundary at `batch`, entered once by each of `n`
    /// sampler threads: the last to arrive runs `heal`, the others
    /// park until it has finished. Returns whether the caller leaves
    /// with the group healed; false when it gave up — `timeout` of
    /// wall time passed (a peer never arrived) or the epoch is doomed.
    fn rejoin_boundary(
        &self,
        batch: u64,
        n: usize,
        timeout: Duration,
        heal: impl FnOnce(),
    ) -> bool {
        let mut at = lock_unpoisoned(&self.rejoins);
        let entry = at.entry(batch).or_insert((0, false));
        entry.0 += 1;
        if entry.0 == n {
            // Everyone else is parked below: heal without the lock.
            drop(at);
            heal();
            lock_unpoisoned(&self.rejoins).entry(batch).or_default().1 = true;
            self.rejoin_cv.notify_all();
            return true;
        }
        let deadline = Instant::now() + timeout;
        loop {
            if at.get(&batch).is_some_and(|e| e.1) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.doomed() {
                return false;
            }
            at = self
                .rejoin_cv
                .wait_timeout(at, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything a supervised worker loop needs besides its own pipeline
/// stage: fault hooks, the communicators (for declaring deaths), the
/// CCC coordinator (for unwedging launch queues) and the supervisor.
struct RankCtx {
    rank: usize,
    exec: bool,
    /// Experiment seed — keys the deterministic retry-backoff jitter.
    seed: u64,
    /// Epoch this run is executing (recorded in checkpoints).
    epoch: u64,
    /// Global batch index of this run's first batch on this rank: the
    /// prefetcher keys its shadow replay on it, the loader checks a
    /// staged window against it, and checkpoints count from it.
    base: u64,
    /// Batches this run executes on this rank.
    total: u64,
    labels: Arc<Labels>,
    cluster: Arc<Cluster>,
    sampler_comm: Arc<Communicator>,
    loader_comm: Arc<Communicator>,
    trainer_comm: Arc<Communicator>,
    /// Split mode's exchange group (`None` under data-parallel).
    exchange_comm: Option<Arc<Communicator>>,
    ccc: Option<Arc<Coordinator>>,
    sup: Arc<Supervisor>,
    shared: Arc<EpochShared>,
    /// `Some` when checkpointing is on (`ckpt_every > 0`).
    ckpt: Option<CkptCfg>,
}

/// A worker's seat in its collective group for one epoch. Dropped
/// before [`Seat::done`] — an error return, a closed queue, a panic —
/// the worker is leaving its schedule early and [`RankCtx::leave`]
/// gives the seat up, so no peer waits for a round it will never join.
struct Seat<'a> {
    ctx: &'a RankCtx,
    worker: WorkerKind,
    done: bool,
}

impl Seat<'_> {
    /// The worker ran its whole schedule.
    fn done(&mut self) {
        self.done = true;
    }
}

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.ctx.leave(self.worker);
        }
    }
}

impl RankCtx {
    fn comm_for(&self, worker: WorkerKind) -> &Communicator {
        match worker {
            WorkerKind::Sampler => &self.sampler_comm,
            WorkerKind::Loader => &self.loader_comm,
            WorkerKind::Trainer => &self.trainer_comm,
        }
    }

    /// Injected stall: the worker is alive but wedged for a while.
    fn stall(&self, clock: &mut Clock, worker: WorkerKind, batch: u64) {
        if let Some(h) = self.cluster.fault_hook() {
            let s = h.worker_stall(self.rank, worker, batch);
            if s > 0.0 {
                let t = clock.now() + s;
                clock.wait_until(t);
            }
        }
    }

    /// Whether the fault plan crashes `worker` at the start of `batch`.
    fn crashes(&self, worker: WorkerKind, batch: u64) -> bool {
        self.cluster
            .fault_hook()
            .is_some_and(|h| h.worker_crashes(self.rank, worker, batch))
    }

    /// How the loader and the trainer enter `batch`: an injected stall,
    /// then a planned crash — fatal, since neither has a replacement —
    /// then the heartbeat.
    fn enter(&self, clock: &mut Clock, worker: WorkerKind, batch: u64) -> Result<(), DspError> {
        self.stall(clock, worker, batch);
        if self.crashes(worker, batch) {
            ds_trace::instant(clock.now(), "crash", batch);
            self.declare_dead(worker, batch);
            return Err(DspError::WorkerCrashed {
                rank: self.rank,
                worker,
                batch,
            });
        }
        self.sup.heartbeat(self.rank, worker, batch, clock.now());
        Ok(())
    }

    /// Whether the fault plan crashes a *peer*'s sampler at `batch` and
    /// brings it back later in this epoch. Pure and shared, so every
    /// rank observes the window at the same batch boundary and leaves
    /// the collective group together. The
    /// event-driven path (discovering the corpse inside a rendezvous)
    /// is not enough for a recoverable crash: a survivor running behind
    /// in real time can miss the whole crash..rejoin window and then
    /// park in collective rounds the returning peer has already moved
    /// past, desynchronizing the round pairing for the rest of the
    /// epoch. Permanent crashes stay event-driven — no round after the
    /// death ever completes, so every survivor is flushed out of its
    /// in-flight round regardless of timing.
    fn peer_sampler_crash_window(&self, batch: u64) -> bool {
        let Some(h) = self.cluster.fault_hook() else {
            return false;
        };
        (0..self.sampler_comm.num_ranks()).any(|peer| {
            peer != self.rank
                && h.worker_crashes(peer, WorkerKind::Sampler, batch)
                && ((batch + 1)..self.total)
                    .any(|r| h.worker_recovers(peer, WorkerKind::Sampler, r))
        })
    }

    /// Whether the plan restores `peer`'s sampler at or before `batch`
    /// — i.e. a `PeerFailed` seen now is the transient of a
    /// crash..rejoin window this rank has already stepped past, not a
    /// permanent death.
    fn peer_recovery_due(&self, peer: usize, batch: u64) -> bool {
        self.cluster
            .fault_hook()
            .is_some_and(|h| (0..=batch).any(|r| h.worker_recovers(peer, WorkerKind::Sampler, r)))
    }

    /// Declares `worker` on this rank dead. Only a sampler has a
    /// replacement (degraded local sampling); a dead loader or trainer
    /// dooms the epoch.
    fn declare_dead(&self, worker: WorkerKind, batch: u64) {
        self.sup.record_crash(self.rank, worker, batch);
        if worker != WorkerKind::Sampler {
            self.shared.doom();
        }
        self.vacate(worker);
    }

    /// Takes `worker` on this rank out of its collective group: peers
    /// blocked on it wake with `PeerFailed`, and its queued CCC launch
    /// entries are skipped so the rest of this rank's pipeline is not
    /// wedged behind entries nobody will launch.
    fn vacate(&self, worker: WorkerKind) {
        let comm = self.comm_for(worker);
        comm.mark_failed(self.rank);
        if let Some(ccc) = &self.ccc {
            ccc.skip_worker(self.rank, comm.id());
        }
        // The partial-aggregate exchange rides the loader stage: a
        // loader that is gone also leaves the exchange group, so peers
        // parked in an exchange rendezvous wake with `PeerFailed`
        // instead of timing out, and this rank's queued exchange
        // launches are skipped.
        if worker == WorkerKind::Loader {
            if let Some(ex) = &self.exchange_comm {
                ex.mark_failed(self.rank);
                if let Some(ccc) = &self.ccc {
                    ccc.skip_worker(self.rank, ex.id());
                }
            }
        }
    }

    /// A seat for `worker`, given up on drop unless the worker ran its
    /// whole schedule.
    fn seat(&self, worker: WorkerKind) -> Seat<'_> {
        Seat {
            ctx: self,
            worker,
            done: false,
        }
    }

    /// `worker` stops before the end of its schedule — it failed, or
    /// the stage it feeds or drains did. Nothing crashed here, so
    /// nothing is recorded; but its peers must not sit out comm
    /// deadlines waiting for it. The doom flag goes up first: whoever
    /// wakes on the vacated seat already reads it.
    fn leave(&self, worker: WorkerKind) {
        self.shared.doom();
        self.vacate(worker);
    }

    /// Whether the epoch is past saving (see [`EpochShared::doomed`]).
    fn doomed(&self) -> bool {
        self.shared.doomed()
    }

    /// Switches this rank's sampler to degraded local (pull-path)
    /// sampling. Its collective launches stop, so pending CCC entries
    /// for the sampler group are skipped on this rank.
    fn degrade_sampler(&self, sampler: &mut CspSampler) {
        if !sampler.is_degraded() {
            sampler.set_degraded(true);
            self.sup.mark_degraded(self.rank);
            if let Some(ccc) = &self.ccc {
                ccc.skip_worker(self.rank, self.sampler_comm.id());
            }
        }
    }

    /// The one retry rule of every supervised stage call: a timeout may
    /// be transient and is retried (see [`Self::retry_or_give_up`]);
    /// any other failure — or any failure once the epoch is doomed —
    /// returns at once. Loader, exchange and trainer peers have no
    /// degradation path: their state lives on the peers. (A *lost cache
    /// shard* is handled below this level: the loader's lookups miss
    /// and fall back to UVA cold fetches.) `worker` is the stage a
    /// failure is attributed to.
    fn retry_timeouts<T>(
        &self,
        clock: &mut Clock,
        worker: WorkerKind,
        batch: u64,
        mut attempt: impl FnMut(&mut Clock) -> Result<T, CommError>,
    ) -> Result<T, DspError> {
        let mut attempts = 0u32;
        loop {
            match attempt(clock) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_timeout() && !self.doomed() => {
                    self.retry_or_give_up(clock, worker, batch, &mut attempts, e)?
                }
                Err(e) => return Err(DspError::Comm(e)),
            }
        }
    }

    /// Counts one more failed attempt at `batch`. Past the policy's
    /// budget that is [`DspError::RetriesExhausted`]; otherwise the
    /// retry is recorded and its exponential backoff charged, with
    /// deterministic per-(rank, batch, attempt) jitter so peers that
    /// fail together do not retry in lockstep.
    fn retry_or_give_up(
        &self,
        clock: &mut Clock,
        worker: WorkerKind,
        batch: u64,
        attempts: &mut u32,
        last: CommError,
    ) -> Result<(), DspError> {
        *attempts += 1;
        if *attempts > self.sup.policy.max_retries {
            return Err(DspError::RetriesExhausted {
                rank: self.rank,
                worker,
                batch,
                attempts: *attempts,
                last,
            });
        }
        self.sup.record_retry(self.rank, batch);
        ds_trace::instant(clock.now(), "retry", batch);
        let backoff = self
            .sup
            .policy
            .jittered_backoff(self.seed, self.rank, batch, *attempts);
        clock.wait_until(clock.now() + backoff);
        Ok(())
    }

    /// Restores the `due` samplers to the collective group. Runs on
    /// one thread while every other sampler is parked at the same
    /// boundary, so it lands between rounds by construction.
    fn heal_sampler_group(&self, due: &[usize]) {
        if let Some(ccc) = &self.ccc {
            // Readmit every rank that will launch sampler kernels
            // again, and do it before the group heals: a peer released
            // by the rejoin below launches at once, and a rank whose
            // sampler were still on the skip list would auto-drain the
            // round entry the leader pushes, then wait a comm deadline
            // for a turn already spent.
            let failed = self.sampler_comm.failed_ranks();
            for r in 0..self.sampler_comm.num_ranks() {
                if due.contains(&r) || !failed.contains(&r) {
                    ccc.readmit_worker(r, self.sampler_comm.id());
                }
            }
        }
        for &peer in due {
            // Fenced rejoin: observe the membership generation, retry
            // on staleness (a rank leaving meanwhile bumps it).
            let mut observed = self.sampler_comm.membership_generation();
            while let Err(e) = self.sampler_comm.try_rejoin(peer, observed) {
                debug_assert!(e.is_stale_generation(), "unexpected rejoin error: {e}");
                observed = self.sampler_comm.membership_generation();
            }
        }
    }

    /// Performs the sampler rejoins the fault plan schedules at
    /// `batch` and returns this rank's own pipeline to the collective
    /// path. Returns true when one fired (the caller re-arms its crash
    /// edge detector for flapping-peer plans).
    ///
    /// Every rank evaluates the same pure predicate at the same batch,
    /// but not at the same wall time: samplers run ahead of their
    /// loaders by the queue depth and a degraded batch costs
    /// microseconds, so the first rank here may find a peer that has
    /// not yet left the last round before the crash, let alone skipped
    /// its CCC entries for the window. Readmitting then inverts that
    /// peer's skip and its readmission and strands its launch cursor.
    /// So the *last* sampler to reach the boundary heals the group and
    /// the others park until it has ([`EpochShared::rejoin_boundary`]
    /// — on the arrival count, not on the group's health: the first
    /// rank here may be ahead of the crash itself): past this call
    /// every rank has left its last round and issued its skip, and no
    /// sampler collective is in flight. The wait is wall-clock only
    /// (no virtual time), ends early when the epoch is doomed, and is
    /// bounded by the comm deadline — a rank that gives up goes on
    /// unhealed and meets the failure, typed, in its next round.
    fn sampler_recoveries(&self, sampler: &mut CspSampler, clock: &Clock, batch: u64) -> bool {
        let Some(h) = self.cluster.fault_hook() else {
            return false;
        };
        let n = self.sampler_comm.num_ranks();
        let due: Vec<usize> = (0..n)
            .filter(|&peer| h.worker_recovers(peer, WorkerKind::Sampler, batch))
            .collect();
        if due.is_empty() {
            return false;
        }
        self.shared
            .rejoin_boundary(batch, n, self.sampler_comm.config().deadline, || {
                self.heal_sampler_group(&due)
            });
        sampler.set_degraded(false);
        for &peer in &due {
            ds_trace::instant(clock.now(), "rejoin", batch);
            self.sup.record_recovery(peer, WorkerKind::Sampler, batch);
        }
        true
    }

    /// Folds the loader's batch-keyed shard-rebuild status into the
    /// supervisor's `Recovering → Healthy` state machine, emitting the
    /// `recovery.time_to_healthy_s` counter on the transition.
    fn track_rebuild(&self, loader: &DspLoader, clock: &Clock, batch: u64) {
        match loader.rebuild_status(batch) {
            Some(RebuildStatus::Recovering { .. }) => {
                self.sup.mark_recovering(self.rank, batch, clock.now());
            }
            Some(RebuildStatus::Healthy { since }) => {
                if let Some(dt) = self.sup.mark_healthy(self.rank, since, clock.now()) {
                    ds_trace::counter(clock.now(), "recovery", "time_to_healthy_s", dt);
                }
            }
            Some(RebuildStatus::Lost) | None => {}
        }
    }

    /// Writes a checkpoint when rank 0's trainer just finished a global
    /// batch on the snapshot cadence. BSP makes every replica equal at
    /// this boundary, so rank 0's parameters and optimizer moments
    /// stand for all; the per-rank cursors are all `done` because the
    /// ranks walk their schedules in lockstep.
    fn maybe_checkpoint(
        &self,
        trainer: &Trainer,
        clock: &Clock,
        batch: u64,
    ) -> Result<(), DspError> {
        let Some(ck) = &self.ckpt else {
            return Ok(());
        };
        let done = self.base + batch + 1;
        if self.rank != 0 || done % ck.every != 0 {
            return Ok(());
        }
        let (params, adam_t, adam_m, adam_v) = trainer.checkpoint_state();
        let snapshot = ds_store::Checkpoint {
            seed: ck.seed,
            epoch: self.epoch,
            batch_in_epoch: ck.start + batch + 1,
            cursors: vec![done; ck.num_ranks],
            rng: ds_rng::Rng::seed_from_u64(ck.seed).state(),
            params,
            adam_t,
            adam_m,
            adam_v,
        };
        match snapshot.save(&ck.dir) {
            Ok(_) => {
                ds_trace::instant(clock.now(), "ckpt", done);
                ds_trace::counter(clock.now(), "recovery", "ckpt_writes", 1.0);
                Ok(())
            }
            Err(e) => Err(DspError::Checkpoint {
                rank: self.rank,
                batch: done,
                detail: e.to_string(),
            }),
        }
    }
}

/// One supervised sampling attempt cycle: degrade on dead peers, retry
/// with backoff on transient failures, give up after the policy budget.
fn supervised_sample(
    sampler: &mut CspSampler,
    clock: &mut Clock,
    seeds: &[NodeId],
    batch: u64,
    ctx: &RankCtx,
) -> Result<GraphSample, DspError> {
    let mut attempts = 0u32;
    let mut heals = 0u32;
    loop {
        match sampler.try_sample_batch(clock, seeds) {
            Ok(sample) => return Ok(sample),
            // A doomed epoch has nothing left to retry or degrade for.
            Err(e) if ctx.doomed() => return Err(DspError::Comm(e)),
            Err(e) => {
                // A peer the plan restores by this batch is mid-rejoin,
                // not dead: this rank already stepped past the degraded
                // window, so hold at the round boundary until the group
                // heals and retry the round. Degrading here would
                // strand the rejoiner alone in rounds this rank never
                // attends again. The wait is wall-clock only and leaves
                // the virtual clock untouched, keeping the healed retry
                // bit-identical to a run without the timing race.
                if let CommError::PeerFailed { rank: dead, .. } = &e {
                    if heals < ctx.sup.policy.max_retries && ctx.peer_recovery_due(*dead, batch) {
                        heals += 1;
                        ctx.sampler_comm.await_healthy();
                        continue;
                    }
                }
                // A dead peer never comes back: fall back to degraded
                // local sampling, which needs no collectives and — by
                // placement-independent RNG — reproduces the identical
                // samples. Timeouts may be transient; retry as-is.
                if !e.is_timeout() {
                    ctx.degrade_sampler(sampler);
                }
                ctx.retry_or_give_up(clock, WorkerKind::Sampler, batch, &mut attempts, e)?;
            }
        }
    }
}

// ---------------------------------------------------------------------
// The three stages of one batch, each written once: both executors below
// (overlapped threads, or one inline loop) call exactly these.
// ---------------------------------------------------------------------

/// Sample stage of batch `b`: scheduled rejoins land before this
/// batch's own collective (the group is restored between rounds, and
/// `crashed` — the crash edge detector — re-arms so a flapping peer can
/// die again later); then the injected stall, this rank's planned crash,
/// a peer's planned crash window, the heartbeat and the supervised
/// sample.
fn sample_stage(
    sampler: &mut CspSampler,
    clock: &mut Clock,
    seeds: &[NodeId],
    b: u64,
    crashed: &mut bool,
    ctx: &RankCtx,
) -> Result<GraphSample, DspError> {
    if ctx.sampler_recoveries(sampler, clock, b) {
        *crashed = false;
    }
    ctx.stall(clock, WorkerKind::Sampler, b);
    if !*crashed && ctx.crashes(WorkerKind::Sampler, b) {
        // The sampler dies; the supervisor stands up a degraded
        // replacement on this rank and tells the peers, who degrade too
        // and retry their in-flight batch (bit-identical by RNG keying).
        *crashed = true;
        ds_trace::instant(clock.now(), "crash", b);
        ctx.declare_dead(WorkerKind::Sampler, b);
        ctx.degrade_sampler(sampler);
    }
    if ctx.peer_sampler_crash_window(b) {
        // A peer dies here but is scheduled back: leave the collective
        // group at the same batch it does, so both sides skip the same
        // rounds and the pairing survives the rejoin.
        ctx.degrade_sampler(sampler);
    }
    ctx.sup
        .heartbeat(ctx.rank, WorkerKind::Sampler, b, clock.now());
    ds_trace::span_begin_arg(clock.now(), "sample", b);
    let sample = supervised_sample(sampler, clock, seeds, b, ctx)?;
    ds_trace::span_end(clock.now());
    Ok(sample)
}

/// Load stage of batch `b`. The prefetch window (if a prefetcher
/// runs) is popped after the heartbeat and the rebuild status: the pop
/// advances the loader's clock. A dead prefetcher or a misaligned
/// window is never fatal — `None` sends every cold row over the demand
/// UVA path, as without prefetching.
fn load_stage(
    loader: &mut DspLoader,
    exchange: Option<&SplitExchange>,
    clock: &mut Clock,
    sample: GraphSample,
    prefetched: Option<&mut QueueConsumer<PrefetchedWindow>>,
    b: u64,
    ctx: &RankCtx,
) -> Result<Loaded, DspError> {
    ctx.enter(clock, WorkerKind::Loader, b)?;
    ctx.track_rebuild(loader, clock, b);
    let window = prefetched
        .and_then(|rx| rx.pop(clock))
        .filter(|w| w.batch() == ctx.base + b);
    let loaded = match exchange {
        // Split mode: load only this rank's dst rows, then run the
        // partial-aggregate exchange for the innermost convolution.
        // Load first on every rank so the loader and exchange groups
        // interleave their launches in the same order everywhere (CCC's
        // launch-order invariant). The exchange mutates no trainer
        // state, so a replayed round recomputes the same partial sums;
        // its failures are the loader's, the stage a wedged exchange
        // stalls.
        Some(ex) => {
            let block = sample.layers.last().expect("sample has layers");
            ds_trace::span_begin_arg(clock.now(), "load", b);
            let feats = ctx.retry_timeouts(clock, WorkerKind::Loader, b, |c| {
                loader.try_load_windowed(c, &block.dst, None, b)
            })?;
            ds_trace::span_end(clock.now());
            ds_trace::span_begin_arg(clock.now(), "exchange", b);
            let agg = ctx.retry_timeouts(clock, WorkerKind::Loader, b, |c| {
                ex.try_exchange(c, block, &feats)
            })?;
            ds_trace::span_end(clock.now());
            (sample, feats, Some(agg))
        }
        None => {
            ds_trace::span_begin_arg(clock.now(), "load", b);
            let feats = ctx.retry_timeouts(clock, WorkerKind::Loader, b, |c| {
                loader.try_load_windowed(c, sample.input_nodes(), window.as_ref(), b)
            })?;
            ds_trace::span_end(clock.now());
            (sample, feats, None)
        }
    };
    if loader.take_window_dropped() {
        ctx.sup.record_dropped_window(ctx.rank, ctx.base + b);
    }
    Ok(loaded)
}

/// Train stage of batch `b`. The gradient allreduce fails *before* the
/// optimizer step, so a retried batch never double-applies gradients.
/// Once the step is done BSP has left every replica equal — the only
/// safe snapshot boundary — and the feature matrix goes back to the
/// loader's free list.
fn train_stage(
    trainer: &mut Trainer,
    buffers: &FeatureBuffers,
    clock: &mut Clock,
    (sample, feats, agg): Loaded,
    b: u64,
    metrics: &mut MetricAccumulator,
    ctx: &RankCtx,
) -> Result<(), DspError> {
    ctx.enter(clock, WorkerKind::Trainer, b)?;
    let labels = || -> Vec<u32> { sample.seeds.iter().map(|&v| ctx.labels.get(v)).collect() };
    ds_trace::span_begin_arg(clock.now(), "train", b);
    let r = ctx.retry_timeouts(clock, WorkerKind::Trainer, b, |c| match (ctx.exec, &agg) {
        (true, Some(agg)) => trainer.try_train_batch_split(c, &sample, &feats, agg, &labels()),
        (true, None) => trainer.try_train_batch(c, &sample, &feats, &labels()),
        (false, Some(_)) => trainer.try_train_batch_timing_only_split(c, &sample),
        (false, None) => trainer.try_train_batch_timing_only(c, &sample),
    })?;
    ds_trace::span_end(clock.now());
    ctx.maybe_checkpoint(trainer, clock, b)?;
    buffers.give_back(feats);
    metrics.add(r.loss, r.accuracy, r.seeds);
    Ok(())
}

/// Ranks errors by how much they explain: a crash is the root cause, an
/// exhausted retry budget is a consequence, a bare comm error is
/// usually collateral from a peer's failure.
fn pick_error(errs: Vec<DspError>) -> Option<DspError> {
    errs.into_iter().min_by_key(|e| match e {
        DspError::WorkerCrashed { .. } => 0u8,
        DspError::Checkpoint { .. } => 1,
        DspError::RetriesExhausted { .. } => 2,
        DspError::Comm(_) => 3,
    })
}

/// One overlapped worker: its own thread, trace lane, clock and seat,
/// calling `step` for batch 0, 1, … until it reports that its stream
/// ended (schedule done, upstream queue drained, or downstream gone).
/// The seat is kept only when the worker ran all `ctx.total` batches.
fn spawn_worker<'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    ctx: &'scope RankCtx,
    worker: WorkerKind,
    mut step: impl FnMut(&mut Clock, u64) -> Result<bool, DspError> + Send + 'scope,
) -> ScopedJoinHandle<'scope, Result<Clock, DspError>> {
    let (tid, name) = match worker {
        WorkerKind::Sampler => (ds_trace::TID_SAMPLER, "sampler"),
        WorkerKind::Loader => (ds_trace::TID_LOADER, "loader"),
        WorkerKind::Trainer => (ds_trace::TID_TRAINER, "trainer"),
    };
    ds_exec::spawn_scoped_named(s, format!("dev-{}-{name}", ctx.rank), move || {
        let _trace = ds_trace::worker(ctx.rank as u32, tid);
        let mut clock = Clock::new();
        let mut seat = ctx.seat(worker);
        ds_trace::span_begin(clock.now(), name);
        let mut b = 0;
        while step(&mut clock, b)? {
            b += 1;
        }
        if b == ctx.total {
            seat.done();
        }
        ds_trace::span_end(clock.now());
        Ok(clock)
    })
}

/// DSP: the three stages overlapped, one thread each (plus the
/// epoch-ahead prefetcher), connected by bounded virtual-time queues.
fn run_rank_pipelined(
    state: &mut RankState,
    batches: &[Vec<NodeId>],
    cap: usize,
    pf_window: usize,
    ctx: &RankCtx,
) -> Result<RankEpoch, DspError> {
    let RankState {
        sampler,
        loader,
        trainer,
        prefetcher,
        exchange,
    } = state;
    let exchange = exchange.as_ref();
    let buffers = loader.feature_buffers();
    let (mut sample_tx, mut sample_rx) = virtual_queue_labeled::<GraphSample>(cap, "q.sample");
    let (mut feat_tx, mut feat_rx) = virtual_queue_labeled::<Loaded>(cap, "q.feat");
    let (pf_tx, mut pf_rx) = match prefetcher.as_ref() {
        Some(pf) if pf_window > 0 => {
            let (tx, rx) = virtual_queue_labeled::<PrefetchedWindow>(pf_window, "q.prefetch");
            (Some((pf, tx)), Some(rx))
        }
        _ => (None, None),
    };
    // The trainer folds through a reference: a `move` of the `Copy`
    // accumulator itself would fold into a copy.
    let mut metrics = MetricAccumulator::default();
    let trained = &mut metrics;
    let (clocks, pf_clock) = std::thread::scope(|s| {
        let prefetch_thread = pf_tx.map(|(pf, mut pf_tx)| {
            let name = format!("dev-{}-prefetch", ctx.rank);
            ds_exec::spawn_scoped_named(s, name, move || -> Clock {
                let _trace = ds_trace::worker(ctx.rank as u32, ds_trace::TID_PREFETCH);
                let mut clock = Clock::new();
                ds_trace::span_begin(clock.now(), "prefetcher");
                // The same seed schedule the sampler consumes, a
                // bounded `pf_window` batches ahead.
                for (b, seeds) in (ctx.base..).zip(batches) {
                    ds_trace::span_begin_arg(clock.now(), "prefetch", b);
                    let w = pf.fetch_window(&mut clock, b, seeds);
                    ds_trace::span_end(clock.now());
                    if pf_tx.push(&mut clock, w).is_err() {
                        // The loader died; its own error is the story.
                        break;
                    }
                }
                ds_trace::span_end(clock.now());
                clock
            })
        });
        let mut crashed = false;
        let sampler_thread = spawn_worker(s, ctx, WorkerKind::Sampler, move |clock, b| {
            let Some(seeds) = batches.get(b as usize) else {
                return Ok(false);
            };
            let sample = sample_stage(sampler, clock, seeds, b, &mut crashed, ctx)?;
            // A failed push means downstream died; its own error is the story.
            Ok(sample_tx.push(clock, sample).is_ok())
        });
        let loader_thread = spawn_worker(s, ctx, WorkerKind::Loader, move |clock, b| {
            let Some(sample) = sample_rx.pop(clock) else {
                return Ok(false);
            };
            let loaded = load_stage(loader, exchange, clock, sample, pf_rx.as_mut(), b, ctx)?;
            Ok(feat_tx.push(clock, loaded).is_ok())
        });
        let trainer_thread = spawn_worker(s, ctx, WorkerKind::Trainer, move |clock, b| {
            let Some(loaded) = feat_rx.pop(clock) else {
                return Ok(false);
            };
            train_stage(trainer, &buffers, clock, loaded, b, trained, ctx)?;
            Ok(true)
        });
        let results = [sampler_thread, loader_thread, trainer_thread]
            .map(|t| t.join().expect("rank worker panicked"));
        let pf_clock = prefetch_thread.map(|t| t.join().expect("prefetch worker panicked"));
        let mut errs = Vec::new();
        let clocks: Vec<Clock> = results
            .into_iter()
            .filter_map(|r| r.map_err(|e| errs.push(e)).ok())
            .collect();
        match pick_error(errs) {
            Some(e) => Err(e),
            None => Ok((clocks, pf_clock)),
        }
    })?;
    // Overlapped workers still share the device's serial resources (SMs
    // for GEMM, HBM, the PCIe and NVLink links): the pipeline cannot
    // compress below the busiest single resource. Only the
    // overhead-bound "light" kernels overlap freely (Fig. 2's
    // observation is exactly that those can't fill the device). The
    // prefetcher's UVA pulls ride the same PCIe link, so its clock joins
    // the floor: prefetching moves bytes off the critical path, it does
    // not create bandwidth.
    let all: Vec<&Clock> = clocks.iter().chain(&pf_clock).collect();
    let floor = Clock::resource_floor(&all);
    Ok(RankEpoch {
        sample_busy: clocks[0].busy(),
        load_busy: clocks[1].busy(),
        train_busy: clocks[2].busy(),
        useful: all.iter().map(|c| c.device_useful()).sum(),
        makespan: all.iter().map(|c| c.now()).fold(floor, f64::max),
        metrics,
    })
}

/// DSP-Seq: the same three stages back to back on one thread — and
/// nothing to overlap prefetching with.
fn run_rank_seq(
    state: &mut RankState,
    batches: &[Vec<NodeId>],
    ctx: &RankCtx,
) -> Result<RankEpoch, DspError> {
    let RankState {
        sampler,
        loader,
        trainer,
        exchange,
        ..
    } = state;
    let exchange = exchange.as_ref();
    let buffers = loader.feature_buffers();
    let _trace = ds_trace::worker(ctx.rank as u32, ds_trace::TID_MAIN);
    let mut clock = Clock::new();
    // One thread plays all three workers, so an early return gives up
    // all three seats.
    let mut seats =
        [WorkerKind::Sampler, WorkerKind::Loader, WorkerKind::Trainer].map(|w| ctx.seat(w));
    ds_trace::span_begin(clock.now(), "rank");
    let mut metrics = MetricAccumulator::default();
    let (mut sb, mut lb, mut tb) = (0.0, 0.0, 0.0);
    let mut crashed = false;
    for (b, seeds) in (0..).zip(batches) {
        // Stalls and waits are not busy time, so each delta is exactly
        // its stage's work.
        let b0 = clock.busy();
        let sample = sample_stage(sampler, &mut clock, seeds, b, &mut crashed, ctx)?;
        let b1 = clock.busy();
        let loaded = load_stage(loader, exchange, &mut clock, sample, None, b, ctx)?;
        let b2 = clock.busy();
        train_stage(trainer, &buffers, &mut clock, loaded, b, &mut metrics, ctx)?;
        let b3 = clock.busy();
        sb += b1 - b0;
        lb += b2 - b1;
        tb += b3 - b2;
    }
    seats.iter_mut().for_each(Seat::done);
    ds_trace::span_end(clock.now());
    Ok(RankEpoch {
        sample_busy: sb,
        load_busy: lb,
        train_busy: tb,
        useful: clock.device_useful(),
        makespan: clock.now(),
        metrics,
    })
}

/// The assembled DSP system (or DSP-Seq when `pipelined` is false).
pub struct DspSystem {
    layout: DspLayout,
    cfg: TrainConfig,
    csp_cfg: CspConfig,
    pipelined: bool,
    ranks: Vec<RankState>,
    sampler_comm: Arc<Communicator>,
    loader_comm: Arc<Communicator>,
    trainer_comm: Arc<Communicator>,
    /// Split mode's exchange group (`None` under data-parallel).
    exchange_comm: Option<Arc<Communicator>>,
    ccc: Option<Arc<Coordinator>>,
    supervisor: Arc<Supervisor>,
}

impl DspSystem {
    /// Builds DSP over `gpus` devices.
    pub fn new(dataset: &Dataset, gpus: usize, cfg: &TrainConfig, pipelined: bool) -> Self {
        let layout = build_dsp_layout(dataset, gpus, cfg);
        let cluster = Arc::clone(&layout.cluster);
        let comm_cfg = CommConfig {
            deadline: Duration::from_secs_f64(cfg.comm_deadline_secs),
        };
        // With the pipeline on, three workers per device launch
        // communication kernels concurrently: give them finite kernel
        // slots and (by default) CCC coordination — without CCC this
        // configuration can deadlock (see tests/deadlock.rs).
        let ccc = (pipelined && cfg.use_ccc).then(|| Arc::new(Coordinator::new(gpus)));
        let split = cfg.train_mode == TrainMode::Split;
        // Split mode adds a fourth worker group for the partial-
        // aggregate exchange; it shares the device's kernel slots and
        // CCC coordination with the other three.
        let slots = pipelined.then(|| Arc::new(DeviceSlots::new(gpus, cfg.slots_per_device)));
        let mk = |id: u32| {
            let comm = match &slots {
                Some(slots) => Communicator::with_slots(
                    id,
                    Arc::clone(&cluster),
                    Arc::clone(slots),
                    ccc.clone(),
                ),
                None => Communicator::new(id, Arc::clone(&cluster)),
            };
            Arc::new(comm.with_config(comm_cfg))
        };
        let sampler_comm = mk(SAMPLER_WORKER);
        let loader_comm = mk(LOADER_WORKER);
        let trainer_comm = mk(TRAINER_WORKER);
        let exchange_comm = split.then(|| mk(EXCHANGE_WORKER));
        let csp_cfg = CspConfig {
            fanout: cfg.fanout.clone(),
            scheme: cfg.scheme,
            biased: cfg.biased,
            fused: true,
            temporal_cutoff: None,
            seed: cfg.seed,
        };
        let ranks = (0..gpus)
            .map(|rank| RankState {
                sampler: CspSampler::new(
                    Arc::clone(&layout.dist_graph),
                    Arc::clone(&cluster),
                    Arc::clone(&sampler_comm),
                    rank,
                    csp_cfg.clone(),
                ),
                loader: {
                    let loader = DspLoader::new(
                        Arc::clone(&layout.cache),
                        Arc::clone(&layout.features),
                        Arc::clone(&cluster),
                        Arc::clone(&loader_comm),
                        rank,
                    );
                    match cfg.dynamic_policy {
                        DynamicPolicyKind::StaticDegree => loader,
                        kind => loader.with_dynamic_policy(kind.build()),
                    }
                },
                // Split mode loads only owned dst rows on demand — the
                // epoch-ahead window stages input-node features the
                // exchange never requests, so prefetching is off.
                prefetcher: (pipelined && cfg.prefetch_window > 0 && !split).then(|| {
                    Prefetcher::new(
                        Arc::clone(&layout.dist_graph),
                        csp_cfg.clone(),
                        Arc::clone(&layout.cache),
                        Arc::clone(&cluster),
                        rank,
                    )
                }),
                exchange: exchange_comm.as_ref().map(|ex| {
                    SplitExchange::new(
                        Arc::clone(ex),
                        Arc::clone(&layout.cache),
                        Arc::clone(&layout.features),
                        Arc::clone(&cluster),
                        Arc::clone(&layout.dist_graph),
                        rank,
                        cfg.model == GnnKind::Gcn,
                    )
                }),
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
            })
            .collect();
        let supervisor = Arc::new(Supervisor::new(RetryPolicy::default()));
        DspSystem {
            layout,
            cfg: cfg.clone(),
            csp_cfg,
            pipelined,
            ranks,
            sampler_comm,
            loader_comm,
            trainer_comm,
            exchange_comm,
            ccc,
            supervisor,
        }
    }

    /// Builds DSP and restores training state from `ckpt`: the system
    /// picks up the trajectory exactly where the snapshot was taken.
    /// Resume the interrupted epoch with
    /// [`Self::try_run_epoch_from`]`(ckpt.epoch, ckpt.batch_in_epoch)`,
    /// then run later epochs normally — the result is bit-identical to
    /// a run that never stopped.
    pub fn resume(
        dataset: &Dataset,
        gpus: usize,
        cfg: &TrainConfig,
        pipelined: bool,
        ckpt: &ds_store::Checkpoint,
    ) -> Self {
        let mut sys = Self::new(dataset, gpus, cfg, pipelined);
        sys.restore(ckpt);
        sys
    }

    /// Overwrites model parameters, optimizer state and per-rank batch
    /// cursors with the snapshot's. Under BSP every replica is equal,
    /// so the single recorded parameter set restores all ranks.
    pub fn restore(&mut self, ckpt: &ds_store::Checkpoint) {
        assert_eq!(
            ckpt.seed, self.cfg.seed,
            "checkpoint was taken under seed {:#x}, config has {:#x}",
            ckpt.seed, self.cfg.seed
        );
        assert_eq!(
            ckpt.cursors.len(),
            self.ranks.len(),
            "checkpoint has {} rank cursors, system has {} ranks",
            ckpt.cursors.len(),
            self.ranks.len()
        );
        // Sampling draws are keyed on (seed, batch, layer, node), so the
        // recorded base-stream state must match what this seed derives —
        // anything else means the snapshot is from a different universe.
        debug_assert_eq!(
            ckpt.rng,
            ds_rng::Rng::seed_from_u64(ckpt.seed).state(),
            "checkpoint RNG state does not derive from its own seed"
        );
        for (rank, r) in self.ranks.iter_mut().enumerate() {
            r.trainer.restore_checkpoint_state(
                &ckpt.params,
                ckpt.adam_t,
                &ckpt.adam_m,
                &ckpt.adam_v,
            );
            r.sampler.set_batch_index(ckpt.cursors[rank]);
        }
    }

    /// The data layout (for inspection: cache hit rates, memory use).
    pub fn layout(&self) -> &DspLayout {
        &self.layout
    }

    /// Parameter checksum of rank 0's replica (BSP-equality tests).
    pub fn param_checksum(&self) -> f64 {
        self.ranks[0].trainer.param_checksum()
    }

    /// All replicas' checksums (must be identical under BSP).
    pub fn all_checksums(&self) -> Vec<f64> {
        self.ranks
            .iter()
            .map(|r| r.trainer.param_checksum())
            .collect()
    }

    /// Aggregate loader statistics across ranks: (cache hits, cold
    /// fetches) since construction. Used by the multi-machine projection
    /// (cold fetches are what crosses machines, §3.2).
    pub fn loader_totals(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        self.ranks.iter().fold((0, 0), |(h, c), r| {
            let s = r.loader.stats();
            (
                h + s.cache_hits.load(Ordering::Relaxed),
                c + s.cold_fetches.load(Ordering::Relaxed),
            )
        })
    }

    /// Per-rank FNV-1a hashes of every gradient stream the trainer
    /// allreduced since construction. Identical across ranks by BSP and
    /// across `DS_PAR_THREADS` by kernel determinism — the split-vs-dp
    /// equivalence tests' witness.
    pub fn grad_stream_hashes(&self) -> Vec<u64> {
        self.ranks
            .iter()
            .map(|r| r.trainer.grad_stream_hash())
            .collect()
    }

    /// Gradient bytes synchronized per mini-batch (model size × 4).
    pub fn grad_bytes(&self) -> u64 {
        self.ranks[0].trainer.model().num_params() as u64 * 4
    }

    /// Everything the supervisor observed since construction: retried
    /// batches, crashed workers, degraded ranks (sorted, deterministic).
    pub fn last_fault_report(&self) -> FaultReport {
        self.supervisor.report()
    }

    /// Per-rank decision-stream hashes of the dynamic cache shards
    /// (`None` per rank without a dynamic policy). The cross-run /
    /// cross-thread-count determinism witness.
    pub fn cache_decision_hashes(&self) -> Vec<Option<u64>> {
        self.ranks
            .iter()
            .map(|r| r.loader.dynamic_decision_hash())
            .collect()
    }

    /// Total cold fetches that were covered by a staged prefetch window
    /// instead of a demand UVA read, across ranks.
    pub fn prefetch_hit_total(&self) -> u64 {
        use std::sync::atomic::Ordering;
        self.ranks
            .iter()
            .map(|r| r.loader.stats().prefetch_hits.load(Ordering::Relaxed))
            .sum()
    }

    /// The presampling shadow pass
    /// (`DynamicPolicyKind::PresamplingHotness`): replay the coming
    /// epoch's sampling schedule without touching device state, count
    /// how often every node's features will be requested, and hand the
    /// counts to each rank's dynamic policy. Runs on the
    /// host before the epoch (DGL-style pre-sampling), so it charges no
    /// device time.
    fn presample_hotness(&mut self, batches: &[Vec<Vec<NodeId>>]) {
        let mut scores: HashMap<NodeId, u64> = HashMap::new();
        for (rank, rank_batches) in batches.iter().enumerate() {
            let base = self.ranks[rank].sampler.next_batch_index();
            for (i, seeds) in rank_batches.iter().enumerate() {
                let shadow = shadow_batch(
                    &self.layout.dist_graph,
                    &self.csp_cfg,
                    base + i as u64,
                    seeds,
                );
                for v in shadow.input_nodes {
                    *scores.entry(v).or_insert(0) += 1;
                }
            }
        }
        for r in &mut self.ranks {
            r.loader.set_policy_scores(&scores);
        }
    }

    /// Supervised epoch: `Ok(stats)` even under injected faults the
    /// supervisor can absorb (stalls, retries, sampler degradation,
    /// cache-shard loss); a typed [`DspError`] when a failure has no
    /// degradation path (dead loader/trainer peer, exhausted retries).
    pub fn try_run_epoch(&mut self, epoch: u64) -> Result<EpochStats, DspError> {
        self.try_run_epoch_from(epoch, 0)
    }

    /// [`Self::try_run_epoch`] starting `start` batches into the
    /// epoch's deterministic schedule — the resume entry point. The
    /// schedule is a pure function of `(seed, epoch)`, so the run
    /// recomputes it in full and executes the `[start..]` tail; with
    /// state restored from a [`ds_store::Checkpoint`] taken at that
    /// boundary, the trajectory is bit-identical to an uninterrupted
    /// run.
    pub fn try_run_epoch_from(&mut self, epoch: u64, start: u64) -> Result<EpochStats, DspError> {
        ds_trace::begin_epoch(epoch);
        self.layout.cluster.reset_traffic();
        let cap = self.cfg.queue_capacity;
        let pf_window = self.cfg.prefetch_window;
        let pipelined = self.pipelined;
        let before = self.supervisor.report();
        let batches: Vec<Vec<Vec<NodeId>>> = self
            .layout
            .schedules
            .iter()
            .map(|s| {
                let mut b = s.epoch_batches(epoch);
                b.drain(..(start as usize).min(b.len()));
                b
            })
            .collect();
        let num_batches = batches.first().map(|b| b.len()).unwrap_or(0);
        if self.cfg.dynamic_policy == DynamicPolicyKind::PresamplingHotness {
            self.presample_hotness(&batches);
        }
        let ckpt = (self.cfg.ckpt_every > 0).then(|| CkptCfg {
            every: self.cfg.ckpt_every,
            dir: self.cfg.ckpt_dir.clone(),
            seed: self.cfg.seed,
            start,
            num_ranks: self.ranks.len(),
        });
        // Feature buffers are allocated here, by the launching thread
        // between epochs, never by the per-epoch workers below.
        for r in &self.ranks {
            r.loader.feature_buffers().prepare();
        }
        let shared = Arc::new(EpochShared::default());
        let ctxs: Vec<RankCtx> = (0..self.ranks.len())
            .map(|rank| RankCtx {
                rank,
                exec: self.cfg.exec_compute,
                seed: self.cfg.seed,
                epoch,
                base: self.ranks[rank].sampler.next_batch_index(),
                total: batches[rank].len() as u64,
                labels: Arc::clone(&self.layout.labels),
                cluster: Arc::clone(&self.layout.cluster),
                sampler_comm: Arc::clone(&self.sampler_comm),
                loader_comm: Arc::clone(&self.loader_comm),
                trainer_comm: Arc::clone(&self.trainer_comm),
                exchange_comm: self.exchange_comm.clone(),
                ccc: self.ccc.clone(),
                sup: Arc::clone(&self.supervisor),
                shared: Arc::clone(&shared),
                ckpt: ckpt.clone(),
            })
            .collect();
        let results: Vec<Result<RankEpoch, DspError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .ranks
                .iter_mut()
                .zip(&batches)
                .zip(&ctxs)
                .map(|((state, rank_batches), ctx)| {
                    ds_exec::spawn_scoped_named(scope, format!("dev-{}", ctx.rank), move || {
                        if pipelined {
                            run_rank_pipelined(state, rank_batches, cap, pf_window, ctx)
                        } else {
                            run_rank_seq(state, rank_batches, ctx)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });
        let mut oks = Vec::new();
        let mut errs = Vec::new();
        for r in results {
            match r {
                Ok(e) => oks.push(e),
                Err(e) => errs.push(e),
            }
        }
        if let Some(e) = pick_error(errs) {
            return Err(e);
        }
        let after = self.supervisor.report();
        Ok(EpochStats {
            retried_batches: after.retried.len() - before.retried.len(),
            degraded_ranks: after.degraded.len() - before.degraded.len(),
            ..EpochStats::fold(&oks, &self.layout.cluster, num_batches)
        })
    }
}

impl System for DspSystem {
    fn run_epoch(&mut self, epoch: u64) -> EpochStats {
        self.try_run_epoch(epoch)
            .unwrap_or_else(|e| panic!("epoch {epoch} failed: {e}"))
    }

    fn run_sampler_epoch(&mut self, epoch: u64) -> f64 {
        let samplers = self.ranks.iter_mut().map(|r| &mut r.sampler);
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
        match (self.cfg.train_mode, self.pipelined) {
            (TrainMode::Split, true) => "GSplit",
            (TrainMode::Split, false) => "GSplit-Seq",
            (TrainMode::DataParallel, true) => "DSP",
            (TrainMode::DataParallel, false) => "DSP-Seq",
        }
    }

    fn cluster(&self) -> &Arc<Cluster> {
        &self.layout.cluster
    }
}

impl DspSystem {
    /// Accuracy on the held-out validation set (renumbered internally).
    pub fn validation_accuracy(&mut self) -> f64 {
        self.evaluate_validation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const LONG: Duration = Duration::from_secs(30);

    #[test]
    fn rejoin_boundary_heals_once_after_the_last_arrival() {
        let shared = EpochShared::default();
        let (arrived, heals) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for rank in 0..4u64 {
                let (shared, arrived, heals) = (&shared, &arrived, &heals);
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(10 * rank));
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let healed = shared.rejoin_boundary(3, 4, LONG, || {
                        assert_eq!(arrived.load(Ordering::SeqCst), 4, "healed early");
                        std::thread::sleep(Duration::from_millis(20));
                        heals.fetch_add(1, Ordering::SeqCst);
                    });
                    assert!(healed);
                    assert_eq!(heals.load(Ordering::SeqCst), 1, "released mid-heal");
                });
            }
        });
        // Another boundary of the same epoch starts from zero.
        assert!(shared.rejoin_boundary(7, 1, LONG, || ()));
    }

    #[test]
    fn rejoin_boundary_gives_up_when_a_peer_never_arrives() {
        let shared = EpochShared::default();
        let start = Instant::now();
        let healed = shared.rejoin_boundary(3, 2, Duration::from_millis(50), || {
            panic!("one of two arrived: nobody heals")
        });
        assert!(!healed);
        assert!(start.elapsed() >= Duration::from_millis(50));
        // The straggler still heals when it does arrive, and a fresh
        // epoch (a re-run of this one) does not see the stale count.
        let mut ran = false;
        assert!(shared.rejoin_boundary(3, 2, LONG, || ran = true));
        assert!(ran);
        let rerun = EpochShared::default();
        assert!(!rerun.rejoin_boundary(3, 2, Duration::from_millis(1), || unreachable!()));
    }

    /// Rank 0 of a bare 2-GPU cluster under `max_retries = 3`: enough
    /// context for the retry rule, nothing of a real epoch.
    fn retry_ctx() -> RankCtx {
        let cluster = Arc::new(ds_simgpu::ClusterSpec::v100(2).build());
        let comm = |id| Arc::new(Communicator::new(id, Arc::clone(&cluster)));
        RankCtx {
            rank: 0,
            exec: false,
            seed: 7,
            epoch: 0,
            base: 0,
            total: 4,
            labels: Arc::new(Labels::from_raw(1, Vec::new())),
            sampler_comm: comm(SAMPLER_WORKER),
            loader_comm: comm(LOADER_WORKER),
            trainer_comm: comm(TRAINER_WORKER),
            exchange_comm: None,
            ccc: None,
            sup: Arc::new(Supervisor::new(RetryPolicy {
                max_retries: 3,
                base_backoff: 1e-3,
            })),
            shared: Arc::default(),
            ckpt: None,
            cluster,
        }
    }

    fn timeout() -> CommError {
        CommError::Timeout(ds_comm::Diagnostics::default())
    }

    /// Calls `retry_timeouts` at batch 5 with an attempt that fails
    /// with `fail(i)` on call `i` (from 0) until it returns `None`.
    /// Returns the outcome, the number of calls and the clock.
    fn run_retry(
        ctx: &RankCtx,
        worker: WorkerKind,
        fail: impl Fn(u32) -> Option<CommError>,
    ) -> (Result<u32, DspError>, u32, Clock) {
        let mut clock = Clock::new();
        let mut calls = 0;
        let r = ctx.retry_timeouts(&mut clock, worker, 5, |_| {
            calls += 1;
            fail(calls - 1).map_or(Ok(42), Err)
        });
        (r, calls, clock)
    }

    #[test]
    fn retry_timeouts_retries_up_to_the_budget_with_jittered_backoff() {
        for k in 0..=3 {
            let ctx = retry_ctx();
            let (r, calls, clock) = run_retry(&ctx, WorkerKind::Loader, |i| (i < k).then(timeout));
            assert_eq!(r.expect("within the budget"), 42);
            assert_eq!(calls, k + 1);
            assert_eq!(ctx.sup.report().retried, vec![(0, 5); k as usize]);
            let mut expected = 0.0;
            for attempt in 1..=k {
                expected += ctx.sup.policy.jittered_backoff(7, 0, 5, attempt);
            }
            assert_eq!(clock.now(), expected, "{k} timeouts");
            assert_eq!(clock.busy(), 0.0, "backoff is waiting, not work");
        }
    }

    #[test]
    fn retry_timeouts_gives_up_after_max_retries_plus_one() {
        let ctx = retry_ctx();
        let (r, calls, _) = run_retry(&ctx, WorkerKind::Trainer, |_| Some(timeout()));
        match r {
            Err(DspError::RetriesExhausted {
                rank: 0,
                worker: WorkerKind::Trainer,
                batch: 5,
                attempts: 4,
                last,
            }) => assert!(last.is_timeout()),
            other => panic!("expected RetriesExhausted after 4 attempts, got {other:?}"),
        }
        assert_eq!(calls, 4);
        assert_eq!(ctx.sup.report().retried.len(), 3);
    }

    #[test]
    fn retry_timeouts_returns_at_once_on_peer_failure_or_a_doomed_epoch() {
        let peer_failed = || CommError::PeerFailed {
            rank: 1,
            diag: ds_comm::Diagnostics::default(),
        };
        let doomed = || {
            let ctx = retry_ctx();
            ctx.shared.doom();
            ctx
        };
        let cases = [
            (retry_ctx(), peer_failed()),
            (doomed(), timeout()),
            (doomed(), peer_failed()),
        ];
        for (ctx, err) in cases {
            let (r, calls, clock) = run_retry(&ctx, WorkerKind::Loader, |_| Some(err.clone()));
            assert!(
                matches!(r, Err(DspError::Comm(ref e)) if *e == err),
                "{r:?}"
            );
            assert_eq!(calls, 1);
            assert!(ctx.sup.report().is_clean());
            assert_eq!(clock.now(), 0.0);
        }
    }

    #[test]
    fn dooming_the_epoch_releases_a_parked_sampler() {
        let shared = EpochShared::default();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let start = Instant::now();
                let healed = shared.rejoin_boundary(3, 2, LONG, || unreachable!());
                (healed, start.elapsed())
            });
            std::thread::sleep(Duration::from_millis(30));
            shared.doom();
            let (healed, waited) = waiter.join().unwrap();
            assert!(!healed);
            assert!(waited < Duration::from_secs(10), "sat out the deadline");
        });
    }
}
