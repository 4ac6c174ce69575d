//! Schedule-exploration models over the *real* concurrency core.
//!
//! Compiled only with `--features check`, which swaps the `crate::sync`
//! alias (`ds_check::alias`) of ds-pipeline / ds-comm / ds-exec onto
//! the `ds_check::sync` shims — the code under test here is the
//! production channel, kernel-slot and CCC implementation, not a
//! re-model of it.
//!
//! Run with: `cargo test --offline --features check --test check_models`
//! (the `check` CI stage does).

#![cfg(feature = "check")]

use ds_check::{check, explore, Config, FailureKind};
use ds_comm::{Coordinator, DeviceSlots};
use ds_pipeline::chan;
use std::sync::Arc;

/// Fixed root seed for the PCT phase of every model here, so the CI
/// budget is deterministic run to run.
const PCT_SEED: u64 = 0xD5C4_C1;

fn dfs_plus_pct(max_schedules: usize, pct_iters: usize) -> Config {
    Config {
        max_schedules,
        pct_iters,
        seed: PCT_SEED,
        ..Config::default()
    }
}

// ---------------------------------------------------------------------
// ds-pipeline: chan
// ---------------------------------------------------------------------

#[test]
fn chan_bounded_handoff_has_no_deadlock_or_lost_wake() {
    let report = check("chan-bounded-handoff", &dfs_plus_pct(1500, 100), || {
        let (tx, rx) = chan::bounded::<u32>(1);
        let producer = ds_check::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        producer.join();
        assert_eq!(rx.recv(), Err(chan::RecvError));
    });
    assert!(report.schedules > 100, "exploration actually branched");
}

#[test]
fn chan_send_many_recv_many_drain_without_lost_wakes() {
    check("chan-batched-handoff", &dfs_plus_pct(1500, 100), || {
        let (tx, rx) = chan::bounded::<u32>(2);
        let producer = ds_check::spawn(move || {
            // 5 items through a capacity-2 buffer: the producer parks
            // for slots mid-batch and hands chunks over with batched
            // wakes.
            tx.send_many(0..5).unwrap();
        });
        let mut got = Vec::new();
        loop {
            match rx.recv_many(2) {
                Ok(v) => got.extend(v),
                Err(chan::RecvError) => break,
            }
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4], "in order, nothing dropped");
        producer.join();
    });
}

#[test]
fn chan_producer_death_always_delivers_the_final_wake() {
    // Two consumers parked in `recv_many`, a producer that buffers one
    // item and dies (its Sender drops): in every interleaving exactly
    // one consumer must get the item and the other must observe the
    // disconnect — no schedule may leave a consumer parked forever.
    // This pins the generation check and the Drop-side backstop wake in
    // `chan` (remove either and this model deadlocks).
    check("chan-crashed-producer", &dfs_plus_pct(3000, 150), || {
        let (tx, rx) = chan::bounded::<u32>(1);
        let rx2 = rx.clone();
        let c1 = ds_check::spawn(move || rx.recv_many(2).ok());
        let c2 = ds_check::spawn(move || rx2.recv_many(2).ok());
        tx.send(7).unwrap();
        drop(tx); // producer crashed right after buffering
        let (a, b) = (c1.join(), c2.join());
        match (&a, &b) {
            (Some(v), None) | (None, Some(v)) => assert_eq!(v, &vec![7]),
            _ => panic!("exactly one consumer must get the item, got {a:?} / {b:?}"),
        }
    });
}

// ---------------------------------------------------------------------
// ds-comm: kernel slots + CCC
// ---------------------------------------------------------------------

/// Count-down gate built on the shims: models "a communication kernel
/// completes only once all peers have launched it" (§5).
struct Gate {
    n: ds_check::sync::Mutex<u32>,
    cv: ds_check::sync::Condvar,
}

impl Gate {
    fn new(n: u32) -> Gate {
        Gate {
            n: ds_check::sync::Mutex::new(n),
            cv: ds_check::sync::Condvar::new(),
        }
    }

    fn arrive(&self) {
        let mut n = self.n.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.cv.notify_all();
        }
        while *n > 0 {
            n = self.cv.wait(n).unwrap();
        }
    }
}

/// The §5 workload: 2 ranks × 2 workers, one kernel slot per device.
/// Worker `w`'s kernel on rank `r` pins rank `r`'s slot from launch
/// until all ranks have launched `w`'s kernel (the gate).
fn slot_workload(coordinated: bool) {
    let slots = Arc::new(DeviceSlots::new(2, 1));
    let ccc = Arc::new(Coordinator::new(2));
    let gates = Arc::new([Gate::new(2), Gate::new(2)]);

    let mut threads = Vec::new();
    // Launch-attempt order differs per rank: rank 0 tries worker 7
    // first, rank 1 tries worker 9 first — the cross-device circular
    // wait the paper's Fig. 8 describes.
    for (rank, order) in [(0usize, [7u32, 9]), (1, [9, 7])] {
        for (wi, worker) in order.into_iter().enumerate() {
            let (slots, ccc, gates) = (Arc::clone(&slots), Arc::clone(&ccc), Arc::clone(&gates));
            threads.push(ds_check::spawn(move || {
                let gate = &gates[if worker == 7 { 0 } else { 1 }];
                if coordinated {
                    // CCC: the leader fixes one global order; every rank
                    // acquires its slot in that order.
                    ccc.launch(rank, worker, || slots.device(rank).acquire());
                } else {
                    slots.device(rank).acquire();
                }
                gate.arrive();
                slots.device(rank).release();
                let _ = wi;
            }));
        }
    }
    for t in threads {
        t.join();
    }
}

#[test]
fn uncoordinated_slot_acquisition_deadlocks_somewhere() {
    let failure = explore(&dfs_plus_pct(1500, 300), || slot_workload(false))
        .expect_err("per-rank launch orders differ: some schedule must wedge");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "got {}",
        failure.kind
    );
}

#[test]
fn ccc_global_launch_order_removes_the_deadlock() {
    check("ccc-ordered-slots", &dfs_plus_pct(1500, 300), || {
        slot_workload(true)
    });
}

#[test]
fn dead_peer_corpse_wedges_a_plain_launch() {
    // Pre-skip-protocol behavior: worker 7 on rank 1 crashed, nobody
    // skips its entry, and its successor launches with the plain
    // (non-timeout) API — every such schedule wedges behind the corpse.
    let failure = explore(&Config::dfs(2048), || {
        let ccc = Arc::new(Coordinator::new(2));
        ccc.launch(0, 7, || ());
        ccc.launch(0, 9, || ());
        let c2 = Arc::clone(&ccc);
        let successor = ds_check::spawn(move || c2.launch(1, 9, || ()));
        successor.join();
    })
    .expect_err("the corpse entry is never launched nor skipped");
    match &failure.kind {
        FailureKind::Deadlock(d) => assert!(d.contains("condvar"), "got: {d}"),
        k => panic!("expected a deadlock, got {k}"),
    }
}

// ---------------------------------------------------------------------
// The epoch-ahead prefetch handshake (dsp-core's pipelined executor)
// ---------------------------------------------------------------------
//
// The prefetcher thread of `run_rank_pipelined` is a pure producer on a
// bounded window queue, and `load_stage` filters every popped window by
// expected batch tag — these
// models run that handshake (on the production channel) through the
// three failure shapes the design claims are benign: a prefetcher that
// dies mid-epoch, a loader faster than its prefetcher, and a loader
// that shuts down while the producer is parked on a full queue.

#[test]
fn prefetcher_crash_mid_epoch_never_wedges_the_loader() {
    // The producer stages window 0 and dies before window 1 (its Sender
    // drops). The loader must, in every interleaving, serve all three
    // batches: staged rows for an aligned prefix, demand fetches after
    // the disconnect — and never park forever.
    check("prefetch-producer-crash", &dfs_plus_pct(2000, 150), || {
        let (tx, rx) = chan::bounded::<u64>(2);
        let prefetcher = ds_check::spawn(move || {
            tx.send(0).unwrap();
            // crash: window 1 is never produced
        });
        let mut staged = 0u32;
        let mut demand = 0u32;
        for b in 0..3u64 {
            match rx.recv() {
                Ok(w) => {
                    assert_eq!(w, b, "windows arrive in batch order");
                    staged += 1;
                }
                Err(chan::RecvError) => demand += 1,
            }
        }
        prefetcher.join();
        assert_eq!(staged + demand, 3, "every batch is served");
        assert!(staged <= 1, "only window 0 was ever produced");
    });
}

#[test]
fn loader_outpacing_the_prefetcher_stays_aligned() {
    // A loader that polls (`try_recv`) instead of parking: when it
    // outruns the producer it sees `None` and falls back to demand
    // fetching. Whatever interleaving runs, the windows it does observe
    // must be exactly the aligned ones — the filter never lets a stale
    // window serve the wrong batch.
    check("prefetch-loader-outpaces", &dfs_plus_pct(2000, 150), || {
        let (tx, rx) = chan::bounded::<u64>(1);
        let prefetcher = ds_check::spawn(move || {
            for w in 0..3u64 {
                if tx.send(w).is_err() {
                    break;
                }
            }
        });
        let mut last_seen = None::<u64>;
        let mut used = 0u32;
        for expected in 0..3u64 {
            // Demand path when the prefetcher has not caught up; the
            // popped window is used only if it matches the batch in
            // hand (a stale window for an already-served batch is
            // dropped, and the batch is still served cold).
            if let Some(w) = rx.try_recv() {
                assert!(
                    last_seen.is_none_or(|p| w > p),
                    "windows arrive in strictly increasing batch order"
                );
                last_seen = Some(w);
                if w == expected {
                    used += 1;
                }
            }
        }
        assert!(used <= 3);
        drop(rx);
        prefetcher.join();
    });
}

#[test]
fn loader_shutdown_with_a_full_prefetch_queue_unparks_the_producer() {
    // The loader dies (queue receiver drops) while the producer is
    // parked pushing into a full window queue. No schedule may leave
    // the producer wedged: the send must fail with a disconnect.
    check(
        "prefetch-shutdown-full-queue",
        &dfs_plus_pct(2000, 150),
        || {
            let (tx, rx) = chan::bounded::<u64>(1);
            let prefetcher = ds_check::spawn(move || {
                let mut produced = 0u32;
                for w in 0..3u64 {
                    if tx.send(w).is_err() {
                        break;
                    }
                    produced += 1;
                }
                produced
            });
            // The loader errors out after at most one batch.
            let _ = rx.recv();
            drop(rx);
            let produced = prefetcher.join();
            assert!(
                (1..=3).contains(&produced),
                "producer always makes progress and always terminates"
            );
        },
    );
}

#[test]
fn skip_worker_unwedges_the_successor_under_all_schedules() {
    // Current protocol: the supervisor declares the dead worker skipped.
    // The skip races the successor's launch here, so both orders are
    // explored — including skip landing while the successor is already
    // parked behind the corpse.
    let report = check("ccc-skip-worker", &dfs_plus_pct(2048, 100), || {
        let ccc = Arc::new(Coordinator::new(2));
        ccc.launch(0, 7, || ());
        ccc.launch(0, 9, || ());
        let c2 = Arc::clone(&ccc);
        let successor = ds_check::spawn(move || c2.launch(1, 9, || 42));
        ccc.skip_worker(1, 7);
        assert_eq!(successor.join(), 42);
    });
    assert!(report.schedules > 10);
}

// ---------------------------------------------------------------------
// Split-parallel exchange: the extended CCC launch pattern
// ---------------------------------------------------------------------
//
// Split mode adds a fourth worker group (the partial-aggregate
// exchange, two all-to-all rounds per batch) that shares each device's
// kernel slots with the trainer's allreduce. These models run that
// exact launch pattern on the production DeviceSlots + Coordinator: the
// CCC-ordered variant is proven deadlock-free within bounds, and the
// uncoordinated variant — the loader stage and the trainer racing for
// one slot with no global order — is the wedge the explorer must find.

/// The split-mode per-batch launch pattern on one device: a loader-
/// stage thread launching the feature load (worker 2) then the two
/// exchange rounds (worker 4, twice — the same group id queues two
/// entries), racing a trainer thread launching its allreduce (worker
/// 3). Two ranks, one kernel slot per device; every collective pins the
/// slot until all ranks have launched it (the gates).
fn split_exchange_workload(coordinated: bool) {
    let slots = Arc::new(DeviceSlots::new(2, 1));
    let ccc = Arc::new(Coordinator::new(2));
    // Gates: load, exchange round 1, exchange round 2, allreduce.
    let gates = Arc::new([Gate::new(2), Gate::new(2), Gate::new(2), Gate::new(2)]);
    let mut threads = Vec::new();
    for rank in 0..2usize {
        let (s1, c1, g1) = (Arc::clone(&slots), Arc::clone(&ccc), Arc::clone(&gates));
        threads.push(ds_check::spawn(move || {
            for (worker, gate) in [(2u32, 0usize), (4, 1), (4, 2)] {
                if coordinated {
                    c1.launch(rank, worker, || s1.device(rank).acquire());
                } else {
                    s1.device(rank).acquire();
                }
                g1[gate].arrive();
                s1.device(rank).release();
            }
        }));
        let (s2, c2, g2) = (Arc::clone(&slots), Arc::clone(&ccc), Arc::clone(&gates));
        threads.push(ds_check::spawn(move || {
            if coordinated {
                c2.launch(rank, 3, || s2.device(rank).acquire());
            } else {
                s2.device(rank).acquire();
            }
            g2[3].arrive();
            s2.device(rank).release();
        }));
    }
    for t in threads {
        t.join();
    }
}

#[test]
fn split_exchange_launches_deadlock_free_under_ccc() {
    // Proven within bounds: whatever order the leader's two threads
    // register, every rank acquires its slot in that one global order —
    // the exchange rounds slot between load and allreduce without ever
    // forming a cross-device circular wait.
    let report = check("split-exchange-ccc", &dfs_plus_pct(2000, 300), || {
        split_exchange_workload(true)
    });
    assert!(report.schedules > 100, "exploration actually branched");
}

#[test]
fn uncoordinated_split_exchange_deadlocks_somewhere() {
    // The found variant: with no global launch order, some schedule has
    // rank 0's loader stage pin slot 0 inside an exchange gate while
    // rank 1's trainer pins slot 1 inside the allreduce gate — each
    // side's counterpart then blocks on the held slot. The explorer
    // must exhibit that wedge.
    let failure = explore(&dfs_plus_pct(2000, 300), || split_exchange_workload(false))
        .expect_err("exchange vs allreduce with no launch order must wedge somewhere");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "got {}",
        failure.kind
    );
}

#[test]
fn dead_split_peer_skip_unwedges_the_exchange_successor() {
    // The supervision path `declare_dead` takes in split mode: rank 1's
    // loader dies without launching its queued exchange rounds, so its
    // trainer's allreduce entry sits parked behind the corpse. The
    // skip races the successor's launch; both orders must unwedge.
    let report = check("split-exchange-skip", &dfs_plus_pct(2048, 100), || {
        let ccc = Arc::new(Coordinator::new(2));
        // Leader's global order: the two exchange rounds, then the
        // trainer's allreduce.
        ccc.launch(0, 4, || ());
        ccc.launch(0, 4, || ());
        ccc.launch(0, 3, || ());
        let c2 = Arc::clone(&ccc);
        let successor = ds_check::spawn(move || c2.launch(1, 3, || 7));
        // Rank 1's loader died before either exchange round launched;
        // declare_dead skips the whole exchange group on that rank.
        ccc.skip_worker(1, 4);
        assert_eq!(successor.join(), 7);
    });
    assert!(report.schedules > 10);
}

// ---------------------------------------------------------------------
// Membership generations: the rejoin fence (ds-comm `try_rejoin`)
// ---------------------------------------------------------------------
//
// ds-comm fences peer rejoin with a membership generation: every
// effective `mark_failed` / rejoin bumps a counter, and a healer's
// commit is accepted only if the generation it observed is still
// current — checked and committed under ONE lock hold. These models
// run that protocol shape (on the shims, Gate-style) through its three
// claimed-safe races — concurrent healers, a late joiner parked on the
// readmission, a healer that dies mid-handshake — and then prove
// ds-check finds the lost-wake in the obvious unfenced variant.

/// Minimal model of ds-comm's membership fence (`Round.membership` +
/// `try_rejoin`): a generation counter and per-rank liveness behind one
/// lock, every effective transition bumping the generation and waking
/// parked observers.
struct Membership {
    state: ds_check::sync::Mutex<(u64, [bool; 2])>,
    cv: ds_check::sync::Condvar,
}

impl Membership {
    fn new() -> Membership {
        Membership {
            state: ds_check::sync::Mutex::new((0, [true; 2])),
            cv: ds_check::sync::Condvar::new(),
        }
    }

    fn generation(&self) -> u64 {
        self.state.lock().unwrap().0
    }

    fn mark_failed(&self, rank: usize) {
        let mut s = self.state.lock().unwrap();
        if s.1[rank] {
            s.1[rank] = false;
            s.0 += 1;
            self.cv.notify_all();
        }
    }

    /// The fence: the observed generation is validated and the
    /// readmission committed under one lock hold — no window for a
    /// concurrent transition between check and commit.
    fn try_rejoin(&self, rank: usize, observed: u64) -> Result<u64, u64> {
        let mut s = self.state.lock().unwrap();
        if observed != s.0 {
            return Err(s.0);
        }
        if !s.1[rank] {
            s.1[rank] = true;
            s.0 += 1;
        }
        self.cv.notify_all();
        Ok(s.0)
    }

    /// Fenced wait: the predicate is re-checked under the lock around
    /// every park, so a wake between check and wait cannot be lost.
    fn await_member(&self, rank: usize) -> u64 {
        let mut s = self.state.lock().unwrap();
        while !s.1[rank] {
            s = self.cv.wait(s).unwrap();
        }
        s.0
    }

    /// The bug ds-check must find: the generation is read under one
    /// lock hold and the park taken under another, with no re-check —
    /// a bump landing between the two is a lost wake.
    fn await_change_unfenced(&self, observed: u64) {
        let cur = self.state.lock().unwrap().0;
        if cur == observed {
            let s = self.state.lock().unwrap();
            let _s = self.cv.wait(s).unwrap();
        }
    }
}

/// A supervisor healing `rank`: observe, attempt, refresh on staleness —
/// exactly the retry loop `DspSystem::rejoin_sampler` runs against
/// `CommError::StaleGeneration`.
fn heal(m: &Membership, rank: usize) -> u64 {
    let mut observed = m.generation(); // may go stale before the commit
    loop {
        match m.try_rejoin(rank, observed) {
            Ok(g) => return g,
            Err(cur) => observed = cur,
        }
    }
}

#[test]
fn concurrent_healers_never_wedge_and_every_bump_lands() {
    let report = check(
        "membership-concurrent-healers",
        &dfs_plus_pct(2000, 150),
        || {
            let m = Arc::new(Membership::new());
            m.mark_failed(0);
            m.mark_failed(1);
            // Both healers start from a deliberately stale observation so
            // some schedules exercise the StaleGeneration refresh path.
            let (m1, m2) = (Arc::clone(&m), Arc::clone(&m));
            let h1 = ds_check::spawn(move || {
                let mut observed = 0;
                loop {
                    match m1.try_rejoin(0, observed) {
                        Ok(g) => return g,
                        Err(cur) => observed = cur,
                    }
                }
            });
            let h2 = ds_check::spawn(move || heal(&m2, 1));
            h1.join();
            h2.join();
            let (generation, alive) = *m.state.lock().unwrap();
            assert_eq!(alive, [true; 2], "both ranks readmitted");
            assert_eq!(generation, 4, "2 failures + 2 rejoins, each bumped once");
        },
    );
    assert!(report.schedules > 100, "exploration actually branched");
}

#[test]
fn late_joiner_parks_until_the_generation_advances() {
    check("membership-late-joiner", &dfs_plus_pct(2000, 150), || {
        let m = Arc::new(Membership::new());
        m.mark_failed(1);
        let waiter = {
            let m = Arc::clone(&m);
            // A worker gated on rank 1's readmission (the collective
            // round that must not start while the peer is out).
            ds_check::spawn(move || m.await_member(1))
        };
        let g = heal(&m, 1);
        assert_eq!(g, 2, "failure and rejoin each bumped the generation");
        assert!(waiter.join() >= 2, "waiter wakes after the rejoin commit");
    });
}

#[test]
fn healer_crash_mid_handshake_lets_a_helper_finish_the_commit() {
    check(
        "membership-crash-during-rejoin",
        &dfs_plus_pct(2000, 150),
        || {
            let m = Arc::new(Membership::new());
            m.mark_failed(0);
            let (m1, m2, m3) = (Arc::clone(&m), Arc::clone(&m), Arc::clone(&m));
            // The rejoining rank observes the generation and dies before it
            // can commit (its thread returns without calling try_rejoin) —
            // no lock is poisoned, no state is half-written.
            let corpse = ds_check::spawn(move || m1.generation());
            // A surviving supervisor completes the readmission on its
            // behalf; the parked observer must wake in every interleaving.
            let helper = ds_check::spawn(move || heal(&m2, 0));
            let waiter = ds_check::spawn(move || m3.await_member(0));
            corpse.join();
            helper.join();
            assert!(waiter.join() >= 2);
        },
    );
}

#[test]
fn unfenced_generation_wait_loses_a_wake_somewhere() {
    // Same protocol with the fence removed: some schedule bumps the
    // generation between the observer's read and its park, the wake is
    // lost, and the observer sleeps forever behind a join.
    let failure = explore(&dfs_plus_pct(2000, 150), || {
        let m = Arc::new(Membership::new());
        let m1 = Arc::clone(&m);
        let waiter = ds_check::spawn(move || m1.await_change_unfenced(0));
        m.mark_failed(0);
        waiter.join();
    })
    .expect_err("the unfenced check-then-park must wedge in some schedule");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "got {}",
        failure.kind
    );
}

// ---------------------------------------------------------------------
// The sampler rejoin boundary (dsp-core `EpochShared::rejoin_boundary`)
// ---------------------------------------------------------------------
//
// A crash..rejoin window has every rank take its sampler out of the
// CCC launch order at the crash batch (`skip_worker`; the crashed rank
// also marks itself failed) and put it back at the rejoin batch
// (`readmit_worker`). Every rank reaches those batches, but not at the
// same wall time: a sampler runs ahead of its loader by the queue
// depth, so one rank can stand at the rejoin batch before its peer has
// even crashed. These models run the boundary on the production
// Coordinator. The protocol in use — arrivals are counted; the *last*
// sampler to arrive readmits everyone, heals the group and only then
// releases the others — is wedge-free in every schedule. The three
// obvious variants are not, and the explorer finds each wedge: healing
// on arrival lets the leader push a round entry that a slower rank's
// skip then drains; waiting for a *healthy group* instead of for the
// healer lets the first rank through before the crash has happened;
// releasing before the readmission lets a waiter launch while its own
// entry is still on the skip list.

const SAMPLER: u32 = 1;

#[derive(Clone, Copy, PartialEq)]
enum RejoinBy {
    /// Production: last arriver readmits, heals, then releases.
    LastArriver,
    /// Every rank heals the moment it reaches the boundary.
    OnArrival,
    /// Last arriver heals, but the others wait on the group's health.
    AwaitHealth,
    /// Last arriver, but the others are released before readmission.
    ReleaseFirst,
}

fn rejoin_boundary_workload(by: RejoinBy) {
    let ccc = Arc::new(Coordinator::new(2));
    let m = Arc::new(Membership::new());
    // (arrived, released) and its wake-up.
    let at = Arc::new((
        ds_check::sync::Mutex::new((0usize, false)),
        ds_check::sync::Condvar::new(),
    ));
    let samplers: Vec<_> = (0..2usize)
        .map(|rank| {
            let (ccc, m, at) = (Arc::clone(&ccc), Arc::clone(&m), Arc::clone(&at));
            ds_check::spawn(move || {
                // Crash batch: rank 1's sampler dies; both leave the
                // launch order.
                if rank == 1 {
                    m.mark_failed(1);
                }
                ccc.skip_worker(rank, SAMPLER);
                // Rejoin batch.
                let last = by == RejoinBy::OnArrival || {
                    let mut st = at.0.lock().unwrap();
                    st.0 += 1;
                    st.0 == 2
                };
                let release = || {
                    at.0.lock().unwrap().1 = true;
                    at.1.notify_all();
                };
                if last {
                    if by == RejoinBy::ReleaseFirst {
                        release();
                    }
                    (0..2).for_each(|r| ccc.readmit_worker(r, SAMPLER));
                    heal(&m, 1);
                    release();
                } else if by == RejoinBy::AwaitHealth {
                    m.await_member(1);
                } else {
                    let mut st = at.0.lock().unwrap();
                    while !st.1 {
                        st = at.1.wait(st).unwrap();
                    }
                }
                // First collective round after the rejoin.
                ccc.launch(rank, SAMPLER, || ());
            })
        })
        .collect();
    for t in samplers {
        t.join();
    }
}

fn rejoin_variant_wedges(by: RejoinBy) {
    let failure = explore(&dfs_plus_pct(4000, 300), move || {
        rejoin_boundary_workload(by)
    })
    .expect_err("some schedule must strand a sampler launch");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "got {}",
        failure.kind
    );
}

#[test]
fn sampler_rejoin_by_the_last_arriver_never_strands_a_launch() {
    let report = check("rejoin-last-arriver", &dfs_plus_pct(4000, 300), || {
        rejoin_boundary_workload(RejoinBy::LastArriver)
    });
    assert!(report.schedules > 10, "exploration actually branched");
}

#[test]
fn sampler_rejoin_on_arrival_strands_the_slower_rank_somewhere() {
    rejoin_variant_wedges(RejoinBy::OnArrival);
}

#[test]
fn sampler_rejoin_awaiting_group_health_passes_before_the_crash_somewhere() {
    rejoin_variant_wedges(RejoinBy::AwaitHealth);
}

#[test]
fn sampler_rejoin_released_before_readmission_strands_the_waiter_somewhere() {
    rejoin_variant_wedges(RejoinBy::ReleaseFirst);
}
