//! # ds-exec
//!
//! A one-time, process-global work-stealing thread pool replacing the
//! per-call `std::thread::scope` spawns the compute layers used to pay
//! on every `ds_simgpu::par::chunk_map`. The paper's speedups come from
//! keeping every device busy across overlapping mini-batch stages;
//! spawning and joining OS threads on each hot GEMM or gather throws
//! that away. The pool is created once (sized from `DS_PAR_THREADS`,
//! defaulting to the machine's parallelism) and shared by sampling,
//! gather and GEMM work, so concurrent pipeline stages overlap without
//! oversubscribing the host.
//!
//! ## Structure
//!
//! * one **deque per worker** — a worker pushes and pops its own work
//!   LIFO (newest first, cache-hot for nested scopes) and steals FIFO
//!   (oldest first) from its peers;
//! * a **global injector** queue receiving work submitted from threads
//!   that are not pool workers (the pipeline's sampler/loader/trainer
//!   threads, tests, benches);
//! * **parked idle workers** — a worker that finds every queue empty
//!   sleeps on a condvar and is woken by the next submission; an idle
//!   pool burns no CPU;
//! * **named threads** (`ds-exec-N`) so Chrome-trace tids and panic
//!   backtraces identify the lane;
//! * **clean shutdown** for tests: [`Pool::shutdown`] parks no new
//!   work, drains the queues and joins every worker.
//!
//! ## Determinism
//!
//! The pool executes *tasks*; it never decides *what* a task computes.
//! [`Pool::map_indexed`] returns results in index order whatever thread
//! executed each index and in whatever real-time order they finished,
//! so callers that key their work on the index (chunk boundaries,
//! seeded per-chunk RNG streams) get bit-identical output regardless of
//! worker count or steal order. Pool tasks must be finite CPU-bound
//! closures — never block a task on a collective or a queue hand-off
//! (those own dedicated device threads).
//!
//! ## Nested submission
//!
//! A pool task may itself call [`Pool::map_indexed`] (a pipeline worker
//! submitting a GEMM must not deadlock when all workers are busy): a
//! thread waiting for its task set *helps*, executing queued tasks —
//! its own set's first, by LIFO locality — until the set completes.
//! Progress argument: a waiter blocks only when every queue is empty,
//! i.e. every outstanding task is already executing on some thread;
//! nesting forms a finite DAG, so the deepest incomplete set is being
//! executed by threads that are not themselves waiting, and its
//! completion signal wakes the sleeper.
//!
//! ## Observability
//!
//! The pool keeps process-global atomic counters ([`stats`]) —
//! submitted/executed/helped/stolen tasks and queue high-water marks.
//! `ds_simgpu::par` folds them into the `ds-trace` stream as `exec.*`
//! counters, gated behind `DS_TRACE_REALTIME` because steal counts and
//! queue depths depend on real thread timing and would break the
//! byte-determinism contract of default traces.

use crate::sync::{Arc, AtomicU64, Condvar, Mutex, MutexGuard, Ordering, PoisonError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::thread::JoinHandle;

pub(crate) use ds_check::alias as sync;

/// Lock acquisition that survives poisoning: a panicking task must not
/// cascade into every other thread touching the pool.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A queued unit of work. Lifetimes are erased by [`Pool::map_indexed`],
/// which guarantees every job it submitted has run before it returns.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Cumulative pool counters (process-global for [`global`], per-pool
/// otherwise). All values are monotonically increasing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tasks handed to the pool.
    pub submitted: u64,
    /// Tasks executed by pool workers.
    pub executed: u64,
    /// Tasks executed by waiting submitters while helping.
    pub helped: u64,
    /// Tasks a worker took from another worker's deque.
    pub stolen: u64,
    /// High-water mark of the global injector queue.
    pub max_injector_depth: u64,
    /// High-water mark across the per-worker deques.
    pub max_deque_depth: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    submitted: AtomicU64,
    executed: AtomicU64,
    helped: AtomicU64,
    stolen: AtomicU64,
    max_injector_depth: AtomicU64,
    max_deque_depth: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> ExecStats {
        ExecStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            helped: self.helped.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            max_injector_depth: self.max_injector_depth.load(Ordering::Relaxed),
            max_deque_depth: self.max_deque_depth.load(Ordering::Relaxed),
        }
    }
}

/// Sleep/wake bookkeeping. `gen` increments on every submission; a
/// worker records `gen`, scans the queues, and only parks if `gen` is
/// still unchanged under the lock — the standard fix for the lost
/// wakeup between "queues looked empty" and "went to sleep".
#[derive(Debug, Default)]
struct Idle {
    gen: u64,
    shutdown: bool,
}

struct Shared {
    /// Distinguishes pools: thread-locals must not route a private test
    /// pool's submissions into the global pool's deques.
    id: u64,
    injector: Mutex<VecDeque<Job>>,
    deques: Vec<Mutex<VecDeque<Job>>>,
    idle: Mutex<Idle>,
    wake: Condvar,
    stats: StatCells,
}

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static WORKER: std::cell::Cell<Option<(u64, usize)>> =
        const { std::cell::Cell::new(None) };
}

impl Shared {
    /// This thread's worker index within *this* pool, if any.
    fn me(&self) -> Option<usize> {
        WORKER.with(|w| match w.get() {
            Some((id, idx)) if id == self.id => Some(idx),
            _ => None,
        })
    }

    /// Queue a job: pool workers push to their own deque, everyone else
    /// to the injector; then wake one sleeper.
    fn submit(&self, job: Job) {
        match self.me() {
            Some(idx) => {
                let mut d = lock_unpoisoned(&self.deques[idx]);
                d.push_back(job);
                self.stats
                    .max_deque_depth
                    .fetch_max(d.len() as u64, Ordering::Relaxed);
            }
            None => {
                let mut q = lock_unpoisoned(&self.injector);
                q.push_back(job);
                self.stats
                    .max_injector_depth
                    .fetch_max(q.len() as u64, Ordering::Relaxed);
            }
        }
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&self.idle).gen += 1;
        self.wake.notify_one();
    }

    /// Own deque (LIFO) → injector (FIFO) → steal from peers (FIFO).
    /// `None` means every queue was empty at scan time.
    fn find_job(&self) -> Option<Job> {
        let me = self.me();
        if let Some(idx) = me {
            if let Some(job) = lock_unpoisoned(&self.deques[idx]).pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = lock_unpoisoned(&self.injector).pop_front() {
            return Some(job);
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for k in 0..n {
            let t = (start + k) % n;
            if Some(t) == me {
                continue;
            }
            if let Some(job) = lock_unpoisoned(&self.deques[t]).pop_front() {
                self.stats.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }
}

fn worker_main(shared: Arc<Shared>, idx: usize) {
    WORKER.with(|w| w.set(Some((shared.id, idx))));
    loop {
        let gen = {
            let idle = lock_unpoisoned(&shared.idle);
            if idle.shutdown {
                break;
            }
            idle.gen
        };
        let mut ran = false;
        while let Some(job) = shared.find_job() {
            shared.stats.executed.fetch_add(1, Ordering::Relaxed);
            // Jobs are panic-isolated by map_indexed; a raw submitted
            // job that panics poisons nothing (locks are unpoisoned)
            // but kills this worker — keep raw submissions infallible.
            job();
            ran = true;
        }
        if ran {
            continue;
        }
        let mut idle = lock_unpoisoned(&shared.idle);
        while !idle.shutdown && idle.gen == gen {
            idle = shared
                .wake
                .wait(idle)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if idle.shutdown {
            break;
        }
    }
    // Drain anything that raced with shutdown so no queued job leaks.
    while let Some(job) = shared.find_job() {
        shared.stats.executed.fetch_add(1, Ordering::Relaxed);
        job();
    }
}

/// A work-stealing thread pool. Use [`global`] for the shared
/// process-wide instance; construct private pools only in tests.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// Shared slot vector for [`Pool::map_indexed`]: each task writes only
/// its own index, so disjoint `UnsafeCell` access is race-free.
struct Slots<R>(Vec<std::cell::UnsafeCell<Option<R>>>);

// SAFETY: tasks touch disjoint indices; the `remaining` mutex orders
// every slot write (done before the task's decrement under the lock)
// before the collecting read (done after observing zero under it).
unsafe impl<R: Send> Sync for Slots<R> {}

struct MapCtx<'a, R, F> {
    f: &'a F,
    slots: Slots<R>,
    /// Tasks of this set that have not yet finished. This mutex is the
    /// *whole* completion protocol: the final decrement, the `done_cv`
    /// notification, and the caller's observation of zero all happen
    /// under it, so the last thing a completing worker touches is the
    /// lock itself — the caller cannot observe completion (and free
    /// this stack-allocated ctx) until that worker has released it.
    remaining: Mutex<usize>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<R: Send, F: Fn(usize) -> R + Sync> MapCtx<'_, R, F> {
    fn run_inline(&self, i: usize) {
        match catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
            // SAFETY: index `i` is claimed by exactly one task.
            Ok(v) => unsafe { *self.slots.0[i].get() = Some(v) },
            Err(p) => {
                let mut slot = lock_unpoisoned(&self.panic);
                slot.get_or_insert(p);
            }
        }
    }

    fn run_one(&self, i: usize) {
        self.run_inline(i);
        let mut remaining = lock_unpoisoned(&self.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            // Notify while still holding the lock: a waiter can only
            // wake (or freshly lock and see zero) after this guard
            // drops, which is this task's final access to the ctx.
            self.done_cv.notify_all();
        }
    }

    /// True once every task of the set has finished. Checked under the
    /// `remaining` lock so a `true` answer happens-after the final
    /// worker's unlock.
    fn is_done(&self) -> bool {
        *lock_unpoisoned(&self.remaining) == 0
    }

    /// Blocks until every task of the set has finished.
    fn wait_done(&self) {
        let mut remaining = lock_unpoisoned(&self.remaining);
        while *remaining > 0 {
            remaining = self
                .done_cv
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Pool {
    /// A pool with `workers` threads named `ds-exec-N`. `workers` may
    /// be zero: every map then runs on the submitting thread via the
    /// helping join (useful for `DS_PAR_THREADS=1` setups and tests).
    pub fn new(workers: usize) -> Pool {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let shared = Arc::new(Shared {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(Idle::default()),
            wake: Condvar::new(),
            stats: StatCells::default(),
        });
        let handles = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ds-exec-{idx}"))
                    .spawn(move || worker_main(shared, idx))
                    .expect("spawn ds-exec worker")
            })
            .collect();
        Pool {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker threads (excluding helping submitters).
    pub fn workers(&self) -> usize {
        self.shared.deques.len()
    }

    /// Cumulative counters for this pool.
    pub fn stats(&self) -> ExecStats {
        self.shared.stats.snapshot()
    }

    /// Runs `f(0)`, …, `f(n-1)` on the pool and returns the results in
    /// index order. The caller executes index 0 inline (mirroring the
    /// old scoped-spawn split where the first part started immediately)
    /// and then helps with queued work until its set completes, so
    /// calling from inside a pool task cannot deadlock. Panics in any
    /// `f(i)` are rethrown on the calling thread after every task of
    /// the set has finished (borrowed data stays alive throughout).
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![f(0)];
        }
        let ctx = MapCtx {
            f: &f,
            slots: Slots((0..n).map(|_| std::cell::UnsafeCell::new(None)).collect()),
            remaining: Mutex::new(n - 1),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        };
        for i in 1..n {
            let ctx_ref: &MapCtx<'_, R, F> = &ctx;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || ctx_ref.run_one(i));
            // SAFETY: lifetime erasure. Every submitted job has finished
            // before this function returns: the caller leaves the loop
            // below only after observing `remaining == 0` under the
            // `remaining` mutex; each job decrements `remaining` under
            // that same mutex as its final act (its panics are caught),
            // notifying while still holding the lock — so the caller's
            // exit happens-after the completing worker's unlock, and no
            // job can touch `ctx`, `f`, or their borrows after free.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            self.shared.submit(job);
        }
        ctx.run_inline(0);
        // A helped job may be a raw submission that panics; our own set
        // must fully drain before the unwind frees `ctx` out from under
        // workers still borrowing it. Waiting is not enough: with zero
        // workers (or all workers parked beneath a nested submission)
        // this thread is the only one that will ever run the set, so it
        // must *keep helping* — the first panic is stashed and rethrown
        // once the set is done.
        let mut helped_panic: Option<Box<dyn std::any::Any + Send>> = None;
        while !ctx.is_done() {
            if let Some(job) = self.shared.find_job() {
                // Helping: possibly a task from an unrelated set — still
                // progress, and the only alternative to deadlock when
                // every worker is busy beneath a nested submission.
                self.shared.stats.helped.fetch_add(1, Ordering::Relaxed);
                if let Err(p) = catch_unwind(AssertUnwindSafe(move || job())) {
                    helped_panic.get_or_insert(p);
                }
            } else {
                // Every queue empty ⇒ the remaining tasks of this set
                // are executing on other threads; sleep until the last
                // one notifies under the `remaining` lock.
                ctx.wait_done();
                break;
            }
        }
        if let Some(p) = helped_panic {
            resume_unwind(p);
        }
        if let Some(p) = lock_unpoisoned(&ctx.panic).take() {
            resume_unwind(p);
        }
        let MapCtx { slots, .. } = ctx;
        slots
            .0
            .into_iter()
            .map(|c| c.into_inner().expect("map_indexed slot unfilled"))
            .collect()
    }

    /// Stops the workers and joins them. Queued work is drained on the
    /// way out; in-flight `map_indexed` calls complete via their
    /// helping submitters. Callable more than once.
    pub fn shutdown(&self) {
        {
            let mut idle = lock_unpoisoned(&self.shared.idle);
            idle.shutdown = true;
            idle.gen += 1;
        }
        self.shared.wake.notify_all();
        let handles = std::mem::take(&mut *lock_unpoisoned(&self.handles));
        for h in handles {
            h.join().expect("ds-exec worker panicked");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker count for [`global`]: one less than `DS_PAR_THREADS` (or the
/// machine's parallelism) because the submitting thread executes the
/// first part and helps while it waits, so total active compute threads
/// match the configured width.
fn default_workers() -> usize {
    let threads = std::env::var("DS_PAR_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    threads.saturating_sub(1)
}

/// The process-global pool, created on first use and never shut down.
pub fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(default_workers()))
}

/// Cumulative counters of the [`global`] pool.
pub fn stats() -> ExecStats {
    global().stats()
}

/// Spawns a dedicated, *named* device thread (`dev-R`). Device threads
/// model one simulated GPU each and block on collectives, so they own
/// an OS thread instead of riding the pool; the name shows up in panic
/// backtraces and debugger/trace views. The thread-discipline lint
/// (`scripts/lint_threads.sh`) forbids raw `std::thread::spawn` in
/// production code — route long-lived per-rank threads through here.
pub fn spawn_device<T, F>(rank: usize, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("dev-{rank}"))
        .spawn(f)
        .expect("spawn device thread")
}

/// Scoped variant of [`spawn_device`] with a caller-chosen name
/// (`dev-R`, `dev-R-sampler`, …) for the per-epoch rank and pipeline
/// worker launchers built on `std::thread::scope`.
pub fn spawn_scoped_named<'scope, 'env, T, F>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    name: String,
    f: F,
) -> std::thread::ScopedJoinHandle<'scope, T>
where
    T: Send + 'scope,
    F: FnOnce() -> T + Send + 'scope,
{
    std::thread::Builder::new()
        .name(name)
        .spawn_scoped(scope, f)
        .expect("spawn scoped device thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicU32;

    #[test]
    fn map_indexed_returns_results_in_index_order() {
        let pool = Pool::new(3);
        let out = pool.map_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(pool.stats().submitted >= 99);
        pool.shutdown();
    }

    #[test]
    fn zero_worker_pool_runs_everything_on_the_caller() {
        let pool = Pool::new(0);
        let out = pool.map_indexed(17, |i| i + 1);
        assert_eq!(out, (1..=17).collect::<Vec<_>>());
        let s = pool.stats();
        assert_eq!(s.executed, 0, "no workers exist to execute");
        assert_eq!(s.helped, 16, "the caller helped through all of them");
    }

    #[test]
    fn nested_scope_from_inside_a_pool_task_completes_without_deadlock() {
        // One worker: the outer tasks occupy it (and the helping
        // caller); inner maps can only finish because waiters execute
        // queued tasks instead of blocking.
        for workers in [1usize, 2, 4] {
            let pool = Pool::new(workers);
            let total: usize = pool
                .map_indexed(8, |i| {
                    pool.map_indexed(8, |j| i * 8 + j)
                        .into_iter()
                        .sum::<usize>()
                })
                .into_iter()
                .sum();
            assert_eq!(total, (0..64).sum::<usize>(), "workers={workers}");
            pool.shutdown();
        }
    }

    #[test]
    fn rapid_small_maps_complete_under_contention() {
        // Hammers the completion protocol: tiny sets where the caller
        // returns (freeing the stack ctx) immediately after the last
        // task finishes. Workers must never touch the ctx after the
        // caller can observe `remaining == 0`.
        let pool = Pool::new(4);
        for round in 0..2_000 {
            let out = pool.map_indexed(3, |i| i + round);
            assert_eq!(out, vec![round, round + 1, round + 2]);
        }
        pool.shutdown();
    }

    #[test]
    fn deeply_nested_maps_terminate() {
        let pool = Pool::new(2);
        fn depth_sum(pool: &Pool, d: usize) -> usize {
            if d == 0 {
                return 1;
            }
            pool.map_indexed(3, |_| depth_sum(pool, d - 1))
                .into_iter()
                .sum()
        }
        assert_eq!(depth_sum(&pool, 4), 81);
    }

    #[test]
    fn worker_threads_are_named() {
        let pool = Pool::new(2);
        let names = pool.map_indexed(64, |_| {
            std::thread::sleep(std::time::Duration::from_micros(50));
            std::thread::current()
                .name()
                .unwrap_or("<unnamed>")
                .to_string()
        });
        // Every executing thread is either a named pool worker or the
        // helping test thread itself.
        let me = std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_string();
        assert!(names.iter().all(|n| n.starts_with("ds-exec-") || *n == me));
        pool.shutdown();
    }

    #[test]
    fn shutdown_joins_every_worker_and_leaks_no_threads() {
        let pool = Pool::new(4);
        pool.map_indexed(32, |i| i).truncate(0);
        pool.shutdown();
        assert!(
            lock_unpoisoned(&pool.handles).is_empty(),
            "all worker handles joined"
        );
        // Shutdown is idempotent and the pool still serves maps via the
        // helping caller afterwards (no dangling queue state).
        pool.shutdown();
        assert_eq!(pool.map_indexed(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn queued_work_at_shutdown_is_drained_not_leaked() {
        let pool = Pool::new(1);
        let ran = Arc::new(AtomicU32::new(0));
        // Raw submissions (not a map): shutdown must drain them.
        for _ in 0..16 {
            let ran = Arc::clone(&ran);
            pool.shared.submit(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panic_in_one_task_propagates_after_the_set_completes() {
        let pool = Pool::new(2);
        let completed = Arc::new(AtomicU32::new(0));
        let completed2 = Arc::clone(&completed);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(16, |i| {
                if i == 7 {
                    panic!("task 7 exploded");
                }
                completed2.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        assert!(r.is_err(), "panic must propagate to the caller");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            15,
            "all other tasks still ran (borrows stay alive until the set drains)"
        );
        // The pool survives a panicked set.
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
        pool.shutdown();
    }

    #[test]
    fn panicking_helped_job_does_not_wedge_the_zero_worker_pool() {
        // Regression: the helping loop used to wait for the set and
        // rethrow immediately on a helped panic — but with zero workers
        // the caller is the only thread that will ever run the set, so
        // that wait could never return. The panic must be stashed, the
        // set drained by continued helping, and the panic rethrown then.
        let pool = Pool::new(0);
        let ran = Arc::new(AtomicU32::new(0));
        pool.shared.submit(Box::new(|| panic!("raw job exploded")));
        let ran2 = Arc::clone(&ran);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(8, |i| {
                ran2.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        assert!(r.is_err(), "the helped panic must propagate");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            8,
            "the whole set drained before the rethrow"
        );
        let s = pool.stats();
        assert_eq!(s.submitted, 8, "one raw job + seven map tasks");
        assert_eq!(s.executed + s.helped, 8, "no queued job leaked");
        // The pool still serves maps afterwards.
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_survives_concurrent_shutdown_with_a_panicking_helped_job() {
        // Shutdown racing an in-flight map whose helping caller hits a
        // panicking raw job: the map must still drain its whole set,
        // rethrow, and leave no job unexecuted (leak-free by stats).
        let pool = Arc::new(Pool::new(0));
        pool.shared.submit(Box::new(|| panic!("raw job exploded")));
        let pool2 = Arc::clone(&pool);
        let mapper = std::thread::spawn(move || {
            catch_unwind(AssertUnwindSafe(|| pool2.map_indexed(64, |i| i * 2)))
        });
        pool.shutdown();
        let r = mapper.join().expect("mapper thread itself must not die");
        assert!(r.is_err(), "the helped panic must propagate");
        let s = pool.stats();
        assert_eq!(s.submitted, 64, "one raw job + sixty-three map tasks");
        assert_eq!(
            s.executed + s.helped,
            64,
            "every queued job ran exactly once"
        );
        assert!(
            lock_unpoisoned(&pool.handles).is_empty(),
            "shutdown joined every worker"
        );
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let input: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = input.iter().map(|x| x.wrapping_mul(2654435761)).collect();
        for workers in [0usize, 1, 2, 8] {
            let pool = Pool::new(workers);
            let got = pool.map_indexed(input.len(), |i| input[i].wrapping_mul(2654435761));
            assert_eq!(got, expect, "workers={workers}");
            pool.shutdown();
        }
    }

    #[test]
    fn stats_account_for_every_task() {
        let pool = Pool::new(2);
        pool.map_indexed(50, |i| i).truncate(0);
        pool.shutdown(); // quiesce so executed+helped is final
        let s = pool.stats();
        assert_eq!(s.submitted, 49, "n-1 tasks queued, index 0 ran inline");
        assert_eq!(s.executed + s.helped, 49);
    }

    #[test]
    fn global_pool_is_shared_and_sized_from_env_default() {
        let a = global() as *const Pool;
        let b = global() as *const Pool;
        assert_eq!(a, b);
        assert_eq!(
            global().map_indexed(9, |i| i * 3),
            (0..9).map(|i| i * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn spawn_device_names_the_thread() {
        let h = spawn_device(5, || std::thread::current().name().map(String::from));
        assert_eq!(h.join().unwrap().as_deref(), Some("dev-5"));
        std::thread::scope(|s| {
            let h = spawn_scoped_named(s, "dev-2-sampler".to_string(), || {
                std::thread::current().name().map(String::from)
            });
            assert_eq!(h.join().unwrap().as_deref(), Some("dev-2-sampler"));
        });
    }
}
