//! # ds-check — deterministic schedule exploration for the concurrency core
//!
//! A loom-style model checker: code written against the
//! [`sync`] shims (drop-in `Mutex` / `Condvar` / `RwLock` / atomics)
//! runs on real OS threads that the [`model`] driver serializes onto a
//! baton, yielding control at every shim operation. The driver then
//! explores interleavings two ways:
//!
//! - **bounded exhaustive DFS** for small models — every interleaving
//!   at shim granularity, with a `complete` bit in the report when the
//!   tree was exhausted;
//! - **PCT randomized sampling** (seed-driven priorities + change
//!   points, via `ds-rng`) for models too big to exhaust.
//!
//! Every execution records its decisions as `(enabled, chosen)` pairs,
//! so any failure — deadlock, lost wake, assertion panic, livelock —
//! is a plain index script: deterministic to [`replay`], minimized
//! with `ds-testkit`'s ddmin before being reported.
//!
//! The production crates (`ds-pipeline`, `ds-comm`, `ds-exec`) bind
//! [`alias`] as their `crate::sync`: `std::sync` re-exports (zero-cost,
//! the default), or these shims under this crate's `shim` feature,
//! letting the *real* channel/rendezvous/executor protocols run under
//! the model checker. Without an installed scheduler the shims behave
//! exactly like `std`, so shimmed builds still pass the normal test
//! suite unchanged.
//!
//! ```
//! use ds_check::sync::{Arc, Mutex};
//!
//! let report = ds_check::check("counter", &ds_check::Config::dfs(1024), || {
//!     let n = Arc::new(Mutex::new(0));
//!     let n2 = Arc::clone(&n);
//!     let t = ds_check::spawn(move || *n2.lock().unwrap() += 1);
//!     *n.lock().unwrap() += 1;
//!     t.join();
//!     assert_eq!(*n.lock().unwrap(), 2);
//! });
//! assert!(report.complete);
//! ```

pub mod alias;
pub mod model;
pub(crate) mod sched;
pub mod sync;

pub use model::{check, explore, replay, spawn, yield_now};
pub use model::{Config, Failure, FailureKind, JoinHandle, Report};
