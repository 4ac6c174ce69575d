//! The one switch between `std::sync` and the [`crate::sync`] shims.
//!
//! Each shimmed crate binds this module as its own `crate::sync`
//! (`pub(crate) use ds_check::alias as sync;`) and imports every lock,
//! condvar and atomic from there — enforced by `scripts/lint_sync.sh`,
//! which finds the shimmed crates by their ds-check dependency. By
//! default the names are plain `std` re-exports, so normal builds pay
//! nothing. Under ds-check's `shim` feature (the workspace's `check`
//! feature turns it on) the same names resolve to the shims, and the
//! real protocols run under schedule exploration
//! (`tests/check_models.rs` at the workspace root).

#[cfg(not(feature = "shim"))]
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
#[cfg(not(feature = "shim"))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

#[cfg(feature = "shim")]
pub use crate::sync::{
    Arc, AtomicBool, AtomicU32, AtomicU64, Condvar, Mutex, MutexGuard, Ordering, PoisonError,
};
