//! # ds-comm
//!
//! NCCL-substitute collectives for the simulated cluster. Three pieces:
//!
//! * [`slots::DeviceSlots`] — per-device *kernel slots* standing in for
//!   streaming multiprocessors. A communication kernel occupies a slot
//!   from launch until completion, and completion requires all peers to
//!   have launched: exactly the two properties (§5, Fig. 8) that make
//!   concurrent collectives deadlock-prone.
//! * [`ccc::Coordinator`] — the paper's Centralized Communication
//!   Coordination: one leader rank fixes a single global launch order for
//!   communication kernels; followers launch in that order. With CCC, the
//!   slot-acquisition order is identical on every device, which removes
//!   circular waits (demonstrated by tests: the same workload deadlocks
//!   without CCC and completes with it).
//! * [`collective::Communicator`] — rendezvous collectives between device
//!   threads (all-to-all-v, allreduce, allgather, barrier, broadcast)
//!   that move real data through shared memory and charge virtual time
//!   from the topology's bandwidth model.

pub mod ccc;
pub mod collective;
pub mod slots;
pub(crate) use ds_check::alias as sync;

pub use ccc::{Coordinator, LaunchOutcome};
pub use collective::{Backend, CccHead, CommConfig, CommError, Communicator, Diagnostics};
pub use slots::DeviceSlots;

/// Identifies a worker group (peer workers across ranks share the id).
pub type WorkerId = u32;

/// Locks a mutex, recovering the guard if a holder panicked. Poisoning
/// only records that a panic happened while the lock was held; all comm
/// state transitions here are atomic under the lock, so the data is
/// consistent and the right response to a crashed peer is a typed
/// `CommError`, not a cascading `PoisonError` panic.
pub(crate) fn lock_unpoisoned<T>(m: &crate::sync::Mutex<T>) -> crate::sync::MutexGuard<'_, T> {
    m.lock()
        .unwrap_or_else(crate::sync::PoisonError::into_inner)
}
