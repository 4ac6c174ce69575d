//! # ds-pipeline
//!
//! The producer-consumer training pipeline of §5.
//!
//! * [`chan`] — Mutex+Condvar MPMC channels (crossbeam substitute).
//! * [`queue`] — bounded queues connecting the sampler → loader →
//!   trainer workers. They carry real payloads between real threads
//!   *and* enforce the same backpressure in virtual time: an item's
//!   ready-time travels with it, consumers synchronize their clocks to
//!   it, and producers synchronize to the pop-time of the item that
//!   freed their slot. The paper finds capacity 2 sufficient (§5); that
//!   is [`DEFAULT_QUEUE_CAPACITY`].
//! * [`schedule`] — an analytic event-driven schedule over recorded
//!   per-batch stage durations. It computes the pipelined epoch makespan
//!   and per-device utilization (Figs. 6 and 12) and doubles as an
//!   independent check of the threaded implementation (tests assert the
//!   two agree exactly).

pub mod chan;
pub mod queue;
pub mod schedule;
pub(crate) use ds_check::alias as sync;

pub use queue::{virtual_queue, QueueConsumer, QueueProducer};
pub use schedule::{MultiWorkerConfig, PipelineSchedule, StageTimes};

/// The paper's queue capacity: "setting the queue capacity limit to 2 is
/// sufficient for overlapping the tasks" (§5).
pub const DEFAULT_QUEUE_CAPACITY: usize = 2;
