//! # ds-serve
//!
//! Online GNN inference serving on the simulated cluster — the
//! "training is over, now answer queries" half of the system (§7 of
//! DESIGN.md's companion, §13 in DESIGN.md).
//!
//! An open-loop workload generator ([`request::open_loop_trace`])
//! produces a Poisson arrival trace of per-node inference requests in
//! three service classes. The front end ([`batcher`]) coalesces
//! arrivals into micro-batches, flushing on whichever fires first: the
//! size trigger (`batch_max` queued) or the deadline trigger (oldest
//! request aged `batch_delay`). The engine ([`engine::ServeEngine`])
//! replays the trace on the virtual clock: each micro-batch runs CSP
//! locality-aware sampling, the partitioned-cache fetch path
//! (NVLink/stale/serve-local-LRU/UVA) and a forward-only GNN pass, with
//! every kernel charged through the `ds-simgpu` cost model and every
//! span recorded via `ds-trace` under [`ds_trace::TID_SERVE`].
//!
//! Overload and faults are first-class:
//!
//! * a bounded admission queue sheds excess load with the typed
//!   [`ServeError::Shed`] (`QueueFull`),
//! * requests that age past their class deadline before execution are
//!   shed (`DeadlineExceeded`),
//! * when a feature shard is Lost/Recovering (the `ds-fault` hooks),
//!   the engine serves *degraded* answers from the stale pre-loss cache
//!   copy instead of wedging, and flags them.
//!
//! [`report`] reduces a run to p50/p99/p999 latency, goodput, shed and
//! degraded counts per offered-load point, serialized as
//! byte-deterministic JSON (`BENCH_serve.json`, gated in CI).

pub mod batcher;
pub mod engine;
pub mod report;
pub mod request;

pub use batcher::{BatcherCore, Offer};
pub use engine::{Response, ServeConfig, ServeEngine, ServeStats, ShedRecord, SERVE_BATCH_BASE};
pub use report::{percentile, LoadPoint, ServeReport};
pub use request::{open_loop_trace, ReqClass, Request};

/// Why admission refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded admission queue was full (overload).
    QueueFull,
    /// The request aged past its class deadline before a batch picked
    /// it up — executing it would waste capacity on a dead answer.
    DeadlineExceeded,
    /// The server is shutting down; no new admissions.
    Closed,
}

impl ShedReason {
    /// Report/display spelling.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineExceeded => "deadline_exceeded",
            ShedReason::Closed => "closed",
        }
    }
}

/// Typed serving failure surfaced to clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request was shed rather than queued/executed.
    Shed(ShedReason),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed(r) => write!(f, "request shed: {}", r.name()),
        }
    }
}

impl std::error::Error for ServeError {}
