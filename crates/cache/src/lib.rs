//! # ds-cache
//!
//! Node-feature storage and caching — the second half of DSP's data
//! layout (§3.1) and the *loader* worker (§3.2).
//!
//! * [`policy`] — hot-node selection criteria (§2 "Feature caching"):
//!   in-degree (DSP's default), PageRank, reverse PageRank, random.
//! * [`dynamic`] — runtime policies over the cached capacity
//!   (static/LRU/LFU/presampled hotness, plus the Belady oracle
//!   ceiling) and the [`dynamic::PolicyCache`] harness that enforces
//!   capacity and records the decision stream.
//! * [`partitioned::PartitionedCache`] — DSP's layout: every GPU caches a
//!   *different* slice of hot features (the hot nodes of its own graph
//!   patch), so the GPUs form one large aggregate cache reachable over
//!   NVLink.
//! * [`replicated::ReplicatedCache`] — Quiver's layout: every GPU caches
//!   the *same* globally hottest features; anything else goes to host
//!   memory over PCIe.
//! * [`loader`] — the feature loaders of each system: DSP's two-path
//!   loader (all-to-all over NVLink for cached rows, UVA for cold rows,
//!   §6), Quiver's local-cache+UVA loader, DGL-UVA's all-UVA loader and
//!   the CPU systems' host-gather + PCIe-copy loader.

pub mod dynamic;
pub mod loader;
pub mod partitioned;
pub mod policy;
pub mod quant;
pub mod replicated;

pub use dynamic::{BeladyOracle, DynamicPolicy, DynamicPolicyKind, PolicyCache};
pub use loader::{
    shard_rebuild_status, CpuLoader, DspLoader, FeatureBuffers, FeatureLoader, HostLoader,
    LoaderStats, PrefetchedWindow, RebuildStatus, ReplicatedLoader,
};
pub use partitioned::PartitionedCache;
pub use policy::CachePolicy;
pub use quant::QuantFeatures;
pub use replicated::ReplicatedCache;
