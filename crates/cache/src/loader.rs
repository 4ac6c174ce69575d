//! Feature loaders — one per system design.
//!
//! All loaders return exactly `features.gather(nodes)`; they differ only
//! in *where* the bytes come from (remote GPU cache over NVLink, local
//! cache in HBM, host memory over UVA, or a CPU-staged PCIe copy) and in
//! the virtual time and traffic they charge. The paper's loader
//! parallelizes the hot (NVLink) and cold (PCIe) paths because they use
//! different links (§3.2): we model that by charging the *maximum* of
//! the two path times rather than the sum.

use crate::dynamic::{Access, CacheStats, DynamicPolicy, PolicyCache};
use crate::partitioned::PartitionedCache;
use crate::replicated::ReplicatedCache;
use ds_comm::{CommError, Communicator};
use ds_graph::{Features, NodeId};
use ds_simgpu::{par, Clock, Cluster};
use ds_tensor::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Hit/miss counters shared by all loaders.
#[derive(Debug, Default)]
pub struct LoaderStats {
    /// Rows served from some GPU cache.
    pub cache_hits: AtomicU64,
    /// Rows fetched from host memory.
    pub cold_fetches: AtomicU64,
    /// Cold rows that were already staged by the epoch-ahead
    /// prefetcher (a subset of `cold_fetches`: the bytes still crossed
    /// PCIe, but off the critical path).
    pub prefetch_hits: AtomicU64,
}

impl LoaderStats {
    /// Fraction of rows served from GPU caches.
    pub fn hit_rate(&self) -> f64 {
        let h = self.cache_hits.load(Ordering::Relaxed);
        let c = self.cold_fetches.load(Ordering::Relaxed);
        if h + c == 0 {
            0.0
        } else {
            h as f64 / (h + c) as f64
        }
    }

    fn add(&self, hits: u64, cold: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cold_fetches.fetch_add(cold, Ordering::Relaxed);
    }
}

/// One prefetched batch window: the sorted ids of the cold rows the
/// shadow replay predicted batch `batch` will need. What is *modelled*:
/// those rows cross PCIe ahead of time in the prefetch lane (charged on
/// the prefetcher's clock) and cost the loader an HBM copy on use
/// instead of a demand UVA read. What the host *executes*: nothing
/// moves ahead of time — host memory is one address space in the
/// simulator, so the window carries no bytes and the loader gathers a
/// covered row from the host store exactly once, like a demand row.
pub struct PrefetchedWindow {
    batch: u64,
    /// Sorted covered node ids.
    nodes: Vec<NodeId>,
}

impl PrefetchedWindow {
    /// Wraps the covered ids; `nodes` must be sorted (the shadow input
    /// set already is).
    pub fn new(batch: u64, nodes: Vec<NodeId>) -> Self {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "nodes must be sorted"
        );
        PrefetchedWindow { batch, nodes }
    }

    /// The global batch index this window was staged for.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Number of covered rows.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the window covers nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `v`'s row was staged by this window.
    pub fn covers(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }
}

/// Recycled buffers a rank keeps between batches: one being filled by
/// the loader while the trainer still holds the other.
const SPARE_BUFFERS: usize = 2;

#[derive(Default)]
struct FreeList {
    /// Capacity (in `f32`s) of every pooled buffer; 0 until the first
    /// [`FeatureBuffers::prepare`] that has seen a batch.
    capacity: usize,
    /// Largest batch matrix requested so far.
    max_len: usize,
    spares: Vec<Vec<f32>>,
}

/// A rank's free list of batch feature buffers: the loader takes the
/// matrix it gathers into from here and the trainer hands it back once
/// the batch's optimizer step is done, so a steady-state epoch
/// allocates, zero-fills and page-faults no feature memory.
///
/// Buffers are allocated only by [`Self::prepare`], which the thread
/// that launches an epoch calls between epochs: per-epoch worker
/// threads that grew a long-lived list would pin its chunks in whatever
/// malloc arena each happened to draw. Workers only pop and push; one
/// that finds no fitting buffer allocates a plain matrix, which is
/// dropped on return (its capacity is not the prepared one).
#[derive(Clone, Default)]
pub struct FeatureBuffers(Arc<Mutex<FreeList>>);

impl FeatureBuffers {
    /// Every update below is a single push, pop or store, so the list
    /// is valid at any panic point and a poisoned lock (a trainer that
    /// panicked mid-return) must not take the loader down with it.
    fn lock(&self) -> MutexGuard<'_, FreeList> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Tops the list up to [`SPARE_BUFFERS`] buffers sized for the
    /// largest batch seen so far plus an eighth, replacing them all
    /// when a batch has outgrown the prepared capacity.
    pub fn prepare(&self) {
        let mut list = self.lock();
        if list.max_len > list.capacity {
            list.capacity = list.max_len + list.max_len / 8;
            list.spares.clear();
        }
        while list.capacity > 0 && list.spares.len() < SPARE_BUFFERS {
            let buf = Vec::with_capacity(list.capacity);
            list.spares.push(buf);
        }
    }

    /// A `rows × dim` matrix whose contents are unspecified: the caller
    /// overwrites every row. Reuse only moves the length (growing past
    /// the previous batch fills just the difference).
    fn take(&self, rows: usize, dim: usize) -> Matrix {
        let len = rows * dim;
        let spare = {
            let mut list = self.lock();
            list.max_len = list.max_len.max(len);
            if len <= list.capacity {
                list.spares.pop()
            } else {
                None
            }
        };
        let data = match spare {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        };
        Matrix::from_vec(rows, dim, data)
    }

    /// Returns a batch's feature matrix once nothing reads it anymore.
    pub fn give_back(&self, feats: Matrix) {
        let buf = feats.into_vec();
        let mut list = self.lock();
        if buf.capacity() == list.capacity && list.spares.len() < SPARE_BUFFERS {
            list.spares.push(buf);
        }
    }
}

/// The owner-side adaptive shard: a [`PolicyCache`] deciding which rows
/// of this rank's slice stay resident, plus the materialized rows for
/// nodes the dynamic policy admitted beyond the static warm start.
/// Mutated only by the owning loader thread in deterministic query
/// order, so its decision stream is schedule-independent.
struct DynamicShard {
    cache: PolicyCache,
    /// Rows admitted at runtime (the warm-start rows stay in the shared
    /// `PartitionedCache` storage and are never dropped from it — the
    /// resident set in `cache` is what says whether they still count).
    admitted_rows: HashMap<NodeId, Vec<f32>>,
}

/// Where a lost shard's background rebuild stands at a given batch — a
/// pure function of `(rebuild schedule, batch)`, so a retried batch
/// observes exactly the state the first attempt did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildStatus {
    /// Shard contents gone and no rebuild in flight yet: every query
    /// against the shard degrades to a UVA cold fetch.
    Lost,
    /// Background repopulation in flight through the prefetch lane.
    /// The shard keeps answering every query with a miss until whole —
    /// partially rebuilt rows are not served, which keeps hit/miss
    /// streams (and therefore traffic) a pure function of the batch.
    Recovering {
        /// First batch at which the shard serves hits again.
        healthy_at: u64,
    },
    /// Rebuild complete; the shard serves hits as before the loss.
    Healthy {
        /// Batch the shard became whole at.
        since: u64,
    },
}

/// Rows repopulated per batch while a rebuild is in flight: an eighth
/// of the shard (rounded up) per batch, so the rebuild rides the
/// prefetch lane's PCIe budget as a bounded stream rather than one
/// burst that starves demand fetches.
pub fn rebuild_rows_per_batch(cached_rows: u64) -> u64 {
    cached_rows.div_ceil(8).max(1)
}

/// Where `rank`'s shard rebuild stands at `batch`, given the cluster's
/// installed fault hook and the shard's row count; `None` when the
/// shard was never lost. Pure in `batch`, so the training loader and
/// the serving fetcher — which key on different batch streams — both
/// observe a consistent `Lost → Recovering → Healthy` progression.
pub fn shard_rebuild_status(
    cluster: &Cluster,
    rank: usize,
    cached_rows: u64,
    batch: u64,
) -> Option<RebuildStatus> {
    let hook = cluster.fault_hook()?;
    if !hook.cache_shard_lost(rank) {
        return None;
    }
    let start = match hook.shard_rebuild_from(rank) {
        Some(s) => s,
        None => return Some(RebuildStatus::Lost),
    };
    if batch < start {
        return Some(RebuildStatus::Lost);
    }
    let healthy_at = start
        + cached_rows
            .div_ceil(rebuild_rows_per_batch(cached_rows))
            .max(1);
    if batch >= healthy_at {
        Some(RebuildStatus::Healthy { since: healthy_at })
    } else {
        Some(RebuildStatus::Recovering { healthy_at })
    }
}

/// Common loader interface: fetch the feature rows of `nodes` (assumed
/// deduplicated — the sampler's input set already is).
pub trait FeatureLoader {
    /// Loads features for `nodes` into a row-per-node matrix.
    fn load(&mut self, clock: &mut Clock, nodes: &[NodeId]) -> Matrix;

    /// Shared statistics.
    fn stats(&self) -> &LoaderStats;
}

/// DSP's loader: all-to-all over NVLink for rows cached in the
/// aggregate partitioned cache, UVA for cold rows, the two paths
/// overlapped (§3.2, §6).
pub struct DspLoader {
    cache: Arc<PartitionedCache>,
    host: Arc<Features>,
    cluster: Arc<Cluster>,
    comm: Arc<Communicator>,
    rank: usize,
    stats: Arc<LoaderStats>,
    /// Runtime policy over this rank's cache slice; `None` keeps the
    /// exact static code path (zero overhead, the default).
    dynamic: Option<DynamicShard>,
    /// Set when a staged window could not cover its batch's cold rows
    /// (shard loss pushed demand fetches past the prediction); the
    /// pipeline drains it into the fault report.
    window_dropped: bool,
    /// Where the batch feature matrices come from and go back to.
    buffers: FeatureBuffers,
}

impl DspLoader {
    /// Creates the loader for `rank`; all ranks share `cache` and `comm`.
    pub fn new(
        cache: Arc<PartitionedCache>,
        host: Arc<Features>,
        cluster: Arc<Cluster>,
        comm: Arc<Communicator>,
        rank: usize,
    ) -> Self {
        let stats = Arc::new(LoaderStats::default());
        DspLoader {
            cache,
            host,
            cluster,
            comm,
            rank,
            stats,
            dynamic: None,
            window_dropped: false,
            buffers: FeatureBuffers::default(),
        }
    }

    /// Puts this rank's cache slice under `policy`: capacity is the
    /// slice's row count, warm-started from the static hot order, so a
    /// never-admitting policy reproduces the static cache exactly.
    pub fn with_dynamic_policy(mut self, policy: Box<dyn DynamicPolicy>) -> Self {
        let mut cache = PolicyCache::new(self.cache.cached_rows(self.rank), policy);
        cache.seed(&self.cache.cached_nodes(self.rank));
        self.dynamic = Some(DynamicShard {
            cache,
            admitted_rows: HashMap::new(),
        });
        self
    }

    /// Forwards per-epoch shadow-pass scores to the dynamic policy (a
    /// no-op for policies that don't use them, or without one).
    pub fn set_policy_scores(&mut self, scores: &HashMap<NodeId, u64>) {
        if let Some(d) = self.dynamic.as_mut() {
            d.cache.set_scores(scores);
        }
    }

    /// The dynamic shard's accounting, when a policy is installed.
    pub fn dynamic_stats(&self) -> Option<CacheStats> {
        self.dynamic.as_ref().map(|d| d.cache.stats())
    }

    /// Hash of the dynamic shard's decision stream, when a policy is
    /// installed (the cross-run determinism witness).
    pub fn dynamic_decision_hash(&self) -> Option<u64> {
        self.dynamic.as_ref().map(|d| d.cache.decision_hash())
    }

    /// A handle on this rank's feature-buffer free list, for whoever
    /// launches epochs ([`FeatureBuffers::prepare`]) and whoever
    /// consumes the loaded matrices ([`FeatureBuffers::give_back`]).
    pub fn feature_buffers(&self) -> FeatureBuffers {
        self.buffers.clone()
    }

    /// Takes (and clears) the dropped-window flag.
    pub fn take_window_dropped(&mut self) -> bool {
        std::mem::take(&mut self.window_dropped)
    }

    /// Fallible [`FeatureLoader::load`]: surfaces collective failures
    /// (dead peer, deadlock timeout) instead of panicking, for the
    /// supervised pipeline. A lost cache shard (fault hook) degrades
    /// gracefully — its rows simply miss and fall to the UVA cold path.
    /// Trace wrapper: on error, spans opened by the failed stage are
    /// closed at the failure time so retries keep the stream balanced.
    /// Batch-keyed behavior (shard rebuild progress) sees batch 0; use
    /// [`Self::try_load_windowed`] from the pipeline.
    pub fn try_load(&mut self, clock: &mut Clock, nodes: &[NodeId]) -> Result<Matrix, CommError> {
        self.try_load_windowed(clock, nodes, None, 0)
    }

    /// [`Self::try_load`] with an optional prefetched window (cold rows
    /// the window covers are charged an HBM copy instead of a demand
    /// UVA read — their PCIe time is on the prefetcher's clock) at a
    /// global `batch` index, which keys the shard-rebuild schedule.
    pub fn try_load_windowed(
        &mut self,
        clock: &mut Clock,
        nodes: &[NodeId],
        window: Option<&PrefetchedWindow>,
        batch: u64,
    ) -> Result<Matrix, CommError> {
        let depth = ds_trace::open_depth();
        let out = self.load_stages(clock, nodes, window, batch);
        if out.is_err() {
            ds_trace::close_open_spans_to(depth, clock.now());
        }
        out
    }

    /// Rows repopulated per batch while a rebuild is in flight.
    fn rebuild_rows_per_batch(&self) -> u64 {
        rebuild_rows_per_batch(self.cache.cached_rows(self.rank) as u64)
    }

    /// Where this rank's shard rebuild stands at `batch`; `None` when
    /// the shard was never lost. Pure in `batch` — retries and replays
    /// observe identical state.
    pub fn rebuild_status(&self, batch: u64) -> Option<RebuildStatus> {
        shard_rebuild_status(
            &self.cluster,
            self.rank,
            self.cache.cached_rows(self.rank) as u64,
            batch,
        )
    }

    /// Answers one owner-side query against the dynamic shard, moving
    /// rows as the policy dictates. Returns the resident row, if any.
    fn serve_dynamic<'a>(
        shard: &'a mut DynamicShard,
        cache: &'a PartitionedCache,
        host: &Features,
        rank: usize,
        v: NodeId,
        admitted: &mut u64,
    ) -> Option<&'a [f32]> {
        match shard.cache.access(v) {
            Access::Hit => Some(match shard.admitted_rows.get(&v) {
                Some(row) => row.as_slice(),
                // Still the warm-start copy in the shared storage.
                None => cache.lookup(rank, v).expect("warm resident row"),
            }),
            Access::Miss {
                admitted: true,
                evicted,
            } => {
                if let Some(w) = evicted {
                    shard.admitted_rows.remove(&w);
                }
                shard.admitted_rows.insert(v, host.row(v).to_vec());
                *admitted += 1;
                // Admit-on-miss: the requester still pays the cold path
                // for *this* access; the row serves future batches.
                None
            }
            Access::Miss { .. } => None,
        }
    }

    fn load_stages(
        &mut self,
        clock: &mut Clock,
        nodes: &[NodeId],
        window: Option<&PrefetchedWindow>,
        batch: u64,
    ) -> Result<Matrix, CommError> {
        let dim = self.cache.dim();
        let model = *self.cluster.model();
        let n = self.comm.num_ranks();
        // Partition requested ids by owner (scan kernel).
        clock.work(
            model
                .gpu
                .time_full(nodes.len() as u64, model.scan_cycles_per_item),
        );
        ds_trace::span_begin(clock.now(), "load.hot");
        let mut sends: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut placement = Vec::with_capacity(nodes.len());
        for &v in nodes {
            let o = self.cache.owner(v);
            placement.push((o, sends[o].len() as u32));
            sends[o].push(v);
        }
        // Exchange 1: requested ids (this doubles as the paper's
        // "fetch the positions of features managed by remote GPUs").
        let queries = self.comm.try_all_to_all_v(self.rank, clock, sends, 4)?;
        // Serve hits from the local cache slice (gather kernel). A lost
        // shard on this rank answers every query with a miss (the
        // dynamic policy, if any, is bypassed entirely — its contents
        // are gone with the shard); the requesters' cold path picks the
        // rows up from host memory. Once a scheduled background rebuild
        // completes (`Healthy`), the shard serves again.
        let rebuild = self.rebuild_status(batch);
        let shard_lost = matches!(
            rebuild,
            Some(RebuildStatus::Lost | RebuildStatus::Recovering { .. })
        );
        if let Some(RebuildStatus::Recovering { .. }) = rebuild {
            // One bounded slice of the shard is repopulated from the
            // host store this batch, riding the prefetch lane's PCIe
            // budget alongside (not ahead of) demand cold fetches.
            let rows = self.rebuild_rows_per_batch();
            clock.work_on(
                self.cluster.uva_read(self.rank, rows, dim as u64 * 4),
                ds_simgpu::clock::ResKind::Pcie,
            );
            ds_trace::counter(clock.now(), "recovery", "rebuild_rows", rows as f64);
        }
        let mut local_hits = 0u64;
        let mut admitted = 0u64;
        let mut replies: Vec<(Vec<u8>, Vec<f32>)> = Vec::with_capacity(queries.len());
        for qs in &queries {
            let mut flags = Vec::with_capacity(qs.len());
            let mut rows = Vec::new();
            for &v in qs {
                let row = if shard_lost {
                    None
                } else if let Some(d) = self.dynamic.as_mut() {
                    Self::serve_dynamic(d, &self.cache, &self.host, self.rank, v, &mut admitted)
                } else {
                    self.cache.lookup(self.rank, v)
                };
                match row {
                    Some(row) => {
                        flags.push(1u8);
                        rows.extend_from_slice(row);
                        local_hits += 1;
                    }
                    None => flags.push(0u8),
                }
            }
            replies.push((flags, rows));
        }
        clock.work_on(
            model.gather_time(local_hits, dim as u64 * 4),
            ds_simgpu::clock::ResKind::Hbm,
        );
        if admitted > 0 {
            // Rows the policy admitted are pulled from host memory into
            // the shard now, off the requesters' critical path.
            clock.work_on(
                self.cluster.uva_read(self.rank, admitted, dim as u64 * 4),
                ds_simgpu::clock::ResKind::Pcie,
            );
        }
        // Exchange 2+3: hit flags, then the hot rows (the NVLink path).
        let (flag_sends, row_sends): (Vec<Vec<u8>>, Vec<Vec<f32>>) = replies.into_iter().unzip();
        let recv_flags = self
            .comm
            .try_all_to_all_v(self.rank, clock, flag_sends, 1)?;
        let before_rows = clock.now();
        let recv_rows = self.comm.try_all_to_all_v(self.rank, clock, row_sends, 4)?;
        let nvlink_path = clock.now() - before_rows;
        ds_trace::span_end(clock.now());
        ds_trace::span_begin(clock.now(), "load.cold");

        // Resolve each row's source serially (the per-owner cursors are
        // order-dependent), then gather all rows — hot and cold — on the
        // shared pool in one parallel pass.
        enum RowSrc {
            Hot { owner: usize, start: usize },
            Cold(NodeId),
        }
        let mut row_cursor = vec![0usize; n];
        let mut srcs: Vec<RowSrc> = Vec::with_capacity(nodes.len());
        let mut cold = 0u64;
        let mut staged = 0u64;
        for (i, &v) in nodes.iter().enumerate() {
            let (o, idx) = placement[i];
            if recv_flags[o][idx as usize] == 1 {
                srcs.push(RowSrc::Hot {
                    owner: o,
                    start: row_cursor[o],
                });
                row_cursor[o] += dim;
            } else {
                cold += 1;
                staged += u64::from(window.is_some_and(|w| w.covers(v)));
                srcs.push(RowSrc::Cold(v));
            }
        }
        // Cold path over UVA, overlapped with the NVLink path: the
        // slower of the two determines the elapsed time, so roll back
        // the NVLink row-transfer time if UVA dominates. Staged rows
        // are modelled as already on the device — their PCIe time was
        // charged in the prefetcher's lane, here they are charged an
        // HBM copy — while the host executes the same single gather
        // from the host store for them as for a demand row.
        let demand = cold - staged;
        let uva_time = self.cluster.uva_read(self.rank, demand, dim as u64 * 4);
        if uva_time > nvlink_path {
            clock.work_on(uva_time - nvlink_path, ds_simgpu::clock::ResKind::Pcie);
        }
        if staged > 0 {
            clock.work_on(
                model.gather_time(staged, dim as u64 * 4),
                ds_simgpu::clock::ResKind::Hbm,
            );
        }
        if window.is_some() && demand > 0 {
            // The window was supposed to cover every predicted-cold row;
            // uncovered demand under an active shard-loss fault means
            // the staged window no longer matches reality — report it.
            let lost_anywhere = self
                .cluster
                .fault_hook()
                .is_some_and(|h| (0..n).any(|r| h.cache_shard_lost(r)));
            if lost_anywhere {
                self.window_dropped = true;
            }
        }
        let mut out = self.buffers.take(nodes.len(), dim);
        let host = &self.host;
        par::chunk_map_mut(out.data_mut(), dim, |i, dst| match srcs[i] {
            RowSrc::Hot { owner, start } => {
                dst.copy_from_slice(&recv_rows[owner][start..start + dim])
            }
            RowSrc::Cold(v) => dst.copy_from_slice(host.row(v)),
        });
        let hits = nodes.len() as u64 - cold;
        self.stats.add(hits, cold);
        self.stats
            .prefetch_hits
            .fetch_add(staged, Ordering::Relaxed);
        ds_trace::span_end(clock.now());
        ds_trace::counter(clock.now(), "cache", "hits", hits as f64);
        ds_trace::counter(clock.now(), "cache", "cold", cold as f64);
        if window.is_some() {
            ds_trace::counter(clock.now(), "cache", "prefetch_hits", staged as f64);
        }
        Ok(out)
    }
}

impl FeatureLoader for DspLoader {
    fn load(&mut self, clock: &mut Clock, nodes: &[NodeId]) -> Matrix {
        self.try_load(clock, nodes)
            .unwrap_or_else(|e| panic!("feature load failed: {e}"))
    }

    fn stats(&self) -> &LoaderStats {
        &self.stats
    }
}

/// Quiver's loader: check the local replicated cache, fetch misses from
/// host memory via UVA.
pub struct ReplicatedLoader {
    cache: Arc<ReplicatedCache>,
    host: Arc<Features>,
    cluster: Arc<Cluster>,
    rank: usize,
    stats: Arc<LoaderStats>,
}

impl ReplicatedLoader {
    /// Creates the loader for `rank`.
    pub fn new(
        cache: Arc<ReplicatedCache>,
        host: Arc<Features>,
        cluster: Arc<Cluster>,
        rank: usize,
    ) -> Self {
        ReplicatedLoader {
            cache,
            host,
            cluster,
            rank,
            stats: Arc::new(LoaderStats::default()),
        }
    }
}

impl FeatureLoader for ReplicatedLoader {
    fn load(&mut self, clock: &mut Clock, nodes: &[NodeId]) -> Matrix {
        let dim = self.cache.dim();
        let model = *self.cluster.model();
        let mut out = Matrix::zeros(nodes.len(), dim);
        let (cache, host) = (&self.cache, &self.host);
        // One pooled pass: each chunk gathers its row and reports
        // hit/miss; the per-chunk counts are summed in chunk order.
        let hits: u64 =
            par::chunk_map_mut(out.data_mut(), dim, |i, dst| match cache.lookup(nodes[i]) {
                Some(row) => {
                    dst.copy_from_slice(row);
                    1u64
                }
                None => {
                    dst.copy_from_slice(host.row(nodes[i]));
                    0u64
                }
            })
            .into_iter()
            .sum();
        let cold = nodes.len() as u64 - hits;
        clock.work_on(
            model.gather_time(hits, dim as u64 * 4),
            ds_simgpu::clock::ResKind::Hbm,
        );
        clock.work_on(
            self.cluster.uva_read(self.rank, cold, dim as u64 * 4),
            ds_simgpu::clock::ResKind::Pcie,
        );
        self.stats.add(hits, cold);
        out
    }

    fn stats(&self) -> &LoaderStats {
        &self.stats
    }
}

/// DGL-UVA's loader: every row comes from host memory via UVA (the
/// paper disables its cache because features must fit a single GPU).
pub struct HostLoader {
    host: Arc<Features>,
    cluster: Arc<Cluster>,
    rank: usize,
    stats: Arc<LoaderStats>,
}

impl HostLoader {
    /// Creates the loader for `rank`.
    pub fn new(host: Arc<Features>, cluster: Arc<Cluster>, rank: usize) -> Self {
        HostLoader {
            host,
            cluster,
            rank,
            stats: Arc::new(LoaderStats::default()),
        }
    }
}

impl FeatureLoader for HostLoader {
    fn load(&mut self, clock: &mut Clock, nodes: &[NodeId]) -> Matrix {
        let dim = self.host.dim();
        clock.work_on(
            self.cluster
                .uva_read(self.rank, nodes.len() as u64, dim as u64 * 4),
            ds_simgpu::clock::ResKind::Pcie,
        );
        let mut out = Matrix::zeros(nodes.len(), dim);
        let host = &self.host;
        par::chunk_map_mut(out.data_mut(), dim, |i, dst| {
            dst.copy_from_slice(host.row(nodes[i]))
        });
        self.stats.add(0, nodes.len() as u64);
        out
    }

    fn stats(&self) -> &LoaderStats {
        &self.stats
    }
}

/// The CPU systems' loader (PyG, DGL-CPU): gather rows into a staging
/// buffer on the host, then one bulk PCIe copy (no TLP amplification —
/// the copy is sequential — but host DRAM time and PCIe time add up).
pub struct CpuLoader {
    host: Arc<Features>,
    cluster: Arc<Cluster>,
    rank: usize,
    /// Gather-bandwidth derating for Python-side collation (PyG ~0.5,
    /// DGL's C++ dataloader 1.0).
    gather_efficiency: f64,
    stats: Arc<LoaderStats>,
}

impl CpuLoader {
    /// Creates the loader for `rank` with full native gather efficiency.
    pub fn new(host: Arc<Features>, cluster: Arc<Cluster>, rank: usize) -> Self {
        CpuLoader {
            host,
            cluster,
            rank,
            gather_efficiency: 1.0,
            stats: Arc::new(LoaderStats::default()),
        }
    }

    /// Derates the host gather bandwidth (Python collation overhead).
    pub fn with_gather_efficiency(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0);
        self.gather_efficiency = eff;
        self
    }
}

impl FeatureLoader for CpuLoader {
    fn load(&mut self, clock: &mut Clock, nodes: &[NodeId]) -> Matrix {
        let dim = self.host.dim();
        let model = *self.cluster.model();
        let bytes = nodes.len() as u64 * dim as u64 * 4;
        // Host-side gather through the framework dataloader: cache-missy
        // row reads plus a staging write, far below DRAM peak.
        self.cluster
            .device(self.rank)
            .meter
            .record(ds_simgpu::Link::HostDram, 2 * bytes);
        clock.work(2.0 * bytes as f64 / (model.cpu.host_gather_bw * self.gather_efficiency));
        // H2D copy from pageable memory (the CPU dataloader path does
        // not pin buffers), bounded also by the shared PCIe switch.
        let bw = model
            .cpu
            .pageable_pcie_bw
            .min(self.cluster.topology().pcie_bw(self.rank));
        self.cluster
            .device(self.rank)
            .meter
            .record(ds_simgpu::Link::Pcie, bytes);
        clock.work_on(
            ds_simgpu::topology::TRANSFER_LATENCY + bytes as f64 / bw,
            ds_simgpu::clock::ResKind::Pcie,
        );
        let mut out = Matrix::zeros(nodes.len(), dim);
        let host = &self.host;
        par::chunk_map_mut(out.data_mut(), dim, |i, dst| {
            dst.copy_from_slice(host.row(nodes[i]))
        });
        self.stats.add(0, nodes.len() as u64);
        out
    }

    fn stats(&self) -> &LoaderStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CachePolicy;
    use ds_graph::gen;
    use ds_simgpu::ClusterSpec;

    fn setup(n: usize, dim: usize) -> (Arc<Features>, Vec<NodeId>) {
        let f = Features::from_raw(dim, (0..n * dim).map(|i| (i % 97) as f32).collect());
        let g = gen::erdos_renyi(n, n * 8, true, 5);
        let order = CachePolicy::InDegree.rank_nodes(&g);
        (Arc::new(f), order)
    }

    #[test]
    fn host_loader_returns_exact_rows_and_meters_uva() {
        let (f, _) = setup(64, 8);
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let mut l = HostLoader::new(Arc::clone(&f), Arc::clone(&cluster), 0);
        let mut clock = Clock::new();
        let m = l.load(&mut clock, &[3, 10, 63]);
        assert_eq!(m.row(0), f.row(3));
        assert_eq!(m.row(2), f.row(63));
        assert!(cluster.device(0).meter.pcie_bytes() > 0);
        assert_eq!(l.stats().cold_fetches.load(Ordering::Relaxed), 3);
        assert_eq!(l.stats().hit_rate(), 0.0);
    }

    #[test]
    fn replicated_loader_hits_reduce_uva() {
        let (f, order) = setup(64, 8);
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        // Cache half the rows.
        let cache = Arc::new(ReplicatedCache::build(&f, &order, 32 * 32));
        let mut l = ReplicatedLoader::new(cache, Arc::clone(&f), Arc::clone(&cluster), 0);
        let mut clock = Clock::new();
        let nodes: Vec<NodeId> = (0..64).collect();
        let m = l.load(&mut clock, &nodes);
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(m.row(i), f.row(v));
        }
        assert_eq!(l.stats().cache_hits.load(Ordering::Relaxed), 32);
        assert_eq!(l.stats().cold_fetches.load(Ordering::Relaxed), 32);
        assert!((l.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cpu_loader_uses_bulk_pcie_without_amplification() {
        let (f, _) = setup(32, 16);
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let mut l = CpuLoader::new(Arc::clone(&f), Arc::clone(&cluster), 0);
        let mut clock = Clock::new();
        l.load(&mut clock, &[0, 1, 2, 3]);
        // Exactly the useful bytes on PCIe.
        assert_eq!(cluster.device(0).meter.pcie_bytes(), 4 * 16 * 4);
        assert_eq!(cluster.device(0).meter.uva_requests(), 0);
    }

    #[test]
    fn lost_shard_degrades_to_cold_fetches_with_exact_rows() {
        let (f, _) = setup(100, 4);
        let ranges = vec![0u32..50, 50u32..100];
        let order: Vec<NodeId> = (0..10).chain(50..60).collect();
        let cache = Arc::new(PartitionedCache::build(&f, &ranges, &order, 10 * 16));
        let cluster = Arc::new(ClusterSpec::v100(2).build());
        // Rank 1's shard is gone: its hot rows must silently become
        // cold fetches everywhere; results stay exact.
        struct ShardLoss;
        impl ds_simgpu::FaultHook for ShardLoss {
            fn cache_shard_lost(&self, rank: usize) -> bool {
                rank == 1
            }
        }
        assert!(cluster.install_fault_hook(Arc::new(ShardLoss)));
        let comm = Arc::new(Communicator::new(32, Arc::clone(&cluster)));
        let f0 = Arc::clone(&f);
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let cache = Arc::clone(&cache);
                let f = Arc::clone(&f);
                let cluster = Arc::clone(&cluster);
                let comm = Arc::clone(&comm);
                std::thread::spawn(move || {
                    let mut l = DspLoader::new(cache, f, cluster, comm, rank);
                    let mut clock = Clock::new();
                    // Node 55 is hot in rank 1's (lost) shard; node 3 is
                    // hot in rank 0's (healthy) shard.
                    let m = l.try_load(&mut clock, &[3, 55]).unwrap();
                    let hits = l.stats().cache_hits.load(Ordering::Relaxed);
                    let cold = l.stats().cold_fetches.load(Ordering::Relaxed);
                    (m, hits, cold)
                })
            })
            .collect();
        for h in handles {
            let (m, hits, cold) = h.join().unwrap();
            assert_eq!(m.row(0), f0.row(3));
            assert_eq!(m.row(1), f0.row(55));
            assert_eq!(hits, 1, "only the healthy shard serves");
            assert_eq!(cold, 1, "lost-shard row degrades to UVA");
        }
    }

    #[test]
    fn shard_rebuild_walks_lost_recovering_healthy_and_serves_again() {
        let (f, _) = setup(100, 4);
        let ranges = vec![0u32..50, 50u32..100];
        let order: Vec<NodeId> = (0..10).chain(50..60).collect();
        let cache = Arc::new(PartitionedCache::build(&f, &ranges, &order, 10 * 16));
        let cluster = Arc::new(ClusterSpec::v100(2).build());
        // Rank 1 loses its shard; a background rebuild starts at batch 2.
        struct LossThenRebuild;
        impl ds_simgpu::FaultHook for LossThenRebuild {
            fn cache_shard_lost(&self, rank: usize) -> bool {
                rank == 1
            }
            fn shard_rebuild_from(&self, rank: usize) -> Option<u64> {
                (rank == 1).then_some(2)
            }
        }
        assert!(cluster.install_fault_hook(Arc::new(LossThenRebuild)));
        let comm = Arc::new(Communicator::new(33, Arc::clone(&cluster)));
        let f0 = Arc::clone(&f);
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let cache = Arc::clone(&cache);
                let f = Arc::clone(&f);
                let cluster = Arc::clone(&cluster);
                let comm = Arc::clone(&comm);
                std::thread::spawn(move || {
                    let mut l = DspLoader::new(cache, f, cluster, comm, rank);
                    // 10 cached rows, ceil(10/8)=2 per batch => 5 rebuild
                    // batches: healthy_at = 2 + 5 = 7.
                    let statuses: Vec<_> =
                        [0, 2, 6, 7].iter().map(|&b| l.rebuild_status(b)).collect();
                    // Node 55 is hot in rank 1's shard. Degraded at batch
                    // 3 (mid-rebuild), hot again at batch 7.
                    let mut clock = Clock::new();
                    let mid = l.try_load_windowed(&mut clock, &[55], None, 3).unwrap();
                    let mid_hits = l.stats().cache_hits.load(Ordering::Relaxed);
                    let healed = l.try_load_windowed(&mut clock, &[55], None, 7).unwrap();
                    let hits = l.stats().cache_hits.load(Ordering::Relaxed);
                    (statuses, mid, mid_hits, healed, hits)
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            let (statuses, mid, mid_hits, healed, hits) = h.join().unwrap();
            if rank == 1 {
                assert_eq!(
                    statuses,
                    vec![
                        Some(RebuildStatus::Lost),
                        Some(RebuildStatus::Recovering { healthy_at: 7 }),
                        Some(RebuildStatus::Recovering { healthy_at: 7 }),
                        Some(RebuildStatus::Healthy { since: 7 }),
                    ]
                );
            } else {
                assert_eq!(statuses, vec![None; 4], "rank 0's shard was never lost");
            }
            // Rows are exact in both modes; the shard serves hits again
            // only after the rebuild completes.
            assert_eq!(mid.row(0), f0.row(55));
            assert_eq!(healed.row(0), f0.row(55));
            assert_eq!(mid_hits, 0, "degraded while recovering");
            assert_eq!(hits, 1, "healthy shard serves hits again");
        }
    }

    #[test]
    fn dynamic_lru_shard_admits_on_miss_then_serves_hits() {
        let (f, _) = setup(64, 8);
        let ranges = vec![0u32..64];
        let order: Vec<NodeId> = (0..8).collect();
        let cache = Arc::new(PartitionedCache::build(&f, &ranges, &order, 8 * 32));
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let comm = Arc::new(Communicator::new(40, Arc::clone(&cluster)));
        let mut l = DspLoader::new(cache, Arc::clone(&f), cluster, comm, 0)
            .with_dynamic_policy(crate::dynamic::DynamicPolicyKind::Lru.build());
        let mut clock = Clock::new();
        // First touch: 20 and 21 miss (admit-on-miss pays cold now).
        let m = l.try_load(&mut clock, &[20, 21]).unwrap();
        assert_eq!(m.row(0), f.row(20));
        assert_eq!(m.row(1), f.row(21));
        assert_eq!(l.stats().cold_fetches.load(Ordering::Relaxed), 2);
        // Second touch: both were admitted, now they hit.
        let m = l.try_load(&mut clock, &[20, 21]).unwrap();
        assert_eq!(m.row(0), f.row(20));
        assert_eq!(l.stats().cache_hits.load(Ordering::Relaxed), 2);
        let ds = l.dynamic_stats().unwrap();
        assert_eq!((ds.accesses, ds.hits, ds.insertions), (4, 2, 2));
        assert!(l.dynamic_decision_hash().is_some());
    }

    #[test]
    fn static_dynamic_policy_is_identical_to_no_policy() {
        let (f, _) = setup(64, 8);
        let ranges = vec![0u32..64];
        let order: Vec<NodeId> = (0..8).collect();
        let cache = Arc::new(PartitionedCache::build(&f, &ranges, &order, 8 * 32));
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let nodes: Vec<NodeId> = vec![0, 5, 20, 40, 5, 0];
        let run = |dynamic: bool| {
            let comm = Arc::new(Communicator::new(41, Arc::clone(&cluster)));
            let mut l = DspLoader::new(
                Arc::clone(&cache),
                Arc::clone(&f),
                Arc::clone(&cluster),
                comm,
                0,
            );
            if dynamic {
                l = l.with_dynamic_policy(crate::dynamic::DynamicPolicyKind::StaticDegree.build());
            }
            let mut clock = Clock::new();
            let mut rows = Vec::new();
            for chunk in nodes.chunks(2) {
                let mut c = chunk.to_vec();
                c.sort_unstable();
                c.dedup();
                rows.push(l.try_load(&mut clock, &c).unwrap());
            }
            (
                rows.iter()
                    .flat_map(|m| m.data().to_vec())
                    .collect::<Vec<f32>>(),
                l.stats().cache_hits.load(Ordering::Relaxed),
                l.stats().cold_fetches.load(Ordering::Relaxed),
                clock.now(),
            )
        };
        assert_eq!(run(false), run(true), "StaticDegree must change nothing");
    }

    #[test]
    fn prefetched_window_turns_cold_rows_into_staged_hits() {
        let (f, _) = setup(64, 8);
        let mut l = single_rank_loader(&f, 42);
        // The window carries ids only: the rows below can only have
        // come from the host store.
        let w = PrefetchedWindow::new(0, vec![30, 40]);
        let mut clock = Clock::new();
        let m = l
            .try_load_windowed(&mut clock, &[3, 30, 40], Some(&w), 0)
            .unwrap();
        assert_eq!(m.row(0), f.row(3));
        assert_eq!(m.row(1), f.row(30));
        assert_eq!(m.row(2), f.row(40));
        // 30 and 40 are cold but covered: counted cold (the bytes did
        // cross PCIe, in the prefetch lane) *and* as prefetch hits.
        assert_eq!(l.stats().cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(l.stats().cold_fetches.load(Ordering::Relaxed), 2);
        assert_eq!(l.stats().prefetch_hits.load(Ordering::Relaxed), 2);
        assert!(!l.take_window_dropped());
    }

    /// One rank, 64 nodes, nodes 0..8 cached.
    fn single_rank_loader(f: &Arc<Features>, comm_id: u32) -> DspLoader {
        let order: Vec<NodeId> = (0..8).collect();
        let budget = 8 * f.row_bytes().max(1);
        let cache = Arc::new(PartitionedCache::build(f, &[0u32..64], &order, budget));
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let comm = Arc::new(Communicator::new(comm_id, Arc::clone(&cluster)));
        DspLoader::new(cache, Arc::clone(f), cluster, comm, 0)
    }

    fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
        let data = m.data().iter().map(|x| x.to_bits()).collect();
        (m.rows(), m.cols(), data)
    }

    #[test]
    fn recycled_buffers_never_leak_stale_rows() {
        let all: Vec<NodeId> = (0..64).collect();
        let window = PrefetchedWindow::new(0, vec![30, 40]);
        // (nodes, window): hot-only, cold-only, windowed, and the split
        // shape (only a block's dst rows, a short hot/cold mix).
        let cases: [(&[NodeId], Option<&PrefetchedWindow>); 4] = [
            (&[0, 3, 5], None),
            (&[20, 30, 40, 50], None),
            (&[3, 30, 40], Some(&window)),
            (&[1, 33], None),
        ];
        // What came back before the load under test: a NaN-filled
        // buffer last used for a larger batch, one last used for a
        // smaller batch, or nothing (both prepared buffers still out).
        let returned: [Option<&[NodeId]>; 3] = [Some(&all), Some(&[7]), None];
        for dim in [8usize, 0] {
            let f = Arc::new(if dim == 0 {
                Features::zeros(64, 0)
            } else {
                Features::from_raw(dim, (0..64 * dim).map(|i| (i % 97) as f32).collect())
            });
            for (nodes, w) in cases {
                let mut clock = Clock::new();
                let fresh = single_rank_loader(&f, 50)
                    .try_load_windowed(&mut clock, nodes, w, 0)
                    .unwrap();
                for stale_nodes in returned {
                    let what = format!("dim {dim} {nodes:?} after {stale_nodes:?}");
                    let mut l = single_rank_loader(&f, 51);
                    let buffers = l.feature_buffers();
                    // An epoch has run (so the list knows its size) and
                    // the next one is being launched.
                    l.try_load(&mut clock, &all).unwrap();
                    buffers.prepare();
                    let mut held = Vec::new();
                    let stale_at = match stale_nodes {
                        Some(stale_nodes) => {
                            let mut stale = l.try_load(&mut clock, stale_nodes).unwrap();
                            stale.data_mut().fill(f32::NAN);
                            let at = stale.data().as_ptr();
                            buffers.give_back(stale);
                            Some(at)
                        }
                        None => {
                            held.extend((0..SPARE_BUFFERS).map(|_| l.try_load(&mut clock, &all)));
                            None
                        }
                    };
                    let got = l.try_load_windowed(&mut clock, nodes, w, 0).unwrap();
                    if let (Some(at), true) = (stale_at, dim > 0) {
                        assert_eq!(got.data().as_ptr(), at, "{what}: buffer not reused");
                    }
                    assert_eq!(bits(&got), bits(&fresh), "{what}");
                }
            }
        }
    }

    #[test]
    fn free_list_pools_only_what_prepare_allocated() {
        let (f, _) = setup(64, 8);
        let mut l = single_rank_loader(&f, 52);
        let buffers = l.feature_buffers();
        let mut clock = Clock::new();
        let all: Vec<NodeId> = (0..64).collect();
        // Before any prepare, and before prepare has seen a batch,
        // nothing is pooled: a worker's own allocation is dropped.
        buffers.prepare();
        let m = l.try_load(&mut clock, &all[..32]).unwrap();
        buffers.give_back(m);
        assert!(buffers.lock().spares.is_empty());
        // Sized for the largest batch seen plus an eighth, two deep.
        buffers.prepare();
        assert_eq!(buffers.lock().capacity, 32 * 8 + 32);
        assert_eq!(buffers.lock().spares.len(), SPARE_BUFFERS);
        // A batch that outgrows the prepared capacity gets a plain
        // matrix, not pooled on return; the next prepare resizes.
        let big = l.try_load(&mut clock, &all).unwrap();
        buffers.give_back(big);
        assert_eq!(buffers.lock().spares.len(), SPARE_BUFFERS);
        buffers.prepare();
        assert_eq!(buffers.lock().capacity, 64 * 8 + 64);
        // At most two spares are kept however many come back.
        let held: Vec<Matrix> = (0..3)
            .map(|_| l.try_load(&mut clock, &all).unwrap())
            .collect();
        held.into_iter().for_each(|m| buffers.give_back(m));
        assert_eq!(buffers.lock().spares.len(), SPARE_BUFFERS);
    }

    #[test]
    fn dsp_loader_collects_hot_remote_and_cold_rows() {
        // Two ranks, node i's features owned by range halves.
        let (f, _) = setup(100, 4);
        let ranges = vec![0u32..50, 50u32..100];
        // Cache only the first 10 nodes of each range.
        let order: Vec<NodeId> = (0..10).chain(50..60).collect();
        let cache = Arc::new(PartitionedCache::build(&f, &ranges, &order, 10 * 16));
        let cluster = Arc::new(ClusterSpec::v100(2).build());
        let comm = Arc::new(Communicator::new(31, Arc::clone(&cluster)));
        let f0 = Arc::clone(&f);
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let cache = Arc::clone(&cache);
                let f = Arc::clone(&f);
                let cluster = Arc::clone(&cluster);
                let comm = Arc::clone(&comm);
                std::thread::spawn(move || {
                    let mut l = DspLoader::new(cache, f, cluster, comm, rank);
                    let mut clock = Clock::new();
                    // Each rank requests a mix: local hot, remote hot, cold.
                    let nodes: Vec<NodeId> = if rank == 0 {
                        vec![0, 55, 90] // local hot, remote hot, cold
                    } else {
                        vec![52, 3, 20] // local hot, remote hot, cold
                    };
                    let m = l.load(&mut clock, &nodes);
                    let hits = l.stats().cache_hits.load(Ordering::Relaxed);
                    let cold = l.stats().cold_fetches.load(Ordering::Relaxed);
                    (nodes, m, hits, cold, clock.now())
                })
            })
            .collect();
        for h in handles {
            let (nodes, m, hits, cold, t) = h.join().unwrap();
            for (i, &v) in nodes.iter().enumerate() {
                assert_eq!(m.row(i), f0.row(v), "row for node {v}");
            }
            assert_eq!(hits, 2);
            assert_eq!(cold, 1);
            assert!(t > 0.0);
        }
    }
}
