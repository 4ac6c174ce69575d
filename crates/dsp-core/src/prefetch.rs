//! Epoch-ahead feature prefetching.
//!
//! The sampling schedule is deterministic — the seeds of every batch
//! are fixed by the seed schedule, and each draw is keyed on `(seed,
//! batch, layer, node)` — so the input set of a *future* batch is
//! computable without running the real pipeline. The [`Prefetcher`] is
//! a fourth worker per rank that replays the sampling stream a bounded
//! window ahead of the loader (the queue capacity *is* the window),
//! charges the UVA pull of the rows the static cache will miss to its
//! own clock, and hands their ids downstream. What is *modelled*: the
//! rows cross PCIe in the prefetch lane, so the loader's cold path
//! pays an HBM copy for them instead of the demand UVA read — the part
//! of the §3.2 loader that sits on the critical path when the NVLink
//! path is fast moves into a lane that overlaps compute. What the host
//! *executes*: host memory is one address space in the simulator, so
//! the window carries no bytes and each row is gathered once, by the
//! loader, straight into the batch's feature matrix.
//!
//! Faults need no special handling here: the prefetcher runs no
//! collectives (nothing to wedge), and if it dies the loader's window
//! pops return `None` and every cold row falls back to a demand fetch.

use ds_cache::{PartitionedCache, PrefetchedWindow};
use ds_graph::NodeId;
use ds_sampling::csp::CspConfig;
use ds_sampling::shadow::shadow_batch;
use ds_sampling::DistGraph;
use ds_simgpu::{Clock, Cluster};
use std::sync::Arc;

/// Replays the deterministic sampling stream ahead of the pipeline and
/// stages (in the model) the feature rows the static cache will miss.
pub struct Prefetcher {
    graph: Arc<DistGraph>,
    cfg: CspConfig,
    cache: Arc<PartitionedCache>,
    cluster: Arc<Cluster>,
    rank: usize,
}

impl Prefetcher {
    /// Creates the prefetcher for `rank`, sharing the layout the real
    /// sampler and loader use.
    pub fn new(
        graph: Arc<DistGraph>,
        cfg: CspConfig,
        cache: Arc<PartitionedCache>,
        cluster: Arc<Cluster>,
        rank: usize,
    ) -> Self {
        Prefetcher {
            graph,
            cfg,
            cache,
            cluster,
            rank,
        }
    }

    /// Builds the staged window for global batch index `batch` seeded by
    /// `seeds`: shadow-replay the draws (launch-overhead-bound compute,
    /// no communication), then charge the UVA pull of every input row
    /// the static cache does not hold. The replay's adjacency reads are
    /// folded into the kernel charge — the shadow pass touches topology,
    /// not features, so its traffic is a rounding error next to the rows.
    pub fn fetch_window(
        &self,
        clock: &mut Clock,
        batch: u64,
        seeds: &[NodeId],
    ) -> PrefetchedWindow {
        let model = *self.cluster.model();
        let shadow = shadow_batch(&self.graph, &self.cfg, batch, seeds);
        clock.work(
            model
                .gpu
                .time_full(shadow.sampled_edges, model.sample_cycles_per_item),
        );
        let cold: Vec<NodeId> = shadow
            .input_nodes
            .into_iter()
            .filter(|&v| !self.cache.is_cached(v))
            .collect();
        let t = self
            .cluster
            .uva_read(self.rank, cold.len() as u64, self.cache.dim() as u64 * 4);
        clock.work_on(t, ds_simgpu::clock::ResKind::Pcie);
        ds_trace::counter(clock.now(), "prefetch", "rows", cold.len() as f64);
        PrefetchedWindow::new(batch, cold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_cache::policy::CachePolicy;
    use ds_graph::{gen, Features};
    use ds_simgpu::ClusterSpec;

    #[test]
    fn window_covers_exactly_the_uncached_input_rows() {
        let g = gen::erdos_renyi(200, 3000, true, 9);
        let f = Features::from_raw(8, (0..200 * 8).map(|i| i as f32).collect());
        let order = CachePolicy::InDegree.rank_nodes(&g);
        let cache = Arc::new(PartitionedCache::build(
            &f,
            &[0u32..200],
            &order,
            20 * 32, // 20 rows
        ));
        let dg = Arc::new(DistGraph::single(&g));
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let cfg = CspConfig::node_wise(vec![4, 3]);
        let pf = Prefetcher::new(Arc::clone(&dg), cfg.clone(), Arc::clone(&cache), cluster, 0);
        let mut clock = Clock::new();
        let seeds: Vec<NodeId> = vec![3, 77, 150];
        let w = pf.fetch_window(&mut clock, 0, &seeds);
        assert_eq!(w.batch(), 0);
        let shadow = shadow_batch(&dg, &cfg, 0, &seeds);
        // Exact cover: every uncached input row, nothing else. (That
        // the rows delivered for a covered id equal the host's is the
        // loader's to assert — the window carries no bytes.)
        for &v in &shadow.input_nodes {
            assert_eq!(w.covers(v), !cache.is_cached(v), "node {v}");
        }
        let uncached = shadow.input_nodes.iter().filter(|&&v| !cache.is_cached(v));
        assert_eq!(w.len(), uncached.count(), "window holds foreign ids");
        assert!(clock.now() > 0.0, "replay and UVA pull charge time");
    }
}
