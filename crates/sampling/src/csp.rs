//! The Collective Sampling Primitive (§4).
//!
//! CSP samples layer by layer; each layer runs three stages across all
//! GPUs:
//!
//! 1. **shuffle** — every frontier node (with its requested neighbor
//!    count) is sent to the GPU owning its adjacency list;
//! 2. **sample** — each GPU samples the requested neighbors for all the
//!    frontier nodes it received, in one fused kernel;
//! 3. **reshuffle** — sampled neighbors travel back to the requesting
//!    GPU, which assembles the layer and derives the next frontier.
//!
//! The *task push* paradigm transfers one `(node, count)` pair per
//! frontier node and `fanout` ids back — far less than pulling whole
//! adjacency (and weight) lists, which is the entire Fig. 1 / Fig. 11
//! argument.
//!
//! Sampling randomness is derived per `(seed, batch, layer, node)`, so
//! the constructed graph samples are identical regardless of how many
//! GPUs participate or which system runs the sampler. This makes the
//! paper's correctness claim (§7.1: accuracy-vs-batch curves of all
//! systems overlap) checkable exactly in integration tests.

use crate::dist_graph::DistGraph;
use crate::local::{self, DrawParams};
use crate::sample::{next_dst, GraphSample, SampleLayer};
use crate::BatchSampler;
use ds_comm::{CommError, Communicator};
use ds_graph::NodeId;
use ds_simgpu::{Clock, Cluster};
use std::sync::Arc;

/// Sampling scheme (paper Table 2, `Scheme`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Node-wise (GraphSAGE-style): every frontier node samples
    /// `fanout[l]` neighbors in layer `l`.
    NodeWise,
    /// Layer-wise (FastGCN-style): `fanout[l]` total nodes are sampled
    /// in layer `l`, allocated to frontier nodes by Eq. 2's multinomial.
    LayerWise {
        /// With replacement (paper default) or the without-replacement
        /// variant (Table 7): without replacement, each frontier node
        /// samples its allocated count without repeats, and repeats
        /// across frontier nodes are merged when the layer is assembled.
        replace: bool,
    },
}

/// Full CSP configuration (paper Table 2).
#[derive(Clone, Debug)]
pub struct CspConfig {
    /// Neighbors (node-wise) or totals (layer-wise) per layer.
    pub fanout: Vec<usize>,
    /// Node-wise or layer-wise.
    pub scheme: Scheme,
    /// Biased (edge-weighted) or uniform neighbor selection.
    pub biased: bool,
    /// Fused synchronous stages (the paper's choice) versus the
    /// asynchronous alternative it evaluates and rejects in §4.1:
    /// "each GPU communicates with other GPUs once it finishes a stage
    /// and executes each received task individually. This design removes
    /// synchronization but is observed to have poor efficiency as the
    /// communication and sampling tasks of a single GPU are small."
    /// The async mode produces identical samples; it pays per-peer
    /// message latency and a kernel launch per task instead of one
    /// fused kernel per stage.
    pub fused: bool,
    /// Temporal sampling cutoff: when set, edge weights are interpreted
    /// as timestamps and only edges with `timestamp <= cutoff` are
    /// eligible. Like biased sampling, this is a case where Pull-Data
    /// must ship whole adjacency lists (§4.1 discussion) while CSP just
    /// pushes the predicate with the task. Mutually exclusive with
    /// `biased` (both reuse the edge-weight array).
    pub temporal_cutoff: Option<f32>,
    /// Base RNG seed.
    pub seed: u64,
}

impl CspConfig {
    /// The paper's default workload: node-wise, unbiased, fan-out
    /// [15, 10, 5] (§7.1).
    pub fn paper_default() -> Self {
        CspConfig {
            fanout: vec![15, 10, 5],
            scheme: Scheme::NodeWise,
            biased: false,
            fused: true,
            temporal_cutoff: None,
            seed: 0xD5,
        }
    }

    /// Node-wise with a custom fan-out.
    pub fn node_wise(fanout: Vec<usize>) -> Self {
        CspConfig {
            fanout,
            scheme: Scheme::NodeWise,
            biased: false,
            fused: true,
            temporal_cutoff: None,
            seed: 0xD5,
        }
    }

    /// Layer-wise with a custom fan-out.
    pub fn layer_wise(fanout: Vec<usize>, replace: bool) -> Self {
        CspConfig {
            fanout,
            scheme: Scheme::LayerWise { replace },
            biased: false,
            fused: true,
            temporal_cutoff: None,
            seed: 0xD5,
        }
    }

    /// The part of this configuration one node's draw reads.
    pub fn draw_params(&self) -> DrawParams {
        DrawParams {
            seed: self.seed,
            replace: matches!(self.scheme, Scheme::LayerWise { replace: true }),
            biased: self.biased,
            temporal_cutoff: self.temporal_cutoff,
        }
    }

    /// Returns a copy with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy using the asynchronous (non-fused) execution the
    /// paper rejects — for the ablation that reproduces that rejection.
    pub fn unfused(mut self) -> Self {
        self.fused = false;
        self
    }

    /// Returns a copy with temporal sampling: edge weights are read as
    /// timestamps and only edges with `timestamp <= cutoff` are sampled.
    pub fn temporal(mut self, cutoff: f32) -> Self {
        self.temporal_cutoff = Some(cutoff);
        self
    }
}

pub use crate::local::request_rng;

/// The multi-GPU collective sampler.
pub struct CspSampler {
    graph: Arc<DistGraph>,
    cluster: Arc<Cluster>,
    comm: Arc<Communicator>,
    rank: usize,
    cfg: CspConfig,
    batch_index: u64,
    /// Degraded pull-path mode: sample every frontier node locally
    /// (no collectives), paying UVA reads for non-local adjacency.
    /// Because the sampling RNG is keyed by `(seed, batch, layer,
    /// node)`, the constructed samples are bit-identical to the
    /// collective path's — only the virtual time differs.
    degraded: bool,
}

impl CspSampler {
    /// Creates the sampler for `rank`. All ranks must share `graph`,
    /// `cluster` and `comm`.
    pub fn new(
        graph: Arc<DistGraph>,
        cluster: Arc<Cluster>,
        comm: Arc<Communicator>,
        rank: usize,
        cfg: CspConfig,
    ) -> Self {
        assert_eq!(
            graph.num_ranks(),
            cluster.num_gpus(),
            "graph patches must match GPU count"
        );
        assert!(
            !cfg.fanout.is_empty(),
            "fan-out must have at least one layer"
        );
        assert!(
            !(cfg.biased && cfg.temporal_cutoff.is_some()),
            "biased and temporal sampling both use the edge-weight array; pick one"
        );
        CspSampler {
            graph,
            cluster,
            comm,
            rank,
            cfg,
            batch_index: 0,
            degraded: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CspConfig {
        &self.cfg
    }

    /// Resets the batch counter (e.g. between epochs in tests).
    pub fn reset_batches(&mut self) {
        self.batch_index = 0;
    }

    /// Positions the sampler at global batch `index` — the resume path:
    /// draws are keyed by `(seed, batch, layer, node)`, so placing the
    /// cursor where a checkpoint left it reproduces the exact stream an
    /// uninterrupted run would have sampled from there on.
    pub fn set_batch_index(&mut self, index: u64) {
        self.batch_index = index;
    }

    /// Switches the degraded pull path on or off (see the `degraded`
    /// field). The supervisor flips this when a sampler peer dies.
    pub fn set_degraded(&mut self, on: bool) {
        self.degraded = on;
    }

    /// Whether the sampler is in degraded pull-path mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The batch index the next `sample_batch` call will use (advances
    /// only on success, so a failed batch is retried under the same
    /// index and reproduces the same sample).
    pub fn next_batch_index(&self) -> u64 {
        self.batch_index
    }

    /// Groups `(node, payload)` pairs by owning rank, preserving order
    /// within each group. Returns per-rank sends plus, for each frontier
    /// position, its (owner, within-owner index).
    fn partition_by_owner<P: Copy>(
        &self,
        nodes: &[NodeId],
        payload: impl Fn(usize) -> P,
    ) -> (Vec<Vec<(NodeId, P)>>, Vec<(usize, u32)>) {
        let n = self.graph.num_ranks();
        let mut sends: Vec<Vec<(NodeId, P)>> = vec![Vec::new(); n];
        let mut placement = Vec::with_capacity(nodes.len());
        for (i, &v) in nodes.iter().enumerate() {
            let owner = self.graph.owner(v);
            placement.push((owner, sends[owner].len() as u32));
            sends[owner].push((v, payload(i)));
        }
        (sends, placement)
    }

    /// 32 B UVA reads to draw `count` neighbors of `node` from an
    /// adjacency list that sits in host memory.
    fn host_reads(&self, node: NodeId, count: u32) -> u64 {
        let degree = self.graph.degree(node) as u64;
        if self.cfg.biased {
            // Whole adjacency + weight list.
            (degree * 8).div_ceil(32)
        } else {
            (count as u64).min(degree)
        }
    }

    /// Stage 1+2+3 for one layer given per-frontier-node counts.
    /// Returns (offsets, neighbors) in frontier order. Errors when a
    /// collective fails (dead peer / deadline). A trace wrapper around
    /// [`Self::sample_layer_stages`]: a failed collective leaves the
    /// current stage span open, so on error every span this call opened
    /// is closed at the failure time — the exported stream stays
    /// balanced across supervised retries.
    fn try_sample_layer(
        &mut self,
        clock: &mut Clock,
        layer: usize,
        frontier: &[NodeId],
        counts: &[u32],
    ) -> Result<(Vec<u32>, Vec<NodeId>), CommError> {
        let depth = ds_trace::open_depth();
        let out = self.sample_layer_stages(clock, layer, frontier, counts);
        if out.is_err() {
            ds_trace::close_open_spans_to(depth, clock.now());
        }
        out
    }

    fn sample_layer_stages(
        &mut self,
        clock: &mut Clock,
        layer: usize,
        frontier: &[NodeId],
        counts: &[u32],
    ) -> Result<(Vec<u32>, Vec<NodeId>), CommError> {
        let model = *self.cluster.model();
        ds_trace::span_begin_arg(clock.now(), "csp.shuffle", layer as u64);
        // Partition kernel (compute owner per frontier node + compact).
        clock.work(
            model
                .gpu
                .time_full(frontier.len() as u64, model.scan_cycles_per_item),
        );
        let (sends, placement) = self.partition_by_owner(frontier, |i| counts[i]);

        // --- shuffle: (node, count) pairs to owners, 8 B per item.
        let requests = self.comm.try_all_to_all_v(self.rank, clock, sends, 8)?;
        ds_trace::span_end(clock.now());

        // --- sample: one fused kernel over all received requests (the
        // paper's design), or one small kernel per task (the async
        // alternative — launch overhead per request dominates).
        ds_trace::span_begin_arg(clock.now(), "csp.sample", layer as u64);
        let total_requested: u64 = requests.iter().flatten().map(|&(_, c)| c as u64).sum();
        if self.cfg.fused {
            clock.work(
                model
                    .gpu
                    .time_full(total_requested, model.sample_cycles_per_item),
            );
        } else {
            // Async execution: one kernel per peer message instead of a
            // fused stage kernel, plus serialized per-task dispatch
            // (each task is issued individually rather than packed into
            // one grid — no wave-level parallelism across tasks).
            const TASK_DISPATCH_S: f64 = 150.0e-9;
            let n_tasks: u64 = requests.iter().map(|r| r.len() as u64).sum();
            let peers = (self.graph.num_ranks() as f64 - 1.0).max(0.0);
            clock.work(
                peers * model.gpu.launch_overhead_s
                    + n_tasks as f64 * TASK_DISPATCH_S
                    + model
                        .gpu
                        .time_full(total_requested, model.sample_cycles_per_item),
            );
            // Per-peer eager messages replace the single all-to-all:
            // each stage pays (n-1) extra point-to-point latencies.
            clock.work(2.0 * peers * ds_simgpu::topology::TRANSFER_LATENCY);
        }
        // Spilled adjacency lists (§6's adjacency position list): lists
        // not resident on this GPU are read from host memory over UVA.
        let mut spilled_nodes = 0u64;
        let mut spilled_reads = 0u64;
        let replies: Vec<(Vec<u32>, Vec<NodeId>)> = requests
            .into_iter()
            .map(|reqs| {
                for &(node, count) in &reqs {
                    if !self.graph.is_resident(node) {
                        spilled_nodes += 1;
                        spilled_reads += self.host_reads(node, count);
                    }
                }
                // The draws are placement-independent, so the degraded
                // pull path and the shadow replay reproduce them exactly.
                let (offsets, flat) = local::sample_frontier(
                    &*self.graph,
                    self.cfg.draw_params(),
                    self.batch_index,
                    layer,
                    reqs.iter().copied(),
                );
                let counts_out = offsets.windows(2).map(|w| w[1] - w[0]).collect();
                (counts_out, flat)
            })
            .collect();

        if spilled_nodes > 0 {
            // indptr lookups (16 B) plus the counted 32 B-payload reads
            // (one per sampled neighbor, or per adjacency chunk for
            // biased sampling), all over UVA.
            let t = self.cluster.uva_read(self.rank, spilled_nodes, 16)
                + self.cluster.uva_read(self.rank, spilled_reads, 32);
            clock.work_on(t, ds_simgpu::clock::ResKind::Pcie);
            ds_trace::counter(clock.now(), "csp", "spilled_nodes", spilled_nodes as f64);
        }
        ds_trace::span_end(clock.now());

        // --- reshuffle: per-request counts, then the flat neighbor ids.
        ds_trace::span_begin_arg(clock.now(), "csp.reshuffle", layer as u64);
        let (count_sends, flat_sends): (Vec<Vec<u32>>, Vec<Vec<NodeId>>) =
            replies.into_iter().unzip();
        let recv_counts = self
            .comm
            .try_all_to_all_v(self.rank, clock, count_sends, 4)?;
        let recv_flat = self
            .comm
            .try_all_to_all_v(self.rank, clock, flat_sends, 4)?;

        // Assemble in frontier order (compact kernel).
        let flat_offsets: Vec<Vec<u32>> = recv_counts
            .iter()
            .map(|cs| {
                let mut off = Vec::with_capacity(cs.len() + 1);
                off.push(0u32);
                let mut acc = 0u32;
                for &c in cs {
                    acc += c;
                    off.push(acc);
                }
                off
            })
            .collect();
        let mut offsets = Vec::with_capacity(frontier.len() + 1);
        offsets.push(0u32);
        let mut neighbors = Vec::new();
        for &(owner, idx) in &placement {
            let lo = flat_offsets[owner][idx as usize] as usize;
            let hi = flat_offsets[owner][idx as usize + 1] as usize;
            neighbors.extend_from_slice(&recv_flat[owner][lo..hi]);
            offsets.push(neighbors.len() as u32);
        }
        clock.work(
            model
                .gpu
                .time_full(neighbors.len() as u64, model.scan_cycles_per_item),
        );
        ds_trace::span_end(clock.now());
        Ok((offsets, neighbors))
    }

    /// Degraded pull-path version of [`Self::try_sample_layer`]: every
    /// frontier node is sampled on this rank, no collectives. Adjacency
    /// this rank doesn't hold (remote or host-spilled) is pulled over
    /// UVA — the Fig. 1 pull cost the push paradigm normally avoids,
    /// paid here deliberately to survive dead sampler peers.
    fn sample_layer_local(
        &mut self,
        clock: &mut Clock,
        layer: usize,
        frontier: &[NodeId],
        counts: &[u32],
    ) -> (Vec<u32>, Vec<NodeId>) {
        let model = *self.cluster.model();
        let total_requested: u64 = counts.iter().map(|&c| c as u64).sum();
        clock.work(
            model
                .gpu
                .time_full(total_requested, model.sample_cycles_per_item),
        );
        let mut pulled_nodes = 0u64;
        let mut pulled_reads = 0u64;
        for (&node, &count) in frontier.iter().zip(counts) {
            // Remote adjacency is a UVA pull here even when its owner
            // had it resident; host-spilled local lists charge as usual.
            if self.graph.owner(node) != self.rank {
                pulled_nodes += 1;
                pulled_reads += count.min(self.graph.degree(node) as u32) as u64;
            } else if !self.graph.is_resident(node) {
                pulled_nodes += 1;
                pulled_reads += self.host_reads(node, count);
            }
        }
        let (offsets, neighbors) = local::sample_frontier(
            &*self.graph,
            self.cfg.draw_params(),
            self.batch_index,
            layer,
            frontier.iter().copied().zip(counts.iter().copied()),
        );
        if pulled_nodes > 0 {
            let t = self.cluster.uva_read(self.rank, pulled_nodes, 16)
                + self.cluster.uva_read(self.rank, pulled_reads, 32);
            clock.work_on(t, ds_simgpu::clock::ResKind::Pcie);
        }
        (offsets, neighbors)
    }

    /// Fetches `W_u` (Eq. 2) for each frontier node from its owner — the
    /// extra lightweight exchange layer-wise sampling needs.
    fn try_fetch_total_weights(
        &mut self,
        clock: &mut Clock,
        frontier: &[NodeId],
    ) -> Result<Vec<f64>, CommError> {
        let depth = ds_trace::open_depth();
        ds_trace::span_begin(clock.now(), "csp.weights");
        let out = self.fetch_total_weights_inner(clock, frontier);
        match out.is_ok() {
            true => ds_trace::span_end(clock.now()),
            false => ds_trace::close_open_spans_to(depth, clock.now()),
        }
        out
    }

    fn fetch_total_weights_inner(
        &mut self,
        clock: &mut Clock,
        frontier: &[NodeId],
    ) -> Result<Vec<f64>, CommError> {
        let model = *self.cluster.model();
        clock.work(
            model
                .gpu
                .time_full(frontier.len() as u64, model.scan_cycles_per_item),
        );
        let (sends, placement) = self.partition_by_owner(frontier, |_| ());
        let queries = self.comm.try_all_to_all_v(self.rank, clock, sends, 4)?;
        let replies: Vec<Vec<f32>> = queries
            .into_iter()
            .map(|qs| {
                qs.into_iter()
                    .map(|(v, ())| self.graph.total_weight(v) as f32)
                    .collect()
            })
            .collect();
        let recv = self.comm.try_all_to_all_v(self.rank, clock, replies, 4)?;
        Ok(placement
            .iter()
            .map(|&(owner, idx)| recv[owner][idx as usize] as f64)
            .collect())
    }

    /// Degraded (no-collective) version of
    /// [`Self::try_fetch_total_weights`]. The f32 round-trip mirrors the
    /// wire format so the multinomial allocation is bit-identical.
    fn total_weights_local(&mut self, clock: &mut Clock, frontier: &[NodeId]) -> Vec<f64> {
        let model = *self.cluster.model();
        clock.work(
            model
                .gpu
                .time_full(frontier.len() as u64, model.scan_cycles_per_item),
        );
        frontier
            .iter()
            .map(|&v| self.graph.total_weight(v) as f32 as f64)
            .collect()
    }

    /// Fallible [`BatchSampler::sample_batch`]: surfaces collective
    /// failures instead of panicking. The batch index advances only on
    /// success, so a failed batch retried (typically after
    /// [`Self::set_degraded`]) reproduces the exact sample the
    /// collective path would have built.
    pub fn try_sample_batch(
        &mut self,
        clock: &mut Clock,
        seeds: &[NodeId],
    ) -> Result<GraphSample, CommError> {
        let batch = self.batch_index;
        let model = *self.cluster.model();
        let mut layers: Vec<SampleLayer> = Vec::with_capacity(self.cfg.fanout.len());
        for l in 0..self.cfg.fanout.len() {
            let fan = self.cfg.fanout[l];
            let frontier = next_dst(seeds, &layers);
            let counts: Vec<u32> = match self.cfg.scheme {
                Scheme::NodeWise => vec![fan as u32; frontier.len()],
                Scheme::LayerWise { .. } => {
                    let weights = if self.degraded {
                        self.total_weights_local(clock, &frontier)
                    } else {
                        self.try_fetch_total_weights(clock, &frontier)?
                    };
                    let mut rng = request_rng(self.cfg.seed, batch, l, u32::MAX);
                    local::multinomial_counts(&weights, fan, &mut rng)
                }
            };
            let (offsets, neighbors) = if self.degraded {
                self.sample_layer_local(clock, l, &frontier, &counts)
            } else {
                self.try_sample_layer(clock, l, &frontier, &counts)?
            };
            let layer = SampleLayer::new(frontier, offsets, neighbors);
            // Dedup/sort kernel for the next frontier.
            clock.work(
                model
                    .gpu
                    .time_full(layer.src.len() as u64, 4.0 * model.scan_cycles_per_item),
            );
            layers.push(layer);
        }
        self.batch_index += 1;
        Ok(GraphSample::new(seeds.to_vec(), layers))
    }
}

impl BatchSampler for CspSampler {
    fn sample_batch(&mut self, clock: &mut Clock, seeds: &[NodeId]) -> GraphSample {
        self.try_sample_batch(clock, seeds)
            .unwrap_or_else(|e| panic!("sampling failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::{gen, Csr};
    use ds_partition::{simple::range_partition, Renumbering};
    use ds_simgpu::ClusterSpec;

    /// Builds a 2-rank CSP setup over a ring graph and runs `f` on both
    /// rank threads.
    fn with_two_ranks<F, R>(graph: Csr, cfg: CspConfig, f: F) -> Vec<R>
    where
        F: Fn(&mut CspSampler, &mut Clock) -> R + Send + Sync + 'static,
        R: Send + 'static,
    {
        let p = range_partition(&graph, 2);
        let renum = Renumbering::from_partition(&p);
        let dg = Arc::new(DistGraph::from_renumbered(&graph, &renum));
        let cluster = Arc::new(ClusterSpec::v100(2).build());
        let comm = Arc::new(Communicator::new(1, Arc::clone(&cluster)));
        let f = Arc::new(f);
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let dg = Arc::clone(&dg);
                let cluster = Arc::clone(&cluster);
                let comm = Arc::clone(&comm);
                let cfg = cfg.clone();
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    let mut s = CspSampler::new(dg, cluster, comm, rank, cfg);
                    let mut clock = Clock::new();
                    f(&mut s, &mut clock)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn check_sample_valid(g: &Csr, s: &GraphSample, fanout: &[usize]) {
        assert_eq!(s.num_layers(), fanout.len());
        for (l, layer) in s.layers.iter().enumerate() {
            for (i, &dst) in layer.dst.iter().enumerate() {
                let sampled = layer.neighbors_of(i);
                assert!(sampled.len() <= fanout[l].max(g.degree(dst)));
                // Every sampled edge exists in the graph.
                for &nb in sampled {
                    assert!(
                        g.neighbors(dst).contains(&nb),
                        "edge {dst}->{nb} not in graph (layer {l})"
                    );
                }
            }
        }
    }

    #[test]
    fn node_wise_samples_respect_fanout_and_graph() {
        let g = gen::erdos_renyi(200, 3000, true, 7);
        let g2 = g.clone();
        let results = with_two_ranks(g, CspConfig::node_wise(vec![4, 3]), move |s, clock| {
            // Each rank seeds with nodes it owns.
            let seeds: Vec<NodeId> = if s.rank == 0 {
                vec![0, 5, 17]
            } else {
                vec![150, 160]
            };
            s.sample_batch(clock, &seeds)
        });
        for (rank, sample) in results.iter().enumerate() {
            check_sample_valid(&g2, sample, &[4, 3]);
            // Fan-out upper bound per node.
            for layer in &sample.layers {
                for i in 0..layer.num_dst() {
                    assert!(layer.neighbors_of(i).len() <= 4);
                }
            }
            assert_eq!(sample.seeds.len(), if rank == 0 { 3 } else { 2 });
        }
    }

    #[test]
    fn samples_are_gpu_count_invariant() {
        // The same seeds on 1 rank and on 2 ranks yield identical samples
        // (placement-independent RNG) — the §7.1 correctness property.
        let g = gen::erdos_renyi(100, 1500, true, 9);
        let cfg = CspConfig::node_wise(vec![3, 2]);
        let seeds = vec![1u32, 50, 99];

        // Single rank.
        let dg = Arc::new(DistGraph::single(&g));
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let comm = Arc::new(Communicator::new(1, Arc::clone(&cluster)));
        let mut single = CspSampler::new(dg, cluster, comm, 0, cfg.clone());
        let mut clock = Clock::new();
        let s1 = single.sample_batch(&mut clock, &seeds);

        // Two ranks: rank 0 uses the same seeds, rank 1 idles with its own.
        let seeds2 = seeds.clone();
        let results = with_two_ranks(g, cfg, move |s, clock| {
            let seeds: Vec<NodeId> = if s.rank == 0 {
                seeds2.clone()
            } else {
                vec![60]
            };
            s.sample_batch(clock, &seeds)
        });
        assert_eq!(results[0], s1);
    }

    #[test]
    fn biased_sampling_uses_weights() {
        // Node weights: node id as weight; heavy neighbors dominate.
        let g = gen::erdos_renyi(100, 4000, true, 3);
        let w: Vec<f32> = (0..100).map(|i| if i < 50 { 0.0 } else { 1.0 }).collect();
        let wg = g.with_node_weights(&w);
        let mut cfg = CspConfig::node_wise(vec![5]);
        cfg.biased = true;
        let results = with_two_ranks(wg, cfg, move |s, clock| {
            let seeds: Vec<NodeId> = if s.rank == 0 {
                (0..50).collect()
            } else {
                (50..100).collect()
            };
            s.sample_batch(clock, &seeds)
        });
        for sample in &results {
            for layer in &sample.layers {
                // A zero-weight neighbor may only appear when a node has
                // no positively-weighted neighbors at all — with 4000
                // random edges on 100 nodes that never happens here.
                for (i, _) in layer.dst.iter().enumerate() {
                    for &nb in layer.neighbors_of(i) {
                        assert!(nb >= 50, "sampled zero-weight node {nb}");
                    }
                }
            }
        }
    }

    #[test]
    fn layer_wise_totals_match_fanout() {
        let g = gen::erdos_renyi(300, 6000, true, 5);
        let cfg = CspConfig::layer_wise(vec![64, 32], true);
        let results = with_two_ranks(g, cfg, move |s, clock| {
            let seeds: Vec<NodeId> = if s.rank == 0 {
                (0..16).collect()
            } else {
                (150..166).collect()
            };
            s.sample_batch(clock, &seeds)
        });
        for sample in &results {
            // With replacement, the total sampled count per layer equals
            // the fan-out (every multinomial draw yields one neighbor as
            // long as the drawn node has any neighbors).
            assert_eq!(sample.layers[0].num_edges(), 64);
        }
    }

    #[test]
    fn sampler_charges_virtual_time() {
        let g = gen::erdos_renyi(200, 3000, true, 11);
        let results = with_two_ranks(g, CspConfig::paper_default(), move |s, clock| {
            let seeds: Vec<NodeId> = if s.rank == 0 {
                (0..32).collect()
            } else {
                (100..132).collect()
            };
            let _ = s.sample_batch(clock, &seeds);
            (clock.now(), clock.busy())
        });
        for (now, busy) in results {
            assert!(now > 0.0);
            assert!(busy > 0.0);
            assert!(busy <= now + 1e-12);
        }
    }

    #[test]
    fn temporal_sampling_respects_the_cutoff() {
        // Edge "weights" = timestamps: node id as the timestamp of edges
        // into it, cutoff keeps only old (low-id) neighbors.
        let g = gen::erdos_renyi(200, 6000, true, 15);
        let ts: Vec<f32> = (0..200).map(|i| i as f32).collect();
        let tg = g.with_node_weights(&ts);
        let cutoff = 120.0f32;
        let results = with_two_ranks(
            tg,
            CspConfig::node_wise(vec![5, 3]).temporal(cutoff),
            move |s, clock| {
                let seeds: Vec<NodeId> = if s.rank == 0 {
                    (0..20).collect()
                } else {
                    (150..170).collect()
                };
                s.sample_batch(clock, &seeds)
            },
        );
        let mut sampled_any = false;
        for sample in &results {
            for layer in &sample.layers {
                for (i, _) in layer.dst.iter().enumerate() {
                    for &nb in layer.neighbors_of(i) {
                        sampled_any = true;
                        assert!(
                            (nb as f32) <= cutoff,
                            "sampled edge to {nb} violates temporal cutoff {cutoff}"
                        );
                    }
                }
            }
        }
        assert!(sampled_any, "temporal sampling produced nothing");
    }

    #[test]
    fn async_mode_produces_identical_samples_but_costs_more() {
        let g = gen::erdos_renyi(150, 3000, true, 19);
        let seeds: Vec<NodeId> = vec![3, 30, 120];
        let g2 = g.clone();
        let seeds2 = seeds.clone();
        let fused = with_two_ranks(g, CspConfig::node_wise(vec![4, 4]), move |s, clock| {
            let seeds: Vec<NodeId> = if s.rank == 0 {
                seeds2.clone()
            } else {
                vec![100]
            };
            (s.sample_batch(clock, &seeds), clock.now())
        });
        let seeds3 = seeds.clone();
        let unfused = with_two_ranks(
            g2,
            CspConfig::node_wise(vec![4, 4]).unfused(),
            move |s, clock| {
                let seeds: Vec<NodeId> = if s.rank == 0 {
                    seeds3.clone()
                } else {
                    vec![100]
                };
                (s.sample_batch(clock, &seeds), clock.now())
            },
        );
        assert_eq!(
            fused[0].0, unfused[0].0,
            "async must construct the same sample"
        );
        assert!(
            unfused[0].1 > fused[0].1,
            "async {} should cost more than fused {}",
            unfused[0].1,
            fused[0].1
        );
    }

    #[test]
    fn degraded_pull_path_reproduces_collective_samples() {
        // The supervisor's crashed-peer fallback: a rank re-sampling
        // locally (no collectives) must build bit-identical samples to
        // the collective path, for both schemes.
        for cfg in [
            CspConfig::node_wise(vec![4, 3]),
            CspConfig::layer_wise(vec![32, 16], true),
        ] {
            let g = gen::erdos_renyi(200, 4000, true, 21);
            let g2 = g.clone();
            let cfg2 = cfg.clone();
            let collective = with_two_ranks(g, cfg, move |s, clock| {
                let seeds: Vec<NodeId> = if s.rank == 0 {
                    vec![0, 5, 17]
                } else {
                    vec![150, 160]
                };
                s.sample_batch(clock, &seeds)
            });
            let degraded = with_two_ranks(g2, cfg2, move |s, clock| {
                s.set_degraded(true);
                assert!(s.is_degraded());
                let seeds: Vec<NodeId> = if s.rank == 0 {
                    vec![0, 5, 17]
                } else {
                    vec![150, 160]
                };
                // No peer coordination happens at all in degraded mode,
                // yet the sample matches.
                s.try_sample_batch(clock, &seeds).unwrap()
            });
            assert_eq!(collective, degraded);
        }
    }

    #[test]
    fn batches_advance_rng_stream() {
        let g = gen::erdos_renyi(100, 2000, true, 13);
        let dg = Arc::new(DistGraph::single(&g));
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let comm = Arc::new(Communicator::new(1, Arc::clone(&cluster)));
        let mut s = CspSampler::new(dg, cluster, comm, 0, CspConfig::node_wise(vec![3]));
        let mut clock = Clock::new();
        let a = s.sample_batch(&mut clock, &[5, 6]);
        let b = s.sample_batch(&mut clock, &[5, 6]);
        assert_ne!(a, b, "different batches must sample differently");
        s.reset_batches();
        let a2 = s.sample_batch(&mut clock, &[5, 6]);
        assert_eq!(a, a2, "same batch index must reproduce");
    }
}
