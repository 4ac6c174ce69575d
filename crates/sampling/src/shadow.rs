//! Shadow replay of the deterministic sampling schedule.
//!
//! Because every neighbor draw is keyed on `(seed, batch, layer, node)`
//! — never on placement, retries or thread interleaving — the node set
//! a future batch will touch is *computable* without running the real
//! sampler: replay the RNG draws, chain the frontiers, skip all
//! communication and feature movement. Two consumers build on this:
//!
//! * the **epoch-ahead prefetcher**, which replays batches a window
//!   ahead of the loader and stages their cold feature rows so the UVA
//!   fetch overlaps compute instead of sitting on the critical path;
//! * the **presampling hotness policy**, which counts how often each
//!   node will be requested in the coming epoch and ranks the cache by
//!   those counts instead of the static degree guess.
//!
//! [`draw_neighbors_into`] is the single source of truth for one
//! node's draw: the real sampler's sample stage runs the same function,
//! so a shadow replay is bit-identical to the collective execution by
//! construction, not by parallel maintenance of two copies. The replay
//! keeps only what its consumers read — the chained frontier and the
//! edge count — and never builds a `SampleLayer`: position maps index
//! rows for the trainer, and nothing downstream of a replay trains.

use crate::csp::{CspConfig, Scheme};
use crate::dist_graph::DistGraph;
use crate::local::{self, draw_neighbors_into, request_rng};
use crate::sample::sort_dedup;
use ds_graph::NodeId;

/// What a shadow replay of one batch learned: the nodes whose input
/// features the real batch will load, and the sampled-edge volume (for
/// charging the replay kernel's virtual time).
#[derive(Clone, Debug, PartialEq)]
pub struct ShadowBatch {
    /// The batch's future input set (sorted, deduplicated — identical
    /// to `GraphSample::input_nodes` of the real execution).
    pub input_nodes: Vec<NodeId>,
    /// Total neighbors drawn across layers.
    pub sampled_edges: u64,
}

/// Replays batch `batch` of the deterministic schedule for `seeds` and
/// returns its future input set without moving any data. Mirrors
/// `CspSampler::try_sample_batch`'s frontier chaining exactly,
/// including the f32 wire round-trip of the layer-wise weight exchange.
pub fn shadow_batch(
    graph: &DistGraph,
    cfg: &CspConfig,
    batch: u64,
    seeds: &[NodeId],
) -> ShadowBatch {
    let draw = cfg.draw_params();
    let mut frontier: Vec<NodeId> = seeds.to_vec();
    let mut sampled_edges = 0u64;
    for (l, &fan) in cfg.fanout.iter().enumerate() {
        let counts: Vec<u32> = match cfg.scheme {
            Scheme::NodeWise => vec![fan as u32; frontier.len()],
            Scheme::LayerWise { .. } => {
                let weights: Vec<f64> = frontier
                    .iter()
                    .map(|&v| graph.total_weight(v) as f32 as f64)
                    .collect();
                let mut rng = request_rng(cfg.seed, batch, l, u32::MAX);
                local::multinomial_counts(&weights, fan, &mut rng)
            }
        };
        // The next frontier is the sorted union of this one and its
        // draws (`SampleLayer::src`): draw straight onto its tail.
        let n = frontier.len();
        for i in 0..n {
            let node = frontier[i];
            draw_neighbors_into(graph, draw, batch, l, node, counts[i], &mut frontier);
        }
        sampled_edges += (frontier.len() - n) as u64;
        sort_dedup(&mut frontier);
    }
    ShadowBatch {
        input_nodes: frontier,
        sampled_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csp::CspSampler;
    use crate::BatchSampler;
    use ds_comm::Communicator;
    use ds_graph::gen;
    use ds_simgpu::{Clock, ClusterSpec};
    use std::sync::Arc;

    fn real_input_set(cfg: &CspConfig, seeds: &[NodeId]) -> (Vec<NodeId>, u64) {
        let g = gen::erdos_renyi(300, 5000, true, 17);
        let dg = Arc::new(DistGraph::single(&g));
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let comm = Arc::new(Communicator::new(1, Arc::clone(&cluster)));
        let mut s = CspSampler::new(Arc::clone(&dg), cluster, comm, 0, cfg.clone());
        let mut clock = Clock::new();
        let sample = s.sample_batch(&mut clock, seeds);
        (sample.input_nodes().to_vec(), sample.num_edges() as u64)
    }

    #[test]
    fn shadow_matches_the_real_sampler_exactly() {
        let g = gen::erdos_renyi(300, 5000, true, 17);
        let dg = DistGraph::single(&g);
        let seeds: Vec<NodeId> = vec![3, 50, 250];
        for cfg in [
            CspConfig::node_wise(vec![4, 3]),
            CspConfig::layer_wise(vec![32, 16], true),
            CspConfig::layer_wise(vec![32, 16], false),
        ] {
            let (real, real_edges) = real_input_set(&cfg, &seeds);
            let shadow = shadow_batch(&dg, &cfg, 0, &seeds);
            assert_eq!(shadow.input_nodes, real, "{:?}", cfg.scheme);
            assert_eq!(shadow.sampled_edges, real_edges);
        }
    }

    #[test]
    fn shadow_tracks_the_batch_index() {
        let g = gen::erdos_renyi(200, 3000, true, 7);
        let dg = DistGraph::single(&g);
        let cfg = CspConfig::node_wise(vec![5, 5]);
        let a = shadow_batch(&dg, &cfg, 0, &[1, 2, 3]);
        let b = shadow_batch(&dg, &cfg, 1, &[1, 2, 3]);
        assert_ne!(a, b, "different batches draw differently");
        assert_eq!(a, shadow_batch(&dg, &cfg, 0, &[1, 2, 3]));
    }
}
