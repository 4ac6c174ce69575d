//! The partitioned, renumbered graph topology shared by all device
//! threads — DSP's data layout (§3.1, §6).
//!
//! Nodes are assumed renumbered so each rank owns a contiguous global-id
//! range (see `ds_partition::Renumbering`); ownership lookup is a range
//! check, local ids are `global - range.start`, and adjacency lists store
//! *global* ids so sampled neighbors feed the next layer directly.

use ds_graph::{Csr, NodeId};
use ds_partition::Renumbering;

/// A graph partitioned into per-rank patches.
#[derive(Clone, Debug)]
pub struct DistGraph {
    /// Per-rank patch: rows are local ids, contents are global ids.
    patches: Vec<Csr>,
    /// `range_starts[r]..range_starts[r+1]` are rank r's global ids.
    range_starts: Vec<NodeId>,
    /// Per-rank, per-local-id: whether the adjacency list is resident in
    /// GPU memory (`None` = everything resident). This is the paper's
    /// *adjacency position list* (§6): large patches keep hot lists on
    /// the GPU and spill the rest to host memory behind UVA.
    residency: Option<Vec<Vec<bool>>>,
    /// Total number of nodes.
    num_nodes: usize,
    /// Total directed edges.
    num_edges: usize,
}

impl DistGraph {
    /// Builds the distributed layout from a renumbered graph. `g` must
    /// already be renumbered by `renum` (i.e. `renum.partition()`-ranges
    /// index directly into `g`).
    pub fn from_renumbered(g: &Csr, renum: &Renumbering) -> Self {
        assert_eq!(g.num_nodes(), renum.num_nodes());
        let k = renum.num_parts();
        let mut patches = Vec::with_capacity(k);
        let mut range_starts = Vec::with_capacity(k + 1);
        for p in 0..k as u32 {
            let range = renum.range_of(p);
            range_starts.push(range.start);
            let nodes: Vec<NodeId> = range.collect();
            patches.push(g.extract_patch(&nodes));
        }
        range_starts.push(g.num_nodes() as NodeId);
        DistGraph {
            patches,
            range_starts,
            residency: None,
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
        }
    }

    /// Single-rank layout (the whole graph is one patch) — DSP on one
    /// GPU, where all "cross-GPU" traffic is local memory access.
    pub fn single(g: &Csr) -> Self {
        let nodes: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        DistGraph {
            patches: vec![g.extract_patch(&nodes)],
            range_starts: vec![0, g.num_nodes() as NodeId],
            residency: None,
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
        }
    }

    /// Number of ranks (patches).
    pub fn num_ranks(&self) -> usize {
        self.patches.len()
    }

    /// Total nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Owner rank of global node `v` — the §6 range check.
    #[inline]
    pub fn owner(&self, v: NodeId) -> usize {
        debug_assert!((v as usize) < self.num_nodes);
        self.range_starts.partition_point(|&s| s <= v) - 1
    }

    /// Local id of `v` on its owner.
    #[inline]
    pub fn local_id(&self, v: NodeId) -> NodeId {
        v - self.range_starts[self.owner(v)]
    }

    /// The patch held by `rank`.
    pub fn patch(&self, rank: usize) -> &Csr {
        &self.patches[rank]
    }

    /// Global-id range owned by `rank`.
    pub fn range_of(&self, rank: usize) -> std::ops::Range<NodeId> {
        self.range_starts[rank]..self.range_starts[rank + 1]
    }

    /// Adjacency list of global node `v` read *from its owner's patch*
    /// (valid on the owner's device thread).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let r = self.owner(v);
        self.patches[r].neighbors(v - self.range_starts[r])
    }

    /// Neighbor weights of global node `v`, if weighted.
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> Option<&[f32]> {
        let r = self.owner(v);
        self.patches[r].neighbor_weights(v - self.range_starts[r])
    }

    /// Degree of global node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let r = self.owner(v);
        self.patches[r].degree(v - self.range_starts[r])
    }

    /// Total weight (Eq. 2's `W_v`) of global node `v`.
    pub fn total_weight(&self, v: NodeId) -> f64 {
        let r = self.owner(v);
        self.patches[r].total_weight(v - self.range_starts[r])
    }

    /// Whether edge weights are present.
    pub fn is_weighted(&self) -> bool {
        self.patches.iter().any(|p| p.is_weighted())
    }

    /// Topology bytes stored on `rank` (for memory accounting / Fig. 10).
    pub fn patch_bytes(&self, rank: usize) -> u64 {
        self.patches[rank].topology_bytes()
    }

    /// Bytes of one node's adjacency entry (indptr slot + neighbor ids,
    /// + weights when present).
    fn node_bytes(&self, rank: usize, local: NodeId) -> u64 {
        let deg = self.patches[rank].degree(local) as u64;
        let per_edge = if self.patches[rank].is_weighted() {
            8
        } else {
            4
        };
        8 + deg * per_edge
    }

    /// Applies a per-rank GPU topology budget: the highest-degree local
    /// nodes stay resident until the budget is spent, the rest spill to
    /// host memory (accessed via UVA during sampling). This is how DSP
    /// "can also handle large graph patches" (§3.1/§6).
    pub fn apply_topology_budget(&mut self, budget_per_rank: u64) {
        let mut residency = Vec::with_capacity(self.patches.len());
        for patch in self.patches.iter() {
            let n = patch.num_nodes();
            let mut order: Vec<NodeId> = (0..n as NodeId).collect();
            order.sort_unstable_by_key(|&v| std::cmp::Reverse(patch.degree(v)));
            let mut resident = vec![false; n];
            let mut used = 0u64;
            for v in order {
                let b = {
                    let deg = patch.degree(v) as u64;
                    let per_edge = if patch.is_weighted() { 8u64 } else { 4 };
                    8 + deg * per_edge
                };
                if used + b > budget_per_rank {
                    continue;
                }
                used += b;
                resident[v as usize] = true;
            }
            residency.push(resident);
        }
        self.residency = Some(residency);
    }

    /// Whether global node `v`'s adjacency list is GPU-resident on its
    /// owner.
    #[inline]
    pub fn is_resident(&self, v: NodeId) -> bool {
        match &self.residency {
            None => true,
            Some(res) => {
                let r = self.owner(v);
                res[r][(v - self.range_starts[r]) as usize]
            }
        }
    }

    /// GPU-resident topology bytes on `rank` (≤ `patch_bytes`).
    pub fn resident_bytes(&self, rank: usize) -> u64 {
        match &self.residency {
            None => self.patch_bytes(rank),
            Some(res) => res[rank]
                .iter()
                .enumerate()
                .filter(|(_, &r)| r)
                .map(|(v, _)| self.node_bytes(rank, v as NodeId))
                .sum(),
        }
    }
}

impl crate::local::Adjacency for DistGraph {
    #[inline]
    fn adjacency(&self, v: NodeId) -> (&[NodeId], Option<&[f32]>) {
        let r = self.owner(v);
        let local = v - self.range_starts[r];
        (
            self.patches[r].neighbors(local),
            self.patches[r].neighbor_weights(local),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::gen;
    use ds_partition::{simple::range_partition, Renumbering};

    fn build(n_nodes: usize, k: usize) -> (Csr, DistGraph) {
        let g = gen::erdos_renyi(n_nodes, n_nodes * 8, true, 3);
        let p = range_partition(&g, k);
        let renum = Renumbering::from_partition(&p);
        // Range partition of already-ordered ids => renumbering is
        // identity, so `g` is already "renumbered".
        let dg = DistGraph::from_renumbered(&g, &renum);
        (g, dg)
    }

    #[test]
    fn ownership_and_locals_are_consistent() {
        let (_, dg) = build(1000, 4);
        assert_eq!(dg.num_ranks(), 4);
        for v in (0..1000u32).step_by(37) {
            let r = dg.owner(v);
            assert!(dg.range_of(r).contains(&v));
            assert_eq!(dg.local_id(v) + dg.range_of(r).start, v);
        }
    }

    #[test]
    fn adjacency_matches_original_graph() {
        let (g, dg) = build(500, 3);
        assert_eq!(dg.num_edges(), g.num_edges());
        for v in (0..500u32).step_by(11) {
            assert_eq!(dg.neighbors(v), g.neighbors(v));
            assert_eq!(dg.degree(v), g.degree(v));
        }
    }

    #[test]
    fn single_layout_owns_everything() {
        let g = gen::ring(64, 2);
        let dg = DistGraph::single(&g);
        assert_eq!(dg.num_ranks(), 1);
        for v in 0..64u32 {
            assert_eq!(dg.owner(v), 0);
            assert_eq!(dg.local_id(v), v);
            assert_eq!(dg.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn patch_bytes_sum_to_roughly_topology() {
        let (g, dg) = build(800, 4);
        let total: u64 = (0..4).map(|r| dg.patch_bytes(r)).sum();
        // Patches duplicate indptr entries; within 2x of the monolith.
        assert!(total >= g.topology_bytes() / 2 && total <= 2 * g.topology_bytes());
    }

    #[test]
    fn weighted_graph_carries_weights_into_patches() {
        let g = gen::ring(100, 2);
        let w: Vec<f32> = (0..100).map(|i| (i + 1) as f32).collect();
        let wg = g.with_node_weights(&w);
        let p = range_partition(&wg, 2);
        let dg = DistGraph::from_renumbered(&wg, &Renumbering::from_partition(&p));
        assert!(dg.is_weighted());
        // Node 10's neighbors are 8,9,11,12 (ring k=2): weights 9,10,12,13.
        let nb = dg.neighbors(10).to_vec();
        let ws = dg.neighbor_weights(10).unwrap();
        for (n, w) in nb.iter().zip(ws) {
            assert_eq!(*w, (*n + 1) as f32);
        }
        assert_eq!(
            dg.total_weight(10),
            nb.iter().map(|&n| (n + 1) as f64).sum::<f64>()
        );
    }

    #[test]
    fn topology_budget_spills_low_degree_nodes() {
        let (_, mut dg) = build(400, 2);
        let full = dg.patch_bytes(0);
        dg.apply_topology_budget(full / 3);
        let resident = dg.resident_bytes(0);
        assert!(
            resident <= full / 3,
            "resident {resident} budget {}",
            full / 3
        );
        assert!(resident > 0);
        // High-degree nodes stay resident; count both classes.
        let mut in_gpu = 0;
        let mut spilled = 0;
        for v in dg.range_of(0) {
            if dg.is_resident(v) {
                in_gpu += 1;
            } else {
                spilled += 1;
            }
        }
        assert!(in_gpu > 0 && spilled > 0);
        // Residents should have higher average degree than spilled.
        let avg = |pred: bool| {
            let (mut s, mut c) = (0usize, 0usize);
            for v in dg.range_of(0) {
                if dg.is_resident(v) == pred {
                    s += dg.degree(v);
                    c += 1;
                }
            }
            s as f64 / c.max(1) as f64
        };
        assert!(
            avg(true) >= avg(false),
            "hot {} vs cold {}",
            avg(true),
            avg(false)
        );
    }

    #[test]
    fn zero_budget_spills_everything_but_sampling_still_works() {
        let (_, mut dg) = build(200, 2);
        dg.apply_topology_budget(0);
        assert_eq!(dg.resident_bytes(0), 0);
        assert!(!dg.is_resident(5));
        // Adjacency is still *functionally* readable (the data lives in
        // host memory; only the cost changes).
        assert!(!dg.neighbors(5).is_empty());
    }
}
