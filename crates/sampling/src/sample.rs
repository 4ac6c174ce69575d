//! The multi-layer graph sample produced by sampling and consumed by
//! feature loading and training.
//!
//! Layer `l`'s destination nodes are the frontier at depth `l` (layer 0's
//! are the seeds); its CSR-like `offsets`/`neighbors` hold the sampled
//! in-neighbors of each destination. The *source* set of a layer is the
//! sorted union of its destinations and sampled neighbors — and is, by
//! construction, the next layer's destination set, so a K-layer GNN can
//! evaluate the blocks innermost-to-outermost with each layer's output
//! set feeding the next (the DGL message-flow-graph chaining invariant,
//! asserted in tests).

use ds_graph::NodeId;
use std::cell::RefCell;

/// Below this many 64-id words of id span per entry, [`with_id_set`]
/// marks a bitmap; above it (tiny blocks on huge graphs, or the sparse
/// ids tests like to use) callers sort instead. It also bounds the
/// scratch: 12 B per word, so at most 192 B per entry of the largest
/// block a thread ever assembled, and never more than 3/16 B per node
/// of the graph (ids are below `num_nodes`) — 10 KB on Papers-S/4.
const SPAN_WORDS_PER_ENTRY: usize = 16;

thread_local! {
    /// [`IdSet`] storage, reused across blocks on a thread: the presence
    /// bitmap (all zero between calls) and the per-word prefix counts.
    static ID_SET_SCRATCH: RefCell<(Vec<u64>, Vec<u32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// A set of node ids as a presence bitmap over their span: yields the
/// distinct ids in order and any member's rank among them, both without
/// sorting or searching.
struct IdSet<'a> {
    /// First 64-id word of the span.
    lo: usize,
    bits: &'a [u64],
    /// `before[w]`: members in words `..w`.
    before: &'a [u32],
    len: usize,
}

impl IdSet<'_> {
    fn sorted(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len);
        for (w, &word) in self.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                out.push(((w + self.lo) as NodeId) << 6 | rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        out
    }

    /// Position of member `v` in [`Self::sorted`].
    fn rank(&self, v: NodeId) -> u32 {
        let w = (v >> 6) as usize - self.lo;
        self.before[w] + (self.bits[w] & ((1u64 << (v & 63)) - 1)).count_ones()
    }
}

/// Runs `f` on the set of `ids` — linear in the ids plus one pass over
/// the words they span — or on `None` when the ids are too sparse for
/// that pass to pay (see [`SPAN_WORDS_PER_ENTRY`]).
fn with_id_set<'i, R>(
    ids: impl Iterator<Item = &'i NodeId> + Clone,
    f: impl FnOnce(Option<&IdSet>) -> R,
) -> R {
    let word = |v: NodeId| (v >> 6) as usize;
    let (entries, lo, hi) = ids.clone().fold((0, usize::MAX, 0), |(n, lo, hi), &v| {
        (n + 1, lo.min(word(v)), hi.max(word(v)))
    });
    if entries == 0 || hi - lo > SPAN_WORDS_PER_ENTRY * entries {
        return f(None);
    }
    ID_SET_SCRATCH.with_borrow_mut(|(bits, before)| {
        let words = hi - lo + 1;
        if bits.len() < words {
            bits.resize(words, 0);
            before.resize(words, 0);
        }
        let (bits, before) = (&mut bits[..words], &mut before[..words]);
        for &v in ids {
            bits[word(v) - lo] |= 1u64 << (v & 63);
        }
        let mut len = 0;
        for (b, w) in before.iter_mut().zip(bits.iter()) {
            *b = len;
            len += w.count_ones();
        }
        let out = f(Some(&IdSet {
            lo,
            bits,
            before,
            len: len as usize,
        }));
        bits.fill(0);
        out
    })
}

/// Sorts and deduplicates `ids` in place — how a frontier and its draws
/// become the next frontier.
pub(crate) fn sort_dedup(ids: &mut Vec<NodeId>) {
    match with_id_set(ids.iter(), |set| set.map(IdSet::sorted)) {
        Some(sorted) => *ids = sorted,
        None => {
            ids.sort_unstable();
            ids.dedup();
        }
    }
}

/// The sorted, deduplicated union of `dst` and `neighbors`, and the
/// position of every `dst` / `neighbors` entry in it.
fn index_sources(dst: &[NodeId], neighbors: &[NodeId]) -> (Vec<NodeId>, Vec<u32>, Vec<u32>) {
    with_id_set(dst.iter().chain(neighbors), |set| {
        let src = set.map_or_else(
            || {
                let mut src: Vec<NodeId> = dst.iter().chain(neighbors).copied().collect();
                src.sort_unstable();
                src.dedup();
                src
            },
            IdSet::sorted,
        );
        let pos = |v: &NodeId| match set {
            Some(set) => set.rank(*v),
            None => src.binary_search(v).expect("node in src set") as u32,
        };
        let maps = (
            dst.iter().map(pos).collect(),
            neighbors.iter().map(pos).collect(),
        );
        (src, maps.0, maps.1)
    })
}

/// One sampled layer (block).
#[derive(Clone, Debug, PartialEq)]
pub struct SampleLayer {
    /// Destination (frontier) nodes, in frontier order.
    pub dst: Vec<NodeId>,
    /// `offsets[i]..offsets[i+1]` delimits `dst[i]`'s sampled neighbors.
    pub offsets: Vec<u32>,
    /// Sampled neighbor ids (global), grouped by destination.
    pub neighbors: Vec<NodeId>,
    /// Sorted, deduplicated union of `dst` and `neighbors`.
    pub src: Vec<NodeId>,
    /// For each destination, its row index in `src`.
    pub dst_pos_in_src: Vec<u32>,
    /// For each neighbor entry, its row index in `src`.
    pub neighbor_pos_in_src: Vec<u32>,
}

impl SampleLayer {
    /// Assembles a layer from the raw sampling output and computes the
    /// src set and index maps.
    pub fn new(dst: Vec<NodeId>, offsets: Vec<u32>, neighbors: Vec<NodeId>) -> Self {
        assert_eq!(
            offsets.len(),
            dst.len() + 1,
            "offsets must have dst.len()+1 entries"
        );
        assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
        let (src, dst_pos_in_src, neighbor_pos_in_src) = index_sources(&dst, &neighbors);
        SampleLayer {
            dst,
            offsets,
            neighbors,
            src,
            dst_pos_in_src,
            neighbor_pos_in_src,
        }
    }

    /// Number of destination nodes.
    pub fn num_dst(&self) -> usize {
        self.dst.len()
    }

    /// Number of sampled edges in this layer.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Sampled neighbors of the `i`-th destination.
    pub fn neighbors_of(&self, i: usize) -> &[NodeId] {
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Destinations of the layer after `layers`: the previous layer's
/// source set (the chaining invariant), or the seeds for layer 0.
pub(crate) fn next_dst(seeds: &[NodeId], layers: &[SampleLayer]) -> Vec<NodeId> {
    layers
        .last()
        .map_or_else(|| seeds.to_vec(), |p| p.src.clone())
}

/// A complete multi-layer graph sample for one mini-batch on one GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSample {
    /// The seed nodes this sample was built for.
    pub seeds: Vec<NodeId>,
    /// Layers outermost-first: `layers[0].dst == seeds`.
    pub layers: Vec<SampleLayer>,
}

impl GraphSample {
    /// Validates the chaining invariant and wraps the layers.
    pub fn new(seeds: Vec<NodeId>, layers: Vec<SampleLayer>) -> Self {
        if let Some(first) = layers.first() {
            assert_eq!(first.dst, seeds, "layer 0 destinations must be the seeds");
        }
        for w in layers.windows(2) {
            assert_eq!(w[0].src, w[1].dst, "layer l+1 dst must equal layer l src");
        }
        GraphSample { seeds, layers }
    }

    /// Number of sampling layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The nodes whose input features are required: the innermost
    /// layer's source set (covers every node in the sample).
    pub fn input_nodes(&self) -> &[NodeId] {
        self.layers
            .last()
            .map(|l| l.src.as_slice())
            .unwrap_or(&self.seeds)
    }

    /// Total sampled edges across layers.
    pub fn num_edges(&self) -> usize {
        self.layers.iter().map(|l| l.num_edges()).sum()
    }

    /// Total distinct nodes involved (== input set size by construction).
    pub fn num_nodes(&self) -> usize {
        self.input_nodes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_testkit::collection::vec;
    use ds_testkit::{prop_assert_eq, props};

    /// The obviously-right assembly [`index_sources`] replaced: sort,
    /// dedup, one binary search per entry.
    fn index_sources_reference(
        dst: &[NodeId],
        neighbors: &[NodeId],
    ) -> (Vec<NodeId>, Vec<u32>, Vec<u32>) {
        let mut src: Vec<NodeId> = dst.iter().chain(neighbors).copied().collect();
        src.sort_unstable();
        src.dedup();
        let pos = |v: &NodeId| src.binary_search(v).unwrap() as u32;
        let maps = (
            dst.iter().map(pos).collect(),
            neighbors.iter().map(pos).collect(),
        );
        (src, maps.0, maps.1)
    }

    props! {
        #![cases(256)]

        /// Dense ids (bitmap path), duplicates included, down to empty
        /// blocks; `base` slides the span anywhere below `u32::MAX / 2`.
        #[test]
        fn assembly_matches_the_sort_and_search_reference_on_dense_ids(
            dst in vec(0u32..3000, 0..40),
            neighbors in vec(0u32..3000, 0..400),
            base in 0u32..u32::MAX / 2,
        ) {
            let dst: Vec<NodeId> = dst.iter().map(|v| v + base).collect();
            let neighbors: Vec<NodeId> = neighbors.iter().map(|v| v + base).collect();
            prop_assert_eq!(
                index_sources(&dst, &neighbors),
                index_sources_reference(&dst, &neighbors)
            );
        }

        /// Ids scattered over half the id space (sort path): the scratch
        /// must not grow with the id.
        #[test]
        fn assembly_matches_the_reference_on_sparse_ids(
            dst in vec(0u32..u32::MAX / 2, 0..40),
            neighbors in vec(0u32..u32::MAX / 2, 0..400),
        ) {
            prop_assert_eq!(
                index_sources(&dst, &neighbors),
                index_sources_reference(&dst, &neighbors)
            );
            ID_SET_SCRATCH.with_borrow(|(bits, _)| {
                let bound = SPAN_WORDS_PER_ENTRY * 440 + 1;
                assert!(bits.len() <= bound, "scratch grew to {} words", bits.len());
                assert!(bits.iter().all(|&w| w == 0), "bitmap left dirty");
            });
        }
    }

    fn layer(dst: Vec<NodeId>, lists: Vec<Vec<NodeId>>) -> SampleLayer {
        let mut offsets = vec![0u32];
        let mut neighbors = Vec::new();
        for l in &lists {
            neighbors.extend_from_slice(l);
            offsets.push(neighbors.len() as u32);
        }
        SampleLayer::new(dst, offsets, neighbors)
    }

    #[test]
    fn layer_indexes_into_sorted_src() {
        let l = layer(vec![5, 2], vec![vec![9, 2], vec![5]]);
        assert_eq!(l.src, vec![2, 5, 9]);
        assert_eq!(l.dst_pos_in_src, vec![1, 0]);
        assert_eq!(l.neighbor_pos_in_src, vec![2, 0, 1]);
        assert_eq!(l.neighbors_of(0), &[9, 2]);
        assert_eq!(l.neighbors_of(1), &[5]);
        assert_eq!(l.num_edges(), 3);
    }

    #[test]
    fn sample_chains_layers() {
        let l0 = layer(vec![1], vec![vec![2, 3]]);
        // Next layer's dst must be l0.src = [1,2,3].
        let l1 = layer(vec![1, 2, 3], vec![vec![4], vec![], vec![1]]);
        let s = GraphSample::new(vec![1], vec![l0, l1]);
        assert_eq!(s.num_layers(), 2);
        assert_eq!(s.input_nodes(), &[1, 2, 3, 4]);
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.num_nodes(), 4);
    }

    #[test]
    #[should_panic(expected = "must equal")]
    fn rejects_broken_chain() {
        let l0 = layer(vec![1], vec![vec![2]]);
        let l1 = layer(vec![7], vec![vec![]]);
        GraphSample::new(vec![1], vec![l0, l1]);
    }

    #[test]
    #[should_panic(expected = "seeds")]
    fn rejects_wrong_seed_layer() {
        let l0 = layer(vec![2], vec![vec![3]]);
        GraphSample::new(vec![1], vec![l0]);
    }

    #[test]
    fn empty_sample_is_fine() {
        let s = GraphSample::new(vec![3, 4], vec![]);
        assert_eq!(s.input_nodes(), &[3, 4]);
        assert_eq!(s.num_edges(), 0);
    }

    #[test]
    fn duplicate_neighbors_collapse_in_src() {
        let l = layer(vec![1], vec![vec![2, 2, 2]]);
        assert_eq!(l.src, vec![1, 2]);
        assert_eq!(l.num_edges(), 3);
    }
}
