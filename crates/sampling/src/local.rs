//! Local neighbor-sampling kernels — what each GPU executes in CSP's
//! *sample* stage (and what the UVA/CPU baselines run per frontier node).
//!
//! The RNG consumption order is the ABI: [`draw_neighbors_into`] is the
//! single source of truth for one node's draw and [`sample_frontier`]
//! for the per-frontier loop around it. The collective sampler, its
//! degraded pull path, the shadow replay, [`local_sample`] and the
//! baselines all go through them, so they cannot drift apart — and all
//! of them append into caller-owned flat buffers, no per-node `Vec`.

use crate::sample::{next_dst, GraphSample, SampleLayer};
use ds_graph::{Csr, NodeId};
use ds_rng::Rng;

/// Adjacency lookup the draw kernels need: the whole topology ([`Csr`])
/// or its partitioned layout ([`crate::DistGraph`]).
pub trait Adjacency {
    /// Neighbor ids of global node `v` and, if weighted, their weights.
    fn adjacency(&self, v: NodeId) -> (&[NodeId], Option<&[f32]>);
}

impl Adjacency for Csr {
    fn adjacency(&self, v: NodeId) -> (&[NodeId], Option<&[f32]>) {
        (self.neighbors(v), self.neighbor_weights(v))
    }
}

/// What one node's draw depends on besides the graph and its
/// `(batch, layer, node)` key — the part of a sampler's configuration
/// the kernels read ([`crate::csp::CspConfig::draw_params`] derives it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DrawParams {
    /// Base RNG seed.
    pub seed: u64,
    /// Draw with replacement (layer-wise sampling's default).
    pub replace: bool,
    /// Biased (edge-weighted) instead of uniform selection.
    pub biased: bool,
    /// Only edges with `timestamp <= cutoff` are eligible.
    pub temporal_cutoff: Option<f32>,
}

impl DrawParams {
    /// Uniform, without replacement, no temporal filter.
    pub fn uniform(seed: u64) -> Self {
        DrawParams {
            seed,
            replace: false,
            biased: false,
            temporal_cutoff: None,
        }
    }
}

/// Derives the RNG for one sampling request from logical identifiers
/// only — (base seed, batch, layer, node) — never from placement. Every
/// sampler in this crate draws through this function, so the constructed
/// graph samples are identical across systems and GPU counts. That makes
/// the paper's §7.1 correctness property ("accuracy-vs-batch curves of
/// all systems overlap") an exact, testable invariant here.
pub fn request_rng(seed: u64, batch: u64, layer: usize, node: NodeId) -> Rng {
    let mut x = seed
        ^ batch.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ ((layer as u64) << 56)
        ^ (node as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Rng::seed_from_u64(x ^ (x >> 31))
}

/// Samples a full multi-layer neighborhood on one device, with every
/// draw keyed through [`request_rng`] on `(seed, batch, layer, node)` —
/// the same logical keying as the distributed samplers, in a
/// caller-chosen batch stream. Evaluation (`dsp-core`) and online
/// serving (`ds-serve`) both replay through here with disjoint batch
/// bases, so neither can collide with a training batch's random stream.
pub fn local_sample(
    graph: &Csr,
    seeds: &[NodeId],
    fanout: &[usize],
    seed: u64,
    batch: u64,
) -> GraphSample {
    let draw = DrawParams::uniform(seed);
    let mut layers: Vec<SampleLayer> = Vec::with_capacity(fanout.len());
    for (l, &fan) in fanout.iter().enumerate() {
        let dst = next_dst(seeds, &layers);
        let requests = dst.iter().map(|&v| (v, fan as u32));
        let (offsets, neighbors) = sample_frontier(graph, draw, batch, l, requests);
        layers.push(SampleLayer::new(dst, offsets, neighbors));
    }
    GraphSample::new(seeds.to_vec(), layers)
}

/// The one per-frontier draw loop: draws every `(node, count)` request
/// in order into one flat buffer. Returns `(offsets, neighbors)` with
/// `offsets[i]..offsets[i + 1]` delimiting request `i`'s draw.
pub fn sample_frontier<G: Adjacency>(
    graph: &G,
    draw: DrawParams,
    batch: u64,
    layer: usize,
    requests: impl ExactSizeIterator<Item = (NodeId, u32)> + Clone,
) -> (Vec<u32>, Vec<NodeId>) {
    let mut offsets = Vec::with_capacity(requests.len() + 1);
    offsets.push(0u32);
    let requested: usize = requests.clone().map(|(_, c)| c as usize).sum();
    let mut neighbors = Vec::with_capacity(requested);
    for (node, count) in requests {
        draw_neighbors_into(graph, draw, batch, layer, node, count, &mut neighbors);
        offsets.push(neighbors.len() as u32);
    }
    (offsets, neighbors)
}

/// One node's neighbor draw for `layer` of `batch`, appended to `out` —
/// the pure core of CSP's sample stage (no spill accounting, no virtual
/// time). The same result regardless of which rank (or shadow pass)
/// executes it.
pub fn draw_neighbors_into<G: Adjacency>(
    graph: &G,
    draw: DrawParams,
    batch: u64,
    layer: usize,
    node: NodeId,
    count: u32,
    out: &mut Vec<NodeId>,
) {
    let (nb, ws) = graph.adjacency(node);
    let k = count as usize;
    if k == 0 || nb.is_empty() {
        return;
    }
    let mut rng = request_rng(draw.seed, batch, layer, node);
    if let Some(cutoff) = draw.temporal_cutoff {
        // Temporal predicate pushed with the task: restrict to edges no
        // newer than the cutoff. The eligible ids are filtered straight
        // into `out`'s tail and the draw happens on that tail in place.
        let ts = ws.expect("temporal sampling needs edge timestamps");
        let start = out.len();
        out.extend(
            nb.iter()
                .zip(ts)
                .filter(|&(_, &t)| t <= cutoff)
                .map(|(&u, _)| u),
        );
        let n = out.len() - start;
        if draw.replace && n > 0 {
            for _ in 0..k {
                out.push(out[start + rng.gen_range(0..n)]);
            }
            out.drain(start..start + n);
        } else if !draw.replace && n > k {
            // The tail is ours to permute: plain partial Fisher–Yates,
            // same draws and same picks as `sample_positions`.
            for i in 0..k {
                let j = rng.gen_range(i..n);
                out.swap(start + i, start + j);
            }
            out.truncate(start + k);
        }
    } else if draw.biased {
        let ws = ws.expect("biased sampling on an unweighted graph");
        sample_weighted_into(nb.iter().copied().zip(ws.iter().copied()), k, &mut rng, out);
    } else if draw.replace {
        sample_uniform_with_replacement_into(nb, k, &mut rng, out);
    } else {
        sample_uniform_into(nb, k, &mut rng, out);
    }
}

/// Draws [`sample_positions`] serves from its on-stack swap table. The
/// paper's fan-outs are 15/10/5; only layer-wise multinomial counts on
/// high-degree nodes go past this and spill the table to the heap.
const INLINE_DRAWS: usize = 32;

/// Draws `k` distinct positions of `0..n` uniformly (all of them, in
/// order, if `n <= k`) and passes each to `emit`. Partial Fisher–Yates
/// consuming exactly `gen_range(i..n)` for `i in 0..k` — that order is
/// what every pinned sample hash rests on.
///
/// The shuffle's sparse swap table (position → value now stored there)
/// is one open-addressed array at load ≤ 1/2, probed linearly from a
/// multiplicative hash: 64 slots on the stack up to [`INLINE_DRAWS`]
/// draws, `2k` rounded up to a power of two on the heap beyond. Time
/// and memory are O(k) whatever the degree `n`, and nothing is
/// allocated on the inline side.
pub fn sample_positions(n: usize, k: usize, rng: &mut Rng, mut emit: impl FnMut(usize)) {
    if n <= k {
        (0..n).for_each(emit);
        return;
    }
    const EMPTY: u32 = u32::MAX;
    assert!(n <= EMPTY as usize, "positions must stay below the marker");
    let mut inline = [(EMPTY, 0u32); 2 * INLINE_DRAWS];
    let mut spilled = Vec::new();
    let slots: &mut [(u32, u32)] = if k <= INLINE_DRAWS {
        &mut inline
    } else {
        spilled.resize((2 * k).next_power_of_two(), (EMPTY, 0));
        &mut spilled
    };
    let (shift, mask) = (64 - slots.len().trailing_zeros(), slots.len() - 1);
    // The slot holding position `x`, or the empty one where it belongs.
    let slot_of = |slots: &[(u32, u32)], x: u32| {
        let mut s = ((x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        while slots[s].0 != x && slots[s].0 != EMPTY {
            s = (s + 1) & mask;
        }
        s
    };
    for i in 0..k as u32 {
        let j = rng.gen_range(i as usize..n) as u32;
        let si = slot_of(slots, i);
        let at_i = if slots[si].0 == EMPTY { i } else { slots[si].1 };
        let sj = slot_of(slots, j);
        emit(if slots[sj].0 == EMPTY { j } else { slots[sj].1 } as usize);
        slots[sj] = (j, at_i);
    }
}

/// Samples `k` neighbors uniformly **without replacement** into `out`;
/// the whole list if it has ≤ `k` entries (DGL `replace=false`
/// semantics). See [`sample_positions`] for the draw order.
pub fn sample_uniform_into(neighbors: &[NodeId], k: usize, rng: &mut Rng, out: &mut Vec<NodeId>) {
    sample_positions(neighbors.len(), k, rng, |p| out.push(neighbors[p]));
}

/// Samples `k` neighbors **with replacement**, uniformly, into `out`.
pub fn sample_uniform_with_replacement_into(
    neighbors: &[NodeId],
    k: usize,
    rng: &mut Rng,
    out: &mut Vec<NodeId>,
) {
    if !neighbors.is_empty() {
        out.extend((0..k).map(|_| neighbors[rng.gen_range(0..neighbors.len())]));
    }
}

/// Weighted sampling without replacement via the Efraimidis–Spirakis
/// exponential-key trick: key_i = rand()^(1/w_i); take the k largest.
/// Zero-weight neighbors are never sampled (unless everything is zero).
/// Takes `(neighbor, weight)` pairs so pulled pair lists and split
/// id/weight arrays feed it alike; appends the picks to `out`.
pub fn sample_weighted_into(
    pairs: impl ExactSizeIterator<Item = (NodeId, f32)>,
    k: usize,
    rng: &mut Rng,
    out: &mut Vec<NodeId>,
) {
    if pairs.len() <= k {
        out.extend(pairs.map(|(v, _)| v));
        return;
    }
    let mut keyed: Vec<(f64, NodeId)> = pairs
        .map(|(v, w)| {
            let key = if w > 0.0 {
                // u^(1/w) maximized ⇔ ln(u)/w maximized (u in (0,1)).
                rng.gen_range(1e-12..1.0f64).ln() / w as f64
            } else {
                f64::NEG_INFINITY
            };
            (key, v)
        })
        .collect();
    keyed.select_nth_unstable_by(k - 1, |a, b| b.0.partial_cmp(&a.0).unwrap());
    out.extend(keyed[..k].iter().map(|&(_, v)| v));
}

/// Multinomial draw: `n` draws over `probs ∝ weights` with replacement;
/// returns the per-index draw counts. This is how CSP turns a layer-wise
/// fan-out into per-frontier-node neighbor counts (Eq. 2).
pub fn multinomial_counts(weights: &[f64], n: usize, rng: &mut Rng) -> Vec<u32> {
    let total: f64 = weights.iter().sum();
    let mut counts = vec![0u32; weights.len()];
    if total <= 0.0 || weights.is_empty() {
        return counts;
    }
    // Inverse-CDF per draw over a prefix-sum table.
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for &w in weights {
        acc += w;
        cdf.push(acc);
    }
    for _ in 0..n {
        let x = rng.gen_range(0.0..total);
        let idx = cdf.partition_point(|&c| c <= x).min(weights.len() - 1);
        counts[idx] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_testkit::{prop_assert_eq, props};
    use std::collections::HashMap;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    fn sample_uniform(neighbors: &[NodeId], k: usize, rng: &mut Rng) -> Vec<NodeId> {
        let mut out = Vec::new();
        sample_uniform_into(neighbors, k, rng, &mut out);
        out
    }

    fn sample_weighted(nb: &[NodeId], ws: &[f32], k: usize, rng: &mut Rng) -> Vec<NodeId> {
        let mut out = Vec::new();
        sample_weighted_into(nb.iter().copied().zip(ws.iter().copied()), k, rng, &mut out);
        out
    }

    /// The kernel every pinned hash was captured from: partial
    /// Fisher–Yates over a `HashMap` sparse swap table. Test-only oracle
    /// for [`sample_uniform_into`].
    fn sample_uniform_reference(neighbors: &[NodeId], k: usize, rng: &mut Rng) -> Vec<NodeId> {
        let n = neighbors.len();
        if n <= k {
            return neighbors.to_vec();
        }
        let mut swaps: HashMap<usize, usize> = HashMap::new();
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = rng.gen_range(i..n);
            let vi = *swaps.get(&i).unwrap_or(&i);
            let vj = *swaps.get(&j).unwrap_or(&j);
            out.push(neighbors[vj]);
            swaps.insert(j, vi);
        }
        out
    }

    props! {
        #![cases(256)]

        #[test]
        fn draw_kernel_matches_the_hashmap_reference(
            n in 0usize..2000,
            k in 0usize..200,
            prefix in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            // Distinct ids that are not their own position.
            let nb: Vec<NodeId> = (0..n as NodeId).map(|i| i * 3 + 7).collect();
            let mut r_new = Rng::seed_from_u64(seed);
            let mut r_ref = r_new.clone();
            let mut out: Vec<NodeId> = vec![u32::MAX; prefix];
            sample_uniform_into(&nb, k, &mut r_new, &mut out);
            let want = sample_uniform_reference(&nb, k, &mut r_ref);
            prop_assert_eq!(&out[..prefix], &vec![u32::MAX; prefix][..], "prefix disturbed");
            prop_assert_eq!(&out[prefix..], &want[..]);
            prop_assert_eq!(r_new, r_ref, "RNG left in a different state");
        }
    }

    #[test]
    fn draw_kernel_matches_the_reference_around_the_inline_boundary() {
        for k in [
            0,
            1,
            INLINE_DRAWS - 1,
            INLINE_DRAWS,
            INLINE_DRAWS + 1,
            199,
            1500,
        ] {
            for n in [0, 1, k.saturating_sub(1), k, k + 1, 2 * k + 3, 1999, 70_000] {
                let nb: Vec<NodeId> = (0..n as NodeId).rev().collect();
                let (mut r_new, mut r_ref) = (rng(), rng());
                let got = sample_uniform(&nb, k, &mut r_new);
                assert_eq!(
                    got,
                    sample_uniform_reference(&nb, k, &mut r_ref),
                    "n={n} k={k}"
                );
                assert_eq!(r_new, r_ref, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn temporal_draw_in_place_matches_drawing_from_the_filtered_list() {
        // Weights double as timestamps; the cutoff keeps every other
        // neighbor. Drawing on `out`'s tail in place must equal drawing
        // from the materialised eligible list, prefix untouched.
        let n = 60u32;
        // Node 0 holds all the edges; the other nodes exist only so
        // the neighbor ids 100.. are in range.
        let mut indptr = vec![n as u64; 101 + n as usize];
        indptr[0] = 0;
        let ts: Vec<f32> = (0..n).map(|i| (i % 2) as f32).collect();
        let g = Csr::from_raw(indptr, (100..100 + n).collect(), Some(ts));
        let eligible: Vec<NodeId> = (100..100 + n).step_by(2).collect();
        for (replace, count) in [(false, 7), (false, 45), (false, 29), (true, 50)] {
            let draw = DrawParams {
                replace,
                temporal_cutoff: Some(0.5),
                ..DrawParams::uniform(0xD5)
            };
            let mut out = vec![1, 2, 3];
            draw_neighbors_into(&g, draw, 4, 1, 0, count as u32, &mut out);
            let mut r = request_rng(draw.seed, 4, 1, 0);
            let mut want = vec![1, 2, 3];
            if replace {
                sample_uniform_with_replacement_into(&eligible, count, &mut r, &mut want);
            } else {
                want.extend(sample_uniform_reference(&eligible, count, &mut r));
            }
            assert_eq!(out, want, "replace={replace} count={count}");
        }
    }

    #[test]
    fn uniform_without_replacement_is_distinct_subset() {
        let nb: Vec<NodeId> = (0..100).collect();
        let mut r = rng();
        for _ in 0..50 {
            let s = sample_uniform(&nb, 10, &mut r);
            assert_eq!(s.len(), 10);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 10, "duplicates in {s:?}");
            assert!(s.iter().all(|v| (*v as usize) < 100));
        }
    }

    #[test]
    fn uniform_small_list_returns_all() {
        let nb = vec![7, 8, 9];
        assert_eq!(sample_uniform(&nb, 5, &mut rng()), vec![7, 8, 9]);
        assert_eq!(sample_uniform(&nb, 3, &mut rng()), vec![7, 8, 9]);
        assert!(sample_uniform(&[], 4, &mut rng()).is_empty());
    }

    #[test]
    fn uniform_is_approximately_uniform() {
        let nb: Vec<NodeId> = (0..20).collect();
        let mut hits = vec![0u32; 20];
        let mut r = rng();
        for _ in 0..4000 {
            for v in sample_uniform(&nb, 5, &mut r) {
                hits[v as usize] += 1;
            }
        }
        // Expected 1000 hits each; χ²-ish sanity bound.
        for (v, &h) in hits.iter().enumerate() {
            assert!((800..1200).contains(&h), "node {v} hit {h} times");
        }
    }

    #[test]
    fn with_replacement_allows_duplicates() {
        let nb = vec![1, 2];
        let mut s = Vec::new();
        sample_uniform_with_replacement_into(&nb, 100, &mut rng(), &mut s);
        assert_eq!(s.len(), 100);
        sample_uniform_with_replacement_into(&[], 5, &mut rng(), &mut s);
        assert_eq!(s.len(), 100, "empty list draws nothing");
    }

    #[test]
    fn weighted_prefers_heavy_neighbors() {
        let nb: Vec<NodeId> = (0..10).collect();
        let mut w = vec![1.0f32; 10];
        w[3] = 50.0;
        let mut hits3 = 0;
        let mut hits0 = 0;
        let mut r = rng();
        for _ in 0..2000 {
            let s = sample_weighted(&nb, &w, 2, &mut r);
            assert_eq!(s.len(), 2);
            hits3 += s.iter().filter(|&&v| v == 3).count();
            hits0 += s.iter().filter(|&&v| v == 0).count();
        }
        assert!(hits3 > 5 * hits0.max(1), "heavy {hits3} vs light {hits0}");
    }

    #[test]
    fn weighted_never_picks_zero_weight() {
        let nb = vec![1, 2, 3, 4];
        let w = vec![0.0, 1.0, 1.0, 0.0];
        let mut r = rng();
        for _ in 0..200 {
            let s = sample_weighted(&nb, &w, 2, &mut r);
            assert!(!s.contains(&1) && !s.contains(&4), "{s:?}");
        }
    }

    #[test]
    fn multinomial_counts_sum_to_n_and_track_weights() {
        let mut r = rng();
        let counts = multinomial_counts(&[1.0, 3.0], 4000, &mut r);
        assert_eq!(counts.iter().sum::<u32>(), 4000);
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(ratio > 2.4 && ratio < 3.8, "ratio {ratio}");
    }

    #[test]
    fn multinomial_handles_degenerate_inputs() {
        let mut r = rng();
        assert!(multinomial_counts(&[], 10, &mut r).is_empty());
        assert_eq!(multinomial_counts(&[0.0, 0.0], 10, &mut r), vec![0, 0]);
    }
}
