//! Determinism regression tests: the whole stack must be a pure
//! function of its seeds. These lock in (a) the ds-rng golden stream
//! through the umbrella re-export and (b) bit-identical CSP sampling
//! for a fixed seed across independently constructed samplers.

use dsp::comm::Communicator;
use dsp::graph::{gen, Csr, NodeId};
use dsp::rng::Rng;
use dsp::sampling::csp::{CspConfig, CspSampler};
use dsp::sampling::{BatchSampler, DistGraph, GraphSample};
use dsp::simgpu::{Clock, ClusterSpec};
use std::sync::Arc;

fn sample_once(g: &Csr, seed: u64, batches: usize) -> Vec<GraphSample> {
    let dg = Arc::new(DistGraph::single(g));
    let cluster = Arc::new(ClusterSpec::v100(1).build());
    let comm = Arc::new(Communicator::new(1, Arc::clone(&cluster)));
    let cfg = CspConfig::node_wise(vec![5, 5]).with_seed(seed);
    let mut s = CspSampler::new(dg, cluster, comm, 0, cfg);
    let mut clock = Clock::new();
    let seeds: Vec<NodeId> = (0..16u32)
        .map(|i| (i * 13) % g.num_nodes() as u32)
        .collect();
    (0..batches)
        .map(|_| s.sample_batch(&mut clock, &seeds))
        .collect()
}

#[test]
fn csp_frontiers_are_identical_for_identical_seeds() {
    let g = gen::erdos_renyi(300, 2400, true, 11);
    let a = sample_once(&g, 0xD5B0, 3);
    let b = sample_once(&g, 0xD5B0, 3);
    assert_eq!(a, b, "same seed must reproduce every frontier bit-for-bit");
    // The batch counter advances the stream: batches must differ.
    assert_ne!(a[0], a[1], "distinct batches should not repeat the sample");
}

#[test]
fn csp_frontiers_differ_across_seeds() {
    let g = gen::erdos_renyi(300, 2400, true, 11);
    let a = sample_once(&g, 1, 1);
    let b = sample_once(&g, 2, 1);
    assert_ne!(a, b, "different seeds should draw different neighborhoods");
}

#[test]
fn umbrella_rng_reexport_matches_the_golden_stream() {
    // First values of the seed-0 stream, frozen in ds-rng's own golden
    // test; checked here through `dsp::rng` so a re-export mix-up (or a
    // second PRNG sneaking into the tree) cannot go unnoticed.
    let mut r = Rng::seed_from_u64(0);
    assert_eq!(r.next_u64(), 11091344671253066420);
    assert_eq!(r.next_u64(), 13793997310169335082);
    let mut r = Rng::seed_from_u64(123);
    assert_eq!(r.gen::<f64>(), 0.19669435215621578);
}

#[test]
fn graph_generators_are_seed_pure() {
    let a = gen::rmat(
        gen::RmatParams {
            num_nodes: 1 << 10,
            num_edges: 1 << 13,
            ..Default::default()
        },
        9,
    );
    let b = gen::rmat(
        gen::RmatParams {
            num_nodes: 1 << 10,
            num_edges: 1 << 13,
            ..Default::default()
        },
        9,
    );
    assert_eq!(a.indptr(), b.indptr());
    assert_eq!(a.indices(), b.indices());
    let c = gen::rmat(
        gen::RmatParams {
            num_nodes: 1 << 10,
            num_edges: 1 << 13,
            ..Default::default()
        },
        10,
    );
    assert_ne!(a.indices(), c.indices());
}

// ---- Golden sample hashes -------------------------------------------
//
// `sample_equivalence` proves every sampler design agrees with every
// other, but they all share one draw kernel, so a kernel-wide drift
// would pass it. These constants pin the sampled graphs themselves:
// FNV-1a over every field of every `GraphSample`. They were captured
// from the `HashMap` partial Fisher–Yates kernel and must never move —
// the sampled graph is the contract every `batch_hash`, BENCH baseline
// and virtual-time metric rests on.

fn fnv(h: &mut u64, words: &[u32]) {
    // Length first, so moving an element across a field boundary shows.
    for w in std::iter::once(&(words.len() as u32)).chain(words) {
        for b in w.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn sample_hash(samples: &[GraphSample]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in samples {
        fnv(&mut h, &s.seeds);
        for l in &s.layers {
            fnv(&mut h, &l.dst);
            fnv(&mut h, &l.offsets);
            fnv(&mut h, &l.neighbors);
            fnv(&mut h, &l.src);
            fnv(&mut h, &l.dst_pos_in_src);
            fnv(&mut h, &l.neighbor_pos_in_src);
        }
    }
    h
}

/// Power-law graph with timestamps/weights: degrees from 0 to well past
/// the fan-outs, so both sides of `n <= k` and of the draw kernel's
/// inline/fallback boundary are hit.
fn golden_graph() -> Csr {
    let g = gen::rmat(
        gen::RmatParams {
            num_nodes: 1 << 11,
            num_edges: 1 << 16,
            ..Default::default()
        },
        23,
    );
    let w: Vec<f32> = (0..g.num_nodes())
        .map(|i| ((i * 7) % 13) as f32 * 0.5)
        .collect();
    g.with_node_weights(&w)
}

/// Two batches per rank of 2-rank CSP under `cfg`; rank 0's samples
/// first.
fn csp_two_ranks(g: &Csr, cfg: CspConfig) -> Vec<GraphSample> {
    let p = dsp::partition::simple::range_partition(g, 2);
    let renum = dsp::partition::Renumbering::from_partition(&p);
    let dg = Arc::new(DistGraph::from_renumbered(g, &renum));
    let cluster = Arc::new(ClusterSpec::v100(2).build());
    let comm = Arc::new(Communicator::new(1, Arc::clone(&cluster)));
    let n = g.num_nodes() as u32;
    let handles: Vec<_> = (0..2u32)
        .map(|rank| {
            let (dg, cluster, comm, cfg) = (
                Arc::clone(&dg),
                Arc::clone(&cluster),
                Arc::clone(&comm),
                cfg.clone(),
            );
            std::thread::spawn(move || {
                let mut s = CspSampler::new(dg, cluster, comm, rank as usize, cfg);
                let mut clock = Clock::new();
                let seeds: Vec<NodeId> =
                    (0..24u32).map(|i| (rank * (n / 2) + i * 41) % n).collect();
                (0..2)
                    .map(|_| s.sample_batch(&mut clock, &seeds))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect()
}

#[test]
fn golden_sample_hashes_are_pinned() {
    let g = golden_graph();
    let mut biased = CspConfig::node_wise(vec![6, 4]);
    biased.biased = true;
    // Layer-wise totals far above the frontier size, so single nodes are
    // allocated more draws than the kernel's inline swap table holds.
    let mut got: Vec<(&str, u64)> = [
        ("paper_default", CspConfig::paper_default()),
        (
            "layer_wise_replace",
            CspConfig::layer_wise(vec![512, 256], true),
        ),
        (
            "layer_wise_no_replace",
            CspConfig::layer_wise(vec![512, 256], false),
        ),
        ("biased", biased),
        ("temporal", CspConfig::node_wise(vec![8, 4]).temporal(3.0)),
    ]
    .into_iter()
    .map(|(name, cfg)| (name, sample_hash(&csp_two_ranks(&g, cfg))))
    .collect();

    let seeds: Vec<NodeId> = (0..32u32).map(|i| (i * 61) % 2048).collect();
    let local = dsp::sampling::local::local_sample(&g, &seeds, &[15, 10, 5], 0xD5B0, 1 << 41);
    got.push(("local_sample", sample_hash(&[local])));

    let dg = DistGraph::single(&g);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for cfg in [
        CspConfig::paper_default(),
        CspConfig::layer_wise(vec![512, 256], false),
    ] {
        let shadow = dsp::sampling::shadow::shadow_batch(&dg, &cfg, 3, &seeds);
        fnv(&mut h, &shadow.input_nodes);
        fnv(&mut h, &[shadow.sampled_edges as u32]);
    }
    got.push(("shadow_batch", h));

    let want: [(&str, u64); 7] = [
        ("paper_default", 0x4c29b88f865e921b),
        ("layer_wise_replace", 0x6496060446b9eeec),
        ("layer_wise_no_replace", 0x698b40c5ff240ea1),
        // Every 13th golden-graph weight is 0, and zero-weight neighbors
        // are never drawn.
        ("biased", 0x579ffcb20d52ea7c),
        ("temporal", 0x0aa43f2a9b066704),
        ("local_sample", 0x246a81234c0c1d16),
        ("shadow_batch", 0x7cfd99d409245fd3),
    ];
    assert_eq!(
        got,
        want,
        "sampled graphs drifted; got {:#018x?}",
        got.iter().map(|g| g.1).collect::<Vec<_>>()
    );
}
