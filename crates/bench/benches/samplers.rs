//! Criterion micro-benchmarks: wall-clock cost of the sampler
//! implementations themselves (one mini-batch, single rank). These
//! measure *our implementation's* speed, complementing the simulated
//! times the table binaries report.
//!
//! `sampling_hot_path` holds the rung-level lanes of the host sampling
//! path (draw kernel → layer assembly → shadow replay / serve sample);
//! EXPERIMENTS.md "Sampling hot path — wall-clock A/B" quotes them
//! before and after the kernel rebuild.

use ds_comm::Communicator;
use ds_graph::gen;
use ds_sampling::baselines::{IdealSampler, UvaSampler, UvaVariant};
use ds_sampling::csp::{CspConfig, CspSampler};
use ds_sampling::local::{local_sample, sample_uniform_into};
use ds_sampling::shadow::shadow_batch;
use ds_sampling::{BatchSampler, DistGraph, SampleLayer};
use ds_simgpu::{Clock, ClusterSpec};
use ds_testkit::bench::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;

fn bench_samplers(c: &mut Criterion) {
    let g = Arc::new(gen::rmat(
        gen::RmatParams {
            num_nodes: 1 << 15,
            num_edges: 1 << 19,
            ..Default::default()
        },
        7,
    ));
    let seeds: Vec<u32> = (0..64u32).map(|i| i * 97).collect();
    let fanout = vec![15usize, 10, 5];

    let mut group = c.benchmark_group("sample_one_batch");
    group.bench_function("csp_single_rank", |b| {
        let dg = Arc::new(DistGraph::single(&g));
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let comm = Arc::new(Communicator::new(1, Arc::clone(&cluster)));
        let mut sampler =
            CspSampler::new(dg, cluster, comm, 0, CspConfig::node_wise(fanout.clone()));
        b.iter_batched(
            Clock::new,
            |mut clock| sampler.sample_batch(&mut clock, &seeds),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("uva", |b| {
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let mut sampler = UvaSampler::new(
            Arc::clone(&g),
            cluster,
            0,
            fanout.clone(),
            false,
            UvaVariant::DglUva,
            0xD5,
        );
        b.iter_batched(
            Clock::new,
            |mut clock| sampler.sample_batch(&mut clock, &seeds),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("ideal", |b| {
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let mut sampler = IdealSampler::new(Arc::clone(&g), cluster, 0, fanout.clone(), 0xD5);
        b.iter_batched(
            Clock::new,
            |mut clock| sampler.sample_batch(&mut clock, &seeds),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_hot_path(c: &mut Criterion) {
    let g = gen::rmat(
        gen::RmatParams {
            num_nodes: 1 << 15,
            num_edges: 1 << 19,
            ..Default::default()
        },
        7,
    );
    let mut group = c.benchmark_group("sampling_hot_path");

    // One node's draw at the paper's first-layer fan-out, below, near
    // and far above the degree where sampling starts; then past the
    // inline swap table (a layer-wise count on a hub), where
    // `sample_positions` spills it to the heap.
    for (k, deg) in [(15, 8u32), (15, 64), (15, 4096), (64, 4096), (64, 65536)] {
        let nb: Vec<u32> = (0..deg).collect();
        let mut rng = ds_rng::Rng::seed_from_u64(7);
        let mut out = Vec::with_capacity(k);
        group.bench_function(format!("draw_uniform_{k}_of_deg{deg}"), |b| {
            b.iter(|| {
                out.clear();
                sample_uniform_into(&nb, k, &mut rng, &mut out);
                out.len()
            })
        });
    }

    // Assembly of the innermost block of a paper-default batch: src
    // set, dst and neighbor position maps from the raw draw output.
    let seeds: Vec<u32> = (0..64u32).map(|i| i * 97).collect();
    let sample = local_sample(&g, &seeds, &[15, 10, 5], 0xD5, 0);
    let inner = sample.layers.last().unwrap();
    assert!(
        (6_000..10_000).contains(&inner.src.len()),
        "lane is named for an ~8k src set, got {}",
        inner.src.len()
    );
    group.bench_function("layer_assemble_8k_src", |b| {
        b.iter_batched(
            || {
                (
                    inner.dst.clone(),
                    inner.offsets.clone(),
                    inner.neighbors.clone(),
                )
            },
            |(dst, offsets, neighbors)| SampleLayer::new(dst, offsets, neighbors),
            BatchSize::SmallInput,
        );
    });

    // The other side of block assembly: ids too sparse for the bitmap
    // (one serve request's first block on a large graph) sort instead.
    let sparse_dst = vec![20_011u32];
    let sparse_nb: Vec<u32> = (0..15u32).map(|i| i * 2_003 + 5).collect();
    group.bench_function("layer_assemble_sparse_16_ids", |b| {
        b.iter_batched(
            || (sparse_dst.clone(), vec![0, 15], sparse_nb.clone()),
            |(dst, offsets, neighbors)| SampleLayer::new(dst, offsets, neighbors),
            BatchSize::SmallInput,
        );
    });

    let dg = DistGraph::single(&g);
    let cfg = CspConfig::paper_default();
    group.bench_function("shadow_batch_paper_default", |b| {
        b.iter(|| shadow_batch(&dg, &cfg, 0, &seeds))
    });

    // ds-serve's sampling step at its default micro-batch of 8.
    group.bench_function("local_sample_serve_batch8", |b| {
        b.iter(|| local_sample(&g, &seeds[..8], &[15, 10, 5], 0xD5, 1 << 41))
    });
    group.finish();
}

criterion_group!(benches, bench_samplers, bench_hot_path);
criterion_main!(benches);
