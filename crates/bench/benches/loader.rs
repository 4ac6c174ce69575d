//! Criterion micro-benchmarks: wall-clock cost of one `DspLoader` batch
//! load on the host (single rank, 16 384 rows of 128 floats = 8 MB, a
//! `dp_cold`-sized batch). The rung-level lanes of the load path;
//! EXPERIMENTS.md "Load path — wall-clock A/B" quotes them.
//!
//! Each lane runs `fresh` (the loader allocates the batch matrix, the
//! caller drops it — what every batch paid before buffers were
//! recycled, and what a caller that never hands matrices back still
//! pays) and `recycled` (the matrix goes back to the rank's free list,
//! as the executors' trainer loops do).
//!
//! `serve_lru_access` is the serve fetch's cold-path rung: one replay's
//! worth of accesses (600 000) through a fresh 256-row LRU
//! `PolicyCache`, ids drawn uniformly from 2^23 so that about 3 in
//! 100 000 hit — `serve_sweep`'s serve LRU misses on all but 1–4 in
//! 100 000 of its ~550 000 accesses per replay.

use ds_cache::{DspLoader, DynamicPolicyKind, PartitionedCache, PolicyCache, PrefetchedWindow};
use ds_comm::Communicator;
use ds_graph::{Features, NodeId};
use ds_simgpu::{Clock, ClusterSpec};
use ds_testkit::bench::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

const NODES: usize = 1 << 16;
const ROWS: usize = 1 << 14;
const DIM: usize = 128;

/// A single-rank loader over `NODES` host rows whose cache holds the
/// first `cached` node ids.
fn loader(host: &Arc<Features>, cached: usize, comm_id: u32) -> DspLoader {
    let order: Vec<NodeId> = (0..cached as NodeId).collect();
    let budget = cached as u64 * host.row_bytes();
    let cache = PartitionedCache::build(host, &[0..NODES as NodeId], &order, budget);
    let cluster = Arc::new(ClusterSpec::v100(1).build());
    let comm = Arc::new(Communicator::new(comm_id, Arc::clone(&cluster)));
    DspLoader::new(Arc::new(cache), Arc::clone(host), cluster, comm, 0)
}

fn bench_load_path(c: &mut Criterion) {
    let host = Arc::new(Features::from_raw(
        DIM,
        (0..NODES * DIM).map(|i| (i % 251) as f32).collect(),
    ));
    // Sorted, distinct, scattered over the whole store (stride 4 with a
    // per-row jitter), like a sampled input set.
    let scattered: Vec<NodeId> = (0..ROWS as u32).map(|i| 4 * i + (i * 7 % 4)).collect();
    let leading: Vec<NodeId> = (0..ROWS as NodeId).collect();
    let window = PrefetchedWindow::new(0, scattered.clone());

    // (lane, cached rows, requested nodes, window)
    let lanes: [(&str, usize, &[NodeId], Option<&PrefetchedWindow>); 3] = [
        ("load_cold_16k_rows_dim128_demand", 0, &scattered, None),
        (
            "load_cold_16k_rows_dim128_windowed",
            0,
            &scattered,
            Some(&window),
        ),
        ("load_hot_16k_rows_dim128", ROWS, &leading, None),
    ];
    let mut group = c.benchmark_group("load_path");
    for (i, (lane, cached, nodes, window)) in lanes.into_iter().enumerate() {
        group.bench_function(format!("{lane}/fresh"), |b| {
            let mut l = loader(&host, cached, 60 + i as u32);
            let mut clock = Clock::new();
            b.iter(|| l.try_load_windowed(&mut clock, nodes, window, 0).unwrap());
        });
        group.bench_function(format!("{lane}/recycled"), |b| {
            let mut l = loader(&host, cached, 70 + i as u32);
            let mut clock = Clock::new();
            let buffers = l.feature_buffers();
            // One batch so the list knows its size, then the top-up an
            // epoch launch does.
            l.try_load_windowed(&mut clock, nodes, window, 0).unwrap();
            buffers.prepare();
            b.iter(|| {
                let feats = l.try_load_windowed(&mut clock, nodes, window, 0).unwrap();
                buffers.give_back(feats);
            });
        });
    }
    group.finish();
}

fn bench_serve_lru(c: &mut Criterion) {
    let mut x: u64 = 0x5e7e_d00d;
    let trace: Vec<NodeId> = (0..600_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 41) as NodeId
        })
        .collect();
    let mut group = c.benchmark_group("serve_lru_access");
    group.bench_function("600k_cap256_uniform_2e23", |b| {
        b.iter(|| {
            let mut cache = PolicyCache::new(256, DynamicPolicyKind::Lru.build());
            for &v in &trace {
                cache.access(v);
            }
            cache.stats().misses
        });
    });
    group.finish();
}

criterion_group!(benches, bench_load_path, bench_serve_lru);
criterion_main!(benches);
