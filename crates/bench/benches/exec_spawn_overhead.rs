//! Bench: per-call scoped-spawn chunk map (the pre-pool `par`
//! implementation, reproduced inline) against the persistent ds-exec
//! work-stealing pool behind today's `par::chunk_map`. The serial
//! cutoff is forced to zero so both sides take their parallel path
//! even on the small case, where spawn overhead dominates.

use ds_simgpu::par;
use ds_testkit::bench::{criterion_group, criterion_main, Criterion};

fn work(c: &[f32]) -> f32 {
    c.iter().map(|x| x * x).sum::<f32>()
}

/// What `par::chunk_map` did before ds-exec: spawn one scoped thread
/// per worker on every call, strided over chunk indices, reassembling
/// results in chunk order.
fn spawn_chunk_map(data: &[f32], chunk: usize) -> Vec<f32> {
    let n_chunks = data.len().div_ceil(chunk);
    let threads = ds_exec::threads().min(n_chunks).max(1);
    let parts: Vec<Vec<(usize, f32)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut part = Vec::new();
                    let mut i = t;
                    while i < n_chunks {
                        let lo = i * chunk;
                        let hi = (lo + chunk).min(data.len());
                        part.push((i, work(&data[lo..hi])));
                        i += threads;
                    }
                    part
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut out = vec![0.0f32; n_chunks];
    for part in parts {
        for (i, v) in part {
            out[i] = v;
        }
    }
    out
}

fn pool_chunk_map(data: &[f32], chunk: usize) -> Vec<f32> {
    par::chunk_map(data, chunk, |_, c| work(c))
}

fn bench_exec(c: &mut Criterion) {
    // Force the parallel path on both sides, even for the small case.
    std::env::set_var("DS_PAR_SERIAL_CUTOFF", "0");
    let small: Vec<f32> = (0..2_048).map(|i| (i % 103) as f32 * 0.5).collect();
    let large: Vec<f32> = (0..1_048_576).map(|i| (i % 997) as f32).collect();
    assert_eq!(spawn_chunk_map(&small, 64), pool_chunk_map(&small, 64));
    assert_eq!(spawn_chunk_map(&large, 4096), pool_chunk_map(&large, 4096));
    c.bench_function("spawn_per_call_small_2k_c64", |b| {
        b.iter(|| spawn_chunk_map(&small, 64))
    });
    c.bench_function("pool_small_2k_c64", |b| {
        b.iter(|| pool_chunk_map(&small, 64))
    });
    c.bench_function("spawn_per_call_large_1m_c4096", |b| {
        b.iter(|| spawn_chunk_map(&large, 4096))
    });
    c.bench_function("pool_large_1m_c4096", |b| {
        b.iter(|| pool_chunk_map(&large, 4096))
    });
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
