//! bench_gemm — wall-clock microbench of the tensor kernel layer.
//!
//! Unlike the rest of the bench suite this measures *wall-clock* time
//! (`std::time::Instant`), not virtual clock: the point is the raw
//! speed of the GEMM/gather/softmax kernels themselves, which the
//! simgpu timing model deliberately abstracts away. Each lane reports
//! two keys into `BENCH_gemm.json`:
//!
//! - `<lane>_ms` — best-of-N wall-clock milliseconds (noisy; gated
//!   generously by `bench_gemm_diff`),
//! - `<lane>_hash` — FNV-1a over the output's f32 bit patterns
//!   (deterministic; gated *exactly* by `bench_gemm_diff`).
//!
//! The shape sweep covers the GEMM shapes the Fig. 9 training run and
//! the `bench_pipeline` trainer actually issue (m = sampled block
//! rows, k = fan-in = 2·dim for GraphSAGE concat, n = out dim), plus
//! square-ish shapes that stress the packing. The `gather_gemm` lane
//! measures the sparse-aggregation pattern (gather sampled rows, then
//! GEMM) and the `trainer_step` lane times a full GraphSAGE
//! forward+backward over a synthetic sample at `bench_pipeline`'s
//! scale — the end-to-end number the kernel overhaul is gated on.
//!
//! Quick mode (`DS_BENCH_QUICK=1`) only lowers the repeat counts;
//! shapes and therefore hashes are identical in both modes, so the
//! committed baseline's hash gate holds in CI.

use ds_gnn::model::{GnnKind, GnnModel};
use ds_rng::Rng;
use ds_sampling::sample::SampleLayer;
use ds_sampling::GraphSample;
use ds_tensor::init::uniform;
use ds_tensor::kernel;
use ds_tensor::ops;
use ds_tensor::{Dtype, QMatrix};
use std::fmt::Write as _;
use std::time::Instant;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hash_f32s(data: &[f32]) -> u64 {
    fnv1a(data.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Best-of-`reps` wall-clock milliseconds of `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(out);
        if dt < best {
            best = dt;
        }
    }
    best
}

/// One benchmark lane: a wall-clock time and an exact output hash.
struct Lane {
    name: String,
    ms: f64,
    hash: u64,
}

fn reps(full: usize) -> usize {
    if ds_bench::quick_mode() {
        (full / 4).max(2)
    } else {
        full
    }
}

/// Builds a chained multi-layer sample with `batch` seeds and the given
/// per-layer fanouts over a `num_nodes`-node id space — the shape the
/// real sampler produces, without dragging in a graph.
fn synth_sample(batch: usize, fanouts: &[usize], num_nodes: u32, seed: u64) -> GraphSample {
    let mut rng = Rng::seed_from_u64(seed);
    let seeds: Vec<u32> = (0..batch as u32).collect();
    let mut dst = seeds.clone();
    let mut layers = Vec::with_capacity(fanouts.len());
    for &f in fanouts {
        let mut offsets = vec![0u32];
        let mut neighbors = Vec::with_capacity(dst.len() * f);
        for _ in &dst {
            for _ in 0..f {
                neighbors.push(rng.gen_range(0..num_nodes));
            }
            offsets.push(neighbors.len() as u32);
        }
        let layer = SampleLayer::new(dst, offsets, neighbors);
        dst = layer.src.clone();
        layers.push(layer);
    }
    GraphSample::new(seeds, layers)
}

fn main() {
    let mut lanes: Vec<Lane> = Vec::new();

    // ---- dense GEMM sweep --------------------------------------------
    // (m, k, n): sampled-block rows × fan-in × out-dim. The first three
    // are the Fig. 9 / bench_pipeline trainer shapes (GraphSAGE concat
    // doubles k); the last is a fat shape at paper_default hidden=256.
    let shapes: &[(usize, usize, usize)] = &[
        (4096, 32, 32),
        (2048, 64, 32),
        (1024, 256, 32),
        (512, 512, 256),
    ];
    for &(m, k, n) in shapes {
        let a = uniform(m, k, 0.5, 0x5eed ^ ((m * k) as u64));
        let b = uniform(k, n, 0.5, 0xb00 ^ ((k * n) as u64));
        let out = a.matmul(&b);
        lanes.push(Lane {
            name: format!("gemm_nn_{m}x{k}x{n}"),
            ms: time_ms(reps(12), || a.matmul(&b)),
            hash: hash_f32s(out.data()),
        });
    }

    // ---- transposed orientations (weight-grad and input-grad GEMMs) --
    {
        let (m, k, n) = (2048, 64, 32);
        let a = uniform(m, k, 0.5, 11);
        let g = uniform(m, n, 0.5, 12);
        let out_tn = a.matmul_tn(&g); // k×n: the weight-gradient GEMM
        lanes.push(Lane {
            name: format!("gemm_tn_{m}x{k}x{n}"),
            ms: time_ms(reps(12), || a.matmul_tn(&g)),
            hash: hash_f32s(out_tn.data()),
        });
        let b = uniform(k, n, 0.5, 13);
        let out_nt = g.matmul_nt(&b); // m×k: the input-gradient GEMM
        lanes.push(Lane {
            name: format!("gemm_nt_{m}x{n}x{k}"),
            ms: time_ms(reps(12), || g.matmul_nt(&b)),
            hash: hash_f32s(out_nt.data()),
        });
    }

    // ---- fused gather+GEMM vs the materialized pair ------------------
    // out[r] = src[idx[r]] · w — the sparse-aggregation inner pattern.
    {
        let (rows, m, k, n) = (6000usize, 2048usize, 64usize, 32usize);
        let src = uniform(m, k, 0.5, 21);
        let w = uniform(k, n, 0.5, 22);
        let mut rng = Rng::seed_from_u64(23);
        let idx: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..m as u32)).collect();
        let out = kernel::gather_matmul(&src, &idx, &w);
        // The fused path must be bit-identical to the materialized
        // pair, so both lanes share one hash — the unfused lane exists
        // purely as the wall-clock comparison point.
        let unfused = src.gather_rows(&idx).matmul(&w);
        assert_eq!(out.data(), unfused.data(), "fused gather+GEMM diverged");
        lanes.push(Lane {
            name: format!("gather_gemm_{rows}x{k}x{n}"),
            ms: time_ms(reps(12), || kernel::gather_matmul(&src, &idx, &w)),
            hash: hash_f32s(out.data()),
        });
        lanes.push(Lane {
            name: format!("gather_gemm_unfused_{rows}x{k}x{n}"),
            ms: time_ms(reps(12), || src.gather_rows(&idx).matmul(&w)),
            hash: hash_f32s(unfused.data()),
        });

        // Quantized storage feeding the fused path: f16 and int8 rows
        // dequantized in the pack stage (the compressed-cache contract).
        for (dt, tag) in [(Dtype::F16, "f16"), (Dtype::Int8, "int8")] {
            let q = QMatrix::quantize(&src, dt);
            let qout = kernel::gather_matmul_q(&q, &idx, &w);
            lanes.push(Lane {
                name: format!("gather_gemm_{tag}_{rows}x{k}x{n}"),
                ms: time_ms(reps(12), || kernel::gather_matmul_q(&q, &idx, &w)),
                hash: hash_f32s(qout.data()),
            });
        }
    }

    // ---- transpose ---------------------------------------------------
    {
        let (m, n) = (1536, 768);
        let a = uniform(m, n, 0.5, 31);
        let out = a.transpose();
        lanes.push(Lane {
            name: format!("transpose_{m}x{n}"),
            ms: time_ms(reps(16), || a.transpose()),
            hash: hash_f32s(out.data()),
        });
    }

    // ---- softmax cross-entropy --------------------------------------
    {
        let (m, c) = (8192, 48);
        let logits = uniform(m, c, 2.0, 41);
        let mut rng = Rng::seed_from_u64(42);
        let labels: Vec<u32> = (0..m).map(|_| rng.gen_range(0..c as u32)).collect();
        let (loss, probs) = ops::softmax_cross_entropy(&logits, &labels);
        let mut h = hash_f32s(probs.data());
        h ^= loss.to_bits() as u64;
        lanes.push(Lane {
            name: format!("softmax_ce_{m}x{c}"),
            ms: time_ms(reps(16), || ops::softmax_cross_entropy(&logits, &labels)),
            hash: h,
        });
    }

    // ---- full trainer step at bench_pipeline scale -------------------
    // GraphSAGE, feat 16 / hidden 32 / 8 classes / 3 layers, batch 64,
    // paper fanout [15,10,5]: one loss_and_grad = the per-batch compute
    // the ≥2× trainer-stage speedup target is measured on.
    {
        let sample = synth_sample(64, &[15, 10, 5], 4000, 51);
        let model = GnnModel::new(GnnKind::GraphSage, 16, 32, 8, 3, 7);
        let input = uniform(sample.input_nodes().len(), 16, 0.5, 52);
        let mut rng = Rng::seed_from_u64(53);
        let labels: Vec<u32> = (0..64).map(|_| rng.gen_range(0..8u32)).collect();
        let (loss, _, grads) = model.loss_and_grad(&sample, &input, &labels);
        let mut h = hash_f32s(&grads);
        h ^= loss.to_bits() as u64;
        lanes.push(Lane {
            name: "trainer_step_sage".into(),
            ms: time_ms(reps(10), || model.loss_and_grad(&sample, &input, &labels)),
            hash: h,
        });
    }

    // GAT at the same scale: exercises the attention path + GEMMs.
    {
        let sample = synth_sample(64, &[10, 5], 4000, 61);
        let model = GnnModel::new(GnnKind::Gat, 16, 32, 8, 2, 8);
        let input = uniform(sample.input_nodes().len(), 16, 0.5, 62);
        let mut rng = Rng::seed_from_u64(63);
        let labels: Vec<u32> = (0..64).map(|_| rng.gen_range(0..8u32)).collect();
        let (loss, _, grads) = model.loss_and_grad(&sample, &input, &labels);
        let mut h = hash_f32s(&grads);
        h ^= loss.to_bits() as u64;
        lanes.push(Lane {
            name: "trainer_step_gat".into(),
            ms: time_ms(reps(10), || model.loss_and_grad(&sample, &input, &labels)),
            hash: h,
        });
    }

    // ---- emit --------------------------------------------------------
    let mut json = String::from("{\n");
    for (i, lane) in lanes.iter().enumerate() {
        let sep = if i + 1 == lanes.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "  \"{}_ms\": {:.4},\n  \"{}_hash\": \"{:016x}\"{}",
            lane.name, lane.ms, lane.name, lane.hash, sep
        );
        println!(
            "[bench_gemm] {:>28}  {:>9.4} ms  {:016x}",
            lane.name, lane.ms, lane.hash
        );
    }
    json.push_str("}\n");
    std::fs::write("BENCH_gemm.json", json).expect("write BENCH_gemm.json");
    println!("BENCH_gemm.json: {} lanes", lanes.len());
}
