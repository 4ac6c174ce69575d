#!/usr/bin/env bash
# Tier-1 verification — the hermetic offline build-and-test gate.
#
# The workspace has zero registry dependencies (tests/hermetic.rs
# enforces it), so everything here must succeed with no network:
# --offline is not an optimization but part of the contract.
set -euo pipefail
cd "$(dirname "$0")/.."

# Serve stage: the online-inference lane. bench_serve replays the same
# seeded open-loop traces twice — the reports must be byte-identical
# (virtual-clock determinism is part of the serving contract) — and the
# latency/goodput columns are gated against the committed baseline.
# Invocable alone as `scripts/ci.sh serve`.
serve_stage() {
    rm -f BENCH_serve.json target/BENCH_serve_repeat.json
    cargo run -q --release --offline -p ds-bench --bin bench_serve
    test -s BENCH_serve.json
    cargo run -q --release --offline -p ds-bench --bin bench_serve -- \
        target/BENCH_serve_repeat.json
    cmp BENCH_serve.json target/BENCH_serve_repeat.json
    cargo run -q --release --offline -p ds-bench --bin bench_serve_diff -- \
        BENCH_serve.json results/BENCH_serve_baseline.json
}

if [ "${1:-}" = "serve" ]; then
    cargo build --release --offline
    serve_stage
    exit 0
fi

# Split stage: the DSP-vs-GSplit head-to-head. bench_split sweeps both
# training modes over the same datasets and GPU counts twice — the
# reports must be byte-identical (the partial-aggregate exchange rides
# the same virtual clock) — then the per-lane epoch times and the
# measured crossover are gated against the committed baseline, and the
# split exchange protocol's ds-check models rerun by name.
# Invocable alone as `scripts/ci.sh split`.
split_stage() {
    rm -f BENCH_split.json target/BENCH_split_repeat.json
    DS_BENCH_QUICK=1 cargo run -q --release --offline -p ds-bench --bin bench_split
    test -s BENCH_split.json
    DS_BENCH_QUICK=1 cargo run -q --release --offline -p ds-bench --bin bench_split -- \
        target/BENCH_split_repeat.json
    cmp BENCH_split.json target/BENCH_split_repeat.json
    cargo run -q --release --offline -p ds-bench --bin bench_split_diff -- \
        BENCH_split.json results/BENCH_split_baseline.json
    cargo test -q --offline --features check --test check_models -- split
}

if [ "${1:-}" = "split" ]; then
    cargo build --release --offline
    split_stage
    exit 0
fi

# Benchmark smoke stage: the two-clock benchmark's own output checks
# (quarter-size graphs, one measured epoch, every workload timed and
# traced) — exits non-zero unless every run reports `"correct": true`.
# This stage only calls the harness; what it measures and gates lives in
# benchmark/README.md. Invocable alone as `scripts/ci.sh bench_smoke`.
bench_smoke_stage() {
    benchmark/run.sh --smoke
}

if [ "${1:-}" = "bench_smoke" ]; then
    bench_smoke_stage
    exit 0
fi

cargo fmt --check
scripts/lint_locks.sh
scripts/lint_threads.sh
scripts/lint_sync.sh
cargo build --release --offline
# `cargo test` does not compile harness=false benches; build them so
# the ds-testkit bench API stays honest.
cargo build --offline --benches
cargo test -q --offline --workspace

# Chaos stage: the full system under seed-driven fault injection, swept
# over two fixed seeds via the env plumbing (delay-class chaos must be
# invisible to convergence), on top of the crash/degradation scenarios
# in tests/chaos.rs that already ran with the workspace suite.
for seed in 1 2; do
    DS_FAULT_PLAN="chaos:n=4" DS_FAULT_SEED="$seed" \
        cargo test -q --offline --test fault_env
done

# Recovery stage: elastic recovery under chaos. A multi-seed soak where
# a crashed sampler rejoins mid-run while delay-class chaos plays over
# it (convergence must stay bit-identical through the rejoin), then the
# checkpoint codec round-trip and the rejoin / flapping-peer / shard-
# rebuild / checkpoint-resume scenarios rerun by name so a recovery
# regression fails this stage explicitly, not just the workspace sweep.
for seed in 1 2; do
    DS_FAULT_PLAN="chaos:n=3; crash:rank=1,worker=sampler,batch=1; recover:rank=1,worker=sampler,batch=3" \
        DS_FAULT_SEED="$seed" cargo test -q --offline --test fault_env
done
cargo test -q --offline -p ds-store ckpt
cargo test -q --offline --test chaos -- rejoin flapping rebuild checkpoint resume

# Check stage: deterministic schedule exploration of the concurrency
# core. `--features check` swaps every shimmed crate's `crate::sync`
# (`ds_check::alias`) onto the `ds_check::sync` shims; the model suites
# run bounded-exhaustive DFS plus a fixed-seed PCT budget over the real
# chan / slots / CCC protocols (tests/check_models.rs) and over the
# harness's own regression models (crates/check). Each shimmed crate's
# own suite (the list lint_sync.sh reads from the manifests) also
# reruns on the shims to prove the alias is inert outside a model.
cargo test -q --offline --features check --test check_models
cargo test -q --offline -p ds-check
for crate in $(scripts/lint_sync.sh --crates); do
    cargo test -q --offline -p "$crate" --features ds-check/shim
done

# Trace stage: observability end to end. The traced quickstart must
# export a well-formed Chrome trace (valid JSON, every B matched by an
# E per lane — trace_check re-parses the file from disk), and the
# telemetry emitter must produce non-empty machine-readable perf points
# folded from the trace stream.
DS_TRACE=1 cargo run -q --release --offline --example quickstart > /dev/null
cargo run -q --release --offline -p ds-bench --bin trace_check -- \
    results/quickstart_trace.json
rm -f BENCH_pipeline.json
DS_BENCH_QUICK=1 cargo run -q --release --offline -p ds-bench --bin bench_pipeline
test -s BENCH_pipeline.json
# Regression gate: virtual-clock times are deterministic, so the fresh
# run must sit within 25% of the committed baseline on every stage —
# and the beneficial counters (cache.hits, cache.prefetch_hits) must
# still be flowing.
cargo run -q --release --offline -p ds-bench --bin bench_diff -- \
    BENCH_pipeline.json results/BENCH_baseline.json

# Kernel stage: wall-clock microbench of the packed-GEMM / fused-gather
# tensor kernels. Output hashes are bit-deterministic and identical in
# quick mode, so they gate exactly against the committed baseline;
# wall-clock columns are machine noise and gate only at a generous
# factor (the gate catches fast-path cliffs, not percent drift).
rm -f BENCH_gemm.json
DS_BENCH_QUICK=1 cargo run -q --release --offline -p ds-bench --bin bench_gemm
test -s BENCH_gemm.json
cargo run -q --release --offline -p ds-bench --bin bench_gemm_diff -- \
    BENCH_gemm.json results/BENCH_gemm_baseline.json

# Cache-policy ablation: static/LRU/LFU/hotness vs the Belady oracle
# ceiling. The bin self-asserts the dominance invariants (oracle >= all,
# hotness beats static on the shifted workload) and its output must be
# byte-identical across runs — policy replay is part of the determinism
# contract.
cargo run -q --release --offline -p ds-bench --bin ablation_cache
cargo run -q --release --offline -p ds-bench --bin ablation_cache -- \
    target/ablation_cache_repeat.txt
cmp results/ablation_cache.txt target/ablation_cache_repeat.txt

# Serving: double-run byte-identity + latency/goodput gate (see
# serve_stage above).
serve_stage

# Split parallelism: double-run byte-identity of the DSP-vs-GSplit
# head-to-head + epoch-time/crossover gate + exchange-protocol models
# (see split_stage above).
split_stage

# Benchmark harness smoke run (see bench_smoke_stage above).
bench_smoke_stage
