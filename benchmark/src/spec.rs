//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` is this
//! table rendered by [`manifest_json`]; a unit test keeps the two equal.
//!
//! A metric's clock is part of its name: `*_virt_*` is simulated time or
//! rate on the modelled DGX-1 (repeats bit-exactly for a fixed seed),
//! `*_wall_*` is host time of this process, anything else is a count or
//! a host resource.

use dsp::graph::DatasetSpec;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read from, derived from its name.
pub fn clock_of(name: &str) -> &'static str {
    // The highest ok rate is found on the simulated timeline too.
    if name.contains("_virt") || name == "serve_max_ok_rate_rps" {
        "virtual"
    } else if name.contains("_wall") || name == "setup_s" {
        "wall"
    } else {
        "host/count"
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers carry this workload and which it bypasses.
    pub why: &'static str,
    pub dataset: fn() -> DatasetSpec,
    /// `DatasetSpec::scaled_down` factor.
    pub shrink: usize,
    pub gpus: usize,
    pub pipelined: bool,
    pub split: bool,
    pub exec_compute: bool,
    /// Cap the feature cache at a quarter of the features.
    pub quarter_cache: bool,
    /// Epochs run and discarded before measuring.
    pub warmup: u64,
    /// Measured epochs the virtual metrics are taken from; a run never
    /// measures fewer, and measures more while `--seconds` lasts.
    pub epochs: u64,
    /// Requests per serve replay.
    pub serve_requests: usize,
    /// Offered rate latency is quoted at: 80 000 rps, or 40 000 rps on
    /// the layouts whose capacity is below that (Papers, Friendster),
    /// where 80 000 rps would measure the overload plateau instead.
    pub latency_rps: f64,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dp_compute",
        why: "Products-S/8, 2 GPUs, real forward/backward GEMMs: tensor and gnn are most of the host time here and almost none elsewhere; also the convergence check",
        dataset: DatasetSpec::products_s,
        shrink: 8,
        gpus: 2,
        pipelined: true,
        split: false,
        exec_compute: true,
        quarter_cache: false,
        warmup: 1,
        epochs: 5,
        serve_requests: 2000,
        latency_rps: 80e3,
    },
    Workload {
        name: "dp_cold",
        why: "Papers-S/4, 2 GPUs, pipelined, timing-only: the cache holds a fraction of the features, so sampling, the cold UVA path, the prefetcher and the pipeline queues carry both clocks",
        dataset: DatasetSpec::papers_s,
        shrink: 4,
        gpus: 2,
        pipelined: true,
        split: false,
        exec_compute: false,
        quarter_cache: false,
        warmup: 2,
        epochs: 10,
        serve_requests: 2000,
        latency_rps: 40e3,
    },
    Workload {
        name: "seq_cold",
        why: "dp_cold with the pipeline off (DSP-Seq): bypasses queues, CCC, kernel slots and the prefetcher, so an executor change must move dp_cold and leave this flat",
        dataset: DatasetSpec::papers_s,
        shrink: 4,
        gpus: 2,
        pipelined: false,
        split: false,
        exec_compute: false,
        quarter_cache: false,
        warmup: 2,
        epochs: 10,
        serve_requests: 2000,
        latency_rps: 40e3,
    },
    Workload {
        name: "split_hot",
        why: "Products-S/4, 2 GPUs, split-parallel: owner-served slices and two all_to_all_v exchange rounds replace raw-row loads, prefetcher off, so a dp-load gain that taxes the exchange shows here",
        dataset: DatasetSpec::products_s,
        shrink: 4,
        gpus: 2,
        pipelined: true,
        split: true,
        exec_compute: false,
        quarter_cache: false,
        warmup: 2,
        epochs: 10,
        serve_requests: 2000,
        latency_rps: 80e3,
    },
    Workload {
        name: "scale8_nvlink",
        why: "Friendster-S/4, 8 GPUs, pipelined: eight-way rendezvous, CCC ordering and multi-hop NVLink relay dominate; 24+ threads share the host cores, so no wall-clock scaling is derived from it",
        dataset: DatasetSpec::friendster_s,
        shrink: 4,
        gpus: 8,
        pipelined: true,
        split: false,
        exec_compute: false,
        quarter_cache: false,
        warmup: 2,
        epochs: 10,
        serve_requests: 2000,
        latency_rps: 40e3,
    },
    Workload {
        name: "serve_sweep",
        why: "Products-S/4, 2 GPUs, cache capped at a quarter of the features, open-loop Poisson replays of 10000 requests: sampling::local, the serve LRU and gnn::infer dominate; training is a short probe",
        dataset: DatasetSpec::products_s,
        shrink: 4,
        gpus: 2,
        pipelined: true,
        split: false,
        exec_compute: false,
        quarter_cache: true,
        warmup: 2,
        epochs: 10,
        serve_requests: 10_000,
        latency_rps: 80e3,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every run reports all of these. The bounds are the larger of the
/// bound the issue asked for and three times the quartile spread seen
/// across ten seeds (README.md, "Bounds"), because the driver compares
/// runs that use different seeds.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("epoch_virt_s", "s", Lower, 0.12),
    e2e("gpu_util_virt", "ratio", Higher, 0.12),
    e2e("epoch_wall_s", "s", Lower, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("serve_p50_virt_ms", "ms", Lower, 0.15),
    e2e("serve_p99_virt_ms", "ms", Lower, 0.25),
    e2e("serve_goodput_virt_rps", "1/s", Higher, 0.05),
    e2e("serve_max_ok_rate_rps", "1/s", Higher, 0.12),
    e2e("serve_replay_wall_s", "s", Lower, 0.15),
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per measured epoch unless the name says otherwise; wall stage times
/// are summed over ranks. README.md says which end-to-end metric each
/// should move on which workload.
pub const PER_LAYER: &[PerLayer] = &[
    // graph / partition / dsp-core set-up
    pl("graph.build_wall_s", "s", Lower),
    pl("partition.partition_wall_s", "s", Lower),
    pl("partition.edge_cut_frac", "ratio", Lower),
    pl("dsp-core.layout_wall_s", "s", Lower),
    pl("dsp-core.system_new_wall_s", "s", Lower),
    // sampling
    pl("sampling.sample_wall_s", "s", Lower),
    pl("sampling.sample_virt_s", "s", Lower),
    pl("sampling.csp_shuffle_virt_s", "s", Lower),
    pl("sampling.csp_sample_virt_s", "s", Lower),
    pl("sampling.csp_reshuffle_virt_s", "s", Lower),
    pl("sampling.sampled_edges", "count", Lower),
    pl("sampling.input_nodes", "count", Lower),
    // cache
    pl("cache.load_wall_s", "s", Lower),
    pl("cache.load_virt_s", "s", Lower),
    pl("cache.hot_virt_s", "s", Lower),
    pl("cache.cold_virt_s", "s", Lower),
    pl("cache.rows_requested", "count", Lower),
    pl("cache.hits", "count", Higher),
    pl("cache.cold", "count", Lower),
    pl("cache.prefetch_hits", "count", Higher),
    pl("cache.hit_ratio", "ratio", Higher),
    pl("cache.prefetch_rows", "count", Lower),
    // comm
    pl("comm.a2a_wall_us", "us", Lower),
    pl("comm.allreduce_wall_us", "us", Lower),
    pl("comm.barrier_wall_us", "us", Lower),
    pl("comm.rounds", "count", Lower),
    pl("comm.round_virt_s", "s", Lower),
    pl("comm.ccc_queue_len_max", "count", Lower),
    // simgpu
    pl("simgpu.nvlink_bytes", "B", Lower),
    pl("simgpu.pcie_bytes", "B", Lower),
    pl("simgpu.host_bytes", "B", Lower),
    pl("simgpu.bytes_per_seed", "B", Lower),
    // tensor / gnn
    pl("gnn.train_wall_s", "s", Lower),
    pl("gnn.compute_wall_s", "s", Lower),
    pl("gnn.train_virt_s", "s", Lower),
    pl("gnn.loss_final", "loss", Lower),
    pl("tensor.gemm_512x512x256_wall_ms", "ms", Lower),
    pl("tensor.gather_gemm_6000x64x32_wall_ms", "ms", Lower),
    // pipeline
    pl("pipeline.q_sample_wait_virt_s", "s", Lower),
    pl("pipeline.q_feat_wait_virt_s", "s", Lower),
    pl("pipeline.q_prefetch_wait_virt_s", "s", Lower),
    pl("pipeline.q_sample_mean_depth", "count", Higher),
    pl("pipeline.q_feat_mean_depth", "count", Higher),
    pl("pipeline.pushes", "count", Lower),
    pl("pipeline.pops", "count", Lower),
    pl("pipeline.handoff_wall_us", "us", Lower),
    // dsp-core executor + split exchange
    pl("dsp-core.stage_sum_wall_s", "s", Lower),
    pl("dsp-core.driver_epoch_wall_s", "s", Lower),
    pl("dsp-core.unattributed_wall_frac", "ratio", Lower),
    pl("dsp-core.executor_wall_ratio", "ratio", Lower),
    pl("dsp-core.exchange_wall_s", "s", Lower),
    pl("dsp-core.exchange_virt_s", "s", Lower),
    pl("dsp-core.retried_batches", "count", Lower),
    pl("dsp-core.degraded_ranks", "count", Lower),
    // exec
    pl("exec.submitted", "count", Lower),
    pl("exec.executed", "count", Lower),
    pl("exec.helped", "count", Lower),
    pl("exec.stolen", "count", Lower),
    // serve
    pl("serve.batches", "count", Lower),
    pl("serve.mean_batch", "count", Higher),
    pl("serve.sample_virt_s", "s", Lower),
    pl("serve.fetch_virt_s", "s", Lower),
    pl("serve.forward_virt_s", "s", Lower),
    pl("serve.shed_queue", "count", Lower),
    pl("serve.shed_deadline", "count", Lower),
    pl("serve.wall_us_per_req", "us", Lower),
    // store
    pl("store.ckpt_save_wall_ms", "ms", Lower),
    // trace
    pl("trace.overhead_wall_ratio", "ratio", Lower),
    pl("trace.events", "count", Lower),
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&format!("  \"workloads\": {},\n", rows(workloads)));
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s.push_str(&format!("  \"end_to_end\": {},\n", rows(e2e)));
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&format!("  \"per_layer\": {}\n}}\n", rows(layers)));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::trace::json::{self, Json};

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_sizes_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert_eq!(PER_LAYER.len(), 69);
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s takes the largest bound");
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let want = json::parse(&manifest_json()).expect("manifest_json is valid JSON");
        let got = json::parse(&on_disk).expect("BENCHMARK.json is valid JSON");
        assert_eq!(
            got, want,
            "regenerate with `benchmark/run.sh --print-manifest`"
        );
        let Json::Obj(keys) = &got else {
            panic!("BENCHMARK.json must be an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn manifest_has_only_path_dependencies() {
        let text = include_str!("../Cargo.toml");
        let mut in_deps = false;
        let mut deps = 0;
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                in_deps = line.contains("dependencies");
            } else if in_deps && !line.is_empty() && !line.starts_with('#') {
                assert!(line.contains("path ="), "registry dependency: {line}");
                deps += 1;
            }
        }
        assert!(deps >= 1);
    }
}
