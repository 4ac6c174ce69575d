//! # ds-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation (§7). Each table/figure has a binary:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_bandwidth` | Table 1 — NVLink/PCIe aggregate bandwidth |
//! | `fig1_comm_volume` | Fig. 1 — sampling communication volume vs *Ideal* |
//! | `fig2_kernel_scaling` | Fig. 2 — kernel time vs physical threads |
//! | `fig6_utilization` | Fig. 6 — GPU utilization, DSP-Seq vs pipeline |
//! | `fig9_convergence` | Fig. 9 — accuracy vs batches and vs time |
//! | `table4_epoch_time` | Table 4 — GraphSAGE epoch time, all systems |
//! | `table5_gcn` | Table 5 — GCN epoch time at 8 GPUs |
//! | `table6_sampling_time` | Table 6 — sampling time per epoch |
//! | `table7_layerwise` | Table 7 — layer-wise sampling vs FastGCN-CPU |
//! | `fig10_cache_split` | Fig. 10 — epoch time vs feature-cache size |
//! | `fig11_push_vs_pull` | Fig. 11 — CSP vs Pull-Data (biased) |
//! | `fig12_pipeline_speedup` | Fig. 12 — DSP over DSP-Seq |
//! | `ablation_*` | design-choice ablations beyond the paper |
//!
//! Run e.g. `cargo run --release -p ds-bench --bin table4_epoch_time`.
//! Set `DS_BENCH_QUICK=1` to use 4×-smaller datasets and fewer
//! measurement epochs (CI mode); results keep their shape.

use ds_graph::{Dataset, DatasetSpec};
use std::sync::OnceLock;

/// Whether quick (CI) mode is on.
pub fn quick_mode() -> bool {
    std::env::var("DS_BENCH_QUICK").map_or(false, |v| v != "0" && !v.is_empty())
}

/// Dataset down-scale factor in quick mode.
pub fn quick_factor() -> usize {
    if quick_mode() {
        4
    } else {
        1
    }
}

/// The benchmark datasets (built once per process).
pub fn datasets() -> &'static [Dataset] {
    static DATASETS: OnceLock<Vec<Dataset>> = OnceLock::new();
    DATASETS.get_or_init(|| {
        DatasetSpec::benchmark_suite()
            .into_iter()
            .map(|s| {
                eprintln!("[ds-bench] building {} ...", s.name);
                s.scaled_down(quick_factor()).build()
            })
            .collect()
    })
}

/// One benchmark dataset by paper name prefix ("Products", "Papers",
/// "Friendster").
pub fn dataset(name: &str) -> &'static Dataset {
    datasets()
        .iter()
        .find(|d| d.spec.name.starts_with(name))
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
}

/// GPU counts used throughout the paper's tables.
pub const GPU_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Formats a duration like the paper (3 significant figures).
pub fn sig3(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    let mag = x.abs().log10().floor() as i32;
    let decimals = (2 - mag).max(0) as usize;
    format!("{x:.decimals$}")
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Bold-the-best helper: marks the minimum entry of `values` (the
/// paper bolds the best system per column).
pub fn mark_best(values: &[f64]) -> Vec<String> {
    let best = values.iter().cloned().fold(f64::INFINITY, f64::min);
    values
        .iter()
        .map(|&v| {
            if v == best {
                format!("**{}**", sig3(v))
            } else {
                sig3(v)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig3_keeps_three_significant_figures() {
        assert_eq!(sig3(28.812), "28.8");
        assert_eq!(sig3(0.613499), "0.613");
        assert_eq!(sig3(1110.0), "1110");
        assert_eq!(sig3(5.4499), "5.45");
        assert_eq!(sig3(0.0), "0");
    }

    #[test]
    fn mark_best_bolds_minimum() {
        let marked = mark_best(&[3.0, 1.0, 2.0]);
        assert_eq!(marked[1], "**1.00**");
        assert!(!marked[0].contains("**"));
    }
}
