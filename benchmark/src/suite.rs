//! The whole suite: every workload, timed and traced, each in a child
//! process of its own (as the driver runs them, so peak memory and the
//! thread pool are per workload), then the tables, the cross-workload
//! figures and, with `--repeat`, the agreement of repeated runs.

use crate::spec::{self, END_TO_END, WORKLOADS};
use crate::Args;
use dsp::trace::json::{self, Json};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The parsed result line of one child run.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Option<RunResult> {
    let doc = json::parse(line).ok()?;
    let Json::Obj(metrics) = doc.get("metrics")? else {
        return None;
    };
    Some(RunResult {
        correct: doc.get("correct")? == &Json::Bool(true),
        attempted: doc.get("attempted")?.as_i64()? as u64,
        failed: doc.get("failed")?.as_i64()? as u64,
        metrics: metrics
            .iter()
            .map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect::<Option<_>>()?,
    })
}

/// Runs one workload in a child process, echoes what it printed and
/// returns its result; `None` when it printed none.
fn child(workload: &str, args: &Args, trace: bool) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("start a child run");
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let result = text.lines().last().and_then(parse_result);
    if result.is_none() {
        println!("# {workload}: no result ({})", output.status);
    }
    result
}

/// Largest relative distance between repeats of one value.
fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / lo.abs().max(f64::MIN_POSITIVE)
}

/// How repeats of one end-to-end metric compare: virtual metrics must
/// repeat exactly, the rest within the metric's own bound.
#[derive(Debug, PartialEq)]
enum Agreement {
    Agrees,
    /// A virtual metric that did not repeat bit for bit.
    Differs,
    /// The spread between repeats is wider than the bound, so the bound
    /// cannot be checked on this host.
    Unresolved(f64),
}

fn agreement(name: &str, bound: f64, values: &[f64]) -> Agreement {
    if spec::clock_of(name) == "virtual" {
        if values.iter().all(|v| v.to_bits() == values[0].to_bits()) {
            Agreement::Agrees
        } else {
            Agreement::Differs
        }
    } else if spread(values) > bound {
        Agreement::Unresolved(spread(values))
    } else {
        Agreement::Agrees
    }
}

fn print_table(results: &BTreeMap<&str, RunResult>, names: &[(&str, &str)]) {
    print!("{:<40}", "metric [unit]");
    for w in WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!();
    for (name, unit) in names {
        print!("{:<40}", format!("{name} [{unit}]"));
        for w in WORKLOADS {
            match results.get(w.name).and_then(|r| r.metrics.get(*name)) {
                Some(v) => print!(" {v:>14.6}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

const INTERACTION_RULES: &str = "\
# How the layers interact:
# - with nothing contending, a faster layer saves at most its share of the blocking path: on seq_cold a sampling
#   win cannot exceed sampling.sample_wall_s / (ranks x dsp-core.driver_epoch_wall_s);
# - on dp_cold the epoch waits on the slowest of three overlapped stages, so a win in a stage off the critical
#   path moves gpu_util_virt but not epoch_virt_s;
# - at 8 ranks every collective waits for its slowest participant, so tails in comm.*_wall_us grow with ranks.
# Simulated (virt) numbers come from a machine model that is not validated against hardware; no error is given.";

pub fn run(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut all = |trace: bool| {
        let mut results = BTreeMap::new();
        for w in WORKLOADS {
            match child(w.name, args, trace) {
                Some(r) => {
                    ok &= r.correct;
                    results.insert(w.name, r);
                }
                None => ok = false,
            }
        }
        results
    };
    let repeats: Vec<BTreeMap<&str, RunResult>> = (0..args.repeat).map(|_| all(false)).collect();
    // Repeats compare end-to-end metrics only, so they skip the traced runs.
    let traced = if args.repeat == 1 {
        all(true)
    } else {
        BTreeMap::new()
    };

    let timed = &repeats[0];
    println!("\n== end to end (seed {:#x}) ==", args.seed);
    let names: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    print_table(timed, &names);
    print!("{:<40}", "operations failed/attempted");
    for w in WORKLOADS {
        let cell = timed
            .get(w.name)
            .map_or("-".to_string(), |r| format!("{}/{}", r.failed, r.attempted));
        print!(" {cell:>14}");
    }
    println!();
    let cell = |w: &str, m: &str| timed.get(w).and_then(|r| r.metrics.get(m)).copied();
    if let (Some(sv), Some(dv), Some(sw), Some(dw)) = (
        cell("seq_cold", "epoch_virt_s"),
        cell("dp_cold", "epoch_virt_s"),
        cell("seq_cold", "epoch_wall_s"),
        cell("dp_cold", "epoch_wall_s"),
    ) {
        println!(
            "# pipelining: {:.3}x faster simulated epoch (seq_cold {sv:.6} s / dp_cold {dv:.6} s, Fig. 12); \
             {:.3}x the host time (dp_cold {dw:.4} s / seq_cold {sw:.4} s)",
            sv / dv,
            dw / sw
        );
    }
    if !traced.is_empty() {
        println!("\n== per layer ==");
        let names: Vec<_> = spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        print_table(&traced, &names);
    }
    println!("{INTERACTION_RULES}");

    if args.repeat > 1 {
        println!("\n== agreement of {} repeats ==", args.repeat);
        for w in WORKLOADS {
            let runs: Vec<&RunResult> = repeats.iter().filter_map(|r| r.get(w.name)).collect();
            if runs.len() < args.repeat {
                continue; // already counted as a failure above
            }
            let shares: Vec<f64> = runs
                .iter()
                .map(|r| r.failed as f64 / r.attempted as f64)
                .collect();
            if shares.iter().any(|&s| s != shares[0]) {
                println!("{}: failed share differs: {shares:?}", w.name);
                ok = false;
            }
            for m in END_TO_END {
                let values: Vec<f64> = runs.iter().map(|r| r.metrics[m.name]).collect();
                match agreement(m.name, m.bound, &values) {
                    Agreement::Agrees => {}
                    Agreement::Differs => {
                        println!("{} {}: DIFFERS between repeats: {values:?}", w.name, m.name);
                        ok = false;
                    }
                    Agreement::Unresolved(s) => {
                        println!(
                            "{} {}: UNRESOLVED, spread {s:.3} exceeds bound {}: {values:?}",
                            w.name, m.name, m.bound
                        );
                        ok = false;
                    }
                }
            }
        }
        println!(
            "{}",
            if ok {
                "all repeats agree"
            } else {
                "repeats do not agree"
            }
        );
    }

    if args.record && ok && args.repeat == 1 && !args.smoke {
        let line = history_line(args, timed, &traced);
        let path = "benchmark/results/history.jsonl";
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open the history file");
        writeln!(file, "{line}").expect("append to the history file");
        println!("# appended to {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("SUITE FAILED");
        ExitCode::FAILURE
    }
}

/// One line of the perf trajectory: where and how the suite ran, the
/// calibration kernel, and every end-to-end metric.
fn history_line(
    args: &Args,
    timed: &BTreeMap<&str, RunResult>,
    traced: &BTreeMap<&str, RunResult>,
) -> String {
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let gemm = traced
        .get(WORKLOADS[0].name)
        .map_or(0.0, |r| r.metrics["tensor.gemm_512x512x256_wall_ms"]);
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter_map(|w| {
            let r = timed.get(w.name)?;
            let metrics: Vec<String> = END_TO_END
                .iter()
                .map(|m| format!("\"{}\": {}", m.name, r.metrics[m.name]))
                .collect();
            Some(format!("\"{}\": {{{}}}", w.name, metrics.join(", ")))
        })
        .collect();
    format!(
        "{{\"parent_commit\": \"{commit}\", \"seed\": {}, \"nproc\": {}, \"par_threads\": {}, \"run_seconds\": {}, \"gemm_512x512x256_wall_ms\": {gemm}, \"end_to_end\": {{{}}}}}",
        args.seed,
        nproc(),
        std::env::var("DS_PAR_THREADS").unwrap_or_default(),
        args.seconds,
        workloads.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_back() {
        let line = r#"{"correct": true, "attempted": 46, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#;
        let r = parse_result(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (46, 0));
        assert_eq!(r.metrics["setup_s"], 0.25);
        assert!(parse_result("# not a result").is_none());
        assert!(parse_result(r#"{"correct": true}"#).is_none());
    }

    #[test]
    fn virtual_metrics_must_repeat_exactly_and_wall_within_bound() {
        assert_eq!(
            agreement("epoch_virt_s", 0.05, &[0.1, 0.1]),
            Agreement::Agrees
        );
        assert_eq!(
            agreement("epoch_virt_s", 0.05, &[0.1, 0.1 + 1e-12]),
            Agreement::Differs
        );
        assert_eq!(
            agreement("epoch_wall_s", 0.15, &[1.0, 1.1]),
            Agreement::Agrees
        );
        assert!(matches!(
            agreement("epoch_wall_s", 0.15, &[1.0, 1.2]),
            Agreement::Unresolved(s) if (s - 0.2).abs() < 1e-9
        ));
        assert_eq!(agreement("setup_s", 0.25, &[1.0, 1.2]), Agreement::Agrees);
    }
}
