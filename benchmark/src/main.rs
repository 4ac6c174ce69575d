//! The benchmark of the DSP reproduction: two clocks, end to end and
//! per layer. README.md describes workloads, metrics and protocol.
//!
//! With `--workload` this process makes one run and prints one result
//! line, which is what the driver and the suite call. Without it, it
//! runs the suite by starting itself once per workload and clock.

mod driver;
mod layers;
mod report;
mod run;
mod spec;
mod suite;

use std::path::Path;
use std::process::ExitCode;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
    pub record: bool,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat K] [--record] [--print-manifest]";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0xD5B0,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 1,
        record: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if spec::workload(name).is_none() {
                    let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; one of {known:?}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = parse_u64(v).ok_or_else(|| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--repeat" => {
                let v = value("a count")?;
                args.repeat = v
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| format!("bad --repeat {v:?}"))?;
            }
            // `--trace` alone means on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.smoke {
        args.seconds = 0.0;
    }
    Ok(args)
}

/// One run of one workload; prints the detail, then the result line.
fn single_run(name: &str, args: &Args) -> ExitCode {
    let w = spec::workload(name).expect("validated by parse_args");
    println!(
        "# {} seed {:#x} trace {} DS_PAR_THREADS {} nproc {}",
        w.name,
        args.seed,
        args.trace as u8,
        std::env::var("DS_PAR_THREADS").unwrap_or_default(),
        suite::nproc(),
    );
    let plan = run::Plan::new(w, args.smoke);
    let (outcome, specs): (_, Vec<(&str, &str)>) = if args.trace {
        (
            layers::traced_run(w, args.seed, &plan, Path::new("benchmark/out")),
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        )
    } else {
        (
            run::timed_run(w, args.seed, args.seconds, &plan),
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        )
    };
    for (name, unit) in &specs {
        println!(
            "{name} = {} {unit} [{}]",
            outcome.get(name),
            spec::clock_of(name)
        );
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for v in &outcome.violations {
        println!("# CHECK FAILED: {v}");
    }
    println!("{}", outcome.result_json(&specs));
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-manifest") {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Results are bit-identical across thread counts; only wall time
    // moves, so pin it (before any thread reads it) and record it.
    if std::env::var_os("DS_PAR_THREADS").is_none() {
        std::env::set_var("DS_PAR_THREADS", suite::nproc().min(2).to_string());
    }
    // The run decides when the recorder is on, not the environment.
    dsp::trace::recorder().set_enabled(false);
    match &args.workload {
        Some(name) => single_run(name, &args),
        None => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&[
            "--workload",
            "dp_cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("dp_cold"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(
            !parse(&["--workload", "dp_cold", "--trace", "0"])
                .unwrap()
                .trace
        );
        assert!(parse(&["--trace", "--smoke"]).unwrap().trace);
        assert_eq!(parse(&["--seed", "0xD5B0"]).unwrap().seed, 0xD5B0);
        assert_eq!(parse(&["--smoke"]).unwrap().seconds, 0.0);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--repeat", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
