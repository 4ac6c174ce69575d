//! Minimal criterion-style micro-benchmark runner.
//!
//! Mirrors the subset of the `criterion` API the workspace's bench
//! targets use — `Criterion`, `benchmark_group`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `Bencher::{iter, iter_batched}`,
//! `BatchSize`, and the `criterion_group!` / `criterion_main!` macros —
//! so a bench file ports by changing only its `use` line. Results are
//! printed as mean wall-clock time per iteration.
//!
//! Set `DS_BENCH_QUICK=1` to cut warm-up and measurement time (used to
//! smoke-test that benches still run without waiting on full timings).

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
struct Budget {
    warmup: Duration,
    measure: Duration,
    max_iters: u64,
}

/// Whether quick (CI) mode is on: `DS_BENCH_QUICK` is set to anything
/// but empty or `0`. The one parse of that variable; ds-bench's table
/// and figure binaries shrink on the same answer.
pub fn quick_mode() -> bool {
    quick_from(std::env::var("DS_BENCH_QUICK").ok().as_deref())
}

fn quick_from(var: Option<&str>) -> bool {
    var.map_or(false, |v| !v.is_empty() && v != "0")
}

fn budget() -> Budget {
    if quick_mode() {
        Budget {
            warmup: Duration::from_millis(5),
            measure: Duration::from_millis(20),
            max_iters: 1_000,
        }
    } else {
        Budget {
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(200),
            max_iters: 100_000,
        }
    }
}

/// Top-level benchmark driver; collects and prints per-bench timings.
pub struct Criterion {
    budget: Budget,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { budget: budget() }
    }
}

impl Criterion {
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        b.report(name);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.to_string(),
        }
    }
}

/// A named group of related benchmarks (`group/bench` naming).
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function<F>(&mut self, name: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name);
        self.c.bench_function(&full, f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        let mut b = Bencher::new(self.c.budget);
        f(&mut b, input);
        b.report(&full);
        self
    }

    pub fn finish(self) {}
}

/// A `function/parameter` label for parameterized benches.
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(function: impl Display, param: impl Display) -> Self {
        BenchmarkId(format!("{function}/{param}"))
    }
}

/// How batched inputs are grouped; only a naming shim here since every
/// batch is measured per-iteration.
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Passed to each bench closure; runs and times the routine.
pub struct Bencher {
    budget: Budget,
    total: Duration,
    iters: u64,
}

impl Bencher {
    fn new(budget: Budget) -> Self {
        Bencher {
            budget,
            total: Duration::ZERO,
            iters: 0,
        }
    }

    /// Times `routine` directly.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        self.iter_batched(|| (), |()| routine(), BatchSize::PerIteration);
    }

    /// Times `routine` on fresh inputs from `setup`; setup cost is
    /// excluded from the measurement.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
        _size: BatchSize,
    ) {
        let warm_end = Instant::now() + self.budget.warmup;
        let mut warmed = 0u64;
        while warmed < 1 || (Instant::now() < warm_end && warmed < self.budget.max_iters) {
            black_box(routine(setup()));
            warmed += 1;
        }
        let measure_end = Instant::now() + self.budget.measure;
        while self.iters < 1 || (Instant::now() < measure_end && self.iters < self.budget.max_iters)
        {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.total += t.elapsed();
            self.iters += 1;
        }
    }

    fn report(&self, name: &str) {
        if self.iters == 0 {
            println!("{name:<48} (no measurement)");
            return;
        }
        let per_iter = self.total.as_secs_f64() / self.iters as f64;
        println!(
            "{name:<48} {:>12} /iter   ({} iters)",
            fmt_time(per_iter),
            self.iters
        );
    }
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.3} s", secs)
    }
}

/// `criterion_group!(name, target, ...)` — a function running each
/// target against a fresh [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::bench::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// `criterion_main!(group, ...)` — the bench binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::quick_from;

    #[test]
    fn quick_mode_is_off_when_unset_empty_or_zero() {
        assert!(!quick_from(None));
        assert!(!quick_from(Some("")));
        assert!(!quick_from(Some("0")));
        assert!(quick_from(Some("1")));
    }
}
