//! Sample statistics and the result one run prints.

use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `f` and returns its value with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percentile, value)`; `None` when that would fall below the
/// median (fewer than 20 samples).
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, s[n - 11]))
}

/// `median, pXX, n` of a timing, for the human-readable lines.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let tail = match tail_percentile(samples) {
        Some((p, v)) => format!(", p{p:.1} {v:.6} {unit}"),
        None => String::new(),
    };
    format!(
        "median {:.6} {unit}{tail}, n={}",
        median(samples),
        samples.len()
    )
}

/// What one run measured and whether its outputs were correct.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations the workload is expected to complete: rank-batches
    /// trained plus requests offered below capacity (5 000 rps).
    pub attempted: u64,
    /// Of those, batches retried and requests shed or late.
    pub failed: u64,
    /// Output checks that did not hold; empty means `correct`.
    pub violations: Vec<String>,
    /// Human-readable detail printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every `(name, unit)` of `specs`.
    pub fn result_json(&self, specs: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.get(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp::trace::json;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        let s: Vec<f64> = (1..=30).map(f64::from).collect();
        // 30 samples: the 20th has exactly ten above it.
        let (p, v) = tail_percentile(&s).unwrap();
        assert_eq!(v, 20.0);
        assert!((p - 66.666).abs() < 0.01);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);
        // 1000 samples reach p99.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&s).unwrap(), (99.0, 990.0));
        // Fewer than 20 samples support nothing past the median.
        assert!(tail_percentile(&s[..19]).is_none());
        assert_eq!(tail_percentile(&s[..20]).unwrap(), (50.0, 10.0));
    }

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let mut o = Outcome::default();
        o.set("epoch_wall_s", 0.123_456_789_012_345_6);
        o.set("setup_s", 1.5);
        o.attempted = 46;
        let line = o.result_json(&[("epoch_wall_s", "s"), ("setup_s", "s")]);
        let doc = json::parse(&line).expect("valid JSON");
        let json::Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&json::Json::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_i64(), Some(46));
        let m = doc.get("metrics").unwrap().get("epoch_wall_s").unwrap();
        assert_eq!(
            m.get("value").unwrap().as_f64(),
            Some(0.123_456_789_012_345_6)
        );
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        o.check(false, || "broken".into());
        assert!(o
            .result_json(&[("setup_s", "s")])
            .contains("\"correct\": false"));
    }
}
