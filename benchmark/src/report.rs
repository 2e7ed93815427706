//! Repetition statistics and the result line the driver reads.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check held.
    pub correct: bool,
    /// Operations attempted over the timed repetitions.
    pub attempted: u64,
    /// Operations that failed or were never acknowledged.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines: host conditions, spreads, failed checks.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with no check failed yet.
    #[must_use]
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records a correctness check; a failed one is noted by name.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// The one-line JSON object the contract asks for.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` prints the shortest digits that round-trip the f64:
            // every digit measured, no more.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (mean of the two middle ones for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// so the spread printed here is the one the driver checks.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Taken after the clamp, so the ends extrapolate as Python's do.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// `(q3 − q1) / median`.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// "median (min–max, IQR x %, n reps)" for the human-readable table.
#[must_use]
pub fn spread_note(name: &str, unit: &str, reps: &[f64]) -> String {
    let lo = reps.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = reps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{name}: median {:.6} {unit} (min {lo:.6}, max {hi:.6}, IQR {:.2} %, {} reps)",
        median(reps),
        iqr_share(reps) * 100.0,
        reps.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) -> [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([5, 7, 9, 30], n=4) -> [5.5, 8.0, 24.75]
        assert_eq!(quartiles(&[5.0, 7.0, 9.0, 30.0]), (5.5, 24.75));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("ops_per_s", 1234.5678, "1/s"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
            notes: Vec::new(),
        };
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed = tango::json::Value::parse(&o.result_line()).unwrap();
        assert_eq!(parsed.as_obj().unwrap().len(), 4);
        o.check(false, || "x".into());
        assert!(!o.correct);
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }
}
