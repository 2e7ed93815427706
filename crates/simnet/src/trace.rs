//! Measurement recording: labelled `(x, y)` series and summary
//! statistics, with CSV export.
//!
//! Every figure in the paper is a set of series; the bench harness
//! records into these and dumps CSV under `results/`.

use std::fmt::Write as _;

/// One labelled series of `(x, y)` points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    /// Legend label, e.g. `"fast path"`.
    pub label: String,
    /// Data points in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with the given label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if there are no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Summary statistics of the y values.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::of(self.points.iter().map(|&(_, y)| y))
    }
}

/// Summary statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (linear interpolation).
    pub p50: f64,
    /// 90th percentile (linear interpolation).
    pub p90: f64,
    /// 95th percentile (linear interpolation).
    pub p95: f64,
    /// 99th percentile (linear interpolation) — the tail-latency figure
    /// experiment text artifacts report.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes statistics over an iterator of samples.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Summary {
        let mut v: Vec<f64> = values.into_iter().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return Summary::default();
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n as f64;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: v[0],
            p50: percentile(&v, 0.50),
            p90: percentile(&v, 0.90),
            p95: percentile(&v, 0.95),
            p99: percentile(&v, 0.99),
            max: v[n - 1],
        }
    }
}

/// Linear-interpolation percentile of a sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// A figure: several series sharing axes, exportable as CSV.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Figure {
    /// Figure title (e.g. `"fig2a: three-tier delay, OVS"`).
    pub title: String,
    /// Axis label for x.
    pub x_label: String,
    /// Axis label for y.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// An empty figure.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Figure {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series and returns a mutable handle to it.
    pub fn series_mut(&mut self, label: impl Into<String>) -> &mut Series {
        self.series.push(Series::new(label));
        self.series.last_mut().expect("just pushed")
    }

    /// Long-form CSV: `series,x,y` rows with a header.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "series,{},{}", self.x_label, self.y_label);
        for s in &self.series {
            for &(x, y) in &s.points {
                let _ = writeln!(out, "{},{},{}", s.label, x, y);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
        assert!((s.std_dev - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_and_single() {
        assert_eq!(Summary::of([]), Summary::default());
        let one = Summary::of([7.0]);
        assert_eq!(one.n, 1);
        assert_eq!(one.p50, 7.0);
        assert_eq!(one.p95, 7.0);
        assert_eq!(one.p90, 7.0);
        assert_eq!(one.p99, 7.0);
    }

    #[test]
    fn tail_quantiles_interpolate() {
        // 1..=100: p90 sits between the 90th and 91st order statistics,
        // p99 between the 99th and 100th.
        let s = Summary::of((1..=100).map(f64::from));
        assert!((s.p90 - 90.1).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 1e-9);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let s = Summary::of([1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.n, 2);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&v, 0.5) - 25.0).abs() < 1e-12);
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
    }

    #[test]
    fn figure_csv_shape() {
        let mut fig = Figure::new("test", "flow id", "delay ms");
        let s = fig.series_mut("fast path");
        s.push(0.0, 1.5);
        s.push(1.0, 1.6);
        fig.series_mut("slow path").push(0.0, 4.5);
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# test");
        assert_eq!(lines[1], "series,flow id,delay ms");
        assert_eq!(lines[2], "fast path,0,1.5");
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn series_summary() {
        let mut s = Series::new("x");
        assert!(s.is_empty());
        s.push(0.0, 2.0);
        s.push(1.0, 4.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.summary().mean, 3.0);
    }
}
