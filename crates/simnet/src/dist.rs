//! Parametric latency distributions.
//!
//! Switch latency models are expressed as [`Dist`] values — constant,
//! uniform, normal, log-normal, or exponential — sampled in fractional
//! milliseconds and clamped to non-negative durations. The paper's
//! figures are driven by the *shapes* of these distributions (e.g. the
//! noisy OVS slow path in Fig 2(a) vs the tight hardware fast path in
//! Fig 2(b)), so they are first-class configuration.

use crate::rng::DetRng;
use crate::time::SimDuration;

/// A latency distribution, parameterized in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always exactly this many milliseconds.
    Constant(f64),
    /// Uniform between `lo` and `hi` milliseconds.
    Uniform {
        /// Lower bound (ms).
        lo: f64,
        /// Upper bound (ms).
        hi: f64,
    },
    /// Normal with the given mean/standard deviation (ms), clamped ≥ 0.
    Normal {
        /// Mean (ms).
        mean: f64,
        /// Standard deviation (ms).
        std_dev: f64,
    },
    /// Log-normal: `exp(N(mu, sigma))` — right-skewed, as real slow-path
    /// latencies are. Parameters are of the underlying normal.
    LogNormal {
        /// Location of the underlying normal.
        mu: f64,
        /// Scale of the underlying normal.
        sigma: f64,
    },
    /// Exponential with the given mean (ms).
    Exponential {
        /// Mean (ms).
        mean: f64,
    },
}

impl Dist {
    /// A degenerate zero-latency distribution.
    pub const ZERO: Dist = Dist::Constant(0.0);

    /// Convenience: a normal distribution described by mean and a
    /// *relative* jitter fraction (e.g. `0.05` = 5 % of the mean).
    #[must_use]
    pub fn jittered(mean_ms: f64, jitter_frac: f64) -> Dist {
        Dist::Normal {
            mean: mean_ms,
            std_dev: mean_ms * jitter_frac,
        }
    }

    /// Samples one value in milliseconds (non-negative).
    pub fn sample_ms(&self, rng: &mut DetRng) -> f64 {
        let v = match *self {
            Dist::Constant(ms) => ms,
            Dist::Uniform { lo, hi } => {
                if hi <= lo {
                    lo
                } else {
                    lo + (hi - lo) * rng.f64()
                }
            }
            Dist::Normal { mean, std_dev } => rng.normal(mean, std_dev),
            Dist::LogNormal { mu, sigma } => rng.normal(mu, sigma).exp(),
            Dist::Exponential { mean } => rng.exponential(mean),
        };
        v.max(0.0)
    }

    /// Samples one value as a [`SimDuration`].
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        SimDuration::from_millis_f64(self.sample_ms(rng))
    }

    /// The distribution's theoretical mean in milliseconds (for
    /// Normal/LogNormal this ignores the ≥0 clamp, which is negligible
    /// for the parameters used here).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        match *self {
            Dist::Constant(ms) => ms,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Normal { mean, .. } => mean,
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::Exponential { mean } => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: Dist, seed: u64, n: usize) -> f64 {
        let mut rng = DetRng::new(seed);
        (0..n).map(|_| d.sample_ms(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = DetRng::new(0);
        let d = Dist::Constant(3.5);
        for _ in 0..10 {
            assert_eq!(d.sample_ms(&mut rng), 3.5);
        }
        assert_eq!(d.sample(&mut rng), SimDuration::from_micros(3500));
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = DetRng::new(1);
        let d = Dist::Uniform { lo: 1.0, hi: 2.0 };
        for _ in 0..1000 {
            let v = d.sample_ms(&mut rng);
            assert!((1.0..2.0).contains(&v));
        }
        // Degenerate bounds fall back to lo.
        let flat = Dist::Uniform { lo: 4.0, hi: 4.0 };
        assert_eq!(flat.sample_ms(&mut rng), 4.0);
    }

    #[test]
    fn sampled_means_match_theory() {
        for d in [
            Dist::Constant(2.0),
            Dist::Uniform { lo: 1.0, hi: 3.0 },
            Dist::Normal {
                mean: 2.0,
                std_dev: 0.2,
            },
            Dist::Exponential { mean: 2.0 },
            Dist::LogNormal {
                mu: 0.5,
                sigma: 0.3,
            },
        ] {
            let m = empirical_mean(d, 99, 30_000);
            let want = d.mean_ms();
            assert!(
                (m - want).abs() / want < 0.05,
                "{d:?}: empirical {m} vs theoretical {want}"
            );
        }
    }

    #[test]
    fn samples_are_never_negative() {
        let mut rng = DetRng::new(3);
        let d = Dist::Normal {
            mean: 0.1,
            std_dev: 10.0,
        };
        for _ in 0..1000 {
            assert!(d.sample_ms(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn jittered_constructor() {
        let d = Dist::jittered(10.0, 0.05);
        assert_eq!(
            d,
            Dist::Normal {
                mean: 10.0,
                std_dev: 0.5
            }
        );
    }
}
