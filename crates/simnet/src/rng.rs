//! Deterministic random number generation.
//!
//! A thin wrapper around [`rand::rngs::StdRng`] that (a) forces an
//! explicit seed everywhere, and (b) offers the handful of sampling
//! helpers the simulator needs, including Gaussian sampling via
//! Box–Muller so we avoid a dependency on `rand_distr`.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic, explicitly-seeded RNG.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
    /// The `(r, theta)` of the last Box–Muller transform while its
    /// second output, `r * theta.sin()`, is still owed. Kept unevaluated:
    /// a one-shot fork that draws once never pays for the sine.
    gauss_spare: Option<(f64, f64)>,
}

impl DetRng {
    /// Creates an RNG from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> DetRng {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
            gauss_spare: None,
        }
    }

    /// Derives an independent child RNG; `label` domain-separates streams
    /// so e.g. the latency noise of two switches never correlates.
    #[must_use]
    pub fn fork(&mut self, label: u64) -> DetRng {
        let seed = self.inner.gen::<u64>() ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        DetRng::new(seed)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over empty collection");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal sample (Box–Muller, using both outputs).
    pub fn gaussian(&mut self) -> f64 {
        if let Some((r, theta)) = self.gauss_spare.take() {
            return r * theta.sin();
        }
        // Draw u1 away from zero to keep ln() finite.
        let u1: f64 = loop {
            let u = self.f64();
            if u > f64::EPSILON {
                break u;
            }
        };
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some((r, theta));
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Exponential sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = loop {
            let u = self.f64();
            if u > f64::EPSILON {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let mut parent1 = DetRng::new(7);
        let mut parent2 = DetRng::new(7);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut other = parent1.fork(2);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = DetRng::new(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// Box–Muller with the spare evaluated at once, as it was before the
    /// spare became `(r, theta)`.
    struct Eager {
        inner: DetRng,
        spare: Option<f64>,
    }

    impl Eager {
        fn gaussian(&mut self) -> f64 {
            if let Some(z) = self.spare.take() {
                return z;
            }
            let u1 = loop {
                let u = self.inner.f64();
                if u > f64::EPSILON {
                    break u;
                }
            };
            let u2 = self.inner.f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.spare = Some(r * theta.sin());
            r * theta.cos()
        }

        fn fork(&mut self, label: u64) -> Eager {
            Eager {
                inner: self.inner.fork(label),
                spare: None,
            }
        }
    }

    #[test]
    fn deferred_spare_is_bit_identical_to_the_eager_one() {
        let mut lazy = DetRng::new(0x5EED);
        let mut eager = Eager {
            inner: DetRng::new(0x5EED),
            spare: None,
        };
        let mut pick = DetRng::new(99);
        for i in 0..10_000u64 {
            match pick.index(4) {
                0 => assert_eq!(lazy.gaussian().to_bits(), eager.gaussian().to_bits()),
                1 => assert_eq!(
                    lazy.normal(3.0, 0.5).to_bits(),
                    (3.0 + 0.5 * eager.gaussian()).to_bits()
                ),
                2 => assert_eq!(lazy.f64().to_bits(), eager.inner.f64().to_bits()),
                _ => {
                    // A one-shot fork, as `chan::draw_latencies` makes
                    // them: one draw, its spare dropped unevaluated.
                    let (mut l, mut e) = (lazy.fork(i), eager.fork(i));
                    assert_eq!(l.gaussian().to_bits(), e.gaussian().to_bits());
                }
            }
        }
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = DetRng::new(5);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(7.0));
    }
}
