//! Fixed log-linear latency histogram (HdrHistogram layout).
//!
//! Values are nanoseconds. Each power-of-two range is split into
//! [`SUB`] equal sub-buckets, so a recorded value is off by at most
//! `1 / SUB` (< 0.8 %) from its bucket's representative; values below
//! `SUB` are exact. The bucket array is allocated once — recording is an
//! index computation and an add, with no per-sample storage, so ten
//! million ack latencies cost the same memory as ten.

/// Sub-buckets per octave (2^7 → ≤ 0.79 % relative bucket width).
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact range that a `u64` can reach.
const OCTAVES: usize = (64 - SUB_BITS) as usize;

/// A histogram of `u64` samples with bounded relative error.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    // Octave `shift + 1`, sub-bucket = the SUB_BITS bits below the msb.
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) & (SUB - 1)) as usize
}

/// Midpoint of the value range bucket `idx` covers.
fn value_of(idx: usize) -> u64 {
    let octave = idx >> SUB_BITS;
    let sub = (idx as u64) & (SUB - 1);
    if octave == 0 {
        return sub;
    }
    let shift = octave as u32 - 1;
    let lo = (SUB + sub) << shift;
    lo + ((1u64 << shift) >> 1)
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; (OCTAVES + 1) << SUB_BITS],
            total: 0,
            max: 0,
        }
    }

    /// Records `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[index_of(v)] += n;
        self.total += n;
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Largest value recorded (exact).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: the representative of the
    /// bucket holding the `ceil(q · n)`-th smallest sample (nearest-rank).
    /// 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(idx).min(self.max);
            }
        }
        self.max
    }

    /// Samples strictly above the bucket that holds quantile `q` — how
    /// much evidence stands behind a tail percentile.
    #[must_use]
    pub fn samples_beyond(&self, q: f64) -> u64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        for &c in &self.counts {
            seen += c;
            if seen >= rank {
                return self.total - seen;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift, so the test needs no dependency.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn buckets_round_trip_within_one_percent() {
        for v in (0..4096).chain([10_000, 123_456, 9_999_999, 1 << 40, u64::MAX - 1]) {
            let back = value_of(index_of(v));
            let err = (back as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(err <= 0.01, "{v} -> {back} ({err})");
        }
    }

    #[test]
    fn quantiles_match_a_sorted_vec_oracle() {
        let mut next = rng(0xfeed);
        let mut h = Histogram::new();
        let mut all = Vec::new();
        for i in 0..200_000u64 {
            // Log-uniform over ~1 µs .. ~100 ms with a heavy tail, the
            // shape ack latencies take.
            let exp = 10 + next() % 17;
            let v = (1u64 << exp) + next() % (1u64 << exp) + i % 7;
            h.record_n(v, 1);
            all.push(v);
        }
        all.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
            let exact = all[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            assert!(
                (got - exact).abs() / exact <= 0.01,
                "q{q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.len(), 200_000);
        assert_eq!(h.max(), *all.last().unwrap());
        let beyond = h.samples_beyond(0.99);
        assert!((1500..=2000).contains(&beyond), "{beyond}");
    }

    #[test]
    fn record_n_equals_repeated_records() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5u64, 700, 700, 90_000] {
            a.record_n(v, 3);
            for _ in 0..3 {
                b.record_n(v, 1);
            }
        }
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(a.quantile(q), b.quantile(q));
        }
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }
}
