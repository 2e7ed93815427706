//! Strategies over collections.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;

/// An inclusive length range for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.lo..=self.size.hi);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// `Vec` strategy with lengths drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}
