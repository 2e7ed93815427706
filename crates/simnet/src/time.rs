//! Virtual time: absolute instants and durations in integer nanoseconds.
//!
//! Integer nanoseconds keep arithmetic exact and ordering total — two
//! properties floating-point seconds lack and a deterministic simulator
//! needs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulation clock (nanoseconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Duration since an earlier instant; saturates to zero if `earlier`
    /// is actually later (callers measuring RTTs never want a panic).
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Instant as fractional milliseconds (for plotting).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Instant as fractional seconds (for plotting).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// From whole milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// From whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// From fractional milliseconds, rounding to the nearest nanosecond
    /// and clamping negatives to zero (sampled latencies cannot be
    /// negative).
    #[must_use]
    pub fn from_millis_f64(ms: f64) -> SimDuration {
        SimDuration((ms.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// From fractional microseconds (clamping negatives to zero).
    #[must_use]
    pub fn from_micros_f64(us: f64) -> SimDuration {
        SimDuration((us.max(0.0) * 1_000.0).round() as u64)
    }

    /// Duration as fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs(1), SimDuration(1_000_000_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration(3_000_000));
        assert_eq!(SimDuration::from_micros(5), SimDuration(5_000));
        assert_eq!(SimDuration::from_millis_f64(0.665), SimDuration(665_000));
        assert_eq!(SimDuration::from_millis_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(2);
        assert_eq!(t, SimTime(2_000_000));
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(2));
        // Saturating: asking for "earlier - later" yields zero.
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis(4) / 2, SimDuration::from_millis(2));
        assert_eq!(SimDuration::from_millis(4) * 2, SimDuration::from_millis(8));
        assert_eq!(
            SimDuration::from_millis(4) - SimDuration::from_millis(1),
            SimDuration::from_millis(3)
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimDuration(42).to_string(), "42ns");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime(5), SimTime(1), SimTime(3), SimTime(1)];
        v.sort();
        assert_eq!(v, vec![SimTime(1), SimTime(1), SimTime(3), SimTime(5)]);
    }
}
