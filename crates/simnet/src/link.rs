//! A point-to-point link model: propagation delay, serialization cost,
//! jitter, and optional frame loss.
//!
//! Used both for the controller↔switch control channel (whose latency is
//! part of every RTT Tango measures) and for data-plane hops between
//! switches in the network-wide experiments. Loss follows the smoltcp
//! examples' drop-chance convention; a lost frame costs its sender one
//! retransmission timeout ([`Link::delivery_latency`]), so the robustness
//! of inference under loss can be exercised.

use crate::dist::Dist;
use crate::rng::DetRng;
use crate::time::SimDuration;

/// Configuration of one directional link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Base propagation delay distribution.
    pub propagation: Dist,
    /// Serialization cost per byte, in nanoseconds (e.g. 0.8 ns/B ≈ 10 Gb/s).
    pub ns_per_byte: f64,
    /// Probability a frame is silently dropped, `[0,1]`.
    pub drop_chance: f64,
    /// Retransmission timeout in milliseconds, charged once per drop
    /// when using [`Link::delivery_latency`] (reliable-delivery view).
    pub retrans_timeout_ms: f64,
}

impl Link {
    /// An ideal link with a fixed latency and infinite bandwidth.
    #[must_use]
    pub fn ideal(latency: Dist) -> Link {
        Link {
            propagation: latency,
            ns_per_byte: 0.0,
            drop_chance: 0.0,
            retrans_timeout_ms: 5.0,
        }
    }

    /// A typical control channel: ~`rtt_ms/2` each way with 5 % jitter,
    /// 1 Gb/s serialization.
    #[must_use]
    pub fn control_channel(one_way_ms: f64) -> Link {
        Link {
            propagation: Dist::jittered(one_way_ms, 0.05),
            ns_per_byte: 8.0, // 1 Gb/s
            drop_chance: 0.0,
            retrans_timeout_ms: 5.0,
        }
    }

    /// Builder-style: set the drop probability.
    #[must_use]
    pub fn with_drop_chance(mut self, p: f64) -> Link {
        self.drop_chance = p.clamp(0.0, 1.0);
        self
    }

    /// Latency for a frame of `bytes` bytes, ignoring loss.
    pub fn latency(&self, bytes: usize, rng: &mut DetRng) -> SimDuration {
        let prop = self.propagation.sample(rng);
        let ser = SimDuration((self.ns_per_byte * bytes as f64).round() as u64);
        prop + ser
    }

    /// Latency for reliably delivering a frame: each drop costs one
    /// retransmission timeout before the (re)try's propagation. This is
    /// how a lossy control channel looks to a sender with
    /// acknowledgement-based recovery.
    pub fn delivery_latency(&self, bytes: usize, rng: &mut DetRng) -> SimDuration {
        let mut total = SimDuration::ZERO;
        // Cap retries to keep pathological configurations terminating.
        for _ in 0..64 {
            if !rng.chance(self.drop_chance) {
                break;
            }
            total += SimDuration::from_millis_f64(self.retrans_timeout_ms);
        }
        total + self.latency(bytes, rng)
    }
}

impl Default for Link {
    fn default() -> Link {
        Link::ideal(Dist::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_cost_scales_with_size() {
        let link = Link {
            propagation: Dist::ZERO,
            ns_per_byte: 8.0,
            drop_chance: 0.0,
            retrans_timeout_ms: 5.0,
        };
        let mut rng = DetRng::new(0);
        assert_eq!(link.latency(1000, &mut rng), SimDuration(8000));
        assert_eq!(link.latency(0, &mut rng), SimDuration::ZERO);
    }

    #[test]
    fn control_channel_has_positive_latency() {
        let link = Link::control_channel(2.0);
        let mut rng = DetRng::new(1);
        let d = link.latency(100, &mut rng);
        assert!(d > SimDuration::ZERO);
    }
}

#[cfg(test)]
mod delivery_tests {
    use super::*;

    #[test]
    fn lossless_delivery_equals_latency_distribution() {
        let link = Link::ideal(Dist::Constant(1.0));
        let mut rng = DetRng::new(0);
        assert_eq!(
            link.delivery_latency(100, &mut rng),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn drops_charge_retransmission_timeouts() {
        let link = Link::ideal(Dist::Constant(1.0)).with_drop_chance(0.5);
        let mut rng = DetRng::new(42);
        let n = 20_000;
        let mean_ms = (0..n)
            .map(|_| link.delivery_latency(10, &mut rng).as_millis_f64())
            .sum::<f64>()
            / f64::from(n);
        // E[drops] = p/(1-p) = 1 at p = 0.5 → mean ≈ 1 + 1·5 ms.
        assert!((mean_ms - 6.0).abs() < 0.3, "mean {mean_ms}");
    }

    #[test]
    fn pathological_drop_chance_terminates() {
        let link = Link::ideal(Dist::Constant(0.1)).with_drop_chance(1.0);
        let mut rng = DetRng::new(1);
        let d = link.delivery_latency(10, &mut rng);
        assert_eq!(d, SimDuration::from_millis_f64(64.0 * 5.0 + 0.1));
    }
}
