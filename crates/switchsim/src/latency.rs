//! Latency models: control-plane operation costs and data-path delays.
//!
//! These are the distributions that make a simulated switch *behave* like
//! the paper's hardware: priority-shift-sensitive add costs (Fig 3),
//! per-level forwarding delays (Fig 2), and the controller path.

use crate::pipeline::Hit;
use simnet::dist::Dist;
use simnet::rng::DetRng;
use simnet::time::SimDuration;

/// Control-plane cost model for one switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlCosts {
    /// Fixed cost of an add that lands in a hardware level.
    pub add_base: Dist,
    /// Fixed cost of an add that lands in a software level.
    pub add_software: Dist,
    /// Extra cost per TCAM entry shifted to keep priority order
    /// (microseconds per shifted entry). Zero for switches like OVS whose
    /// installation time is priority-insensitive (Fig 3c).
    pub shift_us: f64,
    /// Base cost of modifying an entry in place (no shifting).
    pub mod_base: Dist,
    /// Additional modify cost per resident rule, in microseconds — the
    /// switch software walks its tables to find the entry, so mods get
    /// slower as tables fill (reconciles Fig 3b's ~6 ms/mod at 5 000
    /// rules with sub-millisecond mods on lightly loaded switches).
    pub mod_per_resident_us: f64,
    /// Cost of deleting an entry.
    pub del_base: Dist,
}

impl ControlCosts {
    /// Cost of an add given where it landed and how many entries shifted.
    pub fn add_cost(
        &self,
        landed_in_hardware: bool,
        shifts: usize,
        rng: &mut DetRng,
    ) -> SimDuration {
        let base = if landed_in_hardware {
            self.add_base.sample(rng)
        } else {
            self.add_software.sample(rng)
        };
        base + SimDuration::from_micros_f64(self.shift_us * shifts as f64)
    }

    /// Cost of modifying `count` entries while `resident` rules are
    /// installed.
    pub fn mod_cost(&self, count: usize, resident: usize, rng: &mut DetRng) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let walk = SimDuration::from_micros_f64(self.mod_per_resident_us * resident as f64);
        for _ in 0..count.max(1) {
            total += self.mod_base.sample(rng) + walk;
        }
        total
    }

    /// Cost of deleting `count` entries.
    pub fn del_cost(&self, count: usize, rng: &mut DetRng) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for _ in 0..count.max(1) {
            total += self.del_base.sample(rng);
        }
        total
    }
}

/// Data-path delay model: one distribution per table level, plus the
/// controller path for complete misses.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPathLatency {
    /// Delay for a packet served by level *i* (level 0 fastest).
    pub levels: Vec<Dist>,
    /// Delay for a packet that misses every table and is handled by the
    /// controller.
    pub controller: Dist,
}

impl DataPathLatency {
    /// Samples the forwarding delay for a lookup outcome.
    pub fn delay(&self, hit: &Hit, rng: &mut DetRng) -> SimDuration {
        match hit {
            Hit::Table { level, .. } => {
                let d = self
                    .levels
                    .get(*level)
                    .copied()
                    .unwrap_or_else(|| *self.levels.last().expect("at least one level"));
                d.sample(rng)
            }
            Hit::Miss => self.controller.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryId;

    fn costs() -> ControlCosts {
        ControlCosts {
            add_base: Dist::Constant(0.2),
            add_software: Dist::Constant(0.05),
            shift_us: 10.0,
            mod_base: Dist::Constant(1.0),
            mod_per_resident_us: 1.0,
            del_base: Dist::Constant(0.5),
        }
    }

    #[test]
    fn add_cost_scales_with_shifts() {
        let c = costs();
        let mut rng = DetRng::new(0);
        let no_shift = c.add_cost(true, 0, &mut rng);
        let with_shift = c.add_cost(true, 100, &mut rng);
        assert_eq!(no_shift, SimDuration::from_micros(200));
        assert_eq!(with_shift, SimDuration::from_micros(200 + 1000));
    }

    #[test]
    fn software_adds_use_software_base() {
        let c = costs();
        let mut rng = DetRng::new(0);
        assert_eq!(c.add_cost(false, 0, &mut rng), SimDuration::from_micros(50));
    }

    #[test]
    fn batch_mod_and_del_costs_accumulate() {
        let c = costs();
        let mut rng = DetRng::new(0);
        assert_eq!(c.mod_cost(3, 0, &mut rng), SimDuration::from_millis(3));
        assert_eq!(c.del_cost(2, &mut rng), SimDuration::from_millis(1));
        // Zero-count operations still charge one unit (the lookup that
        // found nothing).
        assert_eq!(c.mod_cost(0, 0, &mut rng), SimDuration::from_millis(1));
    }

    #[test]
    fn mod_cost_scales_with_residency() {
        let c = costs();
        let mut rng = DetRng::new(0);
        // 1 µs per resident rule: 5 000 residents add 5 ms per mod.
        assert_eq!(c.mod_cost(1, 5000, &mut rng), SimDuration::from_millis(6));
    }

    #[test]
    fn datapath_delay_per_level() {
        let dp = DataPathLatency {
            levels: vec![Dist::Constant(0.4), Dist::Constant(3.7)],
            controller: Dist::Constant(8.0),
        };
        let mut rng = DetRng::new(0);
        let fast = dp.delay(
            &Hit::Table {
                level: 0,
                entry: EntryId(1),
            },
            &mut rng,
        );
        let slow = dp.delay(
            &Hit::Table {
                level: 1,
                entry: EntryId(1),
            },
            &mut rng,
        );
        let ctrl = dp.delay(&Hit::Miss, &mut rng);
        assert_eq!(fast, SimDuration::from_micros(400));
        assert_eq!(slow, SimDuration::from_micros(3700));
        assert_eq!(ctrl, SimDuration::from_millis(8));
        // Out-of-range level falls back to the slowest table level.
        let beyond = dp.delay(
            &Hit::Table {
                level: 9,
                entry: EntryId(1),
            },
            &mut rng,
        );
        assert_eq!(beyond, SimDuration::from_micros(3700));
    }
}
