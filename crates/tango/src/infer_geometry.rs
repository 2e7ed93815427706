//! TCAM width-mode inference — one of the paper's future-work items
//! ("expand the set of Tango patterns to infer other switch
//! capabilities", §9), implemented here as an additional Tango pattern.
//!
//! The probe runs Algorithm 1 three times with L2-only, L3-only, and
//! combined L2+L3 rules, then classifies the TCAM's slot geometry from
//! the three fast-layer capacities (cf. Table 1):
//!
//! * equal everywhere → **fixed-width** slots (Switch #2);
//! * combined entries fit markedly fewer → **width-sensitive** (Switch
//!   #1's single-wide mode and Switch #3's adaptive mode both land
//!   here; they are distinguished by the capacity pair);
//! * no bounded layer at all → software switch.

use crate::driver::{self, mismatch, InferenceDriver, ProbeError, Step};
use crate::infer_size::{SizeDriver, SizeEstimate, SizeProbeConfig};
use crate::pattern::RuleKind;
use ofwire::flow_mod::FlowMod;
use serde::{Deserialize, Serialize};
use switchsim::control::{ControlOp, OpOutcome};

/// The classified TCAM geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GeometryClass {
    /// No bounded hardware layer observed up to the probe cap.
    Unbounded,
    /// Every entry kind fits the same count (e.g. fixed double-wide
    /// slots: Switch #2's 2560/2560).
    FixedWidth {
        /// Entries of any kind.
        entries: f64,
    },
    /// Combined L2+L3 entries consume roughly double the slots of
    /// single-layer entries (Switch #1's 4K/2K, Switch #3's 767/369).
    WidthSensitive {
        /// Single-layer (L2-only / L3-only) capacity.
        narrow: f64,
        /// Combined (L2+L3) capacity.
        wide: f64,
    },
}

/// The full geometry probe result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeometryEstimate {
    /// Fast-layer capacity observed with L2-only rules.
    pub l2_only: Option<f64>,
    /// Fast-layer capacity observed with L3-only rules.
    pub l3_only: Option<f64>,
    /// Fast-layer capacity observed with combined rules.
    pub l2l3: Option<f64>,
    /// The classification.
    pub class: GeometryClass,
}

/// The three sub-probes, in issue order, with their legacy seeds.
const PHASES: [(RuleKind, u64); 3] = [(RuleKind::L2, 1), (RuleKind::L3, 2), (RuleKind::L2L3, 3)];

/// Where the geometry driver is within the current phase.
enum GeometryState {
    /// The pre-probe `delete_all` is in flight.
    ClearBefore,
    /// The embedded size probe is running.
    Size(Box<SizeDriver>),
    /// The post-probe `delete_all` is in flight.
    ClearAfter,
    /// Terminal (outcome already produced).
    Finished,
}

/// The geometry probe as a resumable state machine: three embedded
/// [`SizeDriver`] runs (L2-only, L3-only, combined), each bracketed by
/// `delete_all` cleanups, classified at the end.
pub struct GeometryDriver {
    cap: usize,
    trials: usize,
    phase: usize,
    state: GeometryState,
    fast: [Option<f64>; 3],
}

impl GeometryDriver {
    /// A driver probing with per-kind caps of `cap` rules and `trials`
    /// sampling trials per layer. `cap` should comfortably exceed the
    /// largest plausible single-layer capacity so spill tiers become
    /// visible.
    #[must_use]
    pub fn new(cap: usize, trials: usize) -> GeometryDriver {
        GeometryDriver {
            cap,
            trials,
            phase: 0,
            state: GeometryState::ClearBefore,
            fast: [None; 3],
        }
    }

    fn size_config(&self, seed: u64) -> SizeProbeConfig {
        SizeProbeConfig {
            max_flows: self.cap,
            trials_per_level: self.trials,
            seed,
            ..SizeProbeConfig::default()
        }
    }

    /// Records one sub-probe's fast-layer capacity, if a bounded layer
    /// was observed (rejection, or a spill tier behind the fast one).
    fn record(&mut self, est: &SizeEstimate) {
        self.fast[self.phase] = if est.hit_rejection || est.levels.len() >= 2 {
            est.fast_layer_size()
        } else {
            None
        };
    }

    /// Classification from the three capacities (cf. Table 1).
    fn classify(&self) -> GeometryEstimate {
        let [l2_only, l3_only, l2l3] = self.fast;
        let class = match (l2_only.or(l3_only), l2l3) {
            (None, None) => GeometryClass::Unbounded,
            (Some(narrow), Some(wide)) => {
                // Within estimator noise (< 5 %), equal capacities mean
                // the width does not matter.
                if (narrow - wide).abs() / narrow.max(wide) < 0.10 {
                    GeometryClass::FixedWidth {
                        entries: (narrow + wide) / 2.0,
                    }
                } else {
                    GeometryClass::WidthSensitive { narrow, wide }
                }
            }
            // A bounded layer for only one kind: treat the bounded
            // figure as both (the other probe was capped too low).
            (Some(narrow), None) => GeometryClass::WidthSensitive {
                narrow,
                wide: f64::NAN,
            },
            (None, Some(wide)) => GeometryClass::WidthSensitive {
                narrow: f64::NAN,
                wide,
            },
        };
        GeometryEstimate {
            l2_only,
            l3_only,
            l2l3,
            class,
        }
    }

    /// After the pre-probe clear: start the phase's size driver, which
    /// may finish immediately under a degenerate config (`cap == 0`).
    fn start_size(&mut self) -> Step<GeometryEstimate> {
        let (kind, seed) = PHASES[self.phase];
        let cfg = self.size_config(seed);
        let mut sub = Box::new(SizeDriver::new(kind, cfg));
        match sub.start() {
            Step::Issue(ops) => {
                self.state = GeometryState::Size(sub);
                Step::Issue(ops)
            }
            Step::Done(est) => {
                self.record(&est);
                self.state = GeometryState::ClearAfter;
                Step::Issue(vec![ControlOp::FlowMod(FlowMod::delete_all())])
            }
        }
    }

    /// After the post-probe clear: next phase, or classify and finish.
    fn next_phase(&mut self) -> Step<GeometryEstimate> {
        self.phase += 1;
        if self.phase < PHASES.len() {
            self.state = GeometryState::ClearBefore;
            Step::Issue(vec![ControlOp::FlowMod(FlowMod::delete_all())])
        } else {
            self.state = GeometryState::Finished;
            Step::Done(self.classify())
        }
    }
}

impl InferenceDriver for GeometryDriver {
    type Outcome = GeometryEstimate;

    fn start(&mut self) -> Step<GeometryEstimate> {
        self.phase = 0;
        self.state = GeometryState::ClearBefore;
        Step::Issue(vec![ControlOp::FlowMod(FlowMod::delete_all())])
    }

    fn on_completion(
        &mut self,
        c: &driver::Completion,
    ) -> Result<Step<GeometryEstimate>, ProbeError> {
        match &mut self.state {
            GeometryState::ClearBefore => {
                let OpOutcome::FlowMod(_) = c.inner.outcome else {
                    return Err(mismatch(&"pre-probe delete_all", c));
                };
                Ok(self.start_size())
            }
            GeometryState::Size(sub) => match sub.on_completion(c)? {
                Step::Issue(ops) => Ok(Step::Issue(ops)),
                Step::Done(est) => {
                    self.record(&est);
                    self.state = GeometryState::ClearAfter;
                    Ok(Step::Issue(vec![ControlOp::FlowMod(FlowMod::delete_all())]))
                }
            },
            GeometryState::ClearAfter => {
                let OpOutcome::FlowMod(_) = c.inner.outcome else {
                    return Err(mismatch(&"post-probe delete_all", c));
                };
                Ok(self.next_phase())
            }
            GeometryState::Finished => Err(mismatch(&"no op in flight (driver finished)", c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofwire::types::Dpid;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    fn probe(profile: SwitchProfile, cap: usize) -> GeometryEstimate {
        let mut tb = Testbed::new(0x9e0);
        let dpid = Dpid(1);
        tb.attach_default(dpid, profile);
        driver::run_driver(&mut tb, dpid, GeometryDriver::new(cap, 64))
            .expect("geometry probe completes")
    }

    #[test]
    fn switch2_is_fixed_width() {
        let g = probe(SwitchProfile::vendor2(), 4096);
        match g.class {
            GeometryClass::FixedWidth { entries } => {
                assert_eq!(entries, 2560.0);
            }
            other => panic!("expected fixed width, got {other:?}"),
        }
    }

    #[test]
    fn switch3_is_width_sensitive() {
        let g = probe(SwitchProfile::vendor3(), 2048);
        match g.class {
            GeometryClass::WidthSensitive { narrow, wide } => {
                assert_eq!(narrow, 767.0);
                assert_eq!(wide, 369.0);
            }
            other => panic!("expected width sensitive, got {other:?}"),
        }
    }

    #[test]
    fn switch1_is_width_sensitive_behind_software() {
        // No rejection ever (software spill), but the fast layer is
        // bounded — the spill tier makes it observable.
        let g = probe(SwitchProfile::vendor1(), 6000);
        match g.class {
            GeometryClass::WidthSensitive { narrow, wide } => {
                // 64 sampling trials keep the test fast; tolerance is
                // relaxed accordingly (the classification only needs the
                // ~2× separation, not the 5 % headline).
                assert!((narrow - 4095.0).abs() / 4095.0 < 0.10, "narrow {narrow}");
                assert!((wide - 2047.0).abs() / 2047.0 < 0.10, "wide {wide}");
            }
            other => panic!("expected width sensitive, got {other:?}"),
        }
    }

    #[test]
    fn ovs_is_unbounded() {
        let g = probe(SwitchProfile::ovs(), 1024);
        assert_eq!(g.class, GeometryClass::Unbounded);
        assert_eq!(g.l2_only, None);
        assert_eq!(g.l2l3, None);
    }
}
