//! Online (in-service) probing (§4: "The collection of switch
//! measurements can be either offline testing of the switch before it is
//! plugged in the network, but online testing when the switch is
//! running").
//!
//! Online probes must not disturb application state. The headroom probe
//! installs its rules in a reserved flow-id namespace, measures the
//! remaining hardware capacity, then strictly removes exactly what it
//! installed — leaving every application rule (and its counters)
//! untouched.

use crate::driver::{self, mismatch, InferenceDriver, ProbeError, Step};
use crate::pattern::RuleKind;
use ofwire::flow_mod::FlowMod;
use serde::{Deserialize, Serialize};
use switchsim::control::{ControlOp, OpOutcome};

/// Flow-id namespace reserved for online probes; applications should
/// keep their ids below this.
pub const ONLINE_PROBE_ID_BASE: u32 = 0xf000_0000;

/// The result of an online headroom probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Headroom {
    /// Probe rules accepted before rejection (or the cap).
    pub accepted: usize,
    /// Whether the switch rejected an add (true capacity boundary) or
    /// the cap stopped the probe.
    pub hit_rejection: bool,
    /// Probe rules successfully removed afterwards (must equal
    /// `accepted`).
    pub cleaned: usize,
}

/// Where the headroom driver is.
enum HeadroomState {
    /// A doubling add-batch is in flight.
    Insert,
    /// The strict cleanup batch (of `n_dels` deletes) is in flight.
    Cleanup { n_dels: usize },
    /// Terminal (outcome already produced).
    Finished,
}

/// The online headroom probe as a resumable state machine: doubling
/// add-batches in the reserved flow-id namespace, then one strict
/// cleanup batch removing exactly what was installed.
pub struct HeadroomDriver {
    kind: RuleKind,
    priority: u16,
    cap: usize,
    accepted: usize,
    hit_rejection: bool,
    x: usize,
    state: HeadroomState,
}

impl HeadroomDriver {
    /// A driver probing with rules of `kind` at `priority`, installing
    /// at most `cap` probe rules. `priority` should be low so the probe
    /// rules cannot shadow production traffic; `cap` bounds the probe on
    /// switches with unbounded software tables. The run fails with
    /// [`ProbeError::LeakedRules`] if the cleanup leaves a probe rule
    /// behind.
    #[must_use]
    pub fn new(kind: RuleKind, priority: u16, cap: usize) -> HeadroomDriver {
        HeadroomDriver {
            kind,
            priority,
            cap,
            accepted: 0,
            hit_rejection: false,
            x: 1,
            state: HeadroomState::Finished,
        }
    }

    /// Issues the next doubling batch, or the final strict cleanup when
    /// insertion is over. The cleanup batch is issued even when empty so
    /// the probe's op stream (and hence its timing) always ends with the
    /// cleanup barrier.
    fn next_batch_or_cleanup(&mut self) -> Step<Headroom> {
        while !self.hit_rejection && self.accepted < self.cap {
            let target = self.x.min(self.cap);
            if target > self.accepted {
                let fms: Vec<FlowMod> = (self.accepted..target)
                    .map(|i| {
                        FlowMod::add(
                            self.kind.flow_match(ONLINE_PROBE_ID_BASE + i as u32),
                            self.priority,
                        )
                    })
                    .collect();
                self.state = HeadroomState::Insert;
                return Step::Issue(vec![ControlOp::Batch(fms)]);
            }
            self.x *= 2;
        }
        // Clean up strictly: only the probe's own rules.
        let dels: Vec<FlowMod> = (0..self.accepted)
            .map(|i| {
                FlowMod::delete_strict(
                    self.kind.flow_match(ONLINE_PROBE_ID_BASE + i as u32),
                    self.priority,
                )
            })
            .collect();
        self.state = HeadroomState::Cleanup { n_dels: dels.len() };
        Step::Issue(vec![ControlOp::Batch(dels)])
    }
}

impl InferenceDriver for HeadroomDriver {
    type Outcome = Headroom;

    fn start(&mut self) -> Step<Headroom> {
        self.next_batch_or_cleanup()
    }

    fn on_completion(&mut self, c: &driver::Completion) -> Result<Step<Headroom>, ProbeError> {
        match self.state {
            HeadroomState::Insert => {
                let OpOutcome::Batch { ok, failed } = c.inner.outcome else {
                    return Err(mismatch(&"headroom add batch", c));
                };
                self.accepted += ok;
                if failed > 0 {
                    self.hit_rejection = true;
                }
                self.x *= 2;
                Ok(self.next_batch_or_cleanup())
            }
            HeadroomState::Cleanup { n_dels } => {
                let OpOutcome::Batch { ok, failed } = c.inner.outcome else {
                    return Err(mismatch(&"headroom cleanup batch", c));
                };
                if failed != 0 || ok != n_dels {
                    // Probe rules were left behind — the switch is no
                    // longer in its pre-probe state, which an online
                    // probe must never silently accept.
                    return Err(ProbeError::LeakedRules {
                        installed: n_dels,
                        cleaned: ok,
                    });
                }
                self.state = HeadroomState::Finished;
                Ok(Step::Done(Headroom {
                    accepted: self.accepted,
                    hit_rejection: self.hit_rejection,
                    cleaned: ok,
                }))
            }
            HeadroomState::Finished => Err(mismatch(&"no op in flight (driver finished)", c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::RuleKind;
    use ofwire::flow_match::FlowMatch;
    use ofwire::types::Dpid;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    /// Runs the headroom probe with L3 rules at priority 1.
    fn headroom(tb: &mut Testbed, dpid: Dpid, cap: usize) -> Headroom {
        driver::run_driver(tb, dpid, HeadroomDriver::new(RuleKind::L3, 1, cap))
            .expect("headroom probe completes")
    }

    #[test]
    fn headroom_measures_remaining_capacity_nondisruptively() {
        let mut tb = Testbed::new(5);
        let dpid = Dpid(1);
        tb.attach_default(dpid, SwitchProfile::vendor3());
        // The "application" has 200 rules installed, with traffic.
        let fms: Vec<FlowMod> = (0..200)
            .map(|i| FlowMod::add(FlowMatch::l3_for_id(i), 500))
            .collect();
        tb.batch(dpid, fms);
        for i in 0..200 {
            tb.probe(dpid, &FlowMatch::key_for_id(i));
        }

        let h = headroom(&mut tb, dpid, 2048);
        assert!(h.hit_rejection);
        assert_eq!(h.accepted, 767 - 200);
        assert_eq!(h.cleaned, h.accepted);

        // Application state is untouched: same rule count, same
        // counters.
        assert_eq!(tb.switch(dpid).rule_count(), 200);
        let stats = tb.switch(dpid).flow_stats(simnet::time::SimTime(0));
        assert_eq!(stats.len(), 200);
        assert!(stats.iter().all(|e| e.packet_count == 1));
        assert!(stats.iter().all(|e| e.priority == 500));
    }

    #[test]
    fn headroom_on_unbounded_switch_reports_cap() {
        let mut tb = Testbed::new(6);
        let dpid = Dpid(1);
        tb.attach_default(dpid, SwitchProfile::ovs());
        let h = headroom(&mut tb, dpid, 300);
        assert!(!h.hit_rejection);
        assert_eq!(h.accepted, 300);
        assert_eq!(tb.switch(dpid).rule_count(), 0);
    }

    #[test]
    fn repeated_probes_are_idempotent() {
        let mut tb = Testbed::new(7);
        let dpid = Dpid(1);
        tb.attach_default(dpid, SwitchProfile::vendor2());
        let h1 = headroom(&mut tb, dpid, 4096);
        let h2 = headroom(&mut tb, dpid, 4096);
        assert_eq!(h1.accepted, 2560);
        assert_eq!(h1.accepted, h2.accepted);
    }
}
