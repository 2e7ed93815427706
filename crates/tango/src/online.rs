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

use crate::driver::{Probe, ProbeError};
use crate::pattern::RuleKind;
use ofwire::flow_mod::FlowMod;
use switchsim::control::ControlOp;

/// Flow-id namespace reserved for online probes; applications should
/// keep their ids below this.
pub const ONLINE_PROBE_ID_BASE: u32 = 0xf000_0000;

/// The result of an online headroom probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The online headroom probe as a probe program on `probe`'s switch
/// (see [`driver`](crate::driver)): doubling add-batches of rules of
/// `kind` at `priority` in the reserved flow-id namespace, at most `cap`
/// of them, then one strict cleanup batch removing exactly what was
/// installed.
/// `priority` should be low so the probe rules cannot shadow production
/// traffic; `cap` bounds the probe on switches with unbounded software
/// tables.
///
/// # Errors
/// [`ProbeError::LeakedRules`] if the cleanup leaves a probe rule
/// behind; [`ProbeError::CompletionMismatch`] if a completion is not a
/// batch.
pub async fn headroom_probe(
    probe: Probe,
    kind: RuleKind,
    priority: u16,
    cap: usize,
) -> Result<Headroom, ProbeError> {
    let rule = |i: usize| kind.flow_match(ONLINE_PROBE_ID_BASE + i as u32);
    let (mut accepted, mut hit_rejection, mut x) = (0, false, 1);
    while !hit_rejection && accepted < cap {
        let target = x.min(cap);
        if target > accepted {
            let adds = (accepted..target).map(|i| FlowMod::add(rule(i), priority));
            probe.issue(ControlOp::Batch(adds.collect()));
            let (ok, failed) = probe.batch("headroom add batch").await?;
            accepted += ok;
            hit_rejection = failed > 0;
        }
        x *= 2;
    }
    // Clean up strictly: only the probe's own rules. The batch is issued
    // even when empty so the probe's op stream (and hence its timing)
    // always ends with the cleanup barrier.
    let dels = (0..accepted).map(|i| FlowMod::delete_strict(rule(i), priority));
    probe.issue(ControlOp::Batch(dels.collect()));
    let (cleaned, failed) = probe.batch("headroom cleanup batch").await?;
    if failed != 0 || cleaned != accepted {
        // The switch is no longer in its pre-probe state, which an
        // online probe must never silently accept.
        return Err(ProbeError::LeakedRules {
            installed: accepted,
            cleaned,
        });
    }
    Ok(Headroom {
        accepted,
        hit_rejection,
        cleaned,
    })
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
        crate::driver::run_driver(tb, dpid, |p| headroom_probe(p, RuleKind::L3, 1, cap))
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
