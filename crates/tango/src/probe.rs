//! Pattern execution: runs Tango patterns against a switch and collects
//! measurements (§4, "Probing Engine").
//!
//! Consecutive flow-mods are pipelined into one barriered batch — exactly
//! the paper's measurement methodology — and each [`PatternStep::Probe`]
//! sends a real data packet and records its RTT.
//!
//! [`pattern_probe`] issues a pattern's operations through the
//! [`ControlPath`](switchsim::control::ControlPath) abstraction as one
//! probe program: [`run_driver`](crate::driver::run_driver) runs it on a
//! single switch; [`fleet::run_inference`](crate::fleet::run_inference)
//! runs one per switch
//! ([`FleetJob::pattern`](crate::fleet::FleetJob::pattern)), interleaved
//! in the same virtual time.

use crate::driver::{mismatch, Probe, ProbeError};
use crate::pattern::{PatternStep, RuleKind, TangoPattern};
use ofwire::action::Action;
use ofwire::flow_mod::FlowMod;
use simnet::time::SimDuration;
use switchsim::control::{ControlOp, OpOutcome};
use switchsim::pipeline::Hit;

/// One timed segment of a pattern run (a barriered flow-mod batch).
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Operations in the batch.
    pub ops: usize,
    /// Rejected operations (table full).
    pub rejected: usize,
    /// Wall-clock (virtual) time the batch took, barrier included.
    pub elapsed: SimDuration,
}

/// One probe measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// Probe-flow id.
    pub id: u32,
    /// Where the packet was served.
    pub hit: Hit,
    /// Measured round-trip time in milliseconds.
    pub rtt_ms: f64,
}

/// The full result of running one pattern.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PatternResult {
    /// Timed flow-mod segments, in order.
    pub segments: Vec<Segment>,
    /// Probe measurements, in order.
    pub probes: Vec<ProbeSample>,
}

impl PatternResult {
    /// Total time spent in flow-mod segments.
    #[must_use]
    pub fn install_time(&self) -> SimDuration {
        self.segments
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.elapsed)
    }

    /// Total rejected operations.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.segments.iter().map(|s| s.rejected).sum()
    }

    /// Probe RTTs in milliseconds, in probe order.
    #[must_use]
    pub fn rtts_ms(&self) -> Vec<f64> {
        self.probes.iter().map(|p| p.rtt_ms).collect()
    }
}

/// What one issued op of a pattern completes into.
#[derive(Debug)]
enum Awaited {
    /// A timed segment of this many flow-mods.
    Segment(usize),
    /// A probe sample of this flow id.
    Sample(u32),
}

/// Runs `pattern` verbatim as a probe program on `probe`'s switch (see
/// [`driver`](crate::driver)). Consecutive flow-mods coalesce into one
/// barriered batch, flushed before every probe or explicit barrier; the
/// whole pattern is issued at once and each completion folds into the
/// result.
///
/// # Errors
/// [`ProbeError::CompletionMismatch`] if an outcome's shape does not
/// match the op issued — a control-path contract violation.
pub async fn pattern_probe(
    probe: Probe,
    pattern: &TangoPattern,
) -> Result<PatternResult, ProbeError> {
    let kind = pattern.kind;
    let mut awaited = Vec::new();
    let mut pending: Vec<FlowMod> = Vec::new();
    // A trailing barrier flushes the last batch.
    for step in pattern.steps.iter().chain([&PatternStep::Barrier]) {
        if let Some(fm) = flow_mod_for(kind, step) {
            pending.push(fm);
            continue;
        }
        if !pending.is_empty() {
            awaited.push(Awaited::Segment(pending.len()));
            probe.issue(ControlOp::Batch(std::mem::take(&mut pending)));
        }
        if let PatternStep::Probe { id } = *step {
            awaited.push(Awaited::Sample(id));
            probe.issue(ControlOp::Probe(kind.key(id)));
        }
    }

    let mut result = PatternResult::default();
    for op in awaited {
        let c = probe.completion().await;
        let elapsed = c.elapsed();
        match (op, c.inner.outcome) {
            (Awaited::Segment(ops), OpOutcome::Batch { failed, .. }) => {
                result.segments.push(Segment {
                    ops,
                    rejected: failed,
                    elapsed,
                });
            }
            (Awaited::Sample(id), OpOutcome::Probe(hit)) => {
                result.probes.push(ProbeSample {
                    id,
                    hit,
                    rtt_ms: elapsed.as_millis_f64(),
                });
            }
            (op, _) => return Err(mismatch(&op, &c)),
        }
    }
    Ok(result)
}

fn flow_mod_for(kind: RuleKind, step: &PatternStep) -> Option<FlowMod> {
    match *step {
        PatternStep::Add { id, priority } => Some(FlowMod::add(kind.flow_match(id), priority)),
        PatternStep::Modify {
            id,
            priority,
            out_port,
        } => Some(FlowMod::modify_strict(
            kind.flow_match(id),
            priority,
            vec![Action::output(out_port)],
        )),
        PatternStep::Delete { id, priority } => {
            Some(FlowMod::delete_strict(kind.flow_match(id), priority))
        }
        PatternStep::Probe { .. } | PatternStep::Barrier => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_driver;
    use crate::pattern::PriorityOrder;
    use ofwire::types::Dpid;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    /// Runs `pat` on a fresh one-switch testbed, returning the result and
    /// the testbed for inspection.
    fn run_on(profile: SwitchProfile, pat: &TangoPattern) -> (PatternResult, Testbed) {
        let mut tb = Testbed::new(11);
        tb.attach_default(Dpid(1), profile);
        let res = run_driver(&mut tb, Dpid(1), |p| pattern_probe(p, pat)).expect("pattern runs");
        (res, tb)
    }

    #[test]
    fn run_priority_pattern_installs_rules() {
        let pat = TangoPattern::priority_insertion(50, PriorityOrder::Ascending, RuleKind::L3);
        let (res, tb) = run_on(SwitchProfile::ovs(), &pat);
        assert_eq!(res.segments.len(), 1);
        assert_eq!(res.segments[0].ops, 50);
        assert_eq!(res.rejected(), 0);
        assert!(res.install_time() > SimDuration::ZERO);
        assert_eq!(tb.switch(Dpid(1)).rule_count(), 50);
    }

    #[test]
    fn descending_costs_more_than_ascending_on_hardware() {
        let run_order = |order| {
            let pat = TangoPattern::priority_insertion(500, order, RuleKind::L3);
            run_on(SwitchProfile::vendor1(), &pat).0.install_time()
        };
        let asc = run_order(PriorityOrder::Ascending);
        let desc = run_order(PriorityOrder::Descending);
        assert!(
            desc.as_millis_f64() > 3.0 * asc.as_millis_f64(),
            "desc {desc} should far exceed asc {asc}"
        );
    }

    #[test]
    fn probes_flush_pending_mods_first() {
        let pat = TangoPattern {
            name: "add-then-probe".into(),
            kind: RuleKind::L3,
            steps: vec![
                PatternStep::Add { id: 1, priority: 5 },
                PatternStep::Probe { id: 1 },
            ],
        };
        let (res, _) = run_on(SwitchProfile::vendor2(), &pat);
        assert_eq!(res.segments.len(), 1);
        assert_eq!(res.probes.len(), 1);
        assert!(
            matches!(res.probes[0].hit, Hit::Table { level: 0, .. }),
            "the probe must see the rule already installed"
        );
    }

    #[test]
    fn rejections_surface_in_segments() {
        let pat = TangoPattern::priority_insertion(400, PriorityOrder::Same, RuleKind::L2L3);
        let (res, _) = run_on(SwitchProfile::vendor3(), &pat);
        assert_eq!(res.rejected(), 400 - 369);
    }
}
