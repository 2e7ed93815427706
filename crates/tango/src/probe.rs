//! The probing engine: executes Tango patterns against a switch and
//! collects measurements (§4, "Probing Engine").
//!
//! Consecutive flow-mods are pipelined into one barriered batch — exactly
//! the paper's measurement methodology — and each [`PatternStep::Probe`]
//! sends a real data packet and records its RTT.
//!
//! A pattern is first *compiled* into a [`PatternProgram`] — the exact
//! sequence of control-path operations it issues — and then driven
//! through the [`ControlPath`](switchsim::control::ControlPath)
//! abstraction one completion at a time.
//! [`ProbingEngine::run`] drives a single program synchronously;
//! [`fleet::run_inference`](crate::fleet::run_inference) drives one
//! program per switch ([`FleetJob::pattern`](crate::fleet::FleetJob::pattern)),
//! interleaved in the same virtual time.

use crate::driver::{self, InferenceDriver, ProbeError, Step};
use crate::pattern::{PatternStep, RuleKind, TangoPattern};
use ofwire::action::Action;
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use simnet::time::SimDuration;
use switchsim::control::{ControlOp, OpOutcome};
use switchsim::harness::Testbed;
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

/// One control-path operation of a compiled pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramOp {
    /// A barriered batch of flow-mods (consecutive pattern mods,
    /// pipelined per the paper's measurement methodology).
    Batch(Vec<FlowMod>),
    /// A data-plane probe for flow `id`.
    Probe(u32),
}

/// A pattern compiled to the exact control-path operations it issues.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternProgram {
    /// Match kind of the probe rules.
    pub kind: RuleKind,
    /// Operations, in issue order.
    pub ops: Vec<ProgramOp>,
}

/// Compiles a pattern: consecutive flow-mods coalesce into one barriered
/// batch, flushed before every probe or explicit barrier.
#[must_use]
pub fn compile_pattern(pattern: &TangoPattern) -> PatternProgram {
    let kind = pattern.kind;
    let mut ops = Vec::new();
    let mut pending: Vec<FlowMod> = Vec::new();
    for step in &pattern.steps {
        if let Some(fm) = flow_mod_for(kind, step) {
            pending.push(fm);
            continue;
        }
        if !pending.is_empty() {
            ops.push(ProgramOp::Batch(std::mem::take(&mut pending)));
        }
        if let PatternStep::Probe { id } = step {
            ops.push(ProgramOp::Probe(*id));
        }
    }
    if !pending.is_empty() {
        ops.push(ProgramOp::Batch(pending));
    }
    PatternProgram { kind, ops }
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

/// Converts one program op into the control-path operation to submit.
pub(crate) fn to_control_op(kind: RuleKind, op: &ProgramOp) -> ControlOp {
    match op {
        ProgramOp::Batch(fms) => ControlOp::Batch(fms.clone()),
        ProgramOp::Probe(id) => ControlOp::Probe(kind.key(*id)),
    }
}

/// Folds one completion into a [`PatternResult`]. `ops` is the batch
/// size (for segment accounting) and `issued_at` the controller-side
/// ready time the op was submitted with. A completion whose outcome does
/// not match the issued op's shape is a control-path contract violation,
/// reported as [`ProbeError::CompletionMismatch`].
pub(crate) fn record_completion(
    result: &mut PatternResult,
    op: &ProgramOp,
    issued_at: simnet::time::SimTime,
    c: &switchsim::control::Completion,
) -> Result<(), ProbeError> {
    match (op, c.outcome) {
        (ProgramOp::Batch(fms), OpOutcome::Batch { failed, .. }) => {
            result.segments.push(Segment {
                ops: fms.len(),
                rejected: failed,
                elapsed: c.acked_at.since(issued_at),
            });
            Ok(())
        }
        (ProgramOp::Probe(id), OpOutcome::Probe(hit)) => {
            result.probes.push(ProbeSample {
                id: *id,
                hit,
                rtt_ms: c.acked_at.since(issued_at).as_millis_f64(),
            });
            Ok(())
        }
        (op, outcome) => Err(ProbeError::CompletionMismatch {
            expected: format!("{op:?}"),
            got: format!("{outcome:?}"),
        }),
    }
}

/// The trivial inference driver: executes one compiled pattern program,
/// folding each completion into a [`PatternResult`]. All ops are issued
/// up front; the runner paces them one completion at a time.
pub struct PatternDriver {
    program: PatternProgram,
    cursor: usize,
    result: PatternResult,
}

impl PatternDriver {
    /// Wraps a compiled program.
    #[must_use]
    pub fn new(program: PatternProgram) -> PatternDriver {
        PatternDriver {
            program,
            cursor: 0,
            result: PatternResult::default(),
        }
    }

    /// Compiles and wraps a pattern.
    #[must_use]
    pub fn for_pattern(pattern: &TangoPattern) -> PatternDriver {
        PatternDriver::new(compile_pattern(pattern))
    }
}

impl InferenceDriver for PatternDriver {
    type Outcome = PatternResult;

    fn start(&mut self) -> Step<PatternResult> {
        if self.program.ops.is_empty() {
            return Step::Done(std::mem::take(&mut self.result));
        }
        Step::Issue(
            self.program
                .ops
                .iter()
                .map(|op| to_control_op(self.program.kind, op))
                .collect(),
        )
    }

    fn on_completion(&mut self, c: &driver::Completion) -> Result<Step<PatternResult>, ProbeError> {
        let op = &self.program.ops[self.cursor];
        record_completion(&mut self.result, op, c.issued_at, &c.inner)?;
        self.cursor += 1;
        if self.cursor == self.program.ops.len() {
            Ok(Step::Done(std::mem::take(&mut self.result)))
        } else {
            Ok(Step::Issue(vec![]))
        }
    }
}

/// The probing engine, bound to one switch of a testbed.
pub struct ProbingEngine<'a> {
    tb: &'a mut Testbed,
    dpid: Dpid,
    kind: RuleKind,
}

impl<'a> ProbingEngine<'a> {
    /// Binds the engine to `dpid`, probing with rules of `kind`.
    pub fn new(tb: &'a mut Testbed, dpid: Dpid, kind: RuleKind) -> ProbingEngine<'a> {
        ProbingEngine { tb, dpid, kind }
    }

    /// Mutable access to the testbed.
    pub fn testbed_mut(&mut self) -> &mut Testbed {
        self.tb
    }

    /// The bound switch.
    #[must_use]
    pub fn dpid(&self) -> Dpid {
        self.dpid
    }

    /// The probe-rule kind in use.
    #[must_use]
    pub fn kind(&self) -> RuleKind {
        self.kind
    }

    /// Runs a pattern to completion: compiles it and drives the program
    /// through the control path as a [`PatternDriver`], one op per
    /// completion.
    ///
    /// # Errors
    /// [`ProbeError::PatternKindMismatch`] if the pattern's rule kind is
    /// not the engine's; [`ProbeError::CompletionMismatch`] if the
    /// transport violates its completion contract.
    pub fn run(&mut self, pattern: &TangoPattern) -> Result<PatternResult, ProbeError> {
        if pattern.kind != self.kind {
            return Err(ProbeError::PatternKindMismatch {
                pattern: pattern.kind,
                engine: self.kind,
            });
        }
        driver::run_driver(self.tb, self.dpid, PatternDriver::for_pattern(pattern))
    }

    /// Issues one barriered batch through the control path, waiting for
    /// its completion. Returns `(accepted, rejected, elapsed)`.
    pub fn run_batch(&mut self, fms: Vec<FlowMod>) -> (usize, usize, SimDuration) {
        self.tb.batch(self.dpid, fms)
    }

    /// Installs one probe rule immediately (no batching); returns whether
    /// it was accepted.
    pub fn install_one(&mut self, id: u32, priority: u16) -> bool {
        let fm = FlowMod::add(self.kind.flow_match(id), priority);
        matches!(
            self.tb.flow_mod(self.dpid, fm).0,
            switchsim::harness::OpResult::Ok
        )
    }

    /// Sends one probe packet for flow `id`, returning the sample.
    pub fn probe_one(&mut self, id: u32) -> ProbeSample {
        let (hit, rtt) = self.tb.probe(self.dpid, &self.kind.key(id));
        ProbeSample {
            id,
            hit,
            rtt_ms: rtt.as_millis_f64(),
        }
    }

    /// Removes every rule from the switch (pattern cleanup).
    pub fn clear_rules(&mut self) {
        self.tb.flow_mod(self.dpid, FlowMod::delete_all());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PriorityOrder;
    use switchsim::profiles::SwitchProfile;

    fn engine_on(profile: SwitchProfile) -> (Testbed, Dpid) {
        let mut tb = Testbed::new(11);
        let dpid = Dpid(1);
        tb.attach_default(dpid, profile);
        (tb, dpid)
    }

    #[test]
    fn run_priority_pattern_installs_rules() {
        let (mut tb, dpid) = engine_on(SwitchProfile::ovs());
        let mut eng = ProbingEngine::new(&mut tb, dpid, RuleKind::L3);
        let pat = TangoPattern::priority_insertion(50, PriorityOrder::Ascending, RuleKind::L3);
        let res = eng.run(&pat).expect("pattern runs");
        assert_eq!(res.segments.len(), 1);
        assert_eq!(res.segments[0].ops, 50);
        assert_eq!(res.rejected(), 0);
        assert!(res.install_time() > SimDuration::ZERO);
        assert_eq!(tb.switch(dpid).rule_count(), 50);
    }

    #[test]
    fn descending_costs_more_than_ascending_on_hardware() {
        let run_order = |order| {
            let (mut tb, dpid) = engine_on(SwitchProfile::vendor1());
            let mut eng = ProbingEngine::new(&mut tb, dpid, RuleKind::L3);
            let pat = TangoPattern::priority_insertion(500, order, RuleKind::L3);
            eng.run(&pat).expect("pattern runs").install_time()
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
        let (mut tb, dpid) = engine_on(SwitchProfile::vendor2());
        let mut eng = ProbingEngine::new(&mut tb, dpid, RuleKind::L3);
        let pat = TangoPattern {
            name: "add-then-probe".into(),
            kind: RuleKind::L3,
            steps: vec![
                PatternStep::Add { id: 1, priority: 5 },
                PatternStep::Probe { id: 1 },
            ],
        };
        let res = eng.run(&pat).expect("pattern runs");
        assert_eq!(res.segments.len(), 1);
        assert_eq!(res.probes.len(), 1);
        assert!(
            matches!(res.probes[0].hit, Hit::Table { level: 0, .. }),
            "the probe must see the rule already installed"
        );
    }

    #[test]
    fn rejections_surface_in_segments() {
        let (mut tb, dpid) = engine_on(SwitchProfile::vendor3());
        let mut eng = ProbingEngine::new(&mut tb, dpid, RuleKind::L2L3);
        let pat = TangoPattern::priority_insertion(400, PriorityOrder::Same, RuleKind::L2L3);
        let res = eng.run(&pat).expect("pattern runs");
        assert_eq!(res.rejected(), 400 - 369);
    }

    #[test]
    fn clear_rules_empties_switch() {
        let (mut tb, dpid) = engine_on(SwitchProfile::ovs());
        let mut eng = ProbingEngine::new(&mut tb, dpid, RuleKind::L3);
        for i in 0..10 {
            assert!(eng.install_one(i, 5));
        }
        eng.clear_rules();
        assert_eq!(tb.switch(dpid).rule_count(), 0);
    }

    #[test]
    fn probe_one_reports_miss_for_unknown_flow() {
        let (mut tb, dpid) = engine_on(SwitchProfile::vendor2());
        let mut eng = ProbingEngine::new(&mut tb, dpid, RuleKind::L3);
        let s = eng.probe_one(9999);
        assert_eq!(s.hit, Hit::Miss);
        assert!(s.rtt_ms > 5.0, "controller path RTT, got {}", s.rtt_ms);
    }
}
