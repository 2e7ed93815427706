//! Resumable inference drivers: the adaptive probing algorithms as
//! event-driven state machines over the [`ControlPath`] layer.
//!
//! Every probe in this crate — Algorithm 1
//! ([`SizeDriver`](crate::infer_size::SizeDriver)), Algorithm 2
//! ([`PolicyDriver`](crate::infer_policy::PolicyDriver)), the geometry
//! probe ([`GeometryDriver`](crate::infer_geometry::GeometryDriver)),
//! the online headroom probe
//! ([`HeadroomDriver`](crate::online::HeadroomDriver)), and plain pattern
//! execution ([`PatternDriver`](crate::probe::PatternDriver)) — is a
//! small state machine implementing [`InferenceDriver`]: it *issues*
//! control-path operations — often a whole pattern's worth at once — and
//! *consumes* their completions one at a time, never blocking on the
//! transport. The drivers are the entry points, and they run on any
//! [`ControlPath`]: [`run_driver`] runs one on a single switch;
//! whole-network inference feeds one driver per switch through
//! [`run_drivers`] (see [`fleet`](crate::fleet)) so N switches are
//! characterized in the wall-clock time of the slowest, not the sum.
//!
//! # Determinism
//!
//! Interleaving drivers does not change what any one of them measures.
//! Two properties make that true:
//!
//! 1. **Pacing is preserved.** Every operation leaves the controller at
//!    its predecessor's `acked_at` — the exact instant a synchronous
//!    submit/wait/warp loop would have issued it. The runner does not
//!    wait to learn that instant: it submits a window of issued
//!    operations ahead with [`READY_ON_PREVIOUS_ACK`], which the control
//!    path — it computes every `acked_at` — resolves to the value an
//!    explicit submit would have carried. What one switch observes is
//!    identical whether its driver runs alone or among many, one op at a
//!    time or a window deep.
//! 2. **Randomness is per-switch.** Latency jitter comes from RNG
//!    streams forked per switch at attach time and drawn in the switch's
//!    own op order, and each driver owns its own sampling RNG seeded from
//!    its config — nothing is drawn from a shared stream whose order
//!    interleaving, or submitting ahead, could perturb.
//!
//! Hence `run_drivers` is bit-identical to running each driver
//! sequentially on its own — the property the `fleet_inference`
//! integration test and the `driver_equivalence` proptest enforce.

use ofwire::types::Dpid;
use simnet::telemetry::SpanId;
use simnet::time::{SimDuration, SimTime};
use std::collections::{HashSet, VecDeque};
use switchsim::control::{self, ControlOp, ControlPath, TokenRing, READY_ON_PREVIOUS_ACK};

/// A typed error from the probing layer. Replaces the panics and asserts
/// that used to live on the probing hot path.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeError {
    /// A completion's outcome did not match the operation the driver had
    /// in flight — a control-path contract violation.
    CompletionMismatch {
        /// Debug rendering of the op the driver expected to complete.
        expected: String,
        /// Debug rendering of the outcome that actually arrived.
        got: String,
    },
    /// Two concurrent jobs named the same switch; their op streams would
    /// interleave on one control channel, which is not a pattern any
    /// more.
    DuplicateSwitch(Dpid),
    /// An online probe failed to remove every rule it installed, leaving
    /// probe state behind in the switch.
    LeakedRules {
        /// Probe rules the cleanup tried to delete.
        installed: usize,
        /// Probe rules actually removed.
        cleaned: usize,
    },
    /// A driver neither finished nor issued another operation — it can
    /// never make progress again.
    DriverStalled(Dpid),
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::CompletionMismatch { expected, got } => {
                write!(f, "completion {got} does not match issued op {expected}")
            }
            ProbeError::DuplicateSwitch(dpid) => {
                write!(
                    f,
                    "duplicate job for {dpid}: one driver per switch at a time"
                )
            }
            ProbeError::LeakedRules { installed, cleaned } => write!(
                f,
                "online probe leaked rules: installed {installed}, cleaned {cleaned}"
            ),
            ProbeError::DriverStalled(dpid) => {
                write!(f, "driver for {dpid} stalled: not done, nothing in flight")
            }
        }
    }
}

impl std::error::Error for ProbeError {}

/// What a driver does next: issue more operations, or finish.
#[derive(Debug, Clone, PartialEq)]
pub enum Step<T> {
    /// Submit these operations, in order, behind anything already
    /// queued. An empty `Issue` is a no-op (the driver is still waiting
    /// on earlier operations).
    Issue(Vec<ControlOp>),
    /// The driver is finished; this is its outcome. A driver must not
    /// finish with issued operations uncompleted — the runner may already
    /// have put them on the wire (it checks this in debug builds).
    Done(T),
}

impl<T> Step<T> {
    /// Maps the outcome type, leaving issued ops untouched.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Step<U> {
        match self {
            Step::Issue(ops) => Step::Issue(ops),
            Step::Done(t) => Step::Done(f(t)),
        }
    }
}

/// A completion as a driver sees it: the transport-level event plus the
/// controller-side instant the op was submitted with, so elapsed time is
/// measured exactly as a synchronous submit-and-wait loop measures it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// When the operation left the controller.
    pub issued_at: SimTime,
    /// The transport-level completion event.
    pub inner: control::Completion,
}

impl Completion {
    /// Controller-observed elapsed time (submit → ack).
    #[must_use]
    pub fn elapsed(&self) -> SimDuration {
        self.inner.acked_at.since(self.issued_at)
    }

    /// Controller-observed elapsed time in milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_millis_f64()
    }
}

/// A resumable inference state machine.
///
/// The runner calls [`start`](InferenceDriver::start) once, submits the
/// issued operations in order (each leaving the controller at the
/// previous one's `acked_at`), and feeds every completion back through
/// [`on_completion`](InferenceDriver::on_completion). Completions arrive
/// in issue order, exactly one per issued op.
pub trait InferenceDriver {
    /// What the driver produces when it finishes.
    type Outcome;

    /// Called once before any completion: the driver's opening
    /// operations (or an immediate outcome for degenerate configs).
    fn start(&mut self) -> Step<Self::Outcome>;

    /// Called with the completion of the oldest outstanding operation.
    fn on_completion(&mut self, c: &Completion) -> Result<Step<Self::Outcome>, ProbeError>;
}

/// How many operations [`run_drivers`] keeps submitted ahead per job, so
/// that vectors whose members depend on their predecessor only through
/// its ack time (73 % of a default size probe) cross a socket a window,
/// not an op, per round trip. A constant, and a measured one: unbounded,
/// the 6 000-probe sweeps raise peak RSS past its benchmark bound for no
/// extra throughput; 128 keeps it flat (~14 KB of probes on the wire:
/// one `OutBuf` segment, far below `LOW_WATER`).
const WINDOW: usize = 128;

/// One driver's bookkeeping inside [`run_drivers`].
struct Job<D: InferenceDriver> {
    dpid: Dpid,
    driver: D,
    /// Operations issued by the driver but not yet submitted.
    queue: VecDeque<ControlOp>,
    /// Operations submitted and not yet completed (at most [`WINDOW`]).
    out: usize,
    /// `acked_at` of the job's latest completion (the start instant
    /// before any): when the next op to complete left the controller.
    last_ack: SimTime,
    outcome: Option<D::Outcome>,
    /// Telemetry span covering the job on its switch's track, from first
    /// submit to final acknowledgement. `None` when telemetry is off or
    /// the path assigns no per-switch tracks.
    span: Option<SpanId>,
}

impl<D: InferenceDriver> Job<D> {
    /// Submits queued ops until [`WINDOW`] are out, the first at
    /// `ready_at` and the rest chained to their predecessor's ack;
    /// errors if the driver is unfinished with nothing queued or out.
    fn top_up<C: ControlPath>(
        &mut self,
        idx: usize,
        cp: &mut C,
        mut ready_at: SimTime,
        inflight: &mut TokenRing<usize>,
    ) -> Result<(), ProbeError> {
        while self.out < WINDOW {
            let Some(op) = self.queue.pop_front() else {
                break;
            };
            let token = cp.submit(self.dpid, op, ready_at);
            ready_at = READY_ON_PREVIOUS_ACK;
            inflight.insert(token, idx);
            self.out += 1;
            if let Some(t) = cp.telemetry_mut() {
                t.count("driver/ops_issued", 1);
                t.gauge_max("driver/inflight_max", self.out as u64);
            }
        }
        if self.out == 0 {
            return Err(ProbeError::DriverStalled(self.dpid));
        }
        Ok(())
    }
}

/// Drives many inference state machines over one control path, each
/// switch's driver advancing as its own completions arrive. Returns the
/// outcomes in job order.
///
/// Each job keeps up to `WINDOW` (128) issued operations submitted
/// ahead — the first at an explicit instant, the rest chained with
/// [`READY_ON_PREVIOUS_ACK`], topped up on every completion; the gauge
/// `driver/inflight_max` reports the depth reached. Each op still leaves
/// the controller at the previous op's `acked_at`, the instant a
/// synchronous loop would have issued it — so the results are
/// bit-identical to running the drivers one after another (see the
/// module docs). On return the shared clock sits at the latest
/// acknowledgement any driver observed, matching where a sequence of
/// synchronous runs would have left it.
///
/// Completions from operations the caller had in flight before this call
/// are consumed and dropped; don't run drivers with foreign ops pending
/// if those completions matter.
pub fn run_drivers<C, D>(cp: &mut C, jobs: Vec<(Dpid, D)>) -> Result<Vec<D::Outcome>, ProbeError>
where
    C: ControlPath,
    D: InferenceDriver,
{
    let mut seen = HashSet::new();
    for (dpid, _) in &jobs {
        if !seen.insert(*dpid) {
            return Err(ProbeError::DuplicateSwitch(*dpid));
        }
    }
    let start = cp.now();
    let mut jobs: Vec<Job<D>> = jobs
        .into_iter()
        .map(|(dpid, driver)| Job {
            dpid,
            driver,
            queue: VecDeque::new(),
            out: 0,
            last_ack: start,
            outcome: None,
            span: None,
        })
        .collect();

    // Kick off every driver at the common start instant.
    let mut horizon = start;
    let mut inflight = TokenRing::default();
    if let Some(t) = cp.telemetry_mut() {
        t.count("driver/jobs", jobs.len() as u64);
    }
    for (i, job) in jobs.iter_mut().enumerate() {
        match job.driver.start() {
            Step::Issue(ops) => job.queue.extend(ops),
            Step::Done(o) => job.outcome = Some(o),
        }
        if job.outcome.is_none() {
            // The job span opens before the first op is submitted, so
            // the switch's op spans nest inside it on the track.
            if let Some(track) = cp.track_of(job.dpid) {
                if let Some(t) = cp.telemetry_mut() {
                    job.span = t.span_begin(track, "driver", start);
                }
            }
            job.top_up(i, cp, start, &mut inflight)?;
        }
    }

    while !inflight.is_empty() {
        let Some(c) = cp.next_completion() else {
            // Ops are registered in flight but the path went quiet — a
            // transport invariant violation. Surface the lowest-token
            // job as stalled (deterministic choice).
            let &i = inflight.first().expect("inflight is non-empty");
            return Err(ProbeError::DriverStalled(jobs[i].dpid));
        };
        let Some(i) = inflight.remove(c.token) else {
            // A completion from outside these drivers (the caller had
            // other work in flight) — not ours to account.
            continue;
        };
        horizon = horizon.max(c.acked_at);
        let job = &mut jobs[i];
        job.out -= 1;
        let completion = Completion {
            issued_at: std::mem::replace(&mut job.last_ack, c.acked_at),
            inner: c,
        };
        if let Some(t) = cp.telemetry_mut() {
            t.count("driver/completions", 1);
            t.observe("driver/op_ms", completion.elapsed_ms());
        }
        match job.driver.on_completion(&completion)? {
            Step::Issue(ops) => {
                job.queue.extend(ops);
                // With none out, the next op leaves at this op's ack —
                // exactly when a synchronous loop would issue it.
                job.top_up(i, cp, READY_ON_PREVIOUS_ACK, &mut inflight)?;
            }
            Step::Done(o) => {
                debug_assert!(
                    job.out == 0 && job.queue.is_empty(),
                    "driver for {} finished with operations outstanding",
                    job.dpid
                );
                job.outcome = Some(o);
                // The op span this completion closed was the innermost
                // on the track, so the job span ends cleanly at the ack.
                if let Some(t) = cp.telemetry_mut() {
                    t.span_end(job.span.take(), c.acked_at);
                }
            }
        }
    }

    // Leave the clock where the last synchronous call would have: at the
    // latest observed acknowledgement (per-job acks are monotone, so for
    // a single job this is its final ack).
    cp.warp_to(horizon);
    jobs.into_iter()
        .map(|j| j.outcome.ok_or(ProbeError::DriverStalled(j.dpid)))
        .collect()
}

/// Drives a single inference state machine on switch `dpid` to
/// completion.
pub fn run_driver<C, D>(cp: &mut C, dpid: Dpid, driver: D) -> Result<D::Outcome, ProbeError>
where
    C: ControlPath,
    D: InferenceDriver,
{
    let mut outcomes = run_drivers(cp, vec![(dpid, driver)])?;
    outcomes.pop().ok_or(ProbeError::DriverStalled(dpid))
}

/// Builds a [`ProbeError::CompletionMismatch`] from an expected-op
/// rendering and the completion that arrived.
pub(crate) fn mismatch(expected: &dyn std::fmt::Debug, c: &Completion) -> ProbeError {
    ProbeError::CompletionMismatch {
        expected: format!("{expected:?}"),
        got: format!("{:?}", c.inner.outcome),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::RuleKind;
    use ofwire::flow_mod::FlowMod;
    use switchsim::control::OpOutcome;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    /// Installs `n` rules one flow-mod at a time, counting acceptances.
    struct CountingDriver {
        kind: RuleKind,
        n: u32,
        next: u32,
        accepted: usize,
    }

    impl InferenceDriver for CountingDriver {
        type Outcome = usize;

        fn start(&mut self) -> Step<usize> {
            if self.n == 0 {
                return Step::Done(0);
            }
            self.next = 1;
            Step::Issue(vec![ControlOp::FlowMod(FlowMod::add(
                self.kind.flow_match(0),
                10,
            ))])
        }

        fn on_completion(&mut self, c: &Completion) -> Result<Step<usize>, ProbeError> {
            let OpOutcome::FlowMod(r) = c.inner.outcome else {
                return Err(mismatch(&"flow-mod", c));
            };
            if r == switchsim::control::OpResult::Ok {
                self.accepted += 1;
            }
            if self.next == self.n {
                return Ok(Step::Done(self.accepted));
            }
            let id = self.next;
            self.next += 1;
            Ok(Step::Issue(vec![ControlOp::FlowMod(FlowMod::add(
                self.kind.flow_match(id),
                10,
            ))]))
        }
    }

    fn driver(n: u32) -> CountingDriver {
        CountingDriver {
            kind: RuleKind::L3,
            n,
            next: 0,
            accepted: 0,
        }
    }

    #[test]
    fn single_driver_runs_to_completion() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        let got = run_driver(&mut tb, Dpid(1), driver(25)).expect("driver completes");
        assert_eq!(got, 25);
        assert_eq!(tb.switch(Dpid(1)).rule_count(), 25);
    }

    #[test]
    fn immediate_done_needs_no_ops() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        let before = ControlPath::now(&tb);
        let got = run_driver(&mut tb, Dpid(1), driver(0)).expect("degenerate driver");
        assert_eq!(got, 0);
        assert_eq!(ControlPath::now(&tb), before, "no ops, no time");
    }

    #[test]
    fn duplicate_switches_are_a_typed_error() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        let err = run_drivers(&mut tb, vec![(Dpid(1), driver(2)), (Dpid(1), driver(2))])
            .expect_err("duplicate dpid must be rejected");
        assert_eq!(err, ProbeError::DuplicateSwitch(Dpid(1)));
    }

    #[test]
    fn concurrent_drivers_interleave_and_finish() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        tb.attach_default(Dpid(2), SwitchProfile::vendor1());
        let got = run_drivers(&mut tb, vec![(Dpid(1), driver(30)), (Dpid(2), driver(20))])
            .expect("both drivers complete");
        assert_eq!(got, vec![30, 20]);
        assert_eq!(tb.switch(Dpid(1)).rule_count(), 30);
        assert_eq!(tb.switch(Dpid(2)).rule_count(), 20);
    }

    /// A driver that returns an empty issue without finishing.
    struct StallingDriver;

    impl InferenceDriver for StallingDriver {
        type Outcome = ();

        fn start(&mut self) -> Step<()> {
            Step::Issue(vec![])
        }

        fn on_completion(&mut self, _c: &Completion) -> Result<Step<()>, ProbeError> {
            Ok(Step::Issue(vec![]))
        }
    }

    #[test]
    fn stalled_driver_is_a_typed_error() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(7), SwitchProfile::ovs());
        let err = run_driver(&mut tb, Dpid(7), StallingDriver).expect_err("stall must surface");
        assert_eq!(err, ProbeError::DriverStalled(Dpid(7)));
    }

    /// Issues `n` echoes up front and fails on the `fail_at`-th reply.
    struct SweepDriver {
        n: usize,
        fail_at: usize,
        seen: usize,
    }

    impl InferenceDriver for SweepDriver {
        type Outcome = usize;

        fn start(&mut self) -> Step<usize> {
            Step::Issue(vec![ControlOp::Echo(8); self.n])
        }

        fn on_completion(&mut self, c: &Completion) -> Result<Step<usize>, ProbeError> {
            self.seen += 1;
            if self.seen == self.fail_at {
                return Err(mismatch(&"a reply the driver likes", c));
            }
            Ok(if self.seen == self.n {
                Step::Done(self.seen)
            } else {
                Step::Issue(vec![])
            })
        }
    }

    #[test]
    fn issued_vectors_run_in_a_bounded_window() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        tb.attach_default(Dpid(2), SwitchProfile::vendor1());
        tb.enable_telemetry();
        let sweep = |n| SweepDriver {
            n,
            fail_at: 0,
            seen: 0,
        };
        let got = run_drivers(
            &mut tb,
            vec![(Dpid(1), sweep(3 * WINDOW)), (Dpid(2), sweep(5))],
        )
        .expect("both sweeps complete");
        assert_eq!(got, vec![3 * WINDOW, 5]);
        let rec = tb.finish_recorder().expect("telemetry was on");
        let depth = ("driver/inflight_max".to_string(), WINDOW as u64);
        assert!(rec.metrics().gauges.contains(&depth));
        assert_eq!(rec.counter("driver/ops_issued"), 3 * WINDOW as u64 + 5);
    }

    #[test]
    fn an_error_mid_window_is_returned() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        let failing = SweepDriver {
            n: 2 * WINDOW,
            fail_at: WINDOW / 2,
            seen: 0,
        };
        let err = run_driver(&mut tb, Dpid(1), failing).expect_err("the driver's error surfaces");
        assert!(matches!(err, ProbeError::CompletionMismatch { .. }));
    }

    #[test]
    fn probe_error_displays_are_informative() {
        let e = ProbeError::LeakedRules {
            installed: 10,
            cleaned: 9,
        };
        assert!(e.to_string().contains("installed 10"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
