//! Probe programs: the adaptive probing algorithms as straight-line
//! `async fn`s over the [`ControlPath`] layer, and the one runner that
//! drives them.
//!
//! Every probe in this crate — Algorithm 1
//! ([`size_probe`](crate::infer_size::size_probe)), Algorithm 2
//! ([`policy_probe`](crate::infer_policy::policy_probe)), the geometry
//! probe ([`geometry_probe`](crate::infer_geometry::geometry_probe)),
//! the online headroom probe
//! ([`headroom_probe`](crate::online::headroom_probe)), pattern execution
//! ([`pattern_probe`](crate::probe::pattern_probe)) and the latency
//! curves ([`latency_probe`](crate::curves::latency_probe)) — is written
//! the way the paper states it, as loops over one switch's [`Probe`]
//! handle: [`Probe::issue`] queues an operation, and awaiting
//! [`Probe::completion`] yields the oldest outstanding one's result. A
//! program never blocks on the transport; it suspends at each await.
//! [`run_driver`] runs one program on a single switch; whole-network
//! inference runs one per switch through [`run_drivers`] (see
//! [`fleet`](crate::fleet)), so N switches are characterized in the
//! wall-clock time of the slowest, not the sum. The runner needs no
//! async runtime: it polls a program exactly when a completion for it
//! arrives.
//!
//! # Determinism
//!
//! Interleaving programs does not change what any one of them measures.
//! Two properties make that true:
//!
//! 1. **Pacing is preserved.** Every operation leaves the controller at
//!    its predecessor's `acked_at` — the exact instant a synchronous
//!    submit/wait/warp loop would have issued it. The runner does not
//!    wait to learn that instant: it submits a window of issued
//!    operations ahead with [`READY_ON_PREVIOUS_ACK`], which the control
//!    path — it computes every `acked_at` — resolves to the value an
//!    explicit submit would have carried. What one switch observes is
//!    identical whether its program runs alone or among many, one op at
//!    a time or a window deep.
//! 2. **Randomness is per-switch.** Latency jitter comes from RNG
//!    streams forked per switch at attach time and drawn in the switch's
//!    own op order, and each program owns its own sampling RNG seeded
//!    from its config — nothing is drawn from a shared stream whose order
//!    interleaving, or submitting ahead, could perturb.
//!
//! Hence `run_drivers` is bit-identical to running each program
//! sequentially on its own — the property the `fleet_inference`
//! integration test and the `driver_equivalence` proptest enforce.

use ofwire::types::Dpid;
use simnet::telemetry::SpanId;
use simnet::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use switchsim::control::{
    self, ControlOp, ControlPath, OpOutcome, OpResult, TokenRing, READY_ON_PREVIOUS_ACK,
};

/// A typed error from the probing layer. Replaces the panics and asserts
/// that used to live on the probing hot path.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeError {
    /// A completion's outcome did not match the operation the program
    /// had in flight — a control-path contract violation.
    CompletionMismatch {
        /// Debug rendering of the op the program expected to complete.
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
    /// A program waits with nothing of its own outstanding — it can
    /// never make progress again.
    DriverStalled(Dpid),
    /// A program returned while operations it issued were still queued
    /// or in flight; their completions would have nowhere to go.
    OpsOutstanding(Dpid),
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
                    "duplicate job for {dpid}: one program per switch at a time"
                )
            }
            ProbeError::LeakedRules { installed, cleaned } => write!(
                f,
                "online probe leaked rules: installed {installed}, cleaned {cleaned}"
            ),
            ProbeError::DriverStalled(dpid) => {
                write!(f, "program for {dpid} stalled: waiting, nothing in flight")
            }
            ProbeError::OpsOutstanding(dpid) => {
                write!(f, "program for {dpid} returned with operations outstanding")
            }
        }
    }
}

impl std::error::Error for ProbeError {}

/// A completion as a program sees it: the transport-level event plus the
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

/// A probe program's handle on its switch. Clones share one channel, so
/// a program can hand its switch to a sub-program (the geometry probe
/// runs Algorithm 1 three times).
#[derive(Clone, Default)]
pub struct Probe(Rc<RefCell<Channel>>);

/// What passes between a program and [`run_drivers`].
#[derive(Default)]
struct Channel {
    /// Operations issued and not yet submitted.
    queued: VecDeque<ControlOp>,
    /// The oldest outstanding op's completion, delivered and not yet
    /// taken.
    delivered: Option<Completion>,
}

impl Probe {
    /// Queues `op` behind every operation already issued. Ops issued
    /// before the next await go out together, each leaving the
    /// controller at its predecessor's ack.
    pub fn issue(&self, op: ControlOp) {
        self.0.borrow_mut().queued.push_back(op);
    }

    /// The completion of the oldest outstanding operation. Completions
    /// arrive in issue order, exactly one per issued op.
    pub async fn completion(&self) -> Completion {
        poll_fn(|_| {
            let delivered = self.0.borrow_mut().delivered.take();
            delivered.map_or(Poll::Pending, Poll::Ready)
        })
        .await
    }

    /// The oldest outstanding op's controller-observed RTT in ms. It must
    /// be a probe; otherwise the error names it `what`.
    pub async fn rtt_ms(&self, what: &str) -> Result<f64, ProbeError> {
        let c = self.completion().await;
        match c.inner.outcome {
            OpOutcome::Probe(_) => Ok(c.elapsed_ms()),
            _ => Err(mismatch(&what, &c)),
        }
    }

    /// The oldest outstanding op's result. It must be a single
    /// flow-mod; otherwise the error names it `what`.
    pub async fn flow_mod(&self, what: &str) -> Result<OpResult, ProbeError> {
        let c = self.completion().await;
        match c.inner.outcome {
            OpOutcome::FlowMod(r) => Ok(r),
            _ => Err(mismatch(&what, &c)),
        }
    }

    /// The oldest outstanding op's `(ok, failed)` tally. It must be a
    /// batch; otherwise the error names it `what`.
    pub async fn batch(&self, what: &str) -> Result<(usize, usize), ProbeError> {
        let c = self.completion().await;
        match c.inner.outcome {
            OpOutcome::Batch { ok, failed } => Ok((ok, failed)),
            _ => Err(mismatch(&what, &c)),
        }
    }
}

/// How many operations [`run_drivers`] keeps submitted ahead per job, so
/// that vectors whose members depend on their predecessor only through
/// its ack time cross a socket a window, not an op, per round trip. In a
/// default size probe that is all but ~0.2 % of its ops: it awaits 31 of
/// 18 015 (OVS, 6 000 rules) and 33 of 18 774 (vendor #1) with no other
/// op on the wire. A constant, and a measured one: unbounded,
/// the 6 000-probe sweeps raise peak RSS past its benchmark bound for no
/// extra throughput; 128 keeps it flat (~14 KB of probes on the wire,
/// far below `LOW_WATER`).
const WINDOW: usize = 128;

/// One program's bookkeeping inside [`run_drivers`].
struct Job<P, T> {
    dpid: Dpid,
    /// The runner's end of the program's channel.
    probe: Probe,
    program: Pin<Box<P>>,
    /// Operations submitted and not yet completed (at most [`WINDOW`]).
    out: usize,
    /// `acked_at` of the job's latest completion (the start instant
    /// before any): when the next op to complete left the controller.
    last_ack: SimTime,
    /// Set once the program has returned.
    outcome: Option<T>,
    /// Telemetry span covering the job on its switch's track, from first
    /// submit to final acknowledgement. `None` when telemetry is off or
    /// the path assigns no per-switch tracks.
    span: Option<SpanId>,
}

impl<T, P: Future<Output = Result<T, ProbeError>>> Job<P, T> {
    /// Runs the program until it next waits or returns; a program that
    /// returns leaves nothing queued or in flight.
    fn resume(&mut self, cx: &mut Context<'_>) -> Result<(), ProbeError> {
        if let Poll::Ready(outcome) = self.program.as_mut().poll(cx) {
            let outcome = outcome?;
            if self.out > 0 || !self.probe.0.borrow().queued.is_empty() {
                return Err(ProbeError::OpsOutstanding(self.dpid));
            }
            self.outcome = Some(outcome);
        }
        Ok(())
    }

    /// Submits queued ops until [`WINDOW`] are out, the first at
    /// `ready_at` and the rest chained to their predecessor's ack;
    /// errors if the waiting program has nothing of its own out, or left
    /// its last completion untaken.
    fn top_up<C: ControlPath>(
        &mut self,
        idx: usize,
        cp: &mut C,
        mut ready_at: SimTime,
        inflight: &mut TokenRing<usize>,
    ) -> Result<(), ProbeError> {
        while self.out < WINDOW {
            let Some(op) = self.probe.0.borrow_mut().queued.pop_front() else {
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
        if self.out == 0 || self.probe.0.borrow().delivered.is_some() {
            return Err(ProbeError::DriverStalled(self.dpid));
        }
        Ok(())
    }
}

/// The waker programs are polled with. Waking does nothing:
/// [`run_drivers`] resumes a program exactly when a completion for it
/// arrives.
struct Unwoken;

impl Wake for Unwoken {
    fn wake(self: Arc<Self>) {}
}

/// Runs many probe programs over one control path, one per switch, each
/// advancing as its own completions arrive. `jobs` pairs each switch
/// with the program to start on it, given the switch's [`Probe`].
/// Returns the outcomes in job order.
///
/// Each job keeps up to `WINDOW` (128) issued operations submitted
/// ahead — the first at an explicit instant, the rest chained with
/// [`READY_ON_PREVIOUS_ACK`], topped up on every completion; the gauge
/// `driver/inflight_max` reports the depth reached. Each op still leaves
/// the controller at the previous op's `acked_at`, the instant a
/// synchronous loop would have issued it — so the results are
/// bit-identical to running the programs one after another (see the
/// module docs). On return the shared clock sits at the latest
/// acknowledgement any program observed, matching where a sequence of
/// synchronous runs would have left it.
///
/// Completions from operations the caller had in flight before this call
/// are consumed and dropped; don't run programs with foreign ops pending
/// if those completions matter.
///
/// # Errors
/// [`ProbeError::DuplicateSwitch`] if two jobs name one switch,
/// [`ProbeError::DriverStalled`] or [`ProbeError::OpsOutstanding`] for a
/// program that breaks the issue/await contract, and the first error any
/// program returns.
pub fn run_drivers<C, F, P, T>(cp: &mut C, jobs: Vec<(Dpid, F)>) -> Result<Vec<T>, ProbeError>
where
    C: ControlPath,
    F: FnOnce(Probe) -> P,
    P: Future<Output = Result<T, ProbeError>>,
{
    let mut seen = HashSet::new();
    for (dpid, _) in &jobs {
        if !seen.insert(*dpid) {
            return Err(ProbeError::DuplicateSwitch(*dpid));
        }
    }
    let start = cp.now();
    let mut jobs: Vec<Job<P, T>> = jobs
        .into_iter()
        .map(|(dpid, program)| {
            let probe = Probe::default();
            Job {
                dpid,
                program: Box::pin(program(probe.clone())),
                probe,
                out: 0,
                last_ack: start,
                outcome: None,
                span: None,
            }
        })
        .collect();
    let waker = Waker::from(Arc::new(Unwoken));
    let mut cx = Context::from_waker(&waker);

    // Run every program to its first wait at the common start instant.
    let mut horizon = start;
    let mut inflight = TokenRing::default();
    if let Some(t) = cp.telemetry_mut() {
        t.count("driver/jobs", jobs.len() as u64);
    }
    for (i, job) in jobs.iter_mut().enumerate() {
        job.resume(&mut cx)?;
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
            // A completion from outside these programs (the caller had
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
        job.probe.0.borrow_mut().delivered = Some(completion);
        job.resume(&mut cx)?;
        if job.outcome.is_none() {
            // With none out, the next op leaves at this op's ack —
            // exactly when a synchronous loop would issue it.
            job.top_up(i, cp, READY_ON_PREVIOUS_ACK, &mut inflight)?;
        } else if let Some(t) = cp.telemetry_mut() {
            // The op span this completion closed was the innermost on
            // the track, so the job span ends cleanly at the ack.
            t.span_end(job.span.take(), c.acked_at);
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

/// Runs one probe program on switch `dpid` to completion.
///
/// # Errors
/// As [`run_drivers`].
pub fn run_driver<C, F, P, T>(cp: &mut C, dpid: Dpid, program: F) -> Result<T, ProbeError>
where
    C: ControlPath,
    F: FnOnce(Probe) -> P,
    P: Future<Output = Result<T, ProbeError>>,
{
    let mut outcomes = run_drivers(cp, vec![(dpid, program)])?;
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
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    /// Installs `n` rules one flow-mod at a time, counting acceptances.
    async fn counting(probe: Probe, n: u32) -> Result<usize, ProbeError> {
        let mut accepted = 0;
        for id in 0..n {
            let fm = FlowMod::add(RuleKind::L3.flow_match(id), 10);
            probe.issue(ControlOp::FlowMod(fm));
            if probe.flow_mod("flow-mod").await? == OpResult::Ok {
                accepted += 1;
            }
        }
        Ok(accepted)
    }

    #[test]
    fn single_driver_runs_to_completion() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        let got = run_driver(&mut tb, Dpid(1), |p| counting(p, 25)).expect("program completes");
        assert_eq!(got, 25);
        assert_eq!(tb.switch(Dpid(1)).rule_count(), 25);
    }

    #[test]
    fn immediate_done_needs_no_ops() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        let before = ControlPath::now(&tb);
        let got = run_driver(&mut tb, Dpid(1), |p| counting(p, 0)).expect("degenerate program");
        assert_eq!(got, 0);
        assert_eq!(ControlPath::now(&tb), before, "no ops, no time");
    }

    #[test]
    fn duplicate_switches_are_a_typed_error() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        let count = |n| move |p| counting(p, n);
        let err = run_drivers(&mut tb, vec![(Dpid(1), count(2)), (Dpid(1), count(2))])
            .expect_err("duplicate dpid must be rejected");
        assert_eq!(err, ProbeError::DuplicateSwitch(Dpid(1)));
    }

    #[test]
    fn concurrent_drivers_interleave_and_finish() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        tb.attach_default(Dpid(2), SwitchProfile::vendor1());
        let count = |n| move |p| counting(p, n);
        let got = run_drivers(&mut tb, vec![(Dpid(1), count(30)), (Dpid(2), count(20))])
            .expect("both programs complete");
        assert_eq!(got, vec![30, 20]);
        assert_eq!(tb.switch(Dpid(1)).rule_count(), 30);
        assert_eq!(tb.switch(Dpid(2)).rule_count(), 20);
    }

    #[test]
    fn stalled_driver_is_a_typed_error() {
        // Waits for a completion without having issued anything.
        let stalling = |p: Probe| async move {
            p.completion().await;
            Ok(())
        };
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(7), SwitchProfile::ovs());
        let err = run_driver(&mut tb, Dpid(7), stalling).expect_err("stall must surface");
        assert_eq!(err, ProbeError::DriverStalled(Dpid(7)));
    }

    #[test]
    fn returning_with_ops_outstanding_is_a_typed_error() {
        // Returns with ops still queued: nothing was ever submitted.
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(7), SwitchProfile::ovs());
        let queued = |p: Probe| async move {
            p.issue(ControlOp::Echo(8));
            Ok(())
        };
        let err = run_driver(&mut tb, Dpid(7), queued).expect_err("queued ops must surface");
        assert_eq!(err, ProbeError::OpsOutstanding(Dpid(7)));
        // Returns with one op in flight, after taking the other's
        // completion.
        let in_flight = |p: Probe| async move {
            p.issue(ControlOp::Echo(8));
            p.issue(ControlOp::Echo(8));
            p.completion().await;
            Ok(())
        };
        let err = run_driver(&mut tb, Dpid(7), in_flight).expect_err("in-flight ops must surface");
        assert_eq!(err, ProbeError::OpsOutstanding(Dpid(7)));
    }

    /// Issues `n` echoes up front and fails on the `fail_at`-th reply.
    async fn sweeping(probe: Probe, n: usize, fail_at: usize) -> Result<usize, ProbeError> {
        for _ in 0..n {
            probe.issue(ControlOp::Echo(8));
        }
        for seen in 1..=n {
            let c = probe.completion().await;
            if seen == fail_at {
                return Err(mismatch(&"a reply the program likes", &c));
            }
        }
        Ok(n)
    }

    #[test]
    fn issued_vectors_run_in_a_bounded_window() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        tb.attach_default(Dpid(2), SwitchProfile::vendor1());
        tb.enable_telemetry();
        let sweep = |n| move |p| sweeping(p, n, 0);
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
        let failing = |p| sweeping(p, 2 * WINDOW, WINDOW / 2);
        let err = run_driver(&mut tb, Dpid(1), failing).expect_err("the program's error surfaces");
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
