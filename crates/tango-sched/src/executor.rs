//! Executes a scheduled request DAG against a control path and measures
//! the makespan — the number every network-wide figure (Figs 10–12)
//! reports.
//!
//! Two entry points, one per algorithm of §6, both ordering by Tango's
//! one pattern rank ([`crate::patterns::SchedPattern::rank`]):
//!
//! * [`execute_rounds`] — Algorithm 3's loop: extract the independent
//!   set, sort it by the rank of the pattern the oracle scores best,
//!   issue it as one batch, wait for every ack, repeat. With
//!   [`Batching::Lookahead`] a round issues only the prefix of that
//!   order predicted cheapest and re-plans (the lookahead extension).
//! * [`execute_with`] — online dispatch: each switch runs its own queue;
//!   whenever a switch comes free, the dispatcher picks its next request
//!   among the *currently released* ones according to a pluggable
//!   [`Scheduler`] resolved from the portfolio registry
//!   ([`crate::schedulers`]) — Dionysus' critical-path rule, Tango's
//!   per-switch pattern rank, or any classical DAG scheduler.
//!   Successors are released either when the predecessor's ack arrives,
//!   or — Tango's concurrent-dispatch extension (§6) — at the
//!   predecessor's predicted completion plus a guard interval
//!   ([`Release`]).
//!
//! The online dispatcher is sub-quadratic in DAG size: each switch
//! keeps its released requests in a binary heap on the scheduler's
//! [`SchedKey`] (computed once, when the request joins the ready
//! frontier) plus a release-time-ordered heap of not-yet-released ones,
//! so every dispatch decision is a `peek`/`pop` rather than a
//! scan-and-sort of the whole frontier. The [`RequestDag`] is the one
//! record of progress: both dispatchers advance it with
//! [`RequestDag::mark_done`] (the online one per completion, the rounds
//! one per round), and the online one keeps beside it only a release
//! instant per request.
//!
//! Both are generic over [`ControlPath`], but consume completions in
//! global virtual-time order, which `tango-net`'s `TcpFleet` (per-switch
//! FIFO only) does not deliver yet: do not run them over one until it
//! merges completions across switches.
//!
//! Both report a dependency cycle as a typed [`ExecError`] instead of
//! panicking.

use crate::dag::{NodeId, RequestDag};
use crate::patterns::{lookahead_prefix, ordering_tango_oracle};
use crate::request::Deadline;
use crate::schedulers::{SchedKey, Scheduler};
use ofwire::types::Dpid;
use simnet::telemetry::{Telemetry, TRACK_SCHEDULER};
use simnet::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt;
use switchsim::control::{Completion, ControlOp, ControlPath, OpResult, OpToken, TokenRing};
use tango::db::TangoDb;

/// The outcome of executing a DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Time from first issue to last completion.
    pub makespan: SimDuration,
    /// Requests that completed successfully.
    pub completed: usize,
    /// Requests rejected by a switch (table full).
    pub failed: usize,
    /// Requests whose `install_by` deadline passed before they
    /// completed (§6's deadline field; best-effort requests never miss).
    pub deadline_misses: usize,
    /// For round-barrier execution: (pattern name, batch size) per round.
    pub rounds: Vec<(String, usize)>,
    /// Every request in dispatch (issue) order — the order the proptest
    /// oracle checks against the DAG's dependency edges.
    pub issued: Vec<NodeId>,
    /// Total flowtime: the sum over all requests of (completion −
    /// execution start). Discriminates dispatch orders even when the
    /// switches are saturated and every order yields the same makespan.
    pub flowtime: SimDuration,
}

impl ExecReport {
    /// An empty report with room for `n` issued requests.
    fn with_capacity(n: usize) -> ExecReport {
        ExecReport {
            makespan: SimDuration::ZERO,
            completed: 0,
            failed: 0,
            deadline_misses: 0,
            rounds: Vec::new(),
            issued: Vec::with_capacity(n),
            flowtime: SimDuration::ZERO,
        }
    }

    /// Tallies one completion of a run that started at `start`.
    fn record(&mut self, c: &Completion, deadline: Deadline, start: SimTime) {
        match c.result() {
            OpResult::Ok => self.completed += 1,
            OpResult::TableFull => self.failed += 1,
        }
        let elapsed = c.done_at.since(start);
        if matches!(deadline, Deadline::WithinMs(ms) if elapsed.as_millis_f64() > ms) {
            self.deadline_misses += 1;
        }
        self.flowtime += elapsed;
    }

    /// Mean per-request completion latency in seconds — the sweep's
    /// ordering-quality measure.
    #[must_use]
    pub fn mean_completion_s(&self) -> f64 {
        let n = self.completed + self.failed;
        if n == 0 {
            0.0
        } else {
            self.flowtime.as_secs_f64() / n as f64
        }
    }
}

/// A malformed execution input, detected while dispatching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The DAG has unfinished requests but an empty independent set — a
    /// dependency cycle.
    StuckDag,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StuckDag => write!(
                f,
                "request DAG is stuck: unfinished requests but no independent set (cycle?)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// How [`execute_rounds`] batches each independent set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batching {
    /// Algorithm 3 verbatim: issue the whole set.
    Greedy,
    /// The §6 lookahead extension: issue the prefix of the set's order
    /// (all of it, the first half, or its first request) whose predicted
    /// cost, plus that of the batch it unlocks, is lowest.
    Lookahead,
}

/// When a successor is released after its predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// Wait for the predecessor's ack round trip (the safe default).
    Ack,
    /// Tango's guard-time extension: release at the predecessor's
    /// completion plus a guard interval, skipping the return latency.
    Guard(SimDuration),
}

impl Release {
    /// The default guard interval for Tango's concurrent-dispatch
    /// extension (§6): comfortably above the per-op cost estimation
    /// error, far below an ack round trip.
    #[must_use]
    pub fn default_guard() -> SimDuration {
        SimDuration::from_micros(50)
    }
}

/// Round-barrier dispatch — Algorithm 3: issue the independent set,
/// sorted by the rank of the pattern the Tango oracle scores best
/// ([`crate::patterns::ordering_tango_oracle`]), as one barriered round;
/// the next round is released when the whole round has acked. Under
/// [`Batching::Lookahead`] a round issues a non-empty prefix of that
/// order and leaves the rest for later rounds.
///
/// # Errors
/// [`ExecError::StuckDag`] on a dependency cycle.
pub fn execute_rounds<C: ControlPath + ?Sized>(
    cp: &mut C,
    dag: &mut RequestDag,
    db: &TangoDb,
    batching: Batching,
) -> Result<ExecReport, ExecError> {
    let off = &mut Telemetry::off();
    let start = cp.now();
    let exec_span = telemetry(cp, off).span_begin(TRACK_SCHEDULER, "execute_rounds", start);
    let mut frontier: SimTime = start;
    let mut report = ExecReport::with_capacity(dag.len());
    while !dag.all_done() {
        let set = dag.independent_set();
        if set.is_empty() {
            telemetry(cp, off).span_cancel(exec_span);
            return Err(ExecError::StuckDag);
        }
        let (ordered, label) = match batching {
            Batching::Greedy => {
                let (ordered, pattern) = ordering_tango_oracle(db, dag, &set);
                (ordered, pattern.name.to_owned())
            }
            Batching::Lookahead => lookahead_prefix(db, dag, &set),
        };
        // A sort of the set, or a non-empty prefix of one.
        debug_assert!(
            !ordered.is_empty() && (ordered.len() == set.len() || batching == Batching::Lookahead)
        );
        report.rounds.push((label, ordered.len()));
        let round_span = telemetry(cp, off).span_begin(TRACK_SCHEDULER, "round", frontier);
        telemetry(cp, off).count("sched/rounds", 1);
        telemetry(cp, off).count("sched/issued", ordered.len() as u64);
        // Issue the whole round at the frontier; the control path times
        // each op on its own switch and interleaves all switches'
        // completions in virtual time.
        let submitted: Vec<(OpToken, Deadline)> = ordered
            .iter()
            .map(|&id| {
                let req = dag.node(id);
                let token = cp.submit(
                    req.location,
                    ControlOp::FlowMod(req.to_flow_mod()),
                    frontier,
                );
                (token, req.install_by)
            })
            .collect();
        let mut batch_end = frontier;
        for (token, deadline) in submitted {
            let c = cp.wait_for(token);
            report.record(&c, deadline, start);
            batch_end = batch_end.max(c.acked_at);
        }
        for id in ordered {
            dag.mark_done(id);
            report.issued.push(id);
        }
        frontier = batch_end;
        telemetry(cp, off).span_end(round_span, frontier);
    }
    cp.warp_to(frontier.max(cp.now()));
    telemetry(cp, off).span_end(exec_span, frontier.max(start));
    report.makespan = frontier.since(start);
    Ok(report)
}

/// The path's telemetry handle, or the disabled `off` for a path that
/// carries none — so every emission below is one call either way.
fn telemetry<'a, C: ControlPath + ?Sized>(
    cp: &'a mut C,
    off: &'a mut Telemetry,
) -> &'a mut Telemetry {
    cp.telemetry_mut().unwrap_or(off)
}

/// A request issued onto the control path whose completion has not been
/// processed yet.
struct InFlight {
    /// The node behind the op (reported back to the scheduler).
    node: NodeId,
    /// Dense index of the switch the op occupies.
    sw: usize,
    deadline: Deadline,
}

/// One switch's dispatch queue: requests whose keys are final, split by
/// whether their release instant has passed. Node ids are unique, so
/// both heap orders are total and pops are deterministic.
#[derive(Default)]
struct SwitchQueue {
    /// Whether an op of this switch is in flight.
    busy: bool,
    /// Released requests, best key first.
    released: BinaryHeap<Reverse<(SchedKey, NodeId)>>,
    /// Not-yet-released requests, earliest release first.
    future: BinaryHeap<Reverse<(SimTime, SchedKey, NodeId)>>,
}

impl SwitchQueue {
    /// Moves every request released by `t` into the released heap.
    fn release_due(&mut self, t: SimTime) {
        while let Some(&Reverse((rel, key, id))) = self.future.peek() {
            if rel > t {
                break;
            }
            self.future.pop();
            self.released.push(Reverse((key, id)));
        }
    }
}

/// Online dispatch under a portfolio [`Scheduler`]: every completion
/// releases its successors individually (by `release`: ack or guard
/// time) and each idle switch picks its next request by the scheduler's
/// key the moment one is available.
///
/// A node's key is computed exactly once, when its last predecessor's
/// completion is processed (so its release time is final), and the node
/// drops into its switch's queue. Dispatch then never rescans the
/// frontier: each decision pops the best key of the chosen switch.
///
/// Requests already marked done are skipped and count as completed
/// predecessors. Each completion is marked done in `dag` as it is
/// processed, before the scheduler observes it and before the requests
/// it releases are keyed; on a dependency cycle `dag` holds exactly the
/// requests that completed.
///
/// # Errors
/// [`ExecError::StuckDag`] on a dependency cycle.
pub fn execute_with<C: ControlPath + ?Sized>(
    cp: &mut C,
    dag: &mut RequestDag,
    db: &TangoDb,
    sched: &mut dyn Scheduler,
    release: Release,
) -> Result<ExecReport, ExecError> {
    let off = &mut Telemetry::off();
    let start = cp.now();
    let exec_span = telemetry(cp, off).span_begin(TRACK_SCHEDULER, "execute", start);
    sched.prepare(dag, db);
    // Dense switch wiring: the DAG's distinct dpids in sorted order.
    // Index order equals dpid order, so ties between switches break by
    // dpid.
    let dpids: Vec<Dpid> = (dag.node_ids().map(|id| dag.node(id).location))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let sw_of = |dag: &RequestDag, id: NodeId| {
        let at = dpids.binary_search(&dag.node(id).location);
        at.expect("dpid collected above")
    };
    let mut queues: Vec<SwitchQueue> = dpids.iter().map(|_| SwitchQueue::default()).collect();
    for id in dag.independent_set() {
        let key = sched.key(dag, id, start);
        queues[sw_of(dag, id)].released.push(Reverse((key, id)));
    }
    // Per request, the latest release instant (ack arrival or guarded
    // completion) among its predecessors completed so far; final once
    // the request is keyed.
    let mut released_at = vec![start; dag.len()];
    let mut inflight = TokenRing::default();
    let mut report = ExecReport::with_capacity(dag.len());
    let mut last_done = start;

    while !dag.all_done() {
        // Issue the best issuable request for every idle switch. `now`
        // is the dispatcher's decision instant.
        let now = cp.now();
        for q in queues.iter_mut() {
            q.release_due(now);
        }
        // Frontier width is an O(switches) sum, so only pay for it when a
        // recorder is attached.
        if telemetry(cp, off).is_enabled() {
            let frontier: usize = queues.iter().map(|q| q.released.len()).sum();
            telemetry(cp, off).observe("sched/ready_frontier", frontier as f64);
        }
        loop {
            // Pick the idle switch that can start work earliest: `now`
            // if it has a released request, else its earliest future
            // release. Ties break by switch index (= dpid order), then
            // key within the switch.
            let idle = queues.iter().enumerate().filter(|(_, q)| !q.busy);
            let starts = idle.filter_map(|(i, q)| {
                let earliest = q.future.peek().map(|&Reverse((t, _, _))| t);
                let t = if q.released.is_empty() {
                    earliest?
                } else {
                    now
                };
                Some((t, i))
            });
            let Some((start_time, sw)) = starts.min() else {
                break;
            };
            let q = &mut queues[sw];
            // Everything released by the start instant competes (when
            // the switch idles until a future release, requests due by
            // then are eligible too).
            q.release_due(start_time);
            let Reverse((_, id)) = q.released.pop().expect("candidate has a request");
            q.busy = true;
            let req = dag.node(id);
            let token = cp.submit(
                req.location,
                ControlOp::FlowMod(req.to_flow_mod()),
                start_time,
            );
            inflight.insert(
                token,
                InFlight {
                    node: id,
                    sw,
                    deadline: req.install_by,
                },
            );
            report.issued.push(id);
            telemetry(cp, off).count("sched/issued", 1);
        }
        let Some(c) = cp.next_completion() else {
            // Nothing in flight and nothing issuable, yet the DAG has
            // unfinished requests: a dependency cycle.
            telemetry(cp, off).span_cancel(exec_span);
            return Err(ExecError::StuckDag);
        };
        let fl = inflight
            .remove(c.token)
            .expect("completion for an op this dispatcher issued");
        report.record(&c, fl.deadline, start);
        last_done = last_done.max(c.done_at);
        queues[fl.sw].busy = false;
        let rel = match release {
            Release::Ack => {
                telemetry(cp, off).count("sched/ack_releases", 1);
                c.acked_at
            }
            Release::Guard(g) => {
                telemetry(cp, off).count("sched/guard_releases", 1);
                c.done_at + g
            }
        };
        // The DAG and then the scheduler observe the completion before
        // the nodes it releases are keyed (dynamic schedulers read or
        // update state here).
        dag.mark_done(fl.node);
        sched.on_completion(dag, fl.node);
        for &s in dag.successors(fl.node) {
            released_at[s.0] = released_at[s.0].max(rel);
            if dag.pending_pred_count(s) == 0 {
                let key = sched.key(dag, s, released_at[s.0]);
                queues[sw_of(dag, s)]
                    .future
                    .push(Reverse((released_at[s.0], key, s)));
            }
        }
    }
    cp.warp_to(last_done.max(cp.now()));
    telemetry(cp, off).span_end(exec_span, last_done.max(start));
    report.makespan = last_done.since(start);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqElem;
    use crate::schedulers::{resolve, CriticalPathScheduler, TangoScheduler};
    use ofwire::flow_match::FlowMatch;
    use ofwire::flow_mod::FlowMod;
    use simnet::rng::DetRng;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    /// Online dispatch under an explicit scheduler × release pair.
    pub(super) fn online(
        tb: &mut Testbed,
        dag: &mut RequestDag,
        mut sched: impl Scheduler,
        release: Release,
    ) -> ExecReport {
        execute_with(tb, dag, &TangoDb::new(), &mut sched, release).unwrap()
    }

    /// Online dispatch under the registry entry `name`.
    fn registered(tb: &mut Testbed, dag: &mut RequestDag, name: &str) -> ExecReport {
        let entry = resolve(name).expect("registered scheduler");
        entry.run(tb, dag, &TangoDb::new()).unwrap()
    }

    /// Algorithm 3 verbatim: whole rounds ordered by the Tango oracle.
    fn greedy(tb: &mut Testbed, dag: &mut RequestDag) -> ExecReport {
        execute_rounds(tb, dag, &TangoDb::new(), Batching::Greedy).unwrap()
    }

    fn chain_dag(dpid: Dpid, len: usize) -> RequestDag {
        let mut dag = RequestDag::new();
        let ids: Vec<NodeId> = (0..len)
            .map(|i| {
                dag.add_node(ReqElem::add(
                    dpid,
                    FlowMatch::l3_for_id(i as u32),
                    10 + i as u16,
                    1,
                ))
            })
            .collect();
        for w in ids.windows(2) {
            dag.add_dep(w[0], w[1]);
        }
        dag
    }

    fn testbed() -> Testbed {
        let mut tb = Testbed::new(4);
        tb.attach_default(Dpid(1), SwitchProfile::vendor1());
        tb.attach_default(Dpid(2), SwitchProfile::vendor1());
        tb
    }

    #[test]
    fn batched_executes_whole_dag() {
        let mut tb = testbed();
        let mut dag = chain_dag(Dpid(1), 5);
        let report = greedy(&mut tb, &mut dag);
        assert!(dag.all_done());
        assert_eq!(report.completed, 5);
        assert_eq!(report.failed, 0);
        // A 5-chain forces 5 single-element rounds.
        assert_eq!(report.rounds.len(), 5);
        assert!(report.makespan > SimDuration::ZERO);
        assert_eq!(tb.switch(Dpid(1)).rule_count(), 5);
    }

    #[test]
    fn online_executes_whole_dag() {
        let mut tb = testbed();
        let mut dag = chain_dag(Dpid(1), 5);
        let report = registered(&mut tb, &mut dag, "dionysus");
        assert!(dag.all_done());
        assert_eq!(report.completed, 5);
        assert_eq!(tb.switch(Dpid(1)).rule_count(), 5);
    }

    #[test]
    fn stuck_dag_commits_exactly_what_was_issued() {
        // a ⇄ b can never issue and x waits on the cycle; c → d can.
        let mut dag = RequestDag::new();
        let [a, b, c, d, x] = [0, 1, 2, 3, 4]
            .map(|i| dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(i), 10, 1)));
        dag.add_dep(a, b);
        dag.add_dep(b, a);
        dag.add_dep(c, d);
        dag.add_dep(b, x);
        let mut tb = testbed();
        tb.enable_telemetry();
        // Every registry scheduler ranks the DAG in `prepare` and panics
        // on a cycle there; one that does not reaches the dispatcher.
        struct Fifo;
        impl Scheduler for Fifo {
            fn name(&self) -> &'static str {
                "fifo"
            }
            fn prepare(&mut self, _: &mut RequestDag, _: &TangoDb) {}
            fn key(&self, _: &RequestDag, _: NodeId, _: SimTime) -> SchedKey {
                SchedKey::default()
            }
        }
        let err = execute_with(&mut tb, &mut dag, &TangoDb::new(), &mut Fifo, Release::Ack);
        assert_eq!(err, Err(ExecError::StuckDag));
        let done: Vec<bool> = dag.node_ids().map(|id| dag.is_done(id)).collect();
        assert_eq!(done, [false, false, true, true, false]);
        assert_eq!(tb.switch(Dpid(1)).rule_count(), 2);
        let rec = tb.finish_recorder().expect("recorder present");
        assert!(rec.spans().all(|s| s.name != "execute"), "span cancelled");
    }

    #[test]
    fn stuck_rounds_are_a_typed_error_and_leak_no_span() {
        // a ⇄ b never joins an independent set; c → d drains first.
        let mut dag = RequestDag::new();
        let [a, b, c, d] = [0, 1, 2, 3]
            .map(|i| dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(i), 10, 1)));
        dag.add_dep(a, b);
        dag.add_dep(b, a);
        dag.add_dep(c, d);
        let mut tb = testbed();
        tb.enable_telemetry();
        for batching in [Batching::Greedy, Batching::Lookahead] {
            let err = execute_rounds(&mut tb, &mut dag.clone(), &TangoDb::new(), batching);
            assert_eq!(err, Err(ExecError::StuckDag), "{batching:?}");
        }
        let rec = tb.finish_recorder().expect("recorder present");
        assert!(
            rec.spans().all(|s| s.name != "execute_rounds"),
            "span cancelled"
        );
    }

    #[test]
    fn guard_time_beats_ack_waiting_on_chains() {
        let run = |release| {
            let mut tb = testbed();
            let mut dag = chain_dag(Dpid(1), 40);
            online(&mut tb, &mut dag, CriticalPathScheduler::new(), release).makespan
        };
        let with_ack = run(Release::Ack);
        let with_guard = run(Release::Guard(SimDuration::from_micros(50)));
        assert!(
            with_guard < with_ack,
            "guard {with_guard} should beat ack-wait {with_ack}"
        );
    }

    #[test]
    fn tango_discipline_orders_adds_ascending() {
        // A flat set of adds with shuffled priorities on one switch: the
        // Tango discipline must beat critical-path (submission) order.
        let build = || {
            let mut dag = RequestDag::new();
            let mut prios: Vec<u16> = (0..150u16).map(|i| 1000 + i).collect();
            let mut rng = DetRng::new(5);
            rng.shuffle(&mut prios);
            for (i, p) in prios.into_iter().enumerate() {
                dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(i as u32), p, 1));
            }
            dag
        };
        let cp = registered(&mut testbed(), &mut build(), "dionysus").makespan;
        let tango = online(
            &mut testbed(),
            &mut build(),
            TangoScheduler::type_and_priority(),
            Release::Ack,
        )
        .makespan;
        assert!(
            tango.as_millis_f64() < 0.8 * cp.as_millis_f64(),
            "tango {tango} vs critical-path {cp}"
        );
    }

    #[test]
    fn independent_requests_overlap_across_switches() {
        // Two independent 20-chains on two switches: online execution
        // should take ~one chain's time, not two.
        let mut tb = testbed();
        let mut dag = RequestDag::new();
        for (d, base) in [(Dpid(1), 0u32), (Dpid(2), 1000)] {
            let ids: Vec<NodeId> = (0..20)
                .map(|i| {
                    dag.add_node(ReqElem::add(
                        d,
                        FlowMatch::l3_for_id(base + i),
                        10 + i as u16,
                        1,
                    ))
                })
                .collect();
            for w in ids.windows(2) {
                dag.add_dep(w[0], w[1]);
            }
        }
        let both = registered(&mut tb, &mut dag, "dionysus").makespan;

        let mut tb1 = testbed();
        let mut one = chain_dag(Dpid(1), 20);
        let single = registered(&mut tb1, &mut one, "dionysus").makespan;
        assert!(
            both.as_millis_f64() < 1.4 * single.as_millis_f64(),
            "two parallel chains ({both}) should cost about one ({single})"
        );
    }

    #[test]
    fn telemetry_records_scheduler_spans_without_changing_timing() {
        let plain = registered(&mut testbed(), &mut chain_dag(Dpid(1), 5), "dionysus").makespan;
        let mut tb = testbed();
        tb.enable_telemetry();
        let mut dag = chain_dag(Dpid(1), 5);
        let report = registered(&mut tb, &mut dag, "dionysus");
        assert_eq!(report.makespan, plain, "telemetry must not perturb timing");
        let rec = tb.finish_recorder().expect("recorder present");
        assert_eq!(rec.counter("sched/issued"), 5);
        assert_eq!(rec.counter("sched/ack_releases"), 5);
        assert!(rec
            .spans()
            .any(|s| s.name == "execute" && s.track == TRACK_SCHEDULER));
        let m = rec.metrics();
        assert!(
            m.hists.iter().any(|(k, _)| k == "sched/ready_frontier"),
            "frontier histogram missing"
        );
        let depth = m.gauges.iter().find(|(k, _)| k == "sim/queue_depth_max");
        assert!(
            matches!(depth, Some(&(_, d)) if (1..=tb.dpids().len() as u64).contains(&d)),
            "at most one event in flight per attached switch, got {depth:?}"
        );
    }

    #[test]
    fn telemetry_records_round_spans() {
        let mut tb = testbed();
        tb.enable_telemetry();
        let mut dag = chain_dag(Dpid(1), 3);
        greedy(&mut tb, &mut dag);
        let rec = tb.finish_recorder().expect("recorder present");
        assert_eq!(rec.counter("sched/rounds"), 3);
        assert_eq!(rec.counter("sched/issued"), 3);
        assert!(rec
            .spans()
            .any(|s| s.name == "execute_rounds" && s.track == TRACK_SCHEDULER));
        assert_eq!(
            rec.spans()
                .filter(|s| s.name == "round" && s.track == TRACK_SCHEDULER)
                .count(),
            3
        );
    }

    #[test]
    fn batched_respects_dependencies_on_switch_state() {
        // A delete that depends on its own add must find the rule there.
        let mut tb = testbed();
        let mut dag = RequestDag::new();
        let m = FlowMatch::l3_for_id(1);
        let a = dag.add_node(ReqElem::add(Dpid(1), m, 10, 1));
        let d = dag.add_node(ReqElem::delete(Dpid(1), m, 10));
        dag.add_dep(a, d);
        let report = greedy(&mut tb, &mut dag);
        assert_eq!(report.completed, 2);
        assert_eq!(tb.switch(Dpid(1)).rule_count(), 0);
    }

    #[test]
    fn online_respects_dependencies() {
        let mut tb = testbed();
        let mut dag = RequestDag::new();
        let m = FlowMatch::l3_for_id(1);
        let a = dag.add_node(ReqElem::add(Dpid(1), m, 10, 1));
        let d = dag.add_node(ReqElem::delete(Dpid(2), m, 10));
        dag.add_dep(a, d);
        let report = online(
            &mut tb,
            &mut dag,
            TangoScheduler::type_only(),
            Release::Guard(SimDuration::from_micros(10)),
        );
        assert_eq!(report.completed, 2);
        assert_eq!(tb.switch(Dpid(1)).rule_count(), 1);
        assert_eq!(tb.switch(Dpid(2)).rule_count(), 0);
    }

    /// A flat (dependency-free) workload of adds with scattered
    /// priorities plus some mods and dels — the situation where pattern
    /// ordering pays.
    fn flat_workload(n_adds: usize, n_mods: usize, n_dels: usize) -> RequestDag {
        let mut dag = RequestDag::new();
        let mut rng = DetRng::new(3);
        // Pre-existing rules to modify/delete occupy ids 0..n_mods+n_dels.
        for i in 0..n_mods {
            dag.add_node(ReqElem::modify(
                Dpid(1),
                FlowMatch::l3_for_id(i as u32),
                500,
                2,
            ));
        }
        for i in 0..n_dels {
            dag.add_node(ReqElem::delete(
                Dpid(1),
                FlowMatch::l3_for_id((n_mods + i) as u32),
                3500,
            ));
        }
        let mut prios: Vec<u16> = (0..n_adds).map(|i| 1000 + i as u16).collect();
        rng.shuffle(&mut prios);
        for (i, p) in prios.into_iter().enumerate() {
            dag.add_node(ReqElem::add(
                Dpid(1),
                FlowMatch::l3_for_id((10_000 + i) as u32),
                p,
                1,
            ));
        }
        dag
    }

    fn testbed_with_preinstalled(n_mods: usize, n_dels: usize, extra: usize) -> Testbed {
        let mut tb = Testbed::new(8);
        tb.attach_default(Dpid(1), SwitchProfile::vendor1());
        let mut fms: Vec<FlowMod> = Vec::new();
        for i in 0..n_mods {
            fms.push(FlowMod::add(FlowMatch::l3_for_id(i as u32), 500));
        }
        for i in 0..n_dels {
            fms.push(FlowMod::add(
                FlowMatch::l3_for_id((n_mods + i) as u32),
                3500,
            ));
        }
        let mut rng = DetRng::new(5);
        for i in 0..extra {
            fms.push(FlowMod::add(
                FlowMatch::l3_for_id((100_000 + i) as u32),
                500 + rng.index(100) as u16,
            ));
        }
        tb.batch(Dpid(1), fms);
        tb
    }

    #[test]
    fn tango_beats_dionysus_on_hardware() {
        let run = |name: &str| {
            let mut tb = testbed_with_preinstalled(50, 50, 50);
            let mut dag = flat_workload(200, 50, 50);
            registered(&mut tb, &mut dag, name).makespan
        };
        let dionysus = run("dionysus");
        let tango_t = run("tango-type");
        let tango_tp = run("tango");
        assert!(
            tango_tp.as_millis_f64() < dionysus.as_millis_f64(),
            "tango {tango_tp} should beat dionysus {dionysus}"
        );
        assert!(
            tango_tp.as_millis_f64() <= tango_t.as_millis_f64() * 1.02,
            "priority sorting ({tango_tp}) should not lose to type-only ({tango_t})"
        );
    }

    #[test]
    fn batched_algorithm3_also_beats_dionysus_on_flat_dags() {
        let world = || {
            (
                testbed_with_preinstalled(50, 50, 50),
                flat_workload(300, 0, 0),
            )
        };
        let (mut tb, mut dag) = world();
        let batched = greedy(&mut tb, &mut dag).makespan;
        let (mut tb, mut dag) = world();
        let dio = registered(&mut tb, &mut dag, "dionysus").makespan;
        assert!(
            batched.as_millis_f64() < dio.as_millis_f64(),
            "batched tango {batched} vs dionysus {dio}"
        );
    }

    #[test]
    fn all_arms_reach_the_same_final_state() {
        let final_count = |arm: &str| {
            let mut tb = testbed_with_preinstalled(20, 20, 60);
            let mut dag = flat_workload(50, 20, 20);
            match arm {
                "batched" => greedy(&mut tb, &mut dag),
                name => registered(&mut tb, &mut dag, name),
            };
            tb.switch(Dpid(1)).rule_count()
        };
        for arm in ["dionysus", "tango-type", "tango", "batched"] {
            // 100 preinstalled − 20 deleted + 50 added.
            assert_eq!(final_count(arm), 130, "{arm}");
        }
    }
}

#[cfg(test)]
mod deadline_tests {
    use super::tests::online;
    use super::*;
    use crate::request::{Deadline, ReqElem};
    use crate::schedulers::{CriticalPathScheduler, TangoScheduler};
    use ofwire::flow_match::FlowMatch;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    fn add_with_deadline(dpid: Dpid, id: u32, ms: Option<f64>) -> ReqElem {
        let mut r = ReqElem::add(dpid, FlowMatch::l3_for_id(id), 100 + id as u16, 1);
        r.install_by = match ms {
            None => Deadline::BestEffort,
            Some(ms) => Deadline::WithinMs(ms),
        };
        r
    }

    #[test]
    fn generous_deadlines_are_met() {
        let mut tb = Testbed::new(1);
        tb.attach_default(Dpid(1), SwitchProfile::vendor1());
        let mut dag = RequestDag::new();
        for i in 0..20 {
            dag.add_node(add_with_deadline(Dpid(1), i, Some(10_000.0)));
        }
        let report = online(
            &mut tb,
            &mut dag,
            TangoScheduler::type_and_priority(),
            Release::Ack,
        );
        assert_eq!(report.deadline_misses, 0);
    }

    #[test]
    fn impossible_deadlines_are_reported() {
        let mut tb = Testbed::new(1);
        tb.attach_default(Dpid(1), SwitchProfile::vendor1());
        let mut dag = RequestDag::new();
        // 50 serialized adds cannot all land within 1 ms.
        for i in 0..50 {
            dag.add_node(add_with_deadline(Dpid(1), i, Some(1.0)));
        }
        let report = online(
            &mut tb,
            &mut dag,
            TangoScheduler::type_and_priority(),
            Release::Ack,
        );
        assert!(
            report.deadline_misses > 40,
            "misses {}",
            report.deadline_misses
        );
    }

    #[test]
    fn best_effort_never_misses() {
        let mut tb = Testbed::new(1);
        tb.attach_default(Dpid(1), SwitchProfile::vendor1());
        let mut dag = RequestDag::new();
        for i in 0..200 {
            dag.add_node(add_with_deadline(Dpid(1), i, None));
        }
        let report = online(
            &mut tb,
            &mut dag,
            CriticalPathScheduler::new(),
            Release::Ack,
        );
        assert_eq!(report.deadline_misses, 0);
    }

    #[test]
    fn tango_ordering_saves_deadlines() {
        // Shuffled priorities with a tight-but-feasible deadline: the
        // ascending order finishes the batch sooner and misses fewer.
        fn misses(sched: impl Scheduler) -> usize {
            let mut tb = Testbed::new(2);
            tb.attach_default(Dpid(1), SwitchProfile::vendor1());
            let mut dag = RequestDag::new();
            let mut prios: Vec<u16> = (0..150u16).map(|i| 1000 + i).collect();
            simnet::rng::DetRng::new(9).shuffle(&mut prios);
            for (i, p) in prios.iter().enumerate() {
                let mut r = ReqElem::add(Dpid(1), FlowMatch::l3_for_id(i as u32), *p, 1);
                r.install_by = Deadline::WithinMs(80.0);
                dag.add_node(r);
            }
            online(&mut tb, &mut dag, sched, Release::Ack).deadline_misses
        }
        let cp = misses(CriticalPathScheduler::new());
        let tango = misses(TangoScheduler::type_and_priority());
        assert!(tango < cp, "tango misses {tango} vs critical-path {cp}");
    }
}
