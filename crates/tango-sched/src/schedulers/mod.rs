//! The pluggable scheduler portfolio.
//!
//! The online dispatcher ([`crate::executor::execute_with`]) is
//! parameterized by a [`Scheduler`] trait object: the scheduler ranks
//! requests the moment they join the ready frontier (via
//! [`Scheduler::key`]) and observes completions (via
//! [`Scheduler::on_completion`]); the executor owns everything else —
//! per-switch queues, release times, the event loop.
//! Schedulers are resolved by name from the [`registry`], dslab-dag
//! style, so one experiment arm can sweep the whole portfolio, and
//! [`SchedulerEntry::run`] executes a DAG under an entry with the
//! release rule it is registered with.
//!
//! Entries:
//!
//! * `"dionysus"` — critical-path dispatch, ack-released (the paper's
//!   baseline; [`CriticalPathScheduler`]).
//! * `"tango"` — critical path, then the rank of the pattern Tango's
//!   scoring picks for the request's switch: op-class phase, then
//!   priority order; guard-time released
//!   ([`TangoScheduler::type_and_priority`]).
//! * `"tango-type"` — the same pattern's phases only, guard-time
//!   released ([`TangoScheduler::type_only`]).
//! * `"heft"` — HEFT-style upward rank: cost-weighted critical path
//!   using the TangoDB latency profile of each request's switch.
//! * `"dls"` — Dynamic Level Scheduling: static level minus earliest
//!   start time, largest dynamic level first.
//! * `"lookahead"` — greedy one-step lookahead: prefer the request
//!   whose completion immediately unlocks the most successors.
//!
//! ## Ranking keys, not callbacks
//!
//! A scheduler compresses its policy into a [`SchedKey`] per request,
//! fixed when the request joins the ready frontier (all predecessors
//! completed, release time final). The executor keeps each switch's
//! ready requests in a binary heap on `(SchedKey, NodeId)`, so picking
//! the next request is a `pop()` instead of a sort — the portfolio
//! dispatches 100k-op DAGs sub-quadratically. Keys compare
//! lexicographically; **smaller dispatches first**; the trailing
//! `NodeId` makes every ordering total and deterministic.

mod baseline;
mod classic;

pub use baseline::{CriticalPathScheduler, TangoScheduler};
pub use classic::{DlsScheduler, HeftScheduler, LookaheadScheduler};

use crate::dag::{NodeId, RequestDag};
use crate::executor::{execute_with, ExecError, ExecReport, Release};
use simnet::time::SimTime;
use std::cmp::Ordering;
use switchsim::control::ControlPath;
use tango::db::TangoDb;

/// A scheduler's ranking of one ready request: compared
/// lexicographically, smaller first. Unused trailing words are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SchedKey(pub [u64; 4]);

impl Ord for SchedKey {
    /// Word by word, as `[u64; 4]` orders, without the slice compare the
    /// derived impl goes through (the ready heaps' hottest call).
    fn cmp(&self, other: &SchedKey) -> Ordering {
        let ([a, b, c, d], [e, f, g, h]) = (self.0, other.0);
        (a, b, c, d).cmp(&(e, f, g, h))
    }
}

impl PartialOrd for SchedKey {
    fn partial_cmp(&self, other: &SchedKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A dispatch policy over request DAGs.
///
/// Lifecycle: the executor calls [`Scheduler::prepare`] once before
/// dispatch (one `O(V + E)` pass to build static ranks), then
/// [`Scheduler::key`] exactly once per request — at the instant the
/// request joins the ready frontier — and
/// [`Scheduler::on_completion`] once per completed request, *before*
/// the keys of the requests that completion released are computed.
/// The executor marks each completion done in `dag` before either call,
/// so `dag`'s done flags and pending-predecessor counts are current
/// whenever a scheduler reads them, as `lookahead` does.
pub trait Scheduler {
    /// Registry name of this scheduler.
    fn name(&self) -> &'static str;

    /// One-time pass over the DAG before dispatch starts.
    fn prepare(&mut self, dag: &mut RequestDag, db: &TangoDb);

    /// Ranks a request as it joins the ready frontier; `released_at` is
    /// its final release instant. Smaller keys dispatch first.
    fn key(&self, dag: &RequestDag, id: NodeId, released_at: SimTime) -> SchedKey;

    /// Observes a completion (called before the completion's successors
    /// are keyed). Default: no-op.
    fn on_completion(&mut self, dag: &RequestDag, id: NodeId) {
        let _ = (dag, id);
    }
}

/// One registry entry: a named scheduler factory plus the release rule
/// it is designed for (Tango's guard-time release for the Tango
/// entries, ack-release for the baselines).
pub struct SchedulerEntry {
    /// Registry name (`resolve` key and sweep label).
    pub name: &'static str,
    /// The release rule this scheduler is swept with.
    pub release: Release,
    builder: fn() -> Box<dyn Scheduler>,
}

impl SchedulerEntry {
    /// Builds a fresh scheduler instance.
    #[must_use]
    pub fn build(&self) -> Box<dyn Scheduler> {
        (self.builder)()
    }

    /// Executes `dag` under a fresh instance of this scheduler with the
    /// entry's own release rule.
    ///
    /// # Errors
    /// [`ExecError::StuckDag`] on a dependency cycle.
    pub fn run<C: ControlPath + ?Sized>(
        &self,
        cp: &mut C,
        dag: &mut RequestDag,
        db: &TangoDb,
    ) -> Result<ExecReport, ExecError> {
        execute_with(cp, dag, db, self.build().as_mut(), self.release)
    }
}

/// Every registered scheduler, in sweep order.
#[must_use]
pub fn registry() -> Vec<SchedulerEntry> {
    vec![
        SchedulerEntry {
            name: "dionysus",
            release: Release::Ack,
            builder: || Box::new(CriticalPathScheduler::new()),
        },
        SchedulerEntry {
            name: "tango",
            release: Release::Guard(Release::default_guard()),
            builder: || Box::new(TangoScheduler::type_and_priority()),
        },
        SchedulerEntry {
            name: "tango-type",
            release: Release::Guard(Release::default_guard()),
            builder: || Box::new(TangoScheduler::type_only()),
        },
        SchedulerEntry {
            name: "heft",
            release: Release::Ack,
            builder: || Box::new(HeftScheduler::new()),
        },
        SchedulerEntry {
            name: "dls",
            release: Release::Ack,
            builder: || Box::new(DlsScheduler::new()),
        },
        SchedulerEntry {
            name: "lookahead",
            release: Release::Ack,
            builder: || Box::new(LookaheadScheduler::new()),
        },
    ]
}

/// Looks a scheduler up by registry name.
#[must_use]
pub fn resolve(name: &str) -> Option<SchedulerEntry> {
    registry().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqElem;
    use ofwire::flow_match::FlowMatch;
    use ofwire::types::Dpid;
    use simnet::telemetry::Telemetry;
    use switchsim::control::{Completion, ControlOp, OpToken};
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    /// A control path that is not a `Testbed`: forwards every call to
    /// one.
    struct Forwarding(Testbed);

    impl ControlPath for Forwarding {
        fn now(&self) -> SimTime {
            self.0.now()
        }
        fn submit(&mut self, dpid: Dpid, op: ControlOp, ready_at: SimTime) -> OpToken {
            self.0.submit(dpid, op, ready_at)
        }
        fn next_completion(&mut self) -> Option<Completion> {
            self.0.next_completion()
        }
        fn wait_for(&mut self, token: OpToken) -> Completion {
            self.0.wait_for(token)
        }
        fn warp_to(&mut self, t: SimTime) {
            self.0.warp_to(t);
        }
        fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
            self.0.telemetry_mut()
        }
    }

    #[test]
    fn an_entry_runs_over_any_control_path() {
        let world = || {
            let mut tb = Testbed::new(11);
            tb.attach_default(Dpid(1), SwitchProfile::vendor1());
            tb.attach_default(Dpid(2), SwitchProfile::ovs());
            tb.enable_telemetry();
            let mut dag = RequestDag::new();
            let ids: Vec<NodeId> = (0..40u32)
                .map(|i| {
                    let m = FlowMatch::l3_for_id(i);
                    dag.add_node(ReqElem::add(
                        Dpid(u64::from(i % 2) + 1),
                        m,
                        100 + i as u16,
                        1,
                    ))
                })
                .collect();
            for w in ids.windows(3) {
                dag.add_dep(w[0], w[2]);
            }
            (tb, dag)
        };
        let entry = resolve("tango").unwrap();
        let (mut tb, mut dag) = world();
        let direct = entry.run(&mut tb, &mut dag, &TangoDb::new()).unwrap();
        let (tb2, mut dag2) = world();
        let mut path = Forwarding(tb2);
        let forwarded = entry.run(&mut path, &mut dag2, &TangoDb::new()).unwrap();
        assert_eq!(forwarded, direct);
        assert_eq!(direct.completed, 40);
        // Through a trait object too, with the same telemetry.
        let (tb3, mut dag3) = world();
        let mut boxed: Box<dyn ControlPath> = Box::new(Forwarding(tb3));
        let dynamic = entry.run(boxed.as_mut(), &mut dag3, &TangoDb::new());
        assert_eq!(dynamic.unwrap(), direct);
        let (a, b) = (
            tb.finish_recorder().unwrap(),
            path.0.finish_recorder().unwrap(),
        );
        assert_eq!(a.metrics().render_text(), b.metrics().render_text());
        assert_eq!(a.spans().count(), b.spans().count());
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let entries = registry();
        assert!(entries.len() >= 4, "sweep needs at least four schedulers");
        let mut names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries.len(), "duplicate registry name");
        for entry in &entries {
            let resolved = resolve(entry.name).expect("resolvable");
            assert_eq!(resolved.name, entry.name);
            assert_eq!(resolved.release, entry.release);
            assert_eq!(resolved.build().name(), entry.name);
        }
        assert!(resolve("no-such-scheduler").is_none());
    }

    #[test]
    fn tango_entries_use_guard_release() {
        for name in ["tango", "tango-type"] {
            let e = resolve(name).unwrap();
            assert_eq!(
                e.release,
                Release::Guard(Release::default_guard()),
                "{name}"
            );
        }
        assert_eq!(resolve("dionysus").unwrap().release, Release::Ack);
    }

    #[test]
    fn keys_compare_lexicographically() {
        let a = SchedKey([1, 9, 9, 9]);
        let b = SchedKey([2, 0, 0, 0]);
        assert!(a < b);
    }

    /// The hand-written order is `[u64; 4]`'s, on random keys whose words
    /// come from a range small enough that prefixes often tie.
    #[test]
    fn key_order_is_the_word_arrays_order() {
        let mut rng = simnet::rng::DetRng::new(7);
        let word = |rng: &mut simnet::rng::DetRng| match rng.index(4) {
            3 => u64::MAX - rng.index(2) as u64,
            small => small as u64,
        };
        for _ in 0..20_000 {
            let a = [
                word(&mut rng),
                word(&mut rng),
                word(&mut rng),
                word(&mut rng),
            ];
            let mut b = a;
            for w in &mut b[rng.index(5)..] {
                *w = word(&mut rng);
            }
            let (ka, kb) = (SchedKey(a), SchedKey(b));
            assert_eq!(ka.cmp(&kb), a.cmp(&b), "{a:?} vs {b:?}");
            assert_eq!(ka.partial_cmp(&kb), Some(a.cmp(&b)));
            assert_eq!(kb.cmp(&ka), b.cmp(&a));
        }
    }
}
