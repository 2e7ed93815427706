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
//! * `"tango"` — critical path, then Tango's rule-type phases with
//!   ascending-priority adds; guard-time released
//!   ([`TangoScheduler::type_and_priority`]).
//! * `"tango-type"` — rule-type phases only, guard-time released
//!   ([`TangoScheduler::type_only`]).
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
//! ready requests in an ordered set keyed by `(SchedKey, NodeId)`, so
//! picking the next request is a `first()` instead of a sort — the
//! portfolio dispatches 100k-op DAGs sub-quadratically. Keys compare
//! lexicographically; **smaller dispatches first**; the trailing
//! `NodeId` makes every ordering total and deterministic.

mod baseline;
mod classic;

pub use baseline::{CriticalPathScheduler, TangoScheduler};
pub use classic::{DlsScheduler, HeftScheduler, LookaheadScheduler};

use crate::dag::{NodeId, RequestDag};
use crate::executor::{execute_with, ExecError, ExecReport, Release};
use crate::request::ReqOp;
use simnet::time::SimTime;
use switchsim::harness::Testbed;
use tango::db::TangoDb;

/// A scheduler's ranking of one ready request: compared
/// lexicographically, smaller first. Unused trailing words are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SchedKey(pub [u64; 4]);

/// Rule-type phase rank of Tango's del → mod → add ordering.
#[must_use]
pub fn class_rank(op: ReqOp) -> u8 {
    match op {
        ReqOp::Del => 0,
        ReqOp::Mod => 1,
        ReqOp::Add => 2,
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
    pub fn run(
        &self,
        tb: &mut Testbed,
        dag: &mut RequestDag,
        db: &TangoDb,
    ) -> Result<ExecReport, ExecError> {
        execute_with(tb, dag, db, self.build().as_mut(), self.release)
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
        assert_eq!(class_rank(ReqOp::Del), 0);
        assert!(class_rank(ReqOp::Mod) < class_rank(ReqOp::Add));
    }
}
