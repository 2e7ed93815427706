//! The paper's own policies: Dionysus critical-path dispatch and
//! Tango's pattern ordering, expressed as [`Scheduler`] keys.
//!
//! Keys order by higher longest-path rank first, then the policy's
//! tie-breaks, then node id; the fig 10–12 artifacts pin the resulting
//! dispatch orders.

use super::{SchedKey, Scheduler};
use crate::dag::{NodeId, RequestDag};
use crate::patterns::{switch_patterns, SchedPattern};
use ofwire::types::Dpid;
use simnet::time::SimTime;
use tango::db::TangoDb;

/// Dionysus: longest critical path first, FIFO (release order) among
/// ties — oblivious to op types and priority order.
#[derive(Debug, Default)]
pub struct CriticalPathScheduler;

impl CriticalPathScheduler {
    /// A fresh instance (it reads the DAG's shared ranks).
    #[must_use]
    pub fn new() -> CriticalPathScheduler {
        CriticalPathScheduler
    }
}

impl Scheduler for CriticalPathScheduler {
    fn name(&self) -> &'static str {
        "dionysus"
    }

    fn prepare(&mut self, dag: &mut RequestDag, _db: &TangoDb) {
        // Fills the rank memo every clone of this DAG shares.
        dag.ranks();
    }

    fn key(&self, dag: &RequestDag, id: NodeId, released_at: SimTime) -> SchedKey {
        SchedKey([u64::MAX - dag.ranks()[id.0] as u64, released_at.0, 0, 0])
    }
}

/// Tango's pattern ordering: longest critical path first, then the
/// request's [`SchedPattern::rank`] under the pattern Tango's scoring
/// picks for its switch — the op-class phase, then (`"tango"` only) the
/// priority order.
#[derive(Debug)]
pub struct TangoScheduler {
    priority_sort: bool,
    /// Each switch's pattern, sorted by dpid; chosen by `prepare`.
    patterns: Vec<(Dpid, &'static SchedPattern)>,
}

impl TangoScheduler {
    /// Pattern phases only (`"tango-type"`).
    #[must_use]
    pub fn type_only() -> TangoScheduler {
        TangoScheduler {
            priority_sort: false,
            patterns: Vec::new(),
        }
    }

    /// Pattern phases plus the pattern's priority order (`"tango"`).
    #[must_use]
    pub fn type_and_priority() -> TangoScheduler {
        TangoScheduler {
            priority_sort: true,
            patterns: Vec::new(),
        }
    }
}

impl Scheduler for TangoScheduler {
    fn name(&self) -> &'static str {
        if self.priority_sort {
            "tango"
        } else {
            "tango-type"
        }
    }

    fn prepare(&mut self, dag: &mut RequestDag, db: &TangoDb) {
        // Fills the rank memo every clone of this DAG shares.
        dag.ranks();
        self.patterns = switch_patterns(db, dag);
    }

    fn key(&self, dag: &RequestDag, id: NodeId, _released_at: SimTime) -> SchedKey {
        let req = dag.node(id);
        let at = self
            .patterns
            .binary_search_by_key(&req.location, |&(d, _)| d);
        let pattern = self.patterns[at.expect("prepare saw every unfinished switch")].1;
        let (phase, prio) = pattern.rank(req);
        let prio = if self.priority_sort { prio } else { 0 };
        SchedKey([u64::MAX - dag.ranks()[id.0] as u64, phase, prio, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute_with, Release};
    use crate::request::{ReqElem, ReqOp};
    use ofwire::flow_match::FlowMatch;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    fn three_node_dag() -> RequestDag {
        // a → b chain plus a flat delete: lp = [1, 0, 0].
        let mut dag = RequestDag::new();
        let a = dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(0), 900, 1));
        let b = dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(1), 100, 1));
        dag.add_node(ReqElem::delete(Dpid(1), FlowMatch::l3_for_id(2), 500));
        dag.add_dep(a, b);
        dag
    }

    #[test]
    fn critical_path_prefers_long_paths_then_fifo() {
        let mut dag = three_node_dag();
        let mut s = CriticalPathScheduler::new();
        s.prepare(&mut dag, &TangoDb::new());
        let t0 = SimTime(0);
        let k_a = s.key(&dag, NodeId(0), t0);
        let k_c = s.key(&dag, NodeId(2), t0);
        assert!(k_a < k_c, "longer path dispatches first");
        // FIFO among equal ranks: earlier release wins.
        let early = s.key(&dag, NodeId(2), SimTime(10));
        let late = s.key(&dag, NodeId(2), SimTime(20));
        assert!(early < late);
    }

    #[test]
    fn tango_orders_del_before_add_and_ascending_priorities() {
        let mut dag = three_node_dag();
        let mut s = TangoScheduler::type_and_priority();
        s.prepare(&mut dag, &TangoDb::new());
        let t0 = SimTime(0);
        // Same rank (0): the delete outranks the add.
        assert!(s.key(&dag, NodeId(2), t0) < s.key(&dag, NodeId(1), t0));
        // Ascending priority among adds of equal rank and class.
        let mut flat = RequestDag::new();
        let lo = flat.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(3), 10, 1));
        let hi = flat.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(4), 90, 1));
        let mut s2 = TangoScheduler::type_and_priority();
        s2.prepare(&mut flat, &TangoDb::new());
        assert!(s2.key(&flat, lo, t0) < s2.key(&flat, hi, t0));
        // Type-only ignores priorities entirely.
        let mut s3 = TangoScheduler::type_only();
        s3.prepare(&mut flat, &TangoDb::new());
        assert_eq!(s3.key(&flat, lo, t0), s3.key(&flat, hi, t0));
        let _ = ReqOp::Add;
    }

    #[test]
    fn a_negative_shift_switch_dispatches_its_adds_descending() {
        // A negative shift cost (only a hand-edited DB holds one) makes
        // descending adds score cheaper on switch 2 alone. Adds only, so
        // the add-before-delete term plays no part.
        let mut db = TangoDb::new();
        let mut lp = db.latency_or_default(Dpid(2));
        lp.shift_us = -10.0;
        db.switch_mut(Dpid(2)).latency = Some(lp);
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::vendor1());
        tb.attach_default(Dpid(2), SwitchProfile::vendor1());
        let mut dag = RequestDag::new();
        for i in 0..20u32 {
            let prio = 100 + (i * 41 % 101) as u16;
            let dpid = Dpid(1 + u64::from(i % 2));
            dag.add_node(ReqElem::add(dpid, FlowMatch::l3_for_id(i), prio, 1));
        }
        let mut tango = TangoScheduler::type_and_priority();
        let report = execute_with(&mut tb, &mut dag, &db, &mut tango, Release::Ack).unwrap();
        let issued = |dpid| -> Vec<u16> {
            let on = report
                .issued
                .iter()
                .filter(|&&id| dag.node(id).location == dpid);
            on.map(|&id| dag.node(id).effective_priority()).collect()
        };
        let (one, two) = (issued(Dpid(1)), issued(Dpid(2)));
        assert_eq!((one.len(), two.len()), (10, 10));
        assert!(one.is_sorted(), "switch 1 stays ascending: {one:?}");
        assert!(two.is_sorted_by(|a, b| a > b), "switch 2 descends: {two:?}");
    }
}
