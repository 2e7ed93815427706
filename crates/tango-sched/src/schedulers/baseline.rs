//! The paper's own policies: Dionysus critical-path dispatch and
//! Tango's pattern ordering, expressed as [`Scheduler`] keys.
//!
//! Keys order by higher longest-path rank first, then the policy's
//! tie-breaks, then node id; the fig 10–12 artifacts pin the resulting
//! dispatch orders.

use super::{class_rank, SchedKey, Scheduler};
use crate::dag::{NodeId, RequestDag};
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

/// Tango's pattern ordering: longest critical path first, then rule-type
/// phases (del → mod → add), optionally with ascending-priority adds.
#[derive(Debug)]
pub struct TangoScheduler {
    priority_sort: bool,
}

impl TangoScheduler {
    /// Rule-type phases only (`"tango-type"`).
    #[must_use]
    pub fn type_only() -> TangoScheduler {
        TangoScheduler {
            priority_sort: false,
        }
    }

    /// Rule-type phases plus ascending-priority adds (`"tango"`).
    #[must_use]
    pub fn type_and_priority() -> TangoScheduler {
        TangoScheduler {
            priority_sort: true,
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

    fn prepare(&mut self, dag: &mut RequestDag, _db: &TangoDb) {
        // Fills the rank memo every clone of this DAG shares.
        dag.ranks();
    }

    fn key(&self, dag: &RequestDag, id: NodeId, _released_at: SimTime) -> SchedKey {
        let req = dag.node(id);
        let prio = if self.priority_sort {
            u64::from(req.effective_priority())
        } else {
            0
        };
        SchedKey([
            u64::MAX - dag.ranks()[id.0] as u64,
            u64::from(class_rank(req.op)),
            prio,
            0,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ReqElem, ReqOp};
    use ofwire::flow_match::FlowMatch;
    use ofwire::types::Dpid;

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
}
