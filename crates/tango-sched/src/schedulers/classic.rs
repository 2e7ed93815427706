//! Classical DAG schedulers adapted to switch-request dispatch: HEFT's
//! upward rank, Dynamic Level Scheduling, and a greedy one-step
//! lookahead comparator.
//!
//! Unlike the ported Tango/Dionysus entries, these weight the critical
//! path by *predicted per-op cost* from the TangoDB latency profile of
//! each request's switch (falling back to the conservative default for
//! never-probed switches), so a chain of slow TCAM adds outranks an
//! equally long chain of cheap deletes.

use super::{SchedKey, Scheduler};
use crate::dag::{NodeId, RequestDag};
use crate::request::ReqOp;
use simnet::time::SimTime;
use tango::db::TangoDb;

/// Predicted cost of one request in integer nanoseconds, from the
/// switch's (inferred or default) latency profile. Adds use the
/// ascending-order cost: every portfolio entry that consults costs also
/// dispatches adds ascending or in release order, never descending.
fn op_cost_ns(dag: &RequestDag, db: &TangoDb, id: NodeId) -> u64 {
    let req = dag.node(id);
    let profile = db.latency_or_default(req.location);
    let ms = match req.op {
        ReqOp::Del => profile.del_ms,
        ReqOp::Mod => profile.mod_ms,
        ReqOp::Add => profile.add_asc_ms,
    };
    (ms * 1_000_000.0) as u64
}

/// Cost-weighted upward ranks: `rank(i) = cost(i) + max rank(succ)`,
/// computed in one reverse-topological pass.
fn upward_ranks_ns(dag: &RequestDag, db: &TangoDb) -> Vec<u64> {
    let order = dag.topo_order().expect("DAG must be acyclic");
    let mut rank = vec![0u64; dag.len()];
    for &NodeId(i) in order.iter().rev() {
        let tail = dag
            .successors(NodeId(i))
            .iter()
            .map(|s| rank[s.0])
            .max()
            .unwrap_or(0);
        rank[i] = op_cost_ns(dag, db, NodeId(i)) + tail;
    }
    rank
}

/// HEFT-style list scheduling: highest upward rank first, FIFO among
/// ties.
#[derive(Debug, Default)]
pub struct HeftScheduler {
    urank_ns: Vec<u64>,
}

impl HeftScheduler {
    /// A fresh instance (ranks are built by `prepare`).
    #[must_use]
    pub fn new() -> HeftScheduler {
        HeftScheduler::default()
    }
}

impl Scheduler for HeftScheduler {
    fn name(&self) -> &'static str {
        "heft"
    }

    fn prepare(&mut self, dag: &mut RequestDag, db: &TangoDb) {
        self.urank_ns = upward_ranks_ns(dag, db);
    }

    fn key(&self, _dag: &RequestDag, id: NodeId, released_at: SimTime) -> SchedKey {
        SchedKey([u64::MAX - self.urank_ns[id.0], released_at.0, 0, 0])
    }
}

/// Dynamic Level Scheduling: dispatch the largest *dynamic level* —
/// static level (cost-weighted upward rank) minus earliest start time —
/// so a request's urgency decays as its release slips later.
#[derive(Debug, Default)]
pub struct DlsScheduler {
    sl_ns: Vec<u64>,
}

impl DlsScheduler {
    /// A fresh instance (levels are built by `prepare`).
    #[must_use]
    pub fn new() -> DlsScheduler {
        DlsScheduler::default()
    }
}

impl Scheduler for DlsScheduler {
    fn name(&self) -> &'static str {
        "dls"
    }

    fn prepare(&mut self, dag: &mut RequestDag, db: &TangoDb) {
        self.sl_ns = upward_ranks_ns(dag, db);
    }

    fn key(&self, _dag: &RequestDag, id: NodeId, released_at: SimTime) -> SchedKey {
        // DL = SL − release instant, signed; bias by 2^63 to order it in
        // an unsigned word (largest DL → smallest key). Both operands
        // are far below 2^62, so the bias cannot wrap.
        let dl = self.sl_ns[id.0] as i128 - released_at.0 as i128;
        let biased = ((1i128 << 63) - dl) as u64;
        SchedKey([biased, released_at.0, 0, 0])
    }
}

/// Greedy one-step lookahead: prefer the request whose completion
/// immediately unlocks the most successors (breaking ties by longest
/// path, then release order). It reads the unlocks off the DAG's own
/// pending-predecessor counts, which the executor advances as
/// completions arrive.
#[derive(Debug, Default)]
pub struct LookaheadScheduler;

impl LookaheadScheduler {
    /// A fresh instance.
    #[must_use]
    pub fn new() -> LookaheadScheduler {
        LookaheadScheduler
    }
}

impl Scheduler for LookaheadScheduler {
    fn name(&self) -> &'static str {
        "lookahead"
    }

    fn prepare(&mut self, dag: &mut RequestDag, _db: &TangoDb) {
        // Fills the rank memo every clone of this DAG shares.
        dag.ranks();
    }

    fn key(&self, dag: &RequestDag, id: NodeId, released_at: SimTime) -> SchedKey {
        // A successor with exactly one unfinished predecessor is waiting
        // only on `id` (its other predecessors must have completed for
        // `id` to be ready, and `id` itself has not): completing `id`
        // unlocks it immediately.
        let unlocks = dag
            .successors(id)
            .iter()
            .filter(|&&s| dag.pending_pred_count(s) == 1)
            .count() as u64;
        SchedKey([
            u64::MAX - unlocks,
            u64::MAX - dag.ranks()[id.0] as u64,
            released_at.0,
            0,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqElem;
    use ofwire::flow_match::FlowMatch;
    use ofwire::types::Dpid;

    fn add(dag: &mut RequestDag, id: u32) -> NodeId {
        dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(id), 100, 1))
    }

    #[test]
    fn heft_ranks_weight_costs_not_just_edges() {
        // A 2-chain of adds vs a single delete: with the default profile
        // (add 2 ms, del 2 ms) the chain's head carries more total cost.
        let mut dag = RequestDag::new();
        let a = add(&mut dag, 0);
        let b = add(&mut dag, 1);
        dag.add_dep(a, b);
        let d = dag.add_node(ReqElem::delete(Dpid(1), FlowMatch::l3_for_id(2), 500));
        let db = TangoDb::new();
        let mut s = HeftScheduler::new();
        s.prepare(&mut dag, &db);
        assert!(s.urank_ns[a.0] > s.urank_ns[d.0]);
        assert!(s.key(&dag, a, SimTime(0)) < s.key(&dag, d, SimTime(0)));
        assert_eq!(s.urank_ns[a.0], s.urank_ns[b.0] + s.urank_ns[d.0]);
    }

    #[test]
    fn dls_urgency_decays_with_later_release() {
        let mut dag = RequestDag::new();
        let a = add(&mut dag, 0);
        let mut s = DlsScheduler::new();
        s.prepare(&mut dag, &TangoDb::new());
        let early = s.key(&dag, a, SimTime(1_000));
        let late = s.key(&dag, a, SimTime(2_000_000));
        assert!(early < late, "earlier release = higher dynamic level");
    }

    #[test]
    fn lookahead_counts_immediate_unlocks() {
        // a fans out to b, c; x is a sink. Completing a unlocks two
        // nodes; completing x unlocks none.
        let mut dag = RequestDag::new();
        let a = add(&mut dag, 0);
        let b = add(&mut dag, 1);
        let c = add(&mut dag, 2);
        let x = add(&mut dag, 3);
        dag.add_dep(a, b);
        dag.add_dep(a, c);
        let mut s = LookaheadScheduler::new();
        s.prepare(&mut dag, &TangoDb::new());
        assert!(s.key(&dag, a, SimTime(0)) < s.key(&dag, x, SimTime(0)));
        // After a completes, its successors stop waiting on it.
        dag.mark_done(a);
        assert_eq!(dag.pending_pred_count(b), 0);
        assert_eq!(dag.pending_pred_count(c), 0);
    }

    #[test]
    fn lookahead_sees_diamond_joins() {
        // Diamond: a, b → j. Once a completes, b's key says completing
        // b unlocks j.
        let mut dag = RequestDag::new();
        let a = add(&mut dag, 0);
        let b = add(&mut dag, 1);
        let j = add(&mut dag, 2);
        dag.add_dep(a, j);
        dag.add_dep(b, j);
        let mut s = LookaheadScheduler::new();
        s.prepare(&mut dag, &TangoDb::new());
        // Before any completion, neither unlocks j alone.
        let k_b_before = s.key(&dag, b, SimTime(0));
        dag.mark_done(a);
        let k_b_after = s.key(&dag, b, SimTime(0));
        assert!(k_b_after < k_b_before, "join becomes unlockable by b");
    }

    #[test]
    fn lookahead_counts_predecessors_done_before_dispatch() {
        // a, b → c with a completed before `prepare`: b is all c still
        // waits on, so completing b unlocks it.
        let mut dag = RequestDag::new();
        let a = add(&mut dag, 0);
        let b = add(&mut dag, 1);
        let c = add(&mut dag, 2);
        dag.add_dep(a, c);
        dag.add_dep(b, c);
        dag.mark_done(a);
        let mut s = LookaheadScheduler::new();
        s.prepare(&mut dag, &TangoDb::new());
        let key = s.key(&dag, b, SimTime(0));
        assert_eq!(key.0[0], u64::MAX - 1);
    }
}
