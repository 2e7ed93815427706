//! Scheduler extensions (§6 "Extensions"): non-greedy prefix batching.
//!
//! The basic scheduler greedily batches the whole independent set. The
//! extension evaluates, before each round, whether issuing only a
//! *prefix* of the ordered set — then re-planning with the requests the
//! prefix unblocks — is predicted to be cheaper, using the TangoDB cost
//! model (no trial execution). This explores the paper's "scheduling
//! tree of possibilities" one level deep, which is where almost all of
//! the benefit lives for the evaluation DAGs.
//!
//! The extension is an ordering function, [`lookahead_prefix`], for
//! [`crate::executor::execute_rounds`] with partial rounds allowed:
//! unissued requests stay in the DAG for the next round's planning pass.
//! The greedy scheduler is the same dispatcher with
//! [`ordering_tango_oracle`] and whole rounds.

use crate::dag::{NodeId, RequestDag};
use crate::patterns::{ordering_tango_oracle, pattern_score, SchedPattern};
use std::collections::BTreeMap;
use tango::db::TangoDb;

/// Predicted cost (ms) of issuing `set` as one batch: the negated best
/// pattern score.
fn predicted_batch_ms(db: &TangoDb, dag: &RequestDag, set: &[NodeId]) -> f64 {
    SchedPattern::standard_set()
        .iter()
        .map(|p| -pattern_score(db, dag, set, p))
        .fold(f64::INFINITY, f64::min)
}

/// The exact set of issuable nodes once `prefix` completes: the current
/// independent set minus the prefix, plus everything the prefix
/// unblocks. Computed from pending-predecessor deltas — a successor
/// becomes ready exactly when the prefix accounts for *all* of its
/// outstanding predecessors — so planning never clones the DAG (the old
/// scratch-copy approach was quadratic over a whole run).
fn unlocked_by(dag: &RequestDag, current: &[NodeId], prefix: &[NodeId]) -> Vec<NodeId> {
    let mut delta: BTreeMap<usize, usize> = BTreeMap::new();
    for &p in prefix {
        for &s in dag.successors(p) {
            *delta.entry(s.0).or_insert(0) += 1;
        }
    }
    let mut out: Vec<NodeId> = current
        .iter()
        .copied()
        .filter(|n| !prefix.contains(n))
        .collect();
    for (&s, &d) in &delta {
        let id = NodeId(s);
        if !dag.is_done(id) && dag.pending_pred_count(id) == d {
            out.push(id);
        }
    }
    // Ascending ids, matching the frontier's native iteration order.
    out.sort_unstable_by_key(|n| n.0);
    out
}

/// Orders one round with depth-1 prefix lookahead: the Tango oracle's
/// ordering, cut to the prefix whose predicted cost — plus that of the
/// follow-up batch it unlocks — is lowest.
#[must_use]
pub fn lookahead_prefix(db: &TangoDb, dag: &RequestDag, set: &[NodeId]) -> (Vec<NodeId>, String) {
    let (mut ordered, name) = ordering_tango_oracle(db, dag, set);
    // Candidate prefixes: all, the first half, or one element —
    // evaluated largest-first so ties keep the full batch (a prefix
    // must *strictly* beat the whole batch to be chosen).
    let candidates = [ordered.len(), ordered.len().div_ceil(2), 1usize];
    let mut best: Option<(f64, usize)> = None;
    for &k in &candidates {
        if k == 0 || k > ordered.len() {
            continue;
        }
        let prefix = &ordered[..k];
        let cost = if k == ordered.len() {
            // Whole batch: its cost plus nothing unlocked early.
            predicted_batch_ms(db, dag, prefix)
        } else {
            // Prefix, then the remainder merged with what the prefix
            // unlocks (scored as one follow-up batch).
            let follow = unlocked_by(dag, &ordered, prefix);
            predicted_batch_ms(db, dag, prefix) + predicted_batch_ms(db, dag, &follow)
        };
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, k));
        }
    }
    let (_, k) = best.expect("non-empty candidates");
    ordered.truncate(k);
    (ordered, format!("{name}[prefix {k}/{}]", set.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute_rounds, ExecReport};
    use crate::request::ReqElem;
    use ofwire::flow_match::FlowMatch;
    use ofwire::types::Dpid;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    fn testbed() -> Testbed {
        let mut tb = Testbed::new(6);
        tb.attach_default(Dpid(1), SwitchProfile::vendor1());
        tb.attach_default(Dpid(2), SwitchProfile::vendor1());
        tb
    }

    /// Fig 7-like DAG spread over two switches.
    fn dag() -> RequestDag {
        let mut dag = RequestDag::new();
        let a = dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(1), 100, 1));
        let b = dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(2), 110, 1));
        let c = dag.add_node(ReqElem::add(Dpid(2), FlowMatch::l3_for_id(3), 120, 1));
        let d = dag.add_node(ReqElem::add(Dpid(2), FlowMatch::l3_for_id(4), 90, 1));
        let e = dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(5), 80, 1));
        dag.add_dep(a, b);
        dag.add_dep(c, d);
        dag.add_dep(a, d);
        let _ = e;
        dag
    }

    fn lookahead(tb: &mut Testbed, d: &mut RequestDag) -> ExecReport {
        execute_rounds(tb, d, &TangoDb::new(), &mut lookahead_prefix, true).unwrap()
    }

    #[test]
    fn lookahead_completes_everything() {
        let mut tb = testbed();
        let mut d = dag();
        let report = lookahead(&mut tb, &mut d);
        assert!(d.all_done());
        assert_eq!(report.completed, 5);
        assert_eq!(
            tb.switch(Dpid(1)).rule_count() + tb.switch(Dpid(2)).rule_count(),
            5
        );
    }

    #[test]
    fn lookahead_never_slower_than_greedy_by_much() {
        // Lookahead uses predictions; on these small DAGs it must stay
        // within a small factor of greedy (and often wins on deeper
        // DAGs).
        let greedy = execute_rounds(
            &mut testbed(),
            &mut dag(),
            &TangoDb::new(),
            &mut ordering_tango_oracle,
            false,
        )
        .unwrap()
        .makespan;
        let look = lookahead(&mut testbed(), &mut dag()).makespan;
        assert!(
            look.as_millis_f64() <= 1.5 * greedy.as_millis_f64(),
            "lookahead {look} vs greedy {greedy}"
        );
    }

    #[test]
    fn round_labels_mention_prefixes() {
        let report = lookahead(&mut testbed(), &mut dag());
        assert!(report.rounds.iter().all(|(l, _)| l.contains("prefix")));
    }
}
