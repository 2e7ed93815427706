//! Scheduling patterns, Algorithm 3's ordering oracle and its
//! non-greedy batching extension (§6).
//!
//! A pattern says which op class goes first and in which priority order
//! adds go. It orders requests by one rank, [`SchedPattern::rank`], which
//! both dispatchers read: the rounds of
//! [`crate::executor::execute_rounds`] sort each independent set by it,
//! and [`crate::schedulers::TangoScheduler`] keys each request by it.
//! The pattern is the standard set's cheapest under the TangoDB's
//! measured per-op costs — the paper's `score = −(w_del·|DEL| +
//! w_mod·|MOD| + w_add·|ADD|²)` with measured weights — scored per round
//! over the set, or once per switch over its unfinished requests.
//!
//! The extension, `lookahead_prefix`, predicts with the same model
//! whether issuing only a *prefix* of a round, then re-planning with
//! what the prefix unblocks, is cheaper: the paper's "scheduling tree of
//! possibilities", one level deep.

use crate::dag::{NodeId, RequestDag};
use crate::request::{ReqElem, ReqOp};
use ofwire::types::Dpid;
use std::collections::BTreeMap;
use tango::db::TangoDb;

/// How adds within the batch are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOrder {
    /// Ascending rule priority (no TCAM shifting).
    Ascending,
    /// Descending rule priority (maximal shifting — the straw man).
    Descending,
}

/// One scheduling pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedPattern {
    /// Pattern name (e.g. `"DEL_MOD_ASCEND_ADD"`).
    pub name: &'static str,
    /// Operation-class phases, first issued first.
    pub phases: [ReqOp; 3],
    /// Ordering of the add phase.
    pub add_order: AddOrder,
}

/// The standard set in scoring order: of equally scored patterns the
/// first listed wins, so this order is part of the rule.
static STANDARD_SET: [SchedPattern; 12] = {
    use AddOrder::{Ascending as Asc, Descending as Desc};
    use ReqOp::{Add, Del, Mod};
    const fn p(name: &'static str, phases: [ReqOp; 3], add_order: AddOrder) -> SchedPattern {
        SchedPattern {
            name,
            phases,
            add_order,
        }
    }
    [
        p("DEL_MOD_ASCEND_ADD", [Del, Mod, Add], Asc),
        p("DEL_MOD_DESCEND_ADD", [Del, Mod, Add], Desc),
        p("DEL_ADD_ASCEND_ADD", [Del, Add, Mod], Asc),
        p("DEL_ADD_DESCEND_ADD", [Del, Add, Mod], Desc),
        p("MOD_DEL_ASCEND_ADD", [Mod, Del, Add], Asc),
        p("MOD_DEL_DESCEND_ADD", [Mod, Del, Add], Desc),
        p("MOD_ADD_ASCEND_ADD", [Mod, Add, Del], Asc),
        p("MOD_ADD_DESCEND_ADD", [Mod, Add, Del], Desc),
        p("ADD_DEL_ASCEND_ADD", [Add, Del, Mod], Asc),
        p("ADD_DEL_DESCEND_ADD", [Add, Del, Mod], Desc),
        p("ADD_MOD_ASCEND_ADD", [Add, Mod, Del], Asc),
        p("ADD_MOD_DESCEND_ADD", [Add, Mod, Del], Desc),
    ]
};

impl SchedPattern {
    /// The standard pattern set Algorithm 3 scores: every order of the
    /// three op classes, each with ascending and descending adds.
    #[must_use]
    pub fn standard_set() -> &'static [SchedPattern; 12] {
        &STANDARD_SET
    }

    /// Where `req` goes under this pattern, smaller first: the position
    /// of its op class in `phases`, then its priority — adds in
    /// `add_order`, deletes and modifies ascending.
    #[must_use]
    pub fn rank(&self, req: &ReqElem) -> (u64, u64) {
        let prio = match (req.op, self.add_order) {
            (ReqOp::Add, AddOrder::Descending) => u16::MAX - req.effective_priority(),
            _ => req.effective_priority(),
        };
        (self.phase(req.op), u64::from(prio))
    }

    fn phase(&self, op: ReqOp) -> u64 {
        let pos = self.phases.iter().position(|&x| x == op);
        pos.expect("every op class has a phase") as u64
    }
}

/// `[adds, mods, dels]` (`ReqOp`'s order) of `ids`, per switch.
fn op_counts(dag: &RequestDag, ids: impl Iterator<Item = NodeId>) -> BTreeMap<Dpid, [usize; 3]> {
    let mut counts: BTreeMap<Dpid, [usize; 3]> = BTreeMap::new();
    for id in ids {
        let r = dag.node(id);
        counts.entry(r.location).or_default()[r.op as usize] += 1;
    }
    counts
}

/// Adds one switch's predicted cost (ms) under `p` to the running total
/// `cost_ms`, term by term, so that no regrouping of the sum can flip a
/// tie. Deletes and mods are linear; adds are linear ascending and
/// quadratic (TCAM shifting) descending.
fn add_switch_cost(
    mut cost_ms: f64,
    db: &TangoDb,
    dpid: Dpid,
    [adds, mods, dels]: [usize; 3],
    p: &SchedPattern,
) -> f64 {
    let lp = db.latency_or_default(dpid);
    cost_ms += lp.del_ms * dels as f64 + lp.mod_ms * mods as f64;
    let a = adds as f64;
    cost_ms += match p.add_order {
        AddOrder::Ascending => lp.add_asc_ms * a,
        AddOrder::Descending => lp.add_asc_ms * a + lp.shift_us / 1000.0 * a * a / 2.0,
    };
    // Adds issued before deletes at a near-full table shift against
    // more resident entries; penalize add-before-del on
    // shift-sensitive switches.
    if p.phase(ReqOp::Add) < p.phase(ReqOp::Del) {
        cost_ms += lp.shift_us / 1000.0 * a * dels as f64;
    }
    cost_ms
}

/// Scores a pattern for an independent set (higher = cheaper): the
/// negated sum of each switch's predicted cost.
#[must_use]
pub fn pattern_score(db: &TangoDb, dag: &RequestDag, set: &[NodeId], p: &SchedPattern) -> f64 {
    let counts = op_counts(dag, set.iter().copied()).into_iter();
    -counts.fold(0.0, |cost, (d, n)| add_switch_cost(cost, db, d, n, p))
}

/// The standard set's best pattern by `score`; a later one must score
/// strictly higher to win.
fn best_pattern(score: impl Fn(&SchedPattern) -> f64) -> &'static SchedPattern {
    let scored = STANDARD_SET.iter().map(|p| (score(p), p));
    let best = scored.reduce(|best, next| if next.0 > best.0 { next } else { best });
    best.expect("standard set is non-empty").1
}

/// Each switch's best pattern, scored over its unfinished requests in
/// `dag` alone; sorted by dpid.
pub(crate) fn switch_patterns(
    db: &TangoDb,
    dag: &RequestDag,
) -> Vec<(Dpid, &'static SchedPattern)> {
    let counts = op_counts(dag, dag.node_ids().filter(|&id| !dag.is_done(id)));
    let best = |d, n| best_pattern(|p| -add_switch_cost(0.0, db, d, n, p));
    counts.into_iter().map(|(d, n)| (d, best(d, n))).collect()
}

/// The ordering oracle of Algorithm 3: the independent set sorted by
/// the best pattern's [`SchedPattern::rank`], ties by node id, and that
/// pattern.
#[must_use]
pub fn ordering_tango_oracle(
    db: &TangoDb,
    dag: &RequestDag,
    set: &[NodeId],
) -> (Vec<NodeId>, &'static SchedPattern) {
    let pattern = best_pattern(|p| pattern_score(db, dag, set, p));
    let mut ordered = set.to_vec();
    ordered.sort_unstable_by_key(|&id| (pattern.rank(dag.node(id)), id));
    (ordered, pattern)
}

/// Predicted cost (ms) of issuing `set` as one batch: the negated best
/// pattern score.
fn predicted_batch_ms(db: &TangoDb, dag: &RequestDag, set: &[NodeId]) -> f64 {
    STANDARD_SET
        .iter()
        .map(|p| -pattern_score(db, dag, set, p))
        .fold(f64::INFINITY, f64::min)
}

/// The exact set of issuable nodes once `prefix` completes: the current
/// independent set minus the prefix, plus everything the prefix
/// unblocks. Computed from pending-predecessor deltas — a successor
/// becomes ready exactly when the prefix accounts for *all* of its
/// outstanding predecessors — so planning never clones the DAG.
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

/// Orders one non-empty round with depth-1 prefix lookahead: the
/// oracle's order, cut to the prefix whose predicted cost — plus that of
/// the follow-up batch it unlocks — is lowest. Returns the prefix and a
/// round label.
pub(crate) fn lookahead_prefix(
    db: &TangoDb,
    dag: &RequestDag,
    set: &[NodeId],
) -> (Vec<NodeId>, String) {
    let (mut ordered, pattern) = ordering_tango_oracle(db, dag, set);
    // Candidate prefixes: all, the first half, or one element —
    // evaluated largest-first so ties keep the full batch (a prefix
    // must *strictly* beat the whole batch to be chosen).
    let candidates = [ordered.len(), ordered.len().div_ceil(2), 1usize];
    let mut best: Option<(f64, usize)> = None;
    for &k in &candidates {
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
    (
        ordered,
        format!("{}[prefix {k}/{}]", pattern.name, set.len()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute_rounds, Batching, ExecReport};
    use ofwire::flow_match::FlowMatch;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    fn mixed_dag() -> (RequestDag, Vec<NodeId>) {
        let mut dag = RequestDag::new();
        let d = Dpid(1);
        let ids = vec![
            dag.add_node(ReqElem::add(d, FlowMatch::l3_for_id(1), 30, 1)),
            dag.add_node(ReqElem::add(d, FlowMatch::l3_for_id(2), 10, 1)),
            dag.add_node(ReqElem::modify(d, FlowMatch::l3_for_id(3), 5, 2)),
            dag.add_node(ReqElem::delete(d, FlowMatch::l3_for_id(4), 5)),
            dag.add_node(ReqElem::add(d, FlowMatch::l3_for_id(5), 20, 1)),
        ];
        (dag, ids)
    }

    /// `set` sorted by `p`'s rank, ties by id.
    fn sorted(p: &SchedPattern, dag: &RequestDag, set: &[NodeId]) -> Vec<NodeId> {
        let mut ordered = set.to_vec();
        ordered.sort_by_key(|&id| (p.rank(dag.node(id)), id));
        ordered
    }

    #[test]
    fn standard_set_has_twelve_distinct_patterns() {
        let set = SchedPattern::standard_set();
        let mut names: Vec<&str> = set.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
        // Each name spells its first two phases and its add order.
        for p in set {
            let order = match p.add_order {
                AddOrder::Ascending => "ASCEND",
                AddOrder::Descending => "DESCEND",
            };
            let [a, b, _] = p.phases.map(|op| op.label().to_uppercase());
            assert_eq!(p.name, format!("{a}_{b}_{order}_ADD"));
        }
    }

    #[test]
    fn rank_orders_phases_and_add_priorities() {
        let (dag, ids) = mixed_dag();
        let p = &SchedPattern::standard_set()[0];
        assert_eq!(p.name, "DEL_MOD_ASCEND_ADD");
        // del (id 3), mod (id 2), adds ascending priority: 10, 20, 30.
        let ordered = sorted(p, &dag, &ids);
        assert_eq!(ordered, vec![ids[3], ids[2], ids[1], ids[4], ids[0]]);
        let desc = SchedPattern {
            add_order: AddOrder::Descending,
            ..p.clone()
        };
        let ordered = sorted(&desc, &dag, &ids);
        assert_eq!(&ordered[2..], &[ids[0], ids[4], ids[1]]);
    }

    #[test]
    fn oracle_picks_del_first_ascending_for_hardware() {
        // The default (conservative, shift-sensitive) latency profile
        // must steer the oracle to deletes-before-adds with ascending
        // add order.
        let db = TangoDb::new();
        let (dag, ids) = mixed_dag();
        let (ordered, p) = ordering_tango_oracle(&db, &dag, &ids);
        assert!(p.name.contains("ASCEND"), "chose {}", p.name);
        // The delete comes before every add.
        let del_pos = ordered.iter().position(|&i| i == ids[3]).unwrap();
        for add in [ids[0], ids[1], ids[4]] {
            let add_pos = ordered.iter().position(|&i| i == add).unwrap();
            assert!(del_pos < add_pos, "delete must precede adds ({})", p.name);
        }
    }

    #[test]
    fn scores_penalize_descending_adds() {
        let db = TangoDb::new();
        let (dag, ids) = mixed_dag();
        let [asc, desc, ..] = SchedPattern::standard_set();
        assert!(pattern_score(&db, &dag, &ids, asc) > pattern_score(&db, &dag, &ids, desc));
    }

    #[test]
    fn empty_set_scores_zero_and_orders_empty() {
        let db = TangoDb::new();
        let dag = RequestDag::new();
        let (ordered, _) = ordering_tango_oracle(&db, &dag, &[]);
        assert!(ordered.is_empty());
        let p = &SchedPattern::standard_set()[0];
        assert_eq!(pattern_score(&db, &dag, &[], p), 0.0);
    }

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
        execute_rounds(tb, d, &TangoDb::new(), Batching::Lookahead).unwrap()
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
            Batching::Greedy,
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

#[cfg(test)]
mod paper_example_tests {
    use super::*;
    use crate::dag::RequestDag;
    use crate::request::ReqOp;

    /// Algorithm 3's *printed* pattern scores, with the paper's literal
    /// weights: `−(10·|DEL| + 1·|MOD| + w·|ADD|²)` where `w = 20` for the
    /// ascending-add pattern and `w = 40` for descending. Reproduces the
    /// §6 worked example exactly (Fig 7's independent set {A, E, H, I}
    /// scores −91 under pattern 1 and −171 under pattern 2); the
    /// measured-weights [`pattern_score`] is what the production oracle
    /// uses.
    fn pattern_score_paper_weights(dag: &RequestDag, set: &[NodeId], add_order: AddOrder) -> f64 {
        let mut dels = 0.0;
        let mut mods = 0.0;
        let mut adds = 0.0;
        for &id in set {
            match dag.node(id).op {
                ReqOp::Del => dels += 1.0,
                ReqOp::Mod => mods += 1.0,
                ReqOp::Add => adds += 1.0,
            }
        }
        let w_add = match add_order {
            AddOrder::Ascending => 20.0,
            AddOrder::Descending => 40.0,
        };
        -(10.0 * dels + 1.0 * mods + w_add * adds * adds)
    }

    /// The §6 worked example, end to end: Fig 7's first independent set
    /// is {A, E, H, I}; pattern 1 (ascending adds) scores −91, pattern 2
    /// (descending adds) −171, so the oracle picks pattern 1.
    #[test]
    fn fig7_worked_example_scores() {
        let (dag, ids) = RequestDag::fig7_example();
        let indep = dag.independent_set();
        // A, E, H, I in label order [A,B,C,E,F,G,H,I,J].
        assert_eq!(indep, vec![ids[0], ids[3], ids[6], ids[7]]);
        // One DEL (H), one MOD (E), two ADDs (A, I).
        let ops: Vec<ReqOp> = indep.iter().map(|&i| dag.node(i).op).collect();
        assert_eq!(ops.iter().filter(|&&o| o == ReqOp::Del).count(), 1);
        assert_eq!(ops.iter().filter(|&&o| o == ReqOp::Mod).count(), 1);
        assert_eq!(ops.iter().filter(|&&o| o == ReqOp::Add).count(), 2);
        let p1 = pattern_score_paper_weights(&dag, &indep, AddOrder::Ascending);
        let p2 = pattern_score_paper_weights(&dag, &indep, AddOrder::Descending);
        assert_eq!(p1, -91.0);
        assert_eq!(p2, -171.0);
        assert!(p1 > p2, "the scheduler picks the first pattern");
    }

    #[test]
    fn fig7_longest_paths_match_the_figure() {
        let (dag, ids) = RequestDag::fig7_example();
        let lp = dag.longest_path_lengths();
        // A, E, H, I all sit on paths of the same longest length — the
        // situation §6 says the Tango patterns disambiguate.
        assert_eq!(lp[ids[0].0], 2); // A→B→C
        assert_eq!(lp[ids[3].0], 2); // E→F→G
        assert_eq!(lp[ids[6].0], 2); // H→F→G
                                     // I→G is one hop, but I also precedes J: the figure draws I in
                                     // the same frontier.
        assert_eq!(lp[ids[7].0], 1);
    }
}
