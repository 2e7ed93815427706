//! Scheduling patterns and the ordering oracle (§6, Algorithm 3).
//!
//! A scheduling pattern prescribes how an independent set of requests is
//! ordered on the wire: which operation class goes first and in which
//! priority order adds are issued. The oracle scores each pattern with
//! the measured per-op costs from the TangoDB — the paper's
//! `score = −(w_del·|DEL| + w_mod·|MOD| + w_add·|ADD|²)` form, with
//! weights taken from real measurements instead of constants — and picks
//! the cheapest (max score).

use crate::dag::{NodeId, RequestDag};
use crate::request::ReqOp;
use ofwire::types::Dpid;
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
    pub name: String,
    /// Operation-class phases, first issued first.
    pub phases: [ReqOp; 3],
    /// Ordering of the add phase.
    pub add_order: AddOrder,
}

impl SchedPattern {
    /// The standard pattern set Algorithm 3 scores: deletes first frees
    /// table space before adds; the add order arms differ.
    #[must_use]
    pub fn standard_set() -> Vec<SchedPattern> {
        let mut out = Vec::new();
        let phase_perms: [[ReqOp; 3]; 6] = [
            [ReqOp::Del, ReqOp::Mod, ReqOp::Add],
            [ReqOp::Del, ReqOp::Add, ReqOp::Mod],
            [ReqOp::Mod, ReqOp::Del, ReqOp::Add],
            [ReqOp::Mod, ReqOp::Add, ReqOp::Del],
            [ReqOp::Add, ReqOp::Del, ReqOp::Mod],
            [ReqOp::Add, ReqOp::Mod, ReqOp::Del],
        ];
        for phases in phase_perms {
            for add_order in [AddOrder::Ascending, AddOrder::Descending] {
                let order_name = match add_order {
                    AddOrder::Ascending => "ASCEND",
                    AddOrder::Descending => "DESCEND",
                };
                let name = format!(
                    "{}_{}_{}_ADD",
                    phases[0].label().to_uppercase(),
                    phases[1].label().to_uppercase(),
                    order_name
                );
                out.push(SchedPattern {
                    name,
                    phases,
                    add_order,
                });
            }
        }
        out
    }

    /// Reorders an independent set according to the pattern, grouping
    /// per switch so each switch receives its ops in pattern order.
    #[must_use]
    pub fn apply(&self, dag: &RequestDag, set: &[NodeId]) -> Vec<NodeId> {
        let mut ordered: Vec<NodeId> = Vec::with_capacity(set.len());
        for phase in self.phases {
            let mut phase_nodes: Vec<NodeId> = set
                .iter()
                .copied()
                .filter(|&id| dag.node(id).op == phase)
                .collect();
            if phase == ReqOp::Add {
                match self.add_order {
                    AddOrder::Ascending => {
                        phase_nodes.sort_by_key(|&id| (dag.node(id).effective_priority(), id))
                    }
                    AddOrder::Descending => phase_nodes
                        .sort_by_key(|&id| (u16::MAX - dag.node(id).effective_priority(), id)),
                }
            }
            ordered.extend(phase_nodes);
        }
        ordered
    }
}

/// Per-switch operation counts of an independent set.
fn op_counts(dag: &RequestDag, set: &[NodeId]) -> Vec<(Dpid, [usize; 3])> {
    let mut map: std::collections::BTreeMap<u64, [usize; 3]> = std::collections::BTreeMap::new();
    for &id in set {
        let r = dag.node(id);
        let slot = match r.op {
            ReqOp::Add => 0,
            ReqOp::Mod => 1,
            ReqOp::Del => 2,
        };
        map.entry(r.location.0).or_default()[slot] += 1;
    }
    map.into_iter().map(|(d, c)| (Dpid(d), c)).collect()
}

/// Scores a pattern for an independent set (higher = cheaper). The cost
/// model uses each switch's measured latency profile: deletes and mods
/// are linear; adds are linear for ascending order and quadratic (TCAM
/// shifting) for descending.
#[must_use]
pub fn pattern_score(db: &TangoDb, dag: &RequestDag, set: &[NodeId], p: &SchedPattern) -> f64 {
    let mut cost_ms = 0.0;
    for (dpid, [adds, mods, dels]) in op_counts(dag, set) {
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
        let add_pos = p.phases.iter().position(|&x| x == ReqOp::Add).expect("add");
        let del_pos = p.phases.iter().position(|&x| x == ReqOp::Del).expect("del");
        if add_pos < del_pos {
            cost_ms += lp.shift_us / 1000.0 * a * dels as f64;
        }
    }
    -cost_ms
}

/// Algorithm 3's *printed* pattern scores, with the paper's literal
/// weights: `−(10·|DEL| + 1·|MOD| + w·|ADD|²)` where `w = 20` for the
/// ascending-add pattern and `w = 40` for descending. Reproduces the §6
/// worked example exactly (Fig 7's independent set {A, E, H, I} scores
/// −91 under pattern 1 and −171 under pattern 2); the measured-weights
/// [`pattern_score`] is what the production oracle uses.
#[must_use]
pub fn pattern_score_paper_weights(dag: &RequestDag, set: &[NodeId], add_order: AddOrder) -> f64 {
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

/// The ordering oracle of Algorithm 3: scores every pattern and returns
/// the independent set reordered by the best one (plus its name for
/// diagnostics).
#[must_use]
pub fn ordering_tango_oracle(
    db: &TangoDb,
    dag: &RequestDag,
    set: &[NodeId],
) -> (Vec<NodeId>, String) {
    let mut best: Option<(f64, SchedPattern)> = None;
    for p in SchedPattern::standard_set() {
        let score = pattern_score(db, dag, set, &p);
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, p));
        }
    }
    let (_, pattern) = best.expect("standard set is non-empty");
    (pattern.apply(dag, set), pattern.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqElem;
    use ofwire::flow_match::FlowMatch;

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

    #[test]
    fn standard_set_has_twelve_distinct_patterns() {
        let set = SchedPattern::standard_set();
        assert_eq!(set.len(), 12);
        let mut names: Vec<&str> = set.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn apply_orders_phases_and_add_priorities() {
        let (dag, ids) = mixed_dag();
        let p = SchedPattern {
            name: "DEL_MOD_ASCEND_ADD".into(),
            phases: [ReqOp::Del, ReqOp::Mod, ReqOp::Add],
            add_order: AddOrder::Ascending,
        };
        let ordered = p.apply(&dag, &ids);
        // del (id 3), mod (id 2), adds ascending priority: 10, 20, 30.
        assert_eq!(ordered, vec![ids[3], ids[2], ids[1], ids[4], ids[0]]);
        let desc = SchedPattern {
            add_order: AddOrder::Descending,
            ..p
        };
        let ordered = desc.apply(&dag, &ids);
        assert_eq!(&ordered[2..], &[ids[0], ids[4], ids[1]]);
    }

    #[test]
    fn oracle_picks_del_first_ascending_for_hardware() {
        // The default (conservative, shift-sensitive) latency profile
        // must steer the oracle to deletes-before-adds with ascending
        // add order.
        let db = TangoDb::new();
        let (dag, ids) = mixed_dag();
        let (ordered, name) = ordering_tango_oracle(&db, &dag, &ids);
        assert!(name.contains("ASCEND"), "chose {name}");
        // The delete comes before every add.
        let del_pos = ordered.iter().position(|&i| i == ids[3]).unwrap();
        for add in [ids[0], ids[1], ids[4]] {
            let add_pos = ordered.iter().position(|&i| i == add).unwrap();
            assert!(del_pos < add_pos, "delete must precede adds ({name})");
        }
    }

    #[test]
    fn scores_penalize_descending_adds() {
        let db = TangoDb::new();
        let (dag, ids) = mixed_dag();
        let asc = SchedPattern {
            name: "a".into(),
            phases: [ReqOp::Del, ReqOp::Mod, ReqOp::Add],
            add_order: AddOrder::Ascending,
        };
        let desc = SchedPattern {
            name: "d".into(),
            add_order: AddOrder::Descending,
            ..asc.clone()
        };
        assert!(pattern_score(&db, &dag, &ids, &asc) > pattern_score(&db, &dag, &ids, &desc));
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
}

#[cfg(test)]
mod paper_example_tests {
    use super::*;
    use crate::dag::RequestDag;
    use crate::request::ReqOp;

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
