//! Lowering: turning workload [`Scenario`]s into concrete testbeds and
//! request DAGs.

use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango_sched::dag::{NodeId, RequestDag};
use tango_sched::request::ReqElem;
use workloads::scenarios::{ScenOp, Scenario};
use workloads::topology::Topology;

/// The paper's hardware testbed: s1, s2 from Vendor #1 and s3 from
/// Vendor #3, fully connected. Returns the testbed and the dpids in
/// topology-node order.
#[must_use]
pub fn triangle_testbed(seed: u64) -> (Testbed, Vec<Dpid>) {
    let mut tb = Testbed::new(seed);
    let dpids = attach_triangle(&mut tb);
    (tb, dpids)
}

/// Attaches the triangle's three switches to an existing testbed.
pub fn attach_triangle(tb: &mut Testbed) -> Vec<Dpid> {
    let profiles = [
        SwitchProfile::vendor1(),
        SwitchProfile::vendor1(),
        SwitchProfile::vendor3(),
    ];
    profiles
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let dpid = Dpid(i as u64 + 1);
            tb.attach_default(dpid, p);
            dpid
        })
        .collect()
}

/// A B4-shaped testbed: one OVS switch per site (the Mininet setup of
/// Fig 12).
#[must_use]
pub fn b4_testbed(seed: u64) -> (Testbed, Vec<Dpid>) {
    let topo = Topology::b4();
    let mut tb = Testbed::new(seed);
    let dpids: Vec<Dpid> = (0..topo.len())
        .map(|i| {
            let dpid = Dpid(i as u64 + 1);
            tb.attach_default(dpid, SwitchProfile::ovs());
            dpid
        })
        .collect();
    (tb, dpids)
}

/// The concrete match for a scenario flow id.
#[must_use]
pub fn match_for_flow(flow_id: u32) -> FlowMatch {
    FlowMatch::l3_for_id(flow_id)
}

/// Lowers a scenario: preinstalls its required rules on the testbed and
/// builds the request DAG. `dpids[node]` maps topology nodes to
/// switches.
pub fn lower_scenario(tb: &mut Testbed, dpids: &[Dpid], scen: &Scenario) -> RequestDag {
    // Preinstall targets for mods/deletes, grouped per switch for batch
    // efficiency.
    let mut per_switch: std::collections::BTreeMap<Dpid, Vec<FlowMod>> =
        std::collections::BTreeMap::new();
    for &(node, flow, prio) in &scen.preinstall {
        per_switch
            .entry(dpids[node])
            .or_default()
            .push(FlowMod::add(match_for_flow(flow), prio));
    }
    for (dpid, fms) in per_switch {
        let (_, failed, _) = tb.batch(dpid, fms);
        assert_eq!(failed, 0, "preinstall must fit the tables");
    }

    // Built in bulk: one write to the shared shape for all the requests
    // and one for all the edges.
    let mut dag = RequestDag::new();
    dag.add_nodes(scen.requests.iter().map(|r| {
        let dpid = dpids[r.node];
        let m = match_for_flow(r.flow_id);
        match (r.op, r.priority) {
            (ScenOp::Add, Some(p)) => ReqElem::add(dpid, m, p, 1),
            (ScenOp::Add, None) => ReqElem::add(dpid, m, 0, 1).without_priority(),
            (ScenOp::Mod, p) => {
                // Mods/deletes must name the installed rule's
                // priority; when the app left it unset, recover it
                // from the preinstall record.
                let prio = p.unwrap_or_else(|| preinstalled_priority(scen, r.node, r.flow_id));
                ReqElem::modify(dpid, m, prio, 2)
            }
            (ScenOp::Del, p) => {
                let prio = p.unwrap_or_else(|| preinstalled_priority(scen, r.node, r.flow_id));
                ReqElem::delete(dpid, m, prio)
            }
        }
    }));
    dag.add_deps(scen.deps.iter().map(|&(b, a)| (NodeId(b), NodeId(a))));
    dag
}

fn preinstalled_priority(scen: &Scenario, node: usize, flow: u32) -> u16 {
    scen.preinstall
        .iter()
        .find(|&&(n, f, _)| n == node && f == flow)
        .map(|&(_, _, p)| p)
        .expect("mod/del target must be preinstalled")
}

/// Fig 11's "priority enforcement": requests submitted without
/// priorities get Tango-chosen ones — the DAG level index — so that
/// requests installable together share one priority (cheapest on
/// shift-sensitive hardware) while dependency order is preserved.
///
/// The enforced range sits *above* any plausibly-resident rule priority
/// (Tango can read the table's current maximum from flow stats), so the
/// new adds never shift existing entries either. Panics past level
/// 15 535, where `50_000 + level` no longer fits a priority.
pub fn enforce_dag_priorities(dag: &mut RequestDag) {
    let order = dag.topo_order().expect("acyclic");
    // Level = longest path from any root.
    let mut level = vec![0u32; dag.len()];
    for &id in &order {
        let l = level[id.0];
        for &s in dag.successors(id) {
            level[s.0] = level[s.0].max(l + 1);
        }
    }
    for id in order {
        if dag.node(id).priority.is_none() {
            let prio = u16::try_from(50_000 + level[id.0])
                .expect("DAG deeper than 15 535 levels: priority 50 000 + level overflows");
            dag.node_mut(id).priority = Some(prio);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::scenarios::{link_failure, traffic_engineering};
    use workloads::topology::Topology;

    #[test]
    fn lf_lowering_preinstalls_and_builds_dag() {
        let (mut tb, dpids) = triangle_testbed(1);
        let scen = link_failure(&Topology::triangle(), (0, 1), 50, 2);
        let dag = lower_scenario(&mut tb, &dpids, &scen);
        assert_eq!(dag.len(), 100); // 50 adds + 50 mods
        assert!(dag.validate_acyclic());
        // The mod targets exist on s2 (footnote 3's shape).
        assert_eq!(tb.switch(dpids[1]).rule_count(), 50);
    }

    #[test]
    fn enforcement_fills_unset_priorities_by_level() {
        let topo = Topology::triangle();
        let scen = traffic_engineering(&topo, "TE", 40, (1, 0, 0), 2, true, 5);
        let (mut tb, dpids) = triangle_testbed(3);
        let mut dag = lower_scenario(&mut tb, &dpids, &scen);
        enforce_dag_priorities(&mut dag);
        let mut prios = std::collections::BTreeSet::new();
        for id in dag.node_ids() {
            let p = dag.node(id).priority.expect("enforced");
            prios.insert(p);
        }
        // Two DAG levels → exactly two distinct priorities.
        assert_eq!(prios.len(), 2);
        // Dependencies get increasing priorities (install earlier =
        // lower level = lower priority value = ascending-friendly).
        for id in dag.node_ids() {
            for &s in dag.successors(id) {
                assert!(dag.node(s).priority.unwrap() > dag.node(id).priority.unwrap());
            }
        }
    }

    /// A chain `n` requests long, none with a priority.
    fn unprioritised_chain(n: usize) -> RequestDag {
        let mut dag = RequestDag::new();
        let mut prev = None;
        for i in 0..n {
            let req = ReqElem::add(Dpid(1), match_for_flow(i as u32), 0, 1).without_priority();
            let id = dag.add_node(req);
            if let Some(p) = prev {
                dag.add_dep(p, id);
            }
            prev = Some(id);
        }
        dag
    }

    #[test]
    fn enforcement_reaches_the_top_of_the_priority_range() {
        let mut dag = unprioritised_chain(15_536);
        enforce_dag_priorities(&mut dag);
        assert_eq!(dag.node(NodeId(0)).priority, Some(50_000));
        assert_eq!(dag.node(NodeId(15_535)).priority, Some(u16::MAX));
    }

    /// Level 15 536 would need priority 65 536: a clear panic, not a
    /// debug overflow or a release-mode wrap to 0 that inverts the chain.
    #[test]
    #[should_panic(expected = "DAG deeper than 15 535 levels")]
    fn enforcement_refuses_a_chain_deeper_than_the_priority_range() {
        let mut dag = unprioritised_chain(20_000);
        enforce_dag_priorities(&mut dag);
    }

    #[test]
    fn b4_testbed_has_twelve_switches() {
        let (tb, dpids) = b4_testbed(7);
        assert_eq!(dpids.len(), 12);
        assert_eq!(tb.dpids().len(), 12);
    }
}
