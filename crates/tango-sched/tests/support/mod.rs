//! The add-only sweep-shaped world `benches/scheduler.rs` dispatches and
//! `tests/alloc_budget.rs` counts allocations over (both include this
//! file by path, so the gate and the bench cannot drift apart).

use ofwire::flow_match::FlowMatch;
use ofwire::types::Dpid;
use simnet::rng::DetRng;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango_sched::dag::RequestDag;
use tango_sched::request::ReqElem;

const SWITCHES: u64 = 8;

/// An add-only update DAG shaped like the sweep workload: depth-6
/// chains over 8 switches with occasional cross-chain joins.
pub fn build_dag(ops: usize) -> RequestDag {
    let mut rng = DetRng::new(0xBE7C);
    let mut dag = RequestDag::new();
    let mut ids = Vec::with_capacity(ops);
    for i in 0..ops {
        let dpid = Dpid(rng.index(SWITCHES as usize) as u64 + 1);
        let prio = 1000 + rng.index(2000) as u16;
        let id = dag.add_node(ReqElem::add(dpid, FlowMatch::l3_for_id(i as u32), prio, 1));
        if i % 6 != 0 {
            dag.add_dep(ids[i - 1], id);
        }
        if i > 0 && rng.chance(0.03) {
            let from = rng.index(i);
            if from != i - 1 {
                dag.add_dep(ids[from], id);
            }
        }
        ids.push(id);
    }
    dag
}

/// Eight OVS switches on one testbed.
pub fn testbed() -> Testbed {
    let mut tb = Testbed::new(0x5EED);
    for d in 1..=SWITCHES {
        tb.attach_default(Dpid(d), SwitchProfile::ovs());
    }
    tb
}
