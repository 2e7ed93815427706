//! Both dispatchers are deterministic: same RNG seed, same workload ⇒
//! bit-identical `ExecReport` across repeated runs — for round-barrier
//! execution and for every registry scheduler.

use ofwire::flow_match::FlowMatch;
use ofwire::types::Dpid;
use simnet::rng::DetRng;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::db::TangoDb;
use tango_sched::dag::{NodeId, RequestDag};
use tango_sched::executor::{execute_rounds, Batching};
use tango_sched::request::ReqElem;
use tango_sched::schedulers::registry;

const SEED: u64 = 0x5eed;

fn testbed() -> Testbed {
    let mut tb = Testbed::new(SEED);
    tb.attach_default(Dpid(1), SwitchProfile::vendor1());
    tb.attach_default(Dpid(2), SwitchProfile::vendor2());
    tb
}

/// A mixed workload: shuffled-priority adds over two switches with a
/// sprinkling of chain dependencies.
fn workload() -> RequestDag {
    let mut dag = RequestDag::new();
    let mut rng = DetRng::new(SEED);
    let ids: Vec<NodeId> = (0..120u32)
        .map(|i| {
            let dpid = if rng.chance(0.5) { Dpid(1) } else { Dpid(2) };
            dag.add_node(ReqElem::add(
                dpid,
                FlowMatch::l3_for_id(i),
                1000 + rng.index(500) as u16,
                1,
            ))
        })
        .collect();
    for j in 1..ids.len() {
        if rng.chance(0.3) {
            let i = rng.index(j);
            dag.add_dep(ids[i], ids[j]);
        }
    }
    dag
}

#[test]
fn round_barrier_execution_is_replayable() {
    let run = || {
        execute_rounds(
            &mut testbed(),
            &mut workload(),
            &TangoDb::new(),
            Batching::Greedy,
        )
        .unwrap()
    };
    let first = run();
    assert_eq!(first, run());
    assert_eq!(first.completed, 120);
}

#[test]
fn every_registry_scheduler_is_replayable() {
    for entry in registry() {
        let run = || {
            entry
                .run(&mut testbed(), &mut workload(), &TangoDb::new())
                .unwrap()
        };
        let first = run();
        assert_eq!(first, run(), "{}", entry.name);
        assert_eq!(first.completed, 120, "{}", entry.name);
    }
}
