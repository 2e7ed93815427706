//! Pins the online dispatcher's exact behaviour on the benchmark's own
//! world at a tenth of its size: `UpdateDagConfig::sweep(10_000)`
//! lowered onto eight OVS switches, dispatched under every registry
//! entry. The constants were recorded from the B-tree dispatcher this
//! one replaced, before the executor was touched: the issue order (as
//! an FNV-1a hash), the makespan and the flowtime must not move by a
//! nanosecond.

use bench::lower::lower_scenario;
use ofwire::types::Dpid;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::db::TangoDb;
use tango_sched::dag::NodeId;
use tango_sched::schedulers::registry;
use workloads::update_dag::{scaled_update_dag, UpdateDagConfig};

const OPS: usize = 10_000;

fn fnv1a(ids: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        for b in (id.0 as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// (name, FNV of `issued`, makespan ns, flowtime ns).
const GOLDEN: [(&str, u64, u64, u64); 6] = [
    ("dionysus", 2497632087366429413, 202369749, 966678053675),
    ("tango", 17946810509674569189, 202399374, 965603006830),
    ("tango-type", 3283229879053616901, 202399374, 965605846085),
    ("heft", 4447176881758047533, 202381208, 966559584020),
    ("dls", 13588287691493490917, 202385100, 966667419108),
    ("lookahead", 12072313247900140501, 202370396, 966750556463),
];

#[test]
fn every_registry_entry_dispatches_the_sweep_world_as_recorded() {
    let cfg = UpdateDagConfig::sweep(OPS);
    let scen = scaled_update_dag(&cfg);
    let mut world = Testbed::new(0x5EED);
    let dpids: Vec<Dpid> = (1..=cfg.switches as u64).map(Dpid).collect();
    for &dpid in &dpids {
        world.attach_default(dpid, SwitchProfile::ovs());
    }
    let dag = lower_scenario(&mut world, &dpids, &scen);
    let entries = registry();
    assert_eq!(entries.len(), GOLDEN.len());
    for (entry, golden) in entries.iter().zip(GOLDEN) {
        let report = entry
            .run(&mut world.clone(), &mut dag.clone(), &TangoDb::new())
            .expect("sweep DAGs are acyclic");
        assert_eq!(
            (report.completed, report.failed),
            (OPS, 0),
            "{}",
            entry.name
        );
        let got = (
            entry.name,
            fnv1a(&report.issued),
            report.makespan.0,
            report.flowtime.0,
        );
        assert_eq!(got, golden, "{}", entry.name);
    }
}
