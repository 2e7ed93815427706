//! Network-wide update scheduling: run the paper's link-failure and
//! traffic-engineering scenarios on the three-switch hardware testbed
//! and compare Dionysus with Tango.
//!
//! ```sh
//! cargo run --release --example network_update
//! ```

use bench::lower::{attach_triangle, lower_scenario};
use tango::db::TangoDb;
use tango_sched::schedulers::resolve;
use workloads::scenarios::{link_failure, traffic_engineering, Scenario};
use workloads::topology::Topology;

/// Runs `scen` under the registry scheduler `which`.
fn lower_and_run(scen: &Scenario, which: &str, seed: u64) -> f64 {
    // Build the testbed fresh per run so every arm sees identical
    // initial switch state.
    let mut tb = switchsim::harness::Testbed::new(seed);
    let dpids = attach_triangle(&mut tb);
    let mut dag = lower_scenario(&mut tb, &dpids, scen);
    let report = resolve(which)
        .expect("registered scheduler")
        .run(&mut tb, &mut dag, &TangoDb::new())
        .expect("generated scenarios are acyclic");
    assert_eq!(report.failed, 0);
    report.makespan.as_secs_f64()
}

fn main() {
    let topo = Topology::triangle();
    let scenarios = [
        link_failure(&topo, (0, 1), 400, 0x10),
        traffic_engineering(&topo, "TE 1", 800, (2, 1, 1), 1, false, 0x11),
        traffic_engineering(&topo, "TE 2", 800, (1, 1, 1), 1, false, 0x12),
    ];

    println!("scenario   Dionysus   Tango(Type)  Tango(Type+Prio)  improvement");
    println!("--------------------------------------------------------------------");
    for (i, scen) in scenarios.iter().enumerate() {
        let seed = 0xeaa + i as u64;
        let dio = lower_and_run(scen, "dionysus", seed);
        let t_type = lower_and_run(scen, "tango-type", seed);
        let t_full = lower_and_run(scen, "tango", seed);
        let (adds, mods, dels) = scen.op_counts();
        println!(
            "{:<9}  {:>7.3} s  {:>9.3} s  {:>14.3} s  {:>5.1}%   (ops: {adds}a/{mods}m/{dels}d)",
            scen.name,
            dio,
            t_type,
            t_full,
            (1.0 - t_full / dio) * 100.0,
        );
    }
    println!(
        "\nThe LF scenario leaves no room for rule-type reordering (one op\n\
         class per switch — the paper's footnote 3), so Tango's win there\n\
         comes entirely from ascending-priority add ordering."
    );
}
