//! Fleet-scale inference: run full Algorithm 1 size inference against
//! every switch in a network at once, then persist the knowledge base.
//!
//! ```sh
//! cargo run --release --example fleet_inference
//! ```
//!
//! Where `concurrent_inference` interleaves fixed pattern programs,
//! this example interleaves *adaptive* pipelines: each switch's driver
//! decides its next probe from its own completions, so the four vendor
//! probes genuinely branch differently — and still come out
//! bit-identical to a sequential run, in the wall-clock (virtual) time
//! of roughly the slowest switch alone. The resulting estimates are
//! folded into a `TangoDb` and saved as JSON, the artifact a controller
//! would load on its next boot.

use ofwire::types::Dpid;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::prelude::*;

fn testbed() -> Testbed {
    let mut tb = Testbed::new(0xf1ee7);
    tb.attach_default(Dpid(1), SwitchProfile::ovs());
    tb.attach_default(Dpid(2), SwitchProfile::vendor1());
    tb.attach_default(Dpid(3), SwitchProfile::vendor2());
    tb.attach_default(Dpid(4), SwitchProfile::vendor3());
    tb
}

fn config(dpid: Dpid) -> SizeProbeConfig {
    SizeProbeConfig {
        max_flows: 3000,
        seed: 0x5eed ^ dpid.0,
        ..SizeProbeConfig::default()
    }
}

fn main() {
    let dpids = [Dpid(1), Dpid(2), Dpid(3), Dpid(4)];

    // Sequential baseline: full size inference, one switch at a time.
    let mut seq_tb = testbed();
    let seq_start = seq_tb.now();
    let seq: Vec<SizeEstimate> = dpids
        .iter()
        .map(|&d| {
            run_driver(&mut seq_tb, d, |p| size_probe(p, RuleKind::L3, config(d)))
                .expect("sequential probe completes")
        })
        .collect();
    let seq_elapsed = seq_tb.now().since(seq_start);

    // Fleet: the same four inferences interleaved over one control path.
    let mut fleet_tb = testbed();
    let fleet_start = fleet_tb.now();
    let jobs: Vec<FleetJob> = dpids
        .iter()
        .map(|&d| FleetJob::size(d, RuleKind::L3, config(d)))
        .collect();
    let outcomes = run_inference(&mut fleet_tb, &jobs).expect("fleet inference completes");
    let fleet_elapsed = fleet_tb.now().since(fleet_start);

    println!("switch        fast layer    rules   packets");
    println!("-------------------------------------------");
    for (d, o) in dpids.iter().zip(&outcomes) {
        let est = o.as_size().expect("size outcome");
        println!(
            "{d}   {:>10.1}   {:>6}   {:>7}",
            est.fast_layer_size().unwrap_or(0.0),
            est.m,
            est.packets_sent
        );
    }

    let identical = dpids
        .iter()
        .zip(&seq)
        .zip(&outcomes)
        .all(|((_, s), o)| o.as_size() == Some(s));
    println!();
    println!("sequential total: {seq_elapsed}");
    println!("fleet total:      {fleet_elapsed}");
    println!(
        "overlap saving:   {:.0}%",
        100.0 * (1.0 - fleet_elapsed.as_millis_f64() / seq_elapsed.as_millis_f64())
    );
    println!("estimates identical to sequential: {identical}");

    // Persist the knowledge base where a controller would reload it.
    let mut db = TangoDb::new();
    db.ingest_fleet(&jobs, &outcomes);
    let path = std::env::temp_dir().join("tango_fleet_db.json");
    db.save_json(&path).expect("save knowledge db");
    let reloaded = TangoDb::load_json(&path).expect("reload knowledge db");
    println!(
        "knowledge db: {} switches saved to {} (round-trips: {})",
        dpids.len(),
        path.display(),
        reloaded.to_json() == db.to_json()
    );
}
