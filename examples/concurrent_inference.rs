//! Concurrent multi-switch inference: probe several switches on one
//! testbed, interleaved in virtual time.
//!
//! ```sh
//! cargo run --release --example concurrent_inference
//! ```
//!
//! Every switch runs the same Tango pattern. Sequentially the probe
//! times add up; through the shared control path the runs
//! overlap, so the wall-clock (virtual) cost is close to the slowest
//! switch alone — while each switch's measurements stay bit-identical
//! to what a sequential run would have produced, because its latency
//! jitter comes from its own RNG stream.

use ofwire::types::Dpid;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::pattern::{PriorityOrder, RuleKind, TangoPattern};
use tango::prelude::*;

fn testbed() -> Testbed {
    let mut tb = Testbed::new(0xda7c);
    tb.attach_default(Dpid(1), SwitchProfile::vendor1());
    tb.attach_default(Dpid(2), SwitchProfile::vendor2());
    tb.attach_default(Dpid(3), SwitchProfile::vendor3());
    tb
}

fn main() {
    let pattern = TangoPattern::priority_insertion(300, PriorityOrder::Ascending, RuleKind::L3);
    let dpids = [Dpid(1), Dpid(2), Dpid(3)];

    // Sequential baseline: one switch after the other.
    let mut seq_tb = testbed();
    let seq_start = seq_tb.now();
    let seq: Vec<PatternResult> = dpids
        .iter()
        .map(|&d| {
            run_driver(&mut seq_tb, d, PatternDriver::for_pattern(&pattern))
                .expect("sequential run completes")
        })
        .collect();
    let seq_elapsed = seq_tb.now().since(seq_start);

    // Concurrent: all three programs interleaved on one testbed.
    let mut con_tb = testbed();
    let con_start = con_tb.now();
    let jobs: Vec<FleetJob> = dpids
        .iter()
        .map(|&d| FleetJob::pattern(d, pattern.clone()))
        .collect();
    let con: Vec<PatternResult> = run_inference(&mut con_tb, &jobs)
        .expect("concurrent run completes")
        .iter()
        .map(|o| o.as_pattern().expect("pattern job").clone())
        .collect();
    let con_elapsed = con_tb.all_quiet_at().since(con_start);

    println!("switch                   install time   rules");
    println!("---------------------------------------------");
    for (d, r) in dpids.iter().zip(&con) {
        let installed = con_tb.switch(*d).rule_count();
        println!(
            "{d}   {:>12}   {installed:>5}",
            format!("{}", r.install_time())
        );
    }

    let identical = seq == con;
    println!();
    println!("sequential total: {seq_elapsed}");
    println!("concurrent total: {con_elapsed}");
    println!(
        "overlap saving:   {:.0}%",
        100.0 * (1.0 - con_elapsed.as_millis_f64() / seq_elapsed.as_millis_f64())
    );
    println!("measurements identical to sequential: {identical}");
}
