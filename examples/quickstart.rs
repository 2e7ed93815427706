//! Quickstart: probe a simulated hardware switch and print what Tango
//! learns about it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the full Tango loop on one switch: size inference
//! (Algorithm 1), cache-policy inference (Algorithm 2), and latency-curve
//! measurement — then stores everything in the TangoDB.

use ofwire::types::Dpid;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::prelude::*;

fn main() {
    // A testbed with one black-box switch. Swap in `vendor2()`,
    // `vendor3()`, `ovs()`, or `generic_cached(..)` to see how the same
    // probes adapt to different implementations.
    let mut tb = Testbed::new(42);
    let dpid = Dpid(1);
    tb.attach_default(
        dpid,
        SwitchProfile::generic_cached(512, switchsim::cache::CachePolicy::lru()),
    );

    println!("probing switch {dpid} …\n");

    // --- Algorithm 1: flow-table layer sizes -------------------------
    let size_cfg = SizeProbeConfig {
        max_flows: 1024,
        ..SizeProbeConfig::default()
    };
    let size = run_driver(&mut tb, dpid, SizeDriver::new(RuleKind::L3, size_cfg))
        .expect("size probe completes");
    println!("layers detected: {}", size.levels.len());
    for (i, l) in size.levels.iter().enumerate() {
        println!(
            "  layer {i}: ~{:.0} rules (RTT cluster at {:.2} ms{})",
            l.estimated_size,
            l.rtt_ms,
            if l.saturated { ", saturated" } else { "" }
        );
    }
    println!(
        "  probing cost: {} rule installs in {} batches, {} packets\n",
        size.rules_attempted, size.batches, size.packets_sent
    );

    // --- Algorithm 2: cache-replacement policy -----------------------
    let fast_layer = size.fast_layer_size().unwrap_or(0.0).round() as usize;
    let policy_driver = PolicyDriver::new(RuleKind::L3, fast_layer, PolicyProbeConfig::default());
    let policy = run_driver(&mut tb, dpid, policy_driver).expect("policy probe completes");
    println!("inferred cache policy: {}", policy.as_policy().describe());
    for (i, round) in policy.rounds.iter().enumerate() {
        let best = round
            .correlations
            .iter()
            .map(|(a, r)| format!("{a}:{r:+.2}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!("  round {i}: correlations [{best}]");
    }

    // --- Latency curves ----------------------------------------------
    let curves = measure_latency_profile(&mut tb, dpid, RuleKind::L3, 400)
        .expect("latency profile completes");
    println!("\nper-op latency profile (n = 400):");
    println!("  add (ascending):  {:.3} ms", curves.add_asc_ms);
    println!("  add (descending): {:.3} ms", curves.add_desc_ms);
    println!("  add (random):     {:.3} ms", curves.add_rand_ms);
    println!("  modify:           {:.3} ms", curves.mod_ms);
    println!("  delete:           {:.3} ms", curves.del_ms);
    println!(
        "  fitted shift cost: {:.1} µs/entry ({})",
        curves.shift_us,
        if curves.priority_sensitive() {
            "priority-sensitive: install ascending!"
        } else {
            "priority-insensitive"
        }
    );

    // --- Everything lands in the TangoDB ------------------------------
    let mut db = TangoDb::new();
    let k = db.switch_mut(dpid);
    k.label = "quickstart switch".into();
    k.size = Some(size);
    k.policy = Some(policy);
    k.latency = Some(curves);
    println!(
        "\nTangoDB now knows {} switch(es); fast-layer estimate {:?}",
        db.dpids().len(),
        db.switch(dpid).and_then(|k| k.fast_layer_size())
    );
}
