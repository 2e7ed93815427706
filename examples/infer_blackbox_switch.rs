//! Black-box switch identification: given a line-up of unlabeled
//! switches, use only Tango probes to figure out which vendor profile
//! each one is.
//!
//! ```sh
//! cargo run --release --example infer_blackbox_switch
//! ```
//!
//! This is the paper's "understanding challenge" in miniature: the
//! probes never look inside a switch; they only send standard OpenFlow
//! commands and data packets, yet recover table sizes, width modes, and
//! caching behaviour that the switches' own feature reports don't carry.

use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::infer_size::SizeEstimate;
use tango::prelude::*;

/// Probes one switch with rules of one kind, then clears it.
fn probe_kind(tb: &mut Testbed, dpid: Dpid, kind: RuleKind, cap: usize) -> SizeEstimate {
    let cfg = SizeProbeConfig {
        max_flows: cap,
        trials_per_level: 64,
        ..SizeProbeConfig::default()
    };
    tb.flow_mod(dpid, FlowMod::delete_all());
    let est = run_driver(tb, dpid, SizeDriver::new(kind, cfg)).expect("size probe completes");
    tb.flow_mod(dpid, FlowMod::delete_all());
    est
}

/// Classifies a switch from two probes (narrow L3-only rules vs wide
/// L2+L3 rules).
fn classify(narrow: &SizeEstimate, wide: &SizeEstimate) -> String {
    match (narrow.hit_rejection, narrow.levels.len()) {
        (false, 0 | 1) => "software switch: no bounded table, single fast tier → OVS-like".into(),
        (false, _) => {
            let fast = narrow.fast_layer_size().unwrap_or(0.0);
            format!("TCAM (+~{fast:.0} entries) over unbounded software spill → Switch #1-like")
        }
        (true, _) => {
            let n = narrow.m;
            let w = wide.m;
            if n == w {
                format!("TCAM-only, fixed double-wide ({n} entries) → Switch #2-like")
            } else if w * 2 <= n + 2 {
                format!("TCAM-only, adaptive width ({n} narrow / {w} wide) → Switch #3-like")
            } else {
                format!("TCAM-only, width-sensitive ({n}/{w})")
            }
        }
    }
}

fn main() {
    // The line-up, deliberately shuffled and unlabeled.
    let lineup: Vec<(&str, SwitchProfile)> = vec![
        ("mystery A", SwitchProfile::vendor3()),
        ("mystery B", SwitchProfile::ovs()),
        ("mystery C", SwitchProfile::vendor2()),
        ("mystery D", SwitchProfile::vendor1()),
    ];

    let mut tb = Testbed::new(7);
    let dpids: Vec<Dpid> = lineup
        .iter()
        .enumerate()
        .map(|(i, (_, p))| {
            let d = Dpid(i as u64 + 1);
            tb.attach_default(d, p.clone());
            d
        })
        .collect();

    for ((name, truth), &dpid) in lineup.iter().zip(&dpids) {
        println!("── {name} ──");

        // What does the switch *claim*? (Often wrong or vacuous.)
        let reported = tb.switch(dpid).features_reply(4);
        println!("  claims:   {} table(s)", reported.n_tables);

        // What do measurements say?
        // Cap well above the largest plausible TCAM so spill tiers
        // (Switch #1's software table) become clearly populated.
        let narrow = probe_kind(&mut tb, dpid, RuleKind::L3, 6000);
        let wide = probe_kind(&mut tb, dpid, RuleKind::L2L3, 6000);
        println!(
            "  measured: narrow m={} (rejected={}), wide m={}, tiers={}",
            narrow.m,
            narrow.hit_rejection,
            wide.m,
            narrow.levels.len()
        );
        println!("  verdict:  {}", classify(&narrow, &wide));
        println!("  (actually: {})\n", truth.name);
    }
}
