//! Fleet-scale adaptive inference is bit-identical to sequential
//! probing, across the full diversity of switch implementations.
//!
//! One testbed holds all four vendor profiles; `fleet::run_inference`
//! characterizes them concurrently over the shared control path. A
//! second, identically-seeded testbed runs the same probes one switch
//! at a time, each driver alone through `run_driver`. Every field of every
//! result — estimated sizes, RTT cluster centers, per-round policy
//! correlations — must be exactly equal, and the fleet run must finish
//! in well under the sequential wall-clock time.

use ofwire::types::Dpid;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::driver::run_driver;
use tango::fleet::{run_inference, FleetJob};
use tango::infer_policy::{PolicyDriver, PolicyProbeConfig};
use tango::infer_size::{SizeDriver, SizeProbeConfig};
use tango::online::HeadroomDriver;
use tango::pattern::RuleKind;

/// All four profiles on one testbed, deterministically seeded.
fn testbed() -> Testbed {
    let mut tb = Testbed::new(0xf1ee7);
    tb.attach_default(Dpid(1), SwitchProfile::ovs());
    tb.attach_default(Dpid(2), SwitchProfile::vendor1());
    tb.attach_default(Dpid(3), SwitchProfile::vendor2());
    tb.attach_default(Dpid(4), SwitchProfile::vendor3());
    tb
}

const DPIDS: [Dpid; 4] = [Dpid(1), Dpid(2), Dpid(3), Dpid(4)];

fn size_config(dpid: Dpid) -> SizeProbeConfig {
    SizeProbeConfig {
        // Big enough to bound every vendor TCAM, small enough for a
        // debug-profile test (OVS never rejects, so its probe stops at
        // the cap).
        max_flows: 3000,
        trials_per_level: 48,
        seed: 0x5eed ^ dpid.0,
        ..SizeProbeConfig::default()
    }
}

#[test]
fn fleet_size_inference_matches_sequential_field_for_field() {
    // Sequential: each switch probed to completion before the next.
    let mut seq_tb = testbed();
    let seq_start = seq_tb.now();
    let seq: Vec<_> = DPIDS
        .iter()
        .map(|&d| {
            run_driver(
                &mut seq_tb,
                d,
                SizeDriver::new(RuleKind::L3, size_config(d)),
            )
            .expect("sequential size probe")
        })
        .collect();
    let seq_elapsed = seq_tb.now().since(seq_start);

    // Fleet: all four interleaved over one control path.
    let mut fleet_tb = testbed();
    let fleet_start = fleet_tb.now();
    let jobs: Vec<FleetJob> = DPIDS
        .iter()
        .map(|&d| FleetJob::size(d, RuleKind::L3, size_config(d)))
        .collect();
    let outcomes = run_inference(&mut fleet_tb, &jobs).expect("fleet size inference");
    let fleet_elapsed = fleet_tb.now().since(fleet_start);

    for ((&dpid, sequential), outcome) in DPIDS.iter().zip(&seq).zip(&outcomes) {
        let fleet = outcome.as_size().expect("size outcome");
        assert_eq!(
            fleet, sequential,
            "fleet and sequential size estimates diverge for {dpid}"
        );
        // Both testbeds hold the same post-probe rule state.
        assert_eq!(
            fleet_tb.switch(dpid).rule_count(),
            seq_tb.switch(dpid).rule_count()
        );
    }
    // The headline vendor numbers still come out exactly.
    assert_eq!(outcomes[2].as_size().unwrap().m, 2560, "Switch #2 TCAM");
    assert_eq!(outcomes[3].as_size().unwrap().m, 767, "Switch #3 TCAM");

    // And the interleaving actually buys wall-clock time. (The bound is
    // loose because one slow switch dominates the fleet: its probe alone
    // is ~2/3 of the sequential sum.)
    assert!(
        fleet_elapsed.as_millis_f64() < 0.8 * seq_elapsed.as_millis_f64(),
        "fleet {fleet_elapsed} vs sequential {seq_elapsed}"
    );
}

#[test]
fn fleet_mixed_inference_matches_sequential_field_for_field() {
    // A heterogeneous fleet: policy inference on two cached switches,
    // size on one, headroom on one — still bit-identical per switch.
    let policy_cfg = PolicyProbeConfig::default();
    let mut seq_tb = testbed();
    let size = SizeDriver::new(RuleKind::L3, size_config(Dpid(2)));
    let seq_size = run_driver(&mut seq_tb, Dpid(2), size).expect("sequential size probe");
    let policy = |cache| PolicyDriver::new(RuleKind::L3, cache, policy_cfg);
    let seq_pol3 = run_driver(&mut seq_tb, Dpid(3), policy(128)).expect("sequential policy");
    let seq_pol4 = run_driver(&mut seq_tb, Dpid(4), policy(96)).expect("sequential policy");
    let headroom = HeadroomDriver::new(RuleKind::L3, 1, 512);
    let seq_head = run_driver(&mut seq_tb, Dpid(1), headroom).expect("sequential headroom");

    let mut fleet_tb = testbed();
    let jobs = vec![
        FleetJob::size(Dpid(2), RuleKind::L3, size_config(Dpid(2))),
        FleetJob::policy(Dpid(3), RuleKind::L3, 128, policy_cfg),
        FleetJob::policy(Dpid(4), RuleKind::L3, 96, policy_cfg),
        FleetJob::headroom(Dpid(1), RuleKind::L3, 1, 512),
    ];
    let outcomes = run_inference(&mut fleet_tb, &jobs).expect("fleet mixed inference");

    assert_eq!(outcomes[0].as_size().expect("size outcome"), &seq_size);
    assert_eq!(outcomes[1].as_policy().expect("policy outcome"), &seq_pol3);
    assert_eq!(outcomes[2].as_policy().expect("policy outcome"), &seq_pol4);
    assert_eq!(
        outcomes[3].as_headroom().expect("headroom outcome"),
        &seq_head
    );
}
