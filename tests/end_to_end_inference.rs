//! Cross-crate integration: the complete Tango inference loop — wire
//! protocol → simulated switch → inference drivers → algorithms → TangoDB —
//! across the full diversity of switch implementations.

use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use switchsim::cache::CachePolicy;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::prelude::*;

/// One full understand-the-switch pass, as a controller would run it.
fn understand(profile: SwitchProfile, max_flows: usize) -> (TangoDb, Dpid) {
    let mut tb = Testbed::new(0xe2e);
    let dpid = Dpid(1);
    tb.attach_default(dpid, profile);
    let mut db = TangoDb::new();

    let size_cfg = SizeProbeConfig {
        max_flows,
        trials_per_level: 300,
        ..SizeProbeConfig::default()
    };
    let size = run_driver(&mut tb, dpid, |p| size_probe(p, RuleKind::L3, size_cfg))
        .expect("size probe completes");
    let fast = size.fast_layer_size().unwrap_or(0.0).round() as usize;
    let policy_cfg = PolicyProbeConfig::default();
    let policy = run_driver(&mut tb, dpid, |p| {
        policy_probe(p, RuleKind::L3, fast, policy_cfg)
    })
    .expect("policy probe completes");
    tb.flow_mod(dpid, FlowMod::delete_all());
    let latency = measure_latency_profile(&mut tb, dpid, RuleKind::L3, 200)
        .expect("latency profile completes");

    let k = db.switch_mut(dpid);
    k.size = Some(size);
    k.policy = Some(policy);
    k.latency = Some(latency);
    (db, dpid)
}

#[test]
fn full_loop_on_fifo_switch() {
    let (db, dpid) = understand(SwitchProfile::generic_cached(300, CachePolicy::fifo()), 600);
    let k = db.switch(dpid).unwrap();
    let fast = k.fast_layer_size().unwrap();
    assert!((fast - 300.0).abs() / 300.0 < 0.05, "fast layer {fast}");
    let policy = k.policy.as_ref().unwrap().as_policy().describe();
    assert_eq!(policy, "insertion_time↓");
    assert!(k.latency.unwrap().priority_sensitive());
}

#[test]
fn full_loop_on_lru_switch() {
    let (db, dpid) = understand(SwitchProfile::generic_cached(250, CachePolicy::lru()), 500);
    let k = db.switch(dpid).unwrap();
    let fast = k.fast_layer_size().unwrap();
    assert!((fast - 250.0).abs() / 250.0 < 0.05, "fast layer {fast}");
    assert_eq!(
        k.policy.as_ref().unwrap().as_policy().describe(),
        "use_time↑"
    );
}

#[test]
fn full_loop_on_tcam_only_switch() {
    let (db, dpid) = understand(SwitchProfile::vendor3(), 2048);
    let k = db.switch(dpid).unwrap();
    // Rejection-bounded: the estimate is exact.
    assert_eq!(k.fast_layer_size(), Some(767.0));
}

#[test]
fn knowledge_drives_placement_decisions() {
    // Probe a hardware-like switch and a software-like switch; the
    // hints API must route latency-critical setup to the software one
    // and throughput traffic to the hardware one (the intro scenario).
    let mut tb = Testbed::new(9);
    let hw = Dpid(1);
    let sw = Dpid(2);
    tb.attach_default(hw, SwitchProfile::vendor2());
    tb.attach_default(sw, SwitchProfile::ovs());

    let mut db = TangoDb::new();
    for dpid in [hw, sw] {
        let size_cfg = SizeProbeConfig {
            max_flows: 512,
            trials_per_level: 32,
            ..SizeProbeConfig::default()
        };
        let size = run_driver(&mut tb, dpid, |p| size_probe(p, RuleKind::L3, size_cfg))
            .expect("size probe completes");
        tb.flow_mod(dpid, FlowMod::delete_all());
        let latency = measure_latency_profile(&mut tb, dpid, RuleKind::L3, 150)
            .expect("latency profile completes");
        let k = db.switch_mut(dpid);
        k.size = Some(size);
        k.latency = Some(latency);
    }

    let fast_setup = advise_placement(&db, &[hw, sw], &AppHint::fast_setup());
    let fast_fwd = advise_placement(&db, &[hw, sw], &AppHint::fast_forwarding());
    assert_eq!(fast_setup, Some(sw), "software switch installs faster");
    assert_eq!(fast_fwd, Some(hw), "hardware forwards faster");
}

#[test]
fn inference_is_deterministic_end_to_end() {
    let run = || {
        let (db, dpid) = understand(
            SwitchProfile::generic_cached(128, CachePolicy::priority_then_lru()),
            256,
        );
        let k = db.switch(dpid).unwrap();
        (
            k.fast_layer_size().unwrap(),
            k.policy.as_ref().unwrap().as_policy().describe(),
        )
    };
    let (s1, p1) = run();
    let (s2, p2) = run();
    assert_eq!(s1, s2);
    assert_eq!(p1, p2);
    assert_eq!(p1, "priority↑,use_time↑");
}
