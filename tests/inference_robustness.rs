//! Robustness of the inference algorithms under adverse conditions:
//! elevated data-path jitter and lossy control channels (the situations
//! a production deployment would face, per the smoltcp-style
//! fault-injection convention).

use ofwire::types::Dpid;
use simnet::dist::Dist;
use simnet::link::Link;
use switchsim::cache::CachePolicy;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::prelude::*;
use tango::stats::relative_error;

/// A FIFO-cached switch whose path delays carry `jitter_frac` relative
/// noise instead of the defaults.
fn noisy_profile(tcam: u64, jitter_frac: f64) -> SwitchProfile {
    let mut p = SwitchProfile::generic_cached(tcam, CachePolicy::fifo());
    p.datapath.levels = p
        .datapath
        .levels
        .iter()
        .map(|d| Dist::jittered(d.mean_ms(), jitter_frac))
        .collect();
    p.datapath.controller = Dist::jittered(p.datapath.controller.mean_ms(), jitter_frac);
    p
}

fn size_error(profile: SwitchProfile, ctrl: Link, tcam: u64, seed: u64) -> f64 {
    let mut tb = Testbed::new(seed);
    let dpid = Dpid(1);
    tb.attach(dpid, profile, ctrl);
    let cfg = SizeProbeConfig {
        max_flows: (tcam * 2) as usize,
        seed,
        ..SizeProbeConfig::default()
    };
    let est = run_driver(&mut tb, dpid, |p| size_probe(p, RuleKind::L3, cfg))
        .expect("size probe completes");
    relative_error(est.fast_layer_size().unwrap_or(0.0), tcam as f64)
}

#[test]
fn size_inference_survives_4x_jitter() {
    // Default fast-path jitter is ~4.5 %; quadruple it. The clusters are
    // still far apart relative to the noise, so accuracy holds.
    let err = size_error(noisy_profile(300, 0.18), Link::control_channel(0.1), 300, 1);
    assert!(err < 0.06, "error {err} under 18% jitter");
}

#[test]
fn size_inference_survives_lossy_control_channel() {
    // 1 % frame loss on the control channel: dropped probe frames are
    // retransmitted after a 5 ms timeout, which lands those RTT samples
    // far outside their true cluster. The runt-merging clusterer and
    // the negative-binomial estimator absorb it.
    let lossy = Link::control_channel(0.1).with_drop_chance(0.01);
    let err = size_error(
        SwitchProfile::generic_cached(300, CachePolicy::fifo()),
        lossy,
        300,
        2,
    );
    assert!(err < 0.08, "error {err} under 1% control loss");
}

#[test]
fn policy_inference_survives_moderate_loss() {
    let lossy = Link::control_channel(0.1).with_drop_chance(0.005);
    let mut tb = Testbed::new(5);
    let dpid = Dpid(1);
    tb.attach(
        dpid,
        SwitchProfile::generic_cached(100, CachePolicy::lru()),
        lossy,
    );
    let config = PolicyProbeConfig::default();
    let probe = |p| policy_probe(p, RuleKind::L3, 100, config);
    let inferred = run_driver(&mut tb, dpid, probe).expect("policy probe completes");
    assert_eq!(inferred.as_policy().describe(), "use_time↑");
}

#[test]
fn heavy_loss_degrades_gracefully_not_catastrophically() {
    // At 5 % loss, many samples are displaced by retransmission
    // timeouts. The estimate may drift beyond the headline 5 % but must
    // stay in the right ballpark (no wild or negative output).
    let lossy = Link::control_channel(0.1).with_drop_chance(0.05);
    let err = size_error(
        SwitchProfile::generic_cached(300, CachePolicy::fifo()),
        lossy,
        300,
        3,
    );
    assert!(err < 0.35, "error {err} under 5% control loss");
}

#[test]
fn latency_curves_still_rank_orderings_under_noise() {
    let mut tb = Testbed::new(7);
    let dpid = Dpid(1);
    tb.attach(
        dpid,
        noisy_profile(400, 0.15),
        Link::control_channel(0.1).with_drop_chance(0.002),
    );
    let lp = measure_latency_profile(&mut tb, dpid, RuleKind::L3, 300)
        .expect("latency profile completes");
    assert!(lp.priority_sensitive());
    assert!(lp.add_desc_ms > lp.add_rand_ms);
    assert!(lp.add_rand_ms > lp.add_asc_ms);
}
