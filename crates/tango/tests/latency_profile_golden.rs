//! `measure_latency_profile`'s exact output, pinned.
//!
//! Every field of the profile is a ratio of virtual-time spans, so any
//! change to the op stream the measurement issues — which ops, in which
//! order, leaving the controller when — moves at least one of them.
//! The values below are the measurement's at seed 17, n = 200, with
//! `==` on floats; the testbed clock after the call is pinned too.

use ofwire::types::Dpid;
use simnet::time::SimTime;
use switchsim::control::ControlPath;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::curves::{measure_latency_profile, LatencyProfile};
use tango::pattern::RuleKind;

fn measure(profile: SwitchProfile) -> (LatencyProfile, SimTime) {
    let mut tb = Testbed::new(17);
    tb.attach_default(Dpid(1), profile);
    let lp = measure_latency_profile(&mut tb, Dpid(1), RuleKind::L3, 200)
        .expect("latency profile completes");
    (lp, ControlPath::now(&tb))
}

#[test]
fn vendor1_profile_is_pinned() {
    let (lp, now) = measure(SwitchProfile::vendor1());
    assert_eq!(lp.calibrated_n, 200);
    assert_eq!(lp.add_asc_ms, 0.39073152);
    assert_eq!(lp.add_desc_ms, 1.287627195);
    assert_eq!(lp.add_same_ms, 0.38985573500000004);
    assert_eq!(lp.add_rand_ms, 0.87214245);
    assert_eq!(lp.mod_ms, 0.52960439);
    assert_eq!(lp.del_ms, 1.20532649);
    assert_eq!(lp.shift_us, 8.968956749999998);
    assert_eq!(now, SimTime(1971883583));
}

#[test]
fn ovs_profile_is_pinned() {
    let (lp, now) = measure(SwitchProfile::ovs());
    assert_eq!(lp.calibrated_n, 200);
    assert_eq!(lp.add_asc_ms, 0.056501545);
    assert_eq!(lp.add_desc_ms, 0.056736605);
    assert_eq!(lp.add_same_ms, 0.056432105);
    assert_eq!(lp.add_rand_ms, 0.057153815000000004);
    assert_eq!(lp.mod_ms, 0.056379765);
    assert_eq!(lp.del_ms, 0.046688074999999996);
    assert_eq!(lp.shift_us, 0.002350600000000022);
    assert_eq!(now, SimTime(114429208));
}
