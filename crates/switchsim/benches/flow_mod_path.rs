//! Criterion benches for the flow-mod path — the op an update schedule
//! is made of: one `flow_mod` through [`Testbed`]'s `submit` →
//! `next_completion` (frame encode, event queue, borrowed-frame decode,
//! `Switch::apply_flow_mod`, table, completion), one op in flight at a
//! time.
//!
//! Cases, on OVS (one software table) and Switch #1 (a 4 096-entry TCAM
//! over a software table, FIFO) holding 1 000 and 10 000 rules:
//!
//! * `churn_fifo` — add a new rule, strict-delete the oldest resident:
//!   the rotation the wire benchmark and the update DAGs drive. The
//!   delete unlinks the front of the install order.
//! * `modify` — strict-modify residents spread across the table.
//! * `churn_mid` — strict-delete a rule from the middle of the install
//!   order and add it back: the delete repairs O(position) positions.
//!
//! Every pass leaves the table at its resident count and asserts it.

use criterion::{criterion_group, criterion_main, Criterion};
use ofwire::action::Action;
use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use switchsim::control::{ControlOp, ControlPath, OpOutcome, OpResult};
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;

const DPID: Dpid = Dpid(1);
const PRIORITY: u16 = 10;
/// Flow-mods per timed pass (`churn_*` passes send two per step).
const SWEEP: u32 = 1_000;

/// A testbed switch holding rules for ids `0..residents`.
fn testbed(profile: SwitchProfile, residents: u32) -> Testbed {
    let mut tb = Testbed::new(7);
    tb.attach_default(DPID, profile);
    let fms = (0..residents)
        .map(|id| FlowMod::add(FlowMatch::l3_for_id(id), PRIORITY))
        .collect();
    let (installed, rejected, _) = tb.batch(DPID, fms);
    assert_eq!((installed, rejected), (residents as usize, 0));
    tb
}

/// Sends one flow-mod and waits for its completion.
fn apply(tb: &mut Testbed, fm: FlowMod) {
    let now = tb.now();
    let token = tb.submit(DPID, ControlOp::FlowMod(fm), now);
    let done = tb.next_completion().expect("the flow-mod completes");
    assert_eq!(done.token, token);
    assert_eq!(done.outcome, OpOutcome::FlowMod(OpResult::Ok));
}

fn add(id: u32) -> FlowMod {
    FlowMod::add(FlowMatch::l3_for_id(id), PRIORITY)
}

fn delete(id: u32) -> FlowMod {
    FlowMod::delete_strict(FlowMatch::l3_for_id(id), PRIORITY)
}

fn bench_flow_mod_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_mod_path");
    g.sample_size(10);
    let profiles = [
        ("ovs", SwitchProfile::ovs as fn() -> SwitchProfile),
        ("vendor1", SwitchProfile::vendor1),
    ];
    for (name, profile) in profiles {
        for residents in [1_000u32, 10_000] {
            let mut tb = testbed(profile(), residents);
            let check = |tb: &Testbed| {
                assert_eq!(tb.switch(DPID).rule_count(), residents as usize);
            };

            // The resident ids are `oldest..oldest + residents`.
            let mut oldest = 0;
            g.bench_function(format!("{name}_{residents}/churn_fifo"), |b| {
                b.iter(|| {
                    for _ in 0..SWEEP / 2 {
                        apply(&mut tb, add(oldest + residents));
                        apply(&mut tb, delete(oldest));
                        oldest += 1;
                    }
                    check(&tb);
                })
            });

            let stride = residents / SWEEP;
            let mut port = 1;
            g.bench_function(format!("{name}_{residents}/modify"), |b| {
                b.iter(|| {
                    port = port % 4 + 1;
                    for k in 0..SWEEP {
                        let m = FlowMatch::l3_for_id(oldest + k * stride);
                        apply(
                            &mut tb,
                            FlowMod::modify_strict(m, PRIORITY, Action::output(port)),
                        );
                    }
                    check(&tb);
                })
            });

            // A re-added rule goes to the back of the install order, so
            // the rules from the middle on take turns at the middle, in
            // id order.
            let mid = residents / 2;
            let mut step = 0;
            g.bench_function(format!("{name}_{residents}/churn_mid"), |b| {
                b.iter(|| {
                    for _ in 0..SWEEP / 2 {
                        let id = oldest + mid + step % (residents - mid);
                        step += 1;
                        apply(&mut tb, delete(id));
                        apply(&mut tb, add(id));
                    }
                    check(&tb);
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_flow_mod_path);
criterion_main!(benches);
