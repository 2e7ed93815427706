//! How often a default size probe waits with a single op on the wire.
//!
//! Over a socket, every completion awaited while it is the only op
//! outstanding is a round trip the controller pays alone: nothing else
//! of the probe rides with it. Algorithm 1 submits each op it is certain
//! to send before it reads an earlier one's outcome, so such lone waits
//! are rare; a probe that went back to drawing each stage-3 sample only
//! after reading the previous one would make thousands of them (6 030 on
//! the OVS case below, 2 405 on vendor #1).
//!
//! The count is deterministic: a `ControlPath` decorator over a seeded
//! `Testbed` tallies the `next_completion` calls made while exactly one
//! op is outstanding. Run with `--nocapture` to see it.

use ofwire::types::Dpid;
use simnet::link::Link;
use simnet::telemetry::Telemetry;
use simnet::time::SimTime;
use switchsim::control::{Completion, ControlOp, ControlPath, OpToken};
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::fleet::{run_inference, FleetJob};
use tango::infer_size::SizeProbeConfig;
use tango::pattern::RuleKind;

/// The most lone waits a default size probe may make.
const MAX_LONE_WAITS: u64 = 64;

/// A `Testbed` that counts the ops it carries and the completions
/// awaited with exactly one op outstanding.
struct Counting {
    tb: Testbed,
    outstanding: u64,
    ops: u64,
    lone_waits: u64,
}

impl ControlPath for Counting {
    fn now(&self) -> SimTime {
        self.tb.now()
    }

    fn submit(&mut self, dpid: Dpid, op: ControlOp, ready_at: SimTime) -> OpToken {
        self.outstanding += 1;
        self.ops += 1;
        self.tb.submit(dpid, op, ready_at)
    }

    fn next_completion(&mut self) -> Option<Completion> {
        if self.outstanding == 1 {
            self.lone_waits += 1;
        }
        let c = self.tb.next_completion();
        if c.is_some() {
            self.outstanding -= 1;
        }
        c
    }

    fn wait_for(&mut self, token: OpToken) -> Completion {
        self.outstanding -= 1;
        self.tb.wait_for(token)
    }

    fn warp_to(&mut self, t: SimTime) {
        self.tb.warp_to(t);
    }

    fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.tb.telemetry_mut()
    }

    fn track_of(&self, dpid: Dpid) -> Option<u32> {
        self.tb.track_of(dpid)
    }
}

/// Runs the default L3 size probe with `max_flows` on one `profile`
/// switch; returns `(ops, lone waits)`.
fn size_probe_waits(profile: SwitchProfile, max_flows: usize) -> (u64, u64) {
    let dpid = Dpid(1);
    let mut tb = Testbed::new(7);
    tb.attach(dpid, profile, Link::control_channel(0.1));
    let mut cp = Counting {
        tb,
        outstanding: 0,
        ops: 0,
        lone_waits: 0,
    };
    let config = SizeProbeConfig {
        max_flows,
        ..SizeProbeConfig::default()
    };
    run_inference(&mut cp, &[FleetJob::size(dpid, RuleKind::L3, config)])
        .expect("size probe completes");
    assert_eq!(cp.outstanding, 0, "every op completed");
    (cp.ops, cp.lone_waits)
}

#[test]
fn a_default_size_probe_rarely_waits_alone() {
    let cases = [
        ("OVS", SwitchProfile::ovs(), 6_000, 18_015),
        ("vendor #1", SwitchProfile::vendor1(), 8_192, 18_774),
    ];
    for (name, profile, max_flows, want_ops) in cases {
        let (ops, lone) = size_probe_waits(profile, max_flows);
        println!("{name}, max_flows {max_flows}: {lone} lone waits in {ops} ops");
        assert_eq!(ops, want_ops, "{name}: the op stream changed length");
        assert!(
            lone <= MAX_LONE_WAITS,
            "{name}: {lone} lone waits, at most {MAX_LONE_WAITS} allowed"
        );
    }
}
