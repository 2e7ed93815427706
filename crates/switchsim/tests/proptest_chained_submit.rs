//! `READY_ON_PREVIOUS_ACK` against the discipline it abbreviates.
//!
//! The same random per-switch programs run twice on clones of one
//! testbed: once one op at a time, each submitted at its predecessor's
//! `acked_at` (the naive discipline), once with a random subset of the
//! ops submitted ahead of time with the sentinel. Per switch, the
//! `(done_at, acked_at, outcome)` streams and the final clock must be
//! equal — any divergence is a bug in how the testbed parks and launches
//! chained ops.

use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use proptest::prelude::*;
use simnet::time::SimTime;
use std::collections::BTreeMap;
use switchsim::control::{ControlOp, ControlPath, OpOutcome, READY_ON_PREVIOUS_ACK};
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;

/// Rule ids the single ops draw from: small, so deletes and probes both
/// hit and miss.
const IDS: u32 = 24;
const PRIORITY: u16 = 10;

#[derive(Debug, Clone)]
enum Op {
    Add(u32),
    Delete(u32),
    Probe(u32),
    Batch { first: u32, len: u32 },
    Echo(usize),
}

impl Op {
    fn control_op(&self) -> ControlOp {
        let add = |id| FlowMod::add(FlowMatch::l2l3_for_id(id), PRIORITY);
        match *self {
            Op::Add(id) => ControlOp::FlowMod(add(id)),
            Op::Delete(id) => {
                ControlOp::FlowMod(FlowMod::delete_strict(FlowMatch::l2l3_for_id(id), PRIORITY))
            }
            Op::Probe(id) => ControlOp::Probe(FlowMatch::key_for_id(id)),
            Op::Batch { first, len } => ControlOp::Batch((first..first + len).map(add).collect()),
            Op::Echo(payload) => ControlOp::Echo(payload),
        }
    }
}

/// How the second run submits an op.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pace {
    /// Once its predecessor completed, at that `acked_at`.
    Timed,
    /// Once its predecessor completed, with the sentinel.
    OnAck,
    /// Right behind its predecessor, with the sentinel.
    Ahead,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..IDS).prop_map(Op::Add),
        (0..IDS).prop_map(Op::Delete),
        (0..IDS).prop_map(Op::Probe),
        (0..IDS, 1u32..6).prop_map(|(first, len)| Op::Batch { first, len }),
        (0usize..128).prop_map(Op::Echo),
    ]
}

fn arb_program() -> impl Strategy<Value = Vec<(Op, Pace)>> {
    let pace = prop_oneof![Just(Pace::Timed), Just(Pace::OnAck), Just(Pace::Ahead)];
    proptest::collection::vec((arb_op(), pace), 1..40)
}

type Stream = Vec<(SimTime, SimTime, OpOutcome)>;

/// One switch's progress through its program.
#[derive(Default)]
struct Cursor {
    /// Index of the next op to submit.
    next: usize,
    /// Ops submitted and not yet completed.
    out: usize,
}

/// Called with nothing of `dpid` out: submits the next op — at
/// `last_ack`, or with the sentinel if the second run paces it so — and,
/// in the second run, every op paced [`Pace::Ahead`] right behind it.
fn feed(
    tb: &mut Testbed,
    dpid: Dpid,
    program: &[(Op, Pace)],
    cur: &mut Cursor,
    last_ack: SimTime,
    ahead: bool,
) {
    let Some((op, pace)) = program.get(cur.next) else {
        return;
    };
    let ready_at = if ahead && *pace != Pace::Timed {
        READY_ON_PREVIOUS_ACK
    } else {
        last_ack
    };
    tb.submit(dpid, op.control_op(), ready_at);
    cur.next += 1;
    cur.out += 1;
    while let (true, Some((op, Pace::Ahead))) = (ahead, program.get(cur.next)) {
        tb.submit(dpid, op.control_op(), READY_ON_PREVIOUS_ACK);
        cur.next += 1;
        cur.out += 1;
    }
}

/// Runs every switch's program to completion. With `ahead` off each op
/// is submitted at its predecessor's `acked_at`; with it on, as its
/// [`Pace`] says. Returns the per-switch streams and the final clock.
fn run(
    mut tb: Testbed,
    programs: &BTreeMap<Dpid, Vec<(Op, Pace)>>,
    ahead: bool,
) -> (BTreeMap<Dpid, Stream>, SimTime) {
    let mut cursors: BTreeMap<Dpid, Cursor> = BTreeMap::new();
    let t0 = tb.now();
    for (&dpid, program) in programs {
        let cur = cursors.entry(dpid).or_default();
        feed(&mut tb, dpid, program, cur, t0, ahead);
    }
    let mut streams: BTreeMap<Dpid, Stream> = BTreeMap::new();
    while let Some(c) = tb.next_completion() {
        let stream = streams.entry(c.dpid).or_default();
        stream.push((c.done_at, c.acked_at, c.outcome));
        let cur = cursors
            .get_mut(&c.dpid)
            .expect("completion of a fed switch");
        cur.out -= 1;
        if cur.out == 0 {
            feed(&mut tb, c.dpid, &programs[&c.dpid], cur, c.acked_at, ahead);
        }
    }
    (streams, tb.now())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chained_submission_matches_one_at_a_time(
        seed in any::<u64>(),
        // Vendor #3 holds 369 combined entries: most fills leave the
        // single adds a few free slots, then `TableFull`.
        fill in prop_oneof![Just(0u32), 355u32..372],
        tcam_program in arb_program(),
        cached_program in arb_program(),
    ) {
        let mut tb = Testbed::new(seed);
        tb.attach_default(Dpid(1), SwitchProfile::vendor3());
        tb.attach_default(Dpid(2), SwitchProfile::vendor1());
        let mut tcam_program = tcam_program;
        if fill > 0 {
            tcam_program.insert(0, (Op::Batch { first: 1000, len: fill }, Pace::Timed));
        }
        let programs = BTreeMap::from([(Dpid(1), tcam_program), (Dpid(2), cached_program)]);
        let expected = run(tb.clone(), &programs, false);
        let ops: usize = programs.values().map(Vec::len).sum();
        prop_assert_eq!(expected.0.values().map(Vec::len).sum::<usize>(), ops);
        if fill >= 369 {
            let rejected = OpOutcome::Batch { ok: 369, failed: fill as usize - 369 };
            prop_assert_eq!(expected.0[&Dpid(1)][0].2, rejected);
        }
        let actual = run(tb, &programs, true);
        prop_assert_eq!(actual, expected);
    }
}
