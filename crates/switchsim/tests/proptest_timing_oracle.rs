//! The `Testbed` against the event-driven testbed it replaced.
//!
//! The `Testbed` resolves each op on its switch's core at submit and
//! merges the per-switch FIFOs by `(done_at, start, token)`; the oracle
//! in `support/` runs arrival and done events through one event queue.
//! Random programs over 2–4 switches — adds into a TCAM until
//! `TableFull`, strict deletes, probes that hit and miss, batches,
//! echoes — are fed to both by the same caller. It paces each switch's
//! next op on that switch's last ack (at an explicit instant, chained
//! with the sentinel, or submitted ahead behind its predecessor), picks
//! some completions out of order with `wait_for`, and records every token
//! it is handed, every completion, and the clock after every call.
//!
//! * Over the shipped jittered link the two records are equal entry for
//!   entry.
//! * Over jitter-free links with mean-valued costs, ties on `done_at`
//!   are systematic, and among ops that also share `start` the oracle's
//!   order is whatever its event queue popped first. Per-switch streams
//!   must be equal, and the global stream equal as sets per
//!   `(done_at, start)`, in order.

mod support;

use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use proptest::prelude::*;
use simnet::dist::Dist;
use simnet::link::Link;
use simnet::time::SimTime;
use std::collections::BTreeMap;
use support::EventTestbed;
use switchsim::control::{Completion, ControlOp, ControlPath, OpToken, READY_ON_PREVIOUS_ACK};
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

/// How an op is submitted once its switch has nothing out.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pace {
    /// At the switch's last ack, as an explicit instant.
    Timed,
    /// With the sentinel.
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

type Program = Vec<(Op, Pace)>;

fn arb_programs() -> impl Strategy<Value = Vec<Program>> {
    let pace = prop_oneof![Just(Pace::Timed), Just(Pace::OnAck), Just(Pace::Ahead)];
    let program = proptest::collection::vec((arb_op(), pace), 1..30);
    proptest::collection::vec(program, 2..5)
}

/// Vendor #3 first: it holds 369 combined entries, so a fill batch of
/// 355–371 leaves the single adds a few free slots, then `TableFull`.
fn profiles() -> [SwitchProfile; 4] {
    [
        SwitchProfile::vendor3(),
        SwitchProfile::vendor1(),
        SwitchProfile::ovs(),
        SwitchProfile::vendor2(),
    ]
}

/// `profile` with every latency distribution pinned to its mean.
fn steady(mut profile: SwitchProfile) -> SwitchProfile {
    let pin = |d: &mut Dist| *d = Dist::Constant(d.mean_ms());
    let c = &mut profile.control;
    for d in [
        &mut c.add_base,
        &mut c.add_software,
        &mut c.mod_base,
        &mut c.del_base,
    ] {
        pin(d);
    }
    let dp = &mut profile.datapath;
    dp.levels.iter_mut().for_each(pin);
    pin(&mut dp.controller);
    profile
}

/// Attaches one switch per program through `attach`: shipped profiles
/// behind the shipped jittered link, or (`steady`) mean-valued profiles
/// behind a fixed 0.1 ms one.
fn attach_all(
    programs: &[Program],
    steady_links: bool,
    mut attach: impl FnMut(Dpid, SwitchProfile, Link),
) {
    for (i, profile) in profiles().into_iter().take(programs.len()).enumerate() {
        let dpid = Dpid(i as u64 + 1);
        if steady_links {
            attach(dpid, steady(profile), Link::ideal(Dist::Constant(0.1)));
        } else {
            attach(dpid, profile, Link::control_channel(0.1));
        }
    }
}

/// Everything a caller observes, in order.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    /// `submit` returned this token; the clock after the call.
    Submitted(OpToken, SimTime),
    /// A completion was handed out; the clock after the call.
    Completed(Completion, SimTime),
}

/// One switch's progress through its program.
#[derive(Default, Clone)]
struct Cursor {
    next: usize,
    out: usize,
    /// Token and `acked_at` of the switch's latest op to complete.
    last: Option<(OpToken, SimTime)>,
}

/// The driving caller, shared by both control paths.
struct Caller<'a, P> {
    path: &'a mut P,
    programs: &'a [Program],
    cursors: Vec<Cursor>,
    /// Tokens out, in submit order (what `wait_for` picks from).
    out: Vec<OpToken>,
    seen: Vec<Seen>,
}

impl<P: ControlPath> Caller<'_, P> {
    fn submit(&mut self, i: usize, ready_at: SimTime) {
        let cur = &mut self.cursors[i];
        let op = self.programs[i][cur.next].0.control_op();
        let token = self.path.submit(Dpid(i as u64 + 1), op, ready_at);
        cur.next += 1;
        cur.out += 1;
        self.out.push(token);
        self.seen.push(Seen::Submitted(token, self.path.now()));
    }

    /// Called with nothing of switch `i` out: submits its next op as its
    /// pace says, then every op paced `Ahead` right behind it. The
    /// sentinel names the last ack, which must not precede the clock;
    /// when it would, the op leaves at the clock instead.
    fn feed(&mut self, i: usize) {
        let cur = &self.cursors[i];
        let Some((_, pace)) = self.programs[i].get(cur.next) else {
            return;
        };
        let last_ack = cur.last.map_or(SimTime::ZERO, |(_, acked)| acked);
        let now = self.path.now();
        let ready_at = if *pace != Pace::Timed && last_ack >= now {
            READY_ON_PREVIOUS_ACK
        } else {
            last_ack.max(now)
        };
        self.submit(i, ready_at);
        while let Some((_, Pace::Ahead)) = self.programs[i].get(self.cursors[i].next) {
            self.submit(i, READY_ON_PREVIOUS_ACK);
        }
    }

    /// Runs every program to completion. Each entry of `picks` decides
    /// one call: a multiple of 3 waits for an outstanding token it
    /// selects, anything else (and every call after the last pick) takes
    /// the next completion.
    fn run(mut self, picks: &[u16]) -> Vec<Seen> {
        for i in 0..self.programs.len() {
            self.feed(i);
        }
        let mut picks = picks.iter();
        loop {
            let c = match picks.next() {
                Some(&p) if p % 3 == 0 && !self.out.is_empty() => {
                    let token = self.out[usize::from(p / 3) % self.out.len()];
                    self.path.wait_for(token)
                }
                _ => match self.path.next_completion() {
                    Some(c) => c,
                    None => break,
                },
            };
            self.seen.push(Seen::Completed(c, self.path.now()));
            self.out.retain(|&t| t != c.token);
            let i = (c.dpid.0 - 1) as usize;
            let cur = &mut self.cursors[i];
            cur.out -= 1;
            if cur.last.is_none_or(|(t, _)| t < c.token) {
                cur.last = Some((c.token, c.acked_at));
            }
            if cur.out == 0 {
                self.feed(i);
            }
        }
        assert!(self.out.is_empty(), "every op completes");
        self.seen
    }
}

fn drive<P: ControlPath>(path: &mut P, programs: &[Program], picks: &[u16]) -> Vec<Seen> {
    let caller = Caller {
        path,
        programs,
        cursors: vec![Cursor::default(); programs.len()],
        out: Vec::new(),
        seen: Vec::new(),
    };
    caller.run(picks)
}

fn testbed(seed: u64, programs: &[Program], steady_links: bool) -> Testbed {
    let mut tb = Testbed::new(seed);
    attach_all(programs, steady_links, |d, p, l| tb.attach(d, p, l));
    tb
}

fn oracle(seed: u64, programs: &[Program], steady_links: bool) -> EventTestbed {
    let mut tb = EventTestbed::new(seed);
    attach_all(programs, steady_links, |d, p, l| tb.attach(d, p, l));
    tb
}

/// Puts a fill batch of `fill` rules (if any) first on switch 1.
fn with_fill(mut programs: Vec<Program>, fill: u32) -> Vec<Program> {
    if fill > 0 {
        programs[0].insert(
            0,
            (
                Op::Batch {
                    first: 1000,
                    len: fill,
                },
                Pace::Timed,
            ),
        );
    }
    programs
}

fn completions(seen: &[Seen]) -> Vec<Completion> {
    seen.iter()
        .filter_map(|s| match s {
            Seen::Completed(c, _) => Some(*c),
            Seen::Submitted(..) => None,
        })
        .collect()
}

/// Per-switch streams of what a completion reports, tokens aside.
type Streams = BTreeMap<Dpid, Vec<(SimTime, SimTime, String)>>;

fn per_switch(done: &[Completion]) -> Streams {
    let mut streams = Streams::new();
    for c in done {
        let entry = (c.done_at, c.acked_at, format!("{:?}", c.outcome));
        streams.entry(c.dpid).or_default().push(entry);
    }
    streams
}

/// The global stream as `(done_at, start, dpid, position on its switch)`
/// in delivery order, each run of equal `(done_at, start)` sorted: the
/// part of the order that is stated. `starts` holds each switch's ops'
/// start instants in channel order.
fn canonical(
    done: &[Completion],
    starts: &BTreeMap<Dpid, Vec<SimTime>>,
) -> Vec<(SimTime, SimTime, Dpid, usize)> {
    let mut position: BTreeMap<Dpid, usize> = BTreeMap::new();
    let mut out: Vec<_> = done
        .iter()
        .map(|c| {
            let k = position.entry(c.dpid).or_default();
            *k += 1;
            (c.done_at, starts[&c.dpid][*k - 1], c.dpid, *k - 1)
        })
        .collect();
    for run in out.chunk_by_mut(|a, b| (a.0, a.1) == (b.0, b.1)) {
        run.sort_unstable();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn testbed_matches_the_event_driven_oracle(
        seed in any::<u64>(),
        fill in prop_oneof![Just(0u32), 355u32..372],
        programs in arb_programs(),
        picks in proptest::collection::vec(any::<u16>(), 0..48),
    ) {
        let programs = with_fill(programs, fill);
        let expected = drive(&mut oracle(seed, &programs, false), &programs, &picks);
        let actual = drive(&mut testbed(seed, &programs, false), &programs, &picks);
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn jitter_free_ties_deliver_by_done_then_start(
        seed in any::<u64>(),
        fill in prop_oneof![Just(0u32), 355u32..372],
        programs in arb_programs(),
    ) {
        let programs = with_fill(programs, fill);
        let mut event = oracle(seed, &programs, true);
        let expected = completions(&drive(&mut event, &programs, &[]));
        let mut tb = testbed(seed, &programs, true);
        let actual = completions(&drive(&mut tb, &programs, &[]));
        prop_assert_eq!(per_switch(&actual), per_switch(&expected));
        prop_assert_eq!(tb.now(), event.now());
        let mut starts: BTreeMap<Dpid, Vec<SimTime>> = BTreeMap::new();
        for c in &expected {
            starts.entry(c.dpid).or_default().push(event.start_of(c.token));
        }
        prop_assert_eq!(canonical(&actual, &starts), canonical(&expected, &starts));
    }
}
