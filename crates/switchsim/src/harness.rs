//! The testbed harness: one or more agent-wrapped switches behind
//! latency-modelled control channels, sharing one virtual clock.
//!
//! The testbed is the in-memory implementation of [`ControlPath`]. Each
//! attached switch is a [`SwitchCore`] — the per-switch timing model the
//! virtual-time server runs too — and `submit` resolves an op on it at
//! once: encode it (xids), draw its link latencies, admit it behind the
//! earlier ops on the channel, run the agent at the instant processing
//! starts, and file the [`Completion`] in that switch's FIFO. A switch's
//! ops serialize on its own channel and switches share nothing but the
//! clock, so resolving at submit yields every instant an event loop
//! would have produced, and nothing is left to simulate afterwards.
//!
//! Delivery merges the per-switch FIFOs, each already in order, by the
//! total order `(done_at, start, token)`: a heap holds one entry per
//! switch with undelivered completions (its front), so it is never
//! deeper than the switch count however many ops callers keep out.
//! `next_completion` and `wait_for` move the clock to `max(now,
//! done_at)`. The classic synchronous calls (`flow_mod`, `batch`,
//! `probe`, `echo`) are thin adapters: submit, wait for the token, warp
//! the clock to the ack.
//!
//! Switches live in a dense `Vec` addressed by a `u32` index; the
//! `Dpid → index` map is consulted only at the public API boundary. One
//! wire buffer and one agent-output scratch serve every op, so steady
//! state allocates nothing per op.

use crate::agent::{Agent, AgentOutput};
use crate::chan::{self, ChanCodec, OpKind, SwitchCore};
use crate::control::{
    Completion, ControlOp, ControlPath, OpOutcome, OpToken, READY_ON_PREVIOUS_ACK,
};
use crate::pipeline::Hit;
use crate::profiles::SwitchProfile;
use crate::switch::Switch;
use ofwire::flow_match::FlowKey;
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use simnet::link::Link;
use simnet::rng::DetRng;
use simnet::telemetry::{switch_track, Recorder, Telemetry, TRACK_CONTROLLER, TRACK_SCHEDULER};
use simnet::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

pub use crate::control::OpResult;

/// A resolved op whose completion has not been handed out yet.
#[derive(Clone)]
struct Queued {
    /// When the switch began processing it.
    start: SimTime,
    completion: Completion,
}

/// Delivery order: `(done_at, start, token)`, a total order (tokens are
/// unique). Ties on `done_at` across switches go to the op that started
/// first, then the one submitted first.
type DeliveryKey = (SimTime, SimTime, OpToken);

impl Queued {
    fn key(&self) -> DeliveryKey {
        let c = &self.completion;
        (c.done_at, self.start, c.token)
    }
}

/// One switch attached to the testbed.
#[derive(Clone)]
struct Attached {
    /// The switch end of the channel: agent, link, latency stream
    /// (forked once at attach, so a switch's jitter depends only on its
    /// own op history), barrier tracker and timeline.
    core: SwitchCore,
    /// The controller end: xid assignment, shared with the real-TCP
    /// transport (see [`crate::chan`]).
    codec: ChanCodec,
    /// Undelivered completions in channel order, which is also
    /// [`DeliveryKey`] order.
    fifo: VecDeque<Queued>,
}

/// A multi-switch testbed with a shared virtual clock.
///
/// `Clone` produces an independent testbed with identical state and
/// RNG positions: driving the clone through an op sequence yields
/// byte-identical behaviour to driving a freshly built original — what
/// lets experiment sweeps build one lowered world and fan clones out
/// per scheduler.
#[derive(Clone)]
pub struct Testbed {
    now: SimTime,
    /// Dense switch storage.
    switches: Vec<Attached>,
    /// Public-API boundary map: dpid → dense index (also fixes the
    /// sorted order `dpids()` reports).
    index: BTreeMap<Dpid, u32>,
    rng: DetRng,
    next_token: u64,
    /// The merge over switch FIFOs: each non-empty FIFO's front, keyed
    /// for delivery, with its switch index.
    fronts: BinaryHeap<Reverse<(DeliveryKey, u32)>>,
    /// Most entries `fronts` ever held (`sim/queue_depth_max`).
    fronts_max: usize,
    /// Modelled events, two per op (arrival and completion).
    events: u64,
    /// Wire bytes of the op being resolved (empty between ops).
    wire: Vec<u8>,
    /// Agent outputs of the op being resolved (empty between ops).
    agent_outs: Vec<AgentOutput>,
    /// Per-testbed telemetry: disabled (a null option) unless
    /// [`Testbed::enable_telemetry`] was called, in which case op spans
    /// and dispatch metrics record here — along with everything the
    /// layers above emit through [`ControlPath::telemetry_mut`].
    telemetry: Telemetry,
}

impl Testbed {
    /// An empty testbed. `seed` drives link jitter.
    #[must_use]
    pub fn new(seed: u64) -> Testbed {
        Testbed {
            now: SimTime::ZERO,
            switches: Vec::new(),
            index: BTreeMap::new(),
            rng: DetRng::new(seed),
            next_token: 0,
            fronts: BinaryHeap::new(),
            fronts_max: 0,
            events: 0,
            wire: Vec::new(),
            agent_outs: Vec::new(),
            telemetry: Telemetry::off(),
        }
    }

    /// Switches this testbed's telemetry on: a fresh recorder collects
    /// op spans, dispatch metrics, and whatever the layers above emit.
    /// Telemetry observes — it never draws randomness or alters timing —
    /// so results are identical with it on or off.
    pub fn enable_telemetry(&mut self) {
        self.telemetry = Telemetry::recording();
    }

    /// Closes out telemetry: snapshots per-switch data-path stats, the
    /// modelled event count and the delivery merge's peak depth into the
    /// registry, labels the export tracks, closes any still-open spans
    /// at the current virtual time, and detaches the recorder. Returns
    /// `None` when telemetry was never enabled.
    pub fn finish_recorder(&mut self) -> Option<Box<Recorder>> {
        if !self.telemetry.is_enabled() {
            return None;
        }
        let t = &mut self.telemetry;
        // Counters sum, so each switch's tallies add into the totals.
        for att in &self.switches {
            let s = att.core.agent().switch().stats();
            t.count("pipeline/adds_hw", s.adds_hw);
            t.count("pipeline/adds_sw", s.adds_sw);
            t.count("pipeline/add_rejects", s.add_rejects);
            t.count("pipeline/tcam_shift_units", s.tcam_shift_units);
            t.count("pipeline/mods", s.mods);
            t.count("pipeline/deleted_rules", s.deleted_rules);
            t.count("pipeline/expired_rules", s.expired_rules);
            t.count("pipeline/lookups", s.lookups);
            t.count("pipeline/fast_hits", s.fast_hits);
            t.count("pipeline/slow_hits", s.slow_hits);
            t.count("pipeline/misses", s.misses);
        }
        t.count("sim/events", self.events);
        t.gauge_max("sim/queue_depth_max", self.fronts_max as u64);
        let mut rec = self.telemetry.take()?;
        rec.close_all(self.now);
        rec.name_track(TRACK_CONTROLLER, "controller");
        rec.name_track(TRACK_SCHEDULER, "scheduler");
        for (i, att) in self.switches.iter().enumerate() {
            let track = switch_track(u32::try_from(i).expect("switch count fits u32"));
            rec.name_track(track, format!("switch {i} (dpid {})", att.core.dpid().0));
        }
        Some(rec)
    }

    /// Attaches a switch built from `profile` behind `ctrl_link`.
    pub fn attach(&mut self, dpid: Dpid, profile: SwitchProfile, ctrl_link: Link) {
        let (seed, link_rng) = chan::attach_streams(&mut self.rng, dpid);
        let agent = Agent::new(Switch::new(profile, dpid, seed));
        let idx = u32::try_from(self.switches.len()).expect("switch count fits u32");
        let prev = self.index.insert(dpid, idx);
        assert!(prev.is_none(), "dpid {dpid:?} attached twice");
        self.switches.push(Attached {
            core: SwitchCore::new(dpid, agent, ctrl_link, link_rng, self.now),
            codec: ChanCodec::new(),
            fifo: VecDeque::new(),
        });
    }

    /// Attaches with the default low-latency control channel (0.1 ms one
    /// way — a directly connected management port).
    pub fn attach_default(&mut self, dpid: Dpid, profile: SwitchProfile) {
        self.attach(dpid, profile, Link::control_channel(0.1));
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Datapath ids attached, in order.
    #[must_use]
    pub fn dpids(&self) -> Vec<Dpid> {
        self.index.keys().copied().collect()
    }

    /// Dense index for `dpid`.
    fn idx(&self, dpid: Dpid) -> u32 {
        *self.index.get(&dpid).expect("unknown dpid")
    }

    /// Read access to a switch.
    #[must_use]
    pub fn switch(&self, dpid: Dpid) -> &Switch {
        self.switches[self.idx(dpid) as usize].core.agent().switch()
    }

    /// Files the front of switch `idx`'s FIFO in the delivery merge.
    fn file_front(&mut self, idx: u32) {
        if let Some(q) = self.switches[idx as usize].fifo.front() {
            self.fronts.push(Reverse((q.key(), idx)));
            self.fronts_max = self.fronts_max.max(self.fronts.len());
        }
    }

    /// Hands out a completion, moving the clock to its `done_at` unless
    /// the clock is already past it.
    fn deliver(&mut self, q: Queued) -> Completion {
        self.now = self.now.max(q.completion.done_at);
        q.completion
    }

    /// Submits `op` at the current instant and waits for it: the core of
    /// the synchronous calls. Returns the submit instant and completion.
    fn call(&mut self, dpid: Dpid, op: ControlOp) -> (SimTime, Completion) {
        let start = self.now;
        let token = self.submit(dpid, op, start);
        (start, self.wait_for(token))
    }

    /// Synchronously applies one flow-mod: send → process → barrier-ack.
    /// Advances the clock by the full round trip and returns the result
    /// and the elapsed time.
    pub fn flow_mod(&mut self, dpid: Dpid, fm: FlowMod) -> (OpResult, SimDuration) {
        let (start, c) = self.call(dpid, ControlOp::FlowMod(fm));
        self.warp_to(c.acked_at);
        let OpOutcome::FlowMod(result) = c.outcome else {
            unreachable!("flow-mod submit yields a flow-mod outcome")
        };
        (result, c.acked_at.since(start))
    }

    /// Synchronously applies a batch of flow-mods followed by a barrier
    /// (the paper's installation-time measurement methodology). Messages
    /// are pipelined: one upstream latency, serial processing, one
    /// downstream latency. Returns (successes, failures, elapsed).
    pub fn batch(&mut self, dpid: Dpid, fms: Vec<FlowMod>) -> (usize, usize, SimDuration) {
        let (start, c) = self.call(dpid, ControlOp::Batch(fms));
        self.warp_to(c.acked_at);
        let OpOutcome::Batch { ok, failed } = c.outcome else {
            unreachable!("batch submit yields a batch outcome")
        };
        (ok, failed, c.acked_at.since(start))
    }

    /// Sends a probe frame matching `key` through the switch's data
    /// plane via `packet_out`, returning where it was served and the
    /// measured RTT (generator link + forwarding delay). Advances the
    /// clock by the RTT.
    pub fn probe(&mut self, dpid: Dpid, key: &FlowKey) -> (Hit, SimDuration) {
        let (start, c) = self.call(dpid, ControlOp::Probe(*key));
        self.warp_to(c.done_at);
        let OpOutcome::Probe(hit) = c.outcome else {
            unreachable!("probe submit yields a probe outcome")
        };
        (hit, c.done_at.since(start))
    }

    /// Measures one control-channel round trip with an `echo_request`
    /// of `payload` bytes (the classic liveness/RTT probe). Advances the
    /// clock by the RTT.
    pub fn echo(&mut self, dpid: Dpid, payload: usize) -> SimDuration {
        let (start, c) = self.call(dpid, ControlOp::Echo(payload));
        self.warp_to(c.acked_at);
        c.acked_at.since(start)
    }

    /// The time the network goes quiet (network-wide makespan reference
    /// point): the latest `done_at` among undelivered completions, or the
    /// current time if that is later. The clock advances there;
    /// completions stay available through [`ControlPath::next_completion`].
    pub fn all_quiet_at(&mut self) -> SimTime {
        let quiet = self
            .switches
            .iter()
            .filter_map(|a| a.fifo.back())
            .fold(self.now, |t, q| t.max(q.completion.done_at));
        self.now = quiet;
        quiet
    }

    /// Warps the shared clock to `t` (must not go backwards).
    pub fn warp_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "clock cannot go backwards");
        self.now = t;
    }
}

impl ControlPath for Testbed {
    fn now(&self) -> SimTime {
        self.now
    }

    fn submit(&mut self, dpid: Dpid, op: ControlOp, ready_at: SimTime) -> OpToken {
        assert!(
            ready_at == READY_ON_PREVIOUS_ACK || ready_at >= self.now,
            "op submitted at {ready_at} before now {}",
            self.now
        );
        let idx = self.idx(dpid);
        let token = OpToken(self.next_token);
        self.next_token += 1;
        let att = &mut self.switches[idx as usize];
        let kind = att.codec.encode_op(op, &mut self.wire);
        let r = att
            .core
            .resolve(ready_at, kind, &self.wire, &mut self.agent_outs)
            .expect("the channel codec encodes well-formed ops");
        // Emptied, not freed: the next op reuses them, and a clone of the
        // testbed does not copy this op's bytes and outputs.
        self.wire.clear();
        self.agent_outs.clear();
        self.events += 2;
        simnet::sim::record_events(2);
        if self.telemetry.is_enabled() {
            let (counter, span) = match kind {
                OpKind::FlowMod => ("op/flow_mod", "flow_mod"),
                OpKind::Batch => ("op/batch", "batch"),
                OpKind::Probe => ("op/probe", "probe"),
                OpKind::Echo => ("op/echo", "echo"),
            };
            // The op itself plus the earlier ops on its switch not yet
            // done when it arrives.
            let ahead = att
                .fifo
                .iter()
                .rev()
                .take_while(|q| q.completion.done_at > r.arrive)
                .count();
            let t = &mut self.telemetry;
            t.count(counter, 1);
            t.observe("switch/queue_depth", (ahead + 1) as f64);
            // A switch's ops serialize, so its op spans never overlap
            // and may close as soon as they open.
            let id = t.span_begin(switch_track(idx), span, r.start);
            t.span_end(id, r.done_at);
            t.count("switch/ops_done", 1);
        }
        let was_idle = att.fifo.is_empty();
        att.fifo.push_back(Queued {
            start: r.start,
            completion: Completion {
                token,
                dpid,
                done_at: r.done_at,
                acked_at: r.acked_at,
                outcome: r.outcome,
            },
        });
        if was_idle {
            self.file_front(idx);
        }
        token
    }

    fn next_completion(&mut self) -> Option<Completion> {
        let Reverse((_, idx)) = self.fronts.pop()?;
        let q = self.switches[idx as usize]
            .fifo
            .pop_front()
            .expect("a merge entry per non-empty FIFO");
        self.file_front(idx);
        Some(self.deliver(q))
    }

    fn wait_for(&mut self, token: OpToken) -> Completion {
        let (idx, at) = self
            .switches
            .iter()
            .enumerate()
            .find_map(|(i, att)| {
                let at = att
                    .fifo
                    .binary_search_by_key(&token, |q| q.completion.token);
                at.ok().map(|at| (i, at))
            })
            .expect("token must identify an in-flight op");
        let q = self.switches[idx].fifo.remove(at).expect("found above");
        if at == 0 {
            let idx = u32::try_from(idx).expect("switch count fits u32");
            self.fronts.retain(|Reverse((_, i))| *i != idx);
            self.file_front(idx);
        }
        self.deliver(q)
    }

    fn warp_to(&mut self, t: SimTime) {
        Testbed::warp_to(self, t);
    }

    fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        Some(&mut self.telemetry)
    }

    fn track_of(&self, dpid: Dpid) -> Option<u32> {
        self.index.get(&dpid).map(|&i| switch_track(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachePolicy;
    use ofwire::flow_match::FlowMatch;

    fn testbed_with(profile: SwitchProfile) -> (Testbed, Dpid) {
        let mut tb = Testbed::new(1);
        let dpid = Dpid(1);
        tb.attach_default(dpid, profile);
        (tb, dpid)
    }

    #[test]
    fn sync_flow_mod_advances_clock() {
        let (mut tb, dpid) = testbed_with(SwitchProfile::ovs());
        let t0 = tb.now();
        let (res, elapsed) = tb.flow_mod(dpid, FlowMod::add(FlowMatch::l3_for_id(1), 10));
        assert_eq!(res, OpResult::Ok);
        assert!(elapsed > SimDuration::ZERO);
        assert_eq!(tb.now(), t0 + elapsed);
        assert_eq!(tb.switch(dpid).rule_count(), 1);
    }

    #[test]
    fn batch_reports_rejections() {
        let (mut tb, dpid) = testbed_with(SwitchProfile::vendor3());
        let fms: Vec<FlowMod> = (0..400u32)
            .map(|i| FlowMod::add(FlowMatch::l2l3_for_id(i), 10))
            .collect();
        let (ok, failed, elapsed) = tb.batch(dpid, fms);
        assert_eq!(ok, 369);
        assert_eq!(failed, 400 - 369);
        assert!(elapsed > SimDuration::ZERO);
    }

    #[test]
    fn probe_rtt_reflects_path_level() {
        let (mut tb, dpid) = testbed_with(SwitchProfile::vendor1());
        tb.flow_mod(dpid, FlowMod::add(FlowMatch::l3_for_id(1), 10));
        let (hit, fast_rtt) = tb.probe(dpid, &FlowMatch::key_for_id(1));
        assert!(matches!(hit, Hit::Table { level: 0, .. }));
        let (miss, ctrl_rtt) = tb.probe(dpid, &FlowMatch::key_for_id(42));
        assert_eq!(miss, Hit::Miss);
        assert!(
            ctrl_rtt.as_millis_f64() > 2.0 * fast_rtt.as_millis_f64(),
            "controller path ({ctrl_rtt}) should dominate fast path ({fast_rtt})"
        );
    }

    #[test]
    fn probe_sweep_at_capacity_finds_every_rule() {
        const TCAM: u32 = 1_024;
        for policy in [CachePolicy::fifo(), CachePolicy::lru()] {
            let fifo = !policy.reads_traffic();
            let (mut tb, dpid) =
                testbed_with(SwitchProfile::generic_cached(u64::from(TCAM), policy));
            let fms = (0..2 * TCAM)
                .map(|id| FlowMod::add(FlowMatch::l3_for_id(id), 10))
                .collect();
            assert_eq!(tb.batch(dpid, fms).1, 0);
            // Straddles the TCAM/software boundary of the install order,
            // twice over.
            for _ in 0..2 {
                let (mut fast, mut slow) = (0, 0);
                for id in TCAM - 500..TCAM + 500 {
                    let now = tb.now();
                    tb.submit(dpid, ControlOp::Probe(FlowMatch::key_for_id(id)), now);
                    match tb.next_completion().expect("the probe completes").outcome {
                        OpOutcome::Probe(Hit::Table { level: 0, .. }) => fast += 1,
                        OpOutcome::Probe(Hit::Table { .. }) => slow += 1,
                        other => panic!("probe {id} should hit, not {other:?}"),
                    }
                }
                if fifo {
                    // Membership is traffic independent: the oldest
                    // `TCAM` installs hold the TCAM, sweep after sweep.
                    assert_eq!((fast, slow), (500, 500));
                }
            }
            let sw = tb.switch(dpid);
            assert_eq!(sw.level_occupancy(0), TCAM as usize, "the TCAM stays full");
            assert_eq!(sw.rule_count(), 2 * TCAM as usize);
        }
    }

    #[test]
    fn scheduled_ops_serialize_per_switch() {
        let (mut tb, dpid) = testbed_with(SwitchProfile::vendor1());
        let t0 = tb.now();
        let a = tb.submit(
            dpid,
            ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(1), 10)),
            t0,
        );
        let b = tb.submit(
            dpid,
            ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(2), 10)),
            t0,
        );
        let c1 = tb.wait_for(a);
        let c2 = tb.wait_for(b);
        assert!(c2.done_at > c1.done_at, "ops on one switch serialize");
        assert!(c1.acked_at > c1.done_at);
        // The second op starts exactly when the first finishes.
        assert!(c2.done_at > c1.done_at);
    }

    #[test]
    fn scheduled_ops_on_different_switches_overlap() {
        let mut tb = Testbed::new(3);
        tb.attach_default(Dpid(1), SwitchProfile::vendor1());
        tb.attach_default(Dpid(2), SwitchProfile::vendor1());
        let t0 = tb.now();
        let a = tb.submit(
            Dpid(1),
            ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(1), 10)),
            t0,
        );
        let b = tb.submit(
            Dpid(2),
            ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(1), 10)),
            t0,
        );
        let c1 = tb.wait_for(a);
        let c2 = tb.wait_for(b);
        // Independent switches start immediately; completions are close.
        let gap = c1.done_at.since(c2.done_at).as_millis_f64().abs()
            + c2.done_at.since(c1.done_at).as_millis_f64().abs();
        assert!(gap < 5.0, "parallel switches should overlap (gap {gap} ms)");
        assert!(tb.all_quiet_at() >= c1.done_at.max(c2.done_at));
    }

    #[test]
    fn completions_surface_in_time_order() {
        let mut tb = Testbed::new(9);
        tb.attach_default(Dpid(1), SwitchProfile::vendor1());
        tb.attach_default(Dpid(2), SwitchProfile::ovs());
        let t0 = tb.now();
        for i in 0..6u32 {
            let dpid = Dpid(1 + u64::from(i % 2));
            tb.submit(
                dpid,
                ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(i), 10)),
                t0,
            );
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        while let Some(c) = tb.next_completion() {
            assert!(c.done_at >= last, "completions must be time-ordered");
            last = c.done_at;
            seen += 1;
        }
        assert_eq!(seen, 6);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (mut tb, dpid) = testbed_with(SwitchProfile::vendor1());
            for i in 0..20u32 {
                tb.flow_mod(dpid, FlowMod::add(FlowMatch::l3_for_id(i), 100 - i as u16));
            }
            tb.now()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sync_and_scheduled_flow_mods_agree_on_state() {
        // Installing rules via the synchronous adapter or via raw
        // submit/wait leaves the switch in the same state — they are the
        // same path.
        let state = |scheduled: bool| {
            let (mut tb, dpid) = testbed_with(SwitchProfile::vendor2());
            for i in 0..30u32 {
                let fm = FlowMod::add(FlowMatch::l3_for_id(i), 10 + i as u16);
                if scheduled {
                    let now = tb.now();
                    let tok = tb.submit(dpid, ControlOp::FlowMod(fm), now);
                    let c = tb.wait_for(tok);
                    tb.warp_to(c.acked_at);
                } else {
                    tb.flow_mod(dpid, fm);
                }
            }
            (tb.switch(dpid).rule_count(), tb.now())
        };
        assert_eq!(state(false), state(true));
    }

    #[test]
    fn cloned_testbed_replays_identically() {
        // A clone taken mid-history must behave byte-identically to the
        // original from that point on (the sweep-reuse contract).
        let (mut tb, dpid) = testbed_with(SwitchProfile::vendor2());
        for i in 0..10u32 {
            tb.flow_mod(dpid, FlowMod::add(FlowMatch::l3_for_id(i), 10));
        }
        let mut tb2 = tb.clone();
        let drive = |tb: &mut Testbed| {
            let mut trace = Vec::new();
            for i in 10..25u32 {
                let (res, d) = tb.flow_mod(dpid, FlowMod::add(FlowMatch::l3_for_id(i), 10));
                trace.push((res, d));
            }
            trace.push((OpResult::Ok, tb.echo(dpid, 64)));
            (trace, tb.now())
        };
        assert_eq!(drive(&mut tb), drive(&mut tb2));
    }

    /// A two-switch program with every op kind, a rejection included.
    fn mixed_program() -> Vec<(Dpid, ControlOp)> {
        let add = |id| ControlOp::FlowMod(FlowMod::add(FlowMatch::l2l3_for_id(id), 10));
        let fill = (0..400).map(|i| FlowMod::add(FlowMatch::l2l3_for_id(i), 10));
        let mut prog = vec![
            (Dpid(1), ControlOp::Batch(fill.collect())),
            (Dpid(2), add(1)),
        ];
        for i in 0..12u32 {
            prog.push((Dpid(1), add(1000 + i)));
            prog.push((Dpid(1), ControlOp::Probe(FlowMatch::key_for_id(i * 40))));
            prog.push((Dpid(2), ControlOp::Probe(FlowMatch::key_for_id(i % 3))));
            prog.push((Dpid(2), ControlOp::Echo(8 * i as usize)));
        }
        prog
    }

    type Stream = Vec<(SimTime, SimTime, OpOutcome)>;

    /// Runs `tb` until idle, filing completions per switch; returns the
    /// streams and the final clock.
    fn run_out(mut tb: Testbed) -> (BTreeMap<Dpid, Stream>, SimTime) {
        let mut streams: BTreeMap<Dpid, Stream> = BTreeMap::new();
        while let Some(c) = tb.next_completion() {
            let stream = streams.entry(c.dpid).or_default();
            stream.push((c.done_at, c.acked_at, c.outcome));
        }
        (streams, tb.now())
    }

    #[test]
    fn chained_submission_equals_one_at_a_time_at_each_ack() {
        let mut timed = Testbed::new(11);
        timed.attach_default(Dpid(1), SwitchProfile::vendor3());
        timed.attach_default(Dpid(2), SwitchProfile::ovs());
        let mut chained = timed.clone();
        let t0 = timed.now();

        // One at a time: each switch's next op at its previous ack.
        let mut queues: BTreeMap<Dpid, VecDeque<ControlOp>> = BTreeMap::new();
        for (dpid, op) in mixed_program() {
            queues.entry(dpid).or_default().push_back(op);
        }
        for (dpid, q) in &mut queues {
            timed.submit(*dpid, q.pop_front().expect("non-empty"), t0);
        }
        let mut expected: BTreeMap<Dpid, Stream> = BTreeMap::new();
        while let Some(c) = timed.next_completion() {
            let stream = expected.entry(c.dpid).or_default();
            stream.push((c.done_at, c.acked_at, c.outcome));
            if let Some(op) = queues.get_mut(&c.dpid).and_then(VecDeque::pop_front) {
                timed.submit(c.dpid, op, c.acked_at);
            }
        }
        let rejected = OpOutcome::FlowMod(OpResult::TableFull);
        assert!(expected[&Dpid(1)].iter().any(|c| c.2 == rejected));

        // Ahead of time: the whole program before the first event runs.
        let mut started = Vec::new();
        for (dpid, op) in mixed_program() {
            if started.contains(&dpid) {
                chained.submit(dpid, op, READY_ON_PREVIOUS_ACK);
            } else {
                started.push(dpid);
                chained.submit(dpid, op, t0);
            }
        }
        assert_eq!(run_out(chained), (expected, timed.now()));
    }

    #[test]
    fn chained_submit_on_a_quiet_switch_leaves_at_the_last_ack() {
        let (mut tb, dpid) = testbed_with(SwitchProfile::vendor1());
        let mut twin = tb.clone();
        let fm = |id| ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(id), 10));
        // Before any op the last ack is the attach time.
        let a = tb.submit(dpid, fm(1), READY_ON_PREVIOUS_ACK);
        let ca = tb.wait_for(a);
        let b = tb.submit(dpid, fm(2), READY_ON_PREVIOUS_ACK);
        let cb = tb.wait_for(b);
        let now = twin.now();
        let a = twin.submit(dpid, fm(1), now);
        assert_eq!(twin.wait_for(a), ca);
        let b = twin.submit(dpid, fm(2), ca.acked_at);
        assert_eq!(twin.wait_for(b), cb);
    }

    #[test]
    fn chained_op_waits_for_the_last_of_several_ops_out() {
        let (mut tb, dpid) = testbed_with(SwitchProfile::vendor1());
        let mut twin = tb.clone();
        let fm = |id| ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(id), 10));
        // The second op is still on the link when the first finishes.
        let t0 = tb.now();
        let later = t0 + SimDuration::from_millis_f64(50.0);
        tb.submit(dpid, fm(1), t0);
        tb.submit(dpid, fm(2), later);
        tb.submit(dpid, fm(3), READY_ON_PREVIOUS_ACK);
        let chained: Vec<_> = std::iter::from_fn(|| tb.next_completion()).collect();
        twin.submit(dpid, fm(1), t0);
        let b = twin.submit(dpid, fm(2), later);
        let cb = twin.wait_for(b);
        twin.submit(dpid, fm(3), cb.acked_at);
        let mut timed: Vec<_> = std::iter::from_fn(|| twin.next_completion()).collect();
        timed.insert(1, cb);
        assert_eq!(chained, timed);
        assert!(chained[2].done_at > cb.acked_at);
    }

    #[test]
    fn timed_submit_behind_chained_ops_queues_in_channel_order() {
        let (mut tb, dpid) = testbed_with(SwitchProfile::ovs());
        let t0 = tb.now();
        tb.submit(dpid, ControlOp::Echo(8), t0);
        tb.submit(dpid, ControlOp::Echo(8), READY_ON_PREVIOUS_ACK);
        tb.submit(dpid, ControlOp::Echo(8), t0);
        let done: Vec<_> = std::iter::from_fn(|| tb.next_completion()).collect();
        // Ready at t0, the third op still arrives behind the second.
        assert!(done[2].done_at >= done[1].done_at);
        assert!(done[1].done_at > done[0].acked_at);
    }

    #[test]
    fn done_at_ties_go_to_the_op_that_started_first() {
        // Jitter-free 1 ms links. Switch 2's flow-mod starts at 1 ms and
        // finishes at `d`; switch 1's echo, submitted first (lower
        // token), arrives at `d` and, costing nothing, also finishes at
        // `d`. The flow-mod started first, so it is delivered first.
        let link = Link::ideal(simnet::dist::Dist::Constant(1.0));
        let mut tb = Testbed::new(4);
        tb.attach(Dpid(1), SwitchProfile::ovs(), link);
        tb.attach(Dpid(2), SwitchProfile::ovs(), link);
        let fm = || ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(1), 10));
        let d = {
            let mut twin = tb.clone();
            let t = twin.submit(Dpid(2), fm(), SimTime::ZERO);
            twin.wait_for(t).done_at
        };
        let ms = SimDuration::from_millis(1);
        let echo = tb.submit(Dpid(1), ControlOp::Echo(8), SimTime(d.0 - ms.0));
        let flow_mod = tb.submit(Dpid(2), fm(), SimTime::ZERO);
        let first = tb.next_completion().expect("two ops out");
        let second = tb.next_completion().expect("two ops out");
        assert_eq!((first.done_at, second.done_at), (d, d));
        assert_eq!((first.token, second.token), (flow_mod, echo));
    }

    #[test]
    fn telemetry_records_op_spans_without_changing_timing() {
        let drive = |traced: bool| {
            let (mut tb, dpid) = testbed_with(SwitchProfile::vendor1());
            if traced {
                tb.enable_telemetry();
            }
            for i in 0..5u32 {
                tb.flow_mod(dpid, FlowMod::add(FlowMatch::l3_for_id(i), 10));
            }
            tb.probe(dpid, &FlowMatch::key_for_id(1));
            (tb.now(), tb.finish_recorder())
        };
        let (t_off, rec_off) = drive(false);
        let (t_on, rec_on) = drive(true);
        assert!(rec_off.is_none());
        // Telemetry is observation-only: identical virtual end time.
        assert_eq!(t_off, t_on);
        let rec = rec_on.expect("enabled telemetry yields a recorder");
        assert_eq!(rec.open_spans(), 0, "all op spans closed");
        assert_eq!(rec.spans().filter(|s| s.name == "flow_mod").count(), 5);
        assert_eq!(rec.spans().filter(|s| s.name == "probe").count(), 1);
        assert_eq!(rec.counter("op/flow_mod"), 5);
        assert_eq!(rec.counter("switch/ops_done"), 6);
        assert!(rec.counter("sim/events") > 0);
        assert!(rec.counter("pipeline/adds_hw") + rec.counter("pipeline/adds_sw") == 5);
        let m = rec.metrics();
        assert!(m.hists.iter().any(|(k, _)| k == "switch/queue_depth"));
    }

    #[test]
    fn wait_for_out_of_delivery_order() {
        // Picking up a later token first must not lose or reorder the
        // remaining completions.
        let mut tb = Testbed::new(5);
        tb.attach_default(Dpid(1), SwitchProfile::vendor1());
        tb.attach_default(Dpid(2), SwitchProfile::vendor2());
        let t0 = tb.now();
        let a = tb.submit(
            Dpid(1),
            ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(1), 10)),
            t0,
        );
        let b = tb.submit(
            Dpid(2),
            ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(2), 10)),
            t0,
        );
        let cb = tb.wait_for(b);
        let ca = tb.wait_for(a);
        assert_eq!(ca.token, a);
        assert_eq!(cb.token, b);
        assert!(tb.next_completion().is_none(), "no duplicates in stream");
    }

    #[test]
    fn echo_rtt_reflects_the_channel_not_the_tables() {
        use simnet::trace::Summary;
        let mut tb = Testbed::new(77);
        let dpid = Dpid(1);
        tb.attach(dpid, SwitchProfile::vendor1(), Link::control_channel(1.5));
        let echo_mean =
            |tb: &mut Testbed| Summary::of((0..200).map(|_| tb.echo(dpid, 32).as_millis_f64()));
        let before = echo_mean(&mut tb);
        // Two crossings of a ~1.5 ms one-way channel.
        assert!((before.mean - 3.0).abs() < 0.3, "mean {}", before.mean);
        // Installing rules must not change the echo RTT.
        for i in 0..500 {
            tb.flow_mod(dpid, FlowMod::add(FlowMatch::l3_for_id(i), 10));
        }
        let after = echo_mean(&mut tb);
        assert!(
            (after.mean - before.mean).abs() < 0.2,
            "{} vs {}",
            after.mean,
            before.mean
        );
    }
}
