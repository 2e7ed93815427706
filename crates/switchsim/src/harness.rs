//! The testbed harness: one or more agent-wrapped switches behind
//! latency-modelled control channels, driven by a single event-driven
//! core inside one `simnet` simulator.
//!
//! The testbed is the in-memory implementation of
//! [`ControlPath`]: operations are submitted
//! with a controller-side ready time, traverse the per-switch control
//! link (FIFO, jittered), serialize on the switch's control CPU, and
//! surface as typed [`Completion`] events in virtual-time order. The
//! classic synchronous calls (`flow_mod`, `batch`, `probe`, `echo`) are
//! thin adapters over that core: submit, wait for the token, warp the
//! shared clock to the ack.
//!
//! Because the core is one event loop over one simulator, many switches
//! make progress in interleaved virtual time — the property the
//! network-wide schedulers and concurrent inference both rely on.
//!
//! # Hot-path wiring
//!
//! Switches live in a dense `Vec<Attached>` and every simulator event
//! carries the switch's `u32` index, so the per-event dispatch is an
//! array access — the `Dpid → switch` map is consulted only at the
//! public API boundary (attach/submit), never inside the event loop.
//! Completions land in a `CompletionRing` addressed by the globally
//! monotonic token number (`token - base` is the slot), so `wait_for`
//! is O(1) instead of a scan, while a delivery-order queue preserves
//! the time-ordered stream `next_completion` hands out. Encoded wire
//! buffers recycle through a spare pool: steady state allocates
//! nothing per op.

use crate::agent::{Agent, AgentOutput};
use crate::chan::{self, ChanCodec, OpKind};
use crate::control::{
    Completion, ControlOp, ControlPath, OpOutcome, OpToken, READY_ON_PREVIOUS_ACK,
};
use crate::pipeline::Hit;
use crate::profiles::SwitchProfile;
use crate::switch::{DataPathStats, Switch};
use ofwire::flow_match::FlowKey;
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use simnet::link::Link;
use simnet::rng::DetRng;
use simnet::sim::Simulator;
use simnet::telemetry::{
    switch_track, Recorder, SpanId, Telemetry, TRACK_CONTROLLER, TRACK_SCHEDULER,
};
use simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

pub use crate::control::OpResult;

/// An operation travelling the control path: encoded at submit time
/// (frames built, xids assigned, link latencies drawn) so the wire
/// behaviour is fixed the moment the controller lets go of it.
#[derive(Clone)]
struct PendingOp {
    token: OpToken,
    kind: OpKind,
    /// Encoded wire bytes for the whole operation (pooled: returned to
    /// the testbed's spare-buffer stack once the agent has consumed it).
    bytes: Vec<u8>,
    /// Forward (controller → switch) link latency.
    up: SimDuration,
    /// Return (switch → controller) link latency; zero for probes,
    /// whose reply rides the measured forwarding outcome.
    down: SimDuration,
}

/// An operation occupying the switch's control CPU, with its completion
/// already computed (the agent ran when processing started).
#[derive(Clone)]
struct InFlight {
    token: OpToken,
    done_at: SimTime,
    acked_at: SimTime,
    outcome: OpOutcome,
    /// The op's telemetry span, opened when processing began; `None`
    /// when telemetry is off.
    span: Option<SpanId>,
}

/// One switch attached to the testbed.
#[derive(Clone)]
struct Attached {
    dpid: Dpid,
    agent: Agent,
    ctrl_link: Link,
    /// Per-switch latency stream, forked once at attach so a switch's
    /// jitter depends only on its own operation history — the property
    /// that makes concurrent multi-switch runs reproduce sequential
    /// ones.
    rng: DetRng,
    /// Xid assignment and barrier bookkeeping, shared wire discipline
    /// with the real-TCP transport (see [`crate::chan`]).
    codec: ChanCodec,
    /// Submitted ops whose arrival event has not fired yet (FIFO: the
    /// control channel is an ordered stream).
    incoming: VecDeque<PendingOp>,
    /// Arrived ops waiting for the control CPU.
    waiting: VecDeque<PendingOp>,
    /// The op being processed, if any.
    current: Option<InFlight>,
    /// Latest arrival so far — arrivals are clamped monotone to model
    /// in-order delivery.
    last_arrival: SimTime,
    /// Latest completion (`done_at`) observed on this switch.
    quiet_at: SimTime,
    /// `acked_at` of the op that completed last (attach time before any).
    last_ack: SimTime,
    /// Ops submitted with [`READY_ON_PREVIOUS_ACK`] behind an op still
    /// out: token minted, not encoded, no event. The `Done` of the last
    /// launched op launches the front one, so xids, latency draws and
    /// simulator events happen exactly as in one-at-a-time submission.
    parked: VecDeque<(OpToken, ControlOp)>,
}

/// Events the testbed's simulator carries. The payload is the dense
/// switch index, so handling an event never touches the dpid map.
#[derive(Clone, Copy)]
enum CtrlEvent {
    /// The front of `incoming` reaches the switch.
    Arrive(u32),
    /// The current op finishes processing.
    Done(u32),
}

/// One completion slot in the ring.
#[derive(Clone)]
enum RingSlot {
    /// No completion delivered for this token yet.
    Pending,
    /// Delivered, awaiting pickup.
    Ready(Completion),
    /// Picked up out of delivery order by `wait_for`.
    Taken,
}

/// Flat completion storage addressed by token number.
///
/// Tokens are minted by one global counter, so `token - base` indexes a
/// ring of slots; `wait_for(token)` is a bounds check plus an array
/// read. A separate queue records tokens in the order their completions
/// were delivered (virtual-time order), so `next_completion` preserves
/// the stream semantics of the old FIFO; entries taken early by
/// `wait_for` leave a `Taken` tombstone the queue skips. The front of
/// the ring compacts as prefixes drain, keeping its footprint at the
/// outstanding-op span.
#[derive(Clone, Default)]
struct CompletionRing {
    /// Token number of `slots[0]`.
    base: u64,
    slots: VecDeque<RingSlot>,
    /// Tokens in completion-delivery order.
    delivered: VecDeque<OpToken>,
}

impl CompletionRing {
    /// Records a delivered completion.
    fn push(&mut self, c: Completion) {
        let token = c.token;
        let idx = (token.0 - self.base) as usize;
        while self.slots.len() <= idx {
            self.slots.push_back(RingSlot::Pending);
        }
        self.slots[idx] = RingSlot::Ready(c);
        self.delivered.push_back(token);
    }

    /// Takes the completion for `token` if it has been delivered and
    /// not yet picked up.
    fn take(&mut self, token: OpToken) -> Option<Completion> {
        let idx = usize::try_from(token.0.checked_sub(self.base)?).expect("token offset");
        let slot = self.slots.get_mut(idx)?;
        if !matches!(slot, RingSlot::Ready(_)) {
            return None;
        }
        let RingSlot::Ready(c) = std::mem::replace(slot, RingSlot::Taken) else {
            unreachable!("matched Ready above");
        };
        while matches!(self.slots.front(), Some(RingSlot::Taken)) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(c)
    }

    /// Next completion in delivery order, skipping tombstones.
    fn pop_delivered(&mut self) -> Option<Completion> {
        while let Some(token) = self.delivered.pop_front() {
            if let Some(c) = self.take(token) {
                return Some(c);
            }
        }
        None
    }
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
    sim: Simulator<CtrlEvent>,
    /// Dense switch storage; event payloads index into this.
    switches: Vec<Attached>,
    /// Public-API boundary map: dpid → dense index (also fixes the
    /// sorted order `dpids()` reports).
    index: BTreeMap<Dpid, u32>,
    rng: DetRng,
    next_token: u64,
    /// Completions delivered by the event core, awaiting pickup.
    ring: CompletionRing,
    /// Scratch for agent outputs, reused across every `begin` so the
    /// control channel does not allocate a vector per op.
    agent_outs: Vec<AgentOutput>,
    /// Retired wire buffers awaiting reuse by `encode`.
    spare_bufs: Vec<Vec<u8>>,
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
            sim: Simulator::new(),
            switches: Vec::new(),
            index: BTreeMap::new(),
            rng: DetRng::new(seed),
            next_token: 0,
            ring: CompletionRing::default(),
            agent_outs: Vec::new(),
            spare_bufs: Vec::new(),
            telemetry: Telemetry::off(),
        }
    }

    /// Switches this testbed's telemetry on: a fresh recorder collects
    /// op spans, dispatch metrics, and whatever the layers above emit.
    /// Telemetry observes — it never draws randomness or alters event
    /// timing — so results are identical with it on or off.
    pub fn enable_telemetry(&mut self) {
        self.telemetry = Telemetry::recording();
    }

    /// The testbed's telemetry handle (disabled by default; every method
    /// on a disabled handle is a no-op).
    pub fn telemetry(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Closes out telemetry: snapshots per-switch data-path stats and
    /// the simulator's event count and peak queue depth into the
    /// registry, labels the export tracks, closes any still-open spans
    /// at the current virtual time, and detaches the recorder. Returns
    /// `None` when telemetry was never enabled.
    pub fn finish_recorder(&mut self) -> Option<Box<Recorder>> {
        if !self.telemetry.is_enabled() {
            return None;
        }
        let mut agg = DataPathStats::default();
        for att in &self.switches {
            let s = att.agent.switch().stats();
            agg.adds_hw += s.adds_hw;
            agg.adds_sw += s.adds_sw;
            agg.add_rejects += s.add_rejects;
            agg.tcam_shift_units += s.tcam_shift_units;
            agg.mods += s.mods;
            agg.deleted_rules += s.deleted_rules;
            agg.expired_rules += s.expired_rules;
            agg.lookups += s.lookups;
            agg.fast_hits += s.fast_hits;
            agg.slow_hits += s.slow_hits;
            agg.misses += s.misses;
        }
        let t = &mut self.telemetry;
        t.count("pipeline/adds_hw", agg.adds_hw);
        t.count("pipeline/adds_sw", agg.adds_sw);
        t.count("pipeline/add_rejects", agg.add_rejects);
        t.count("pipeline/tcam_shift_units", agg.tcam_shift_units);
        t.count("pipeline/mods", agg.mods);
        t.count("pipeline/deleted_rules", agg.deleted_rules);
        t.count("pipeline/expired_rules", agg.expired_rules);
        t.count("pipeline/lookups", agg.lookups);
        t.count("pipeline/fast_hits", agg.fast_hits);
        t.count("pipeline/slow_hits", agg.slow_hits);
        t.count("pipeline/misses", agg.misses);
        t.count("sim/events", self.sim.events_processed());
        t.gauge_max("sim/queue_depth_max", self.sim.queue_depth_max() as u64);
        let now = self.sim.now();
        let mut rec = self.telemetry.take()?;
        rec.close_all(now);
        rec.name_track(TRACK_CONTROLLER, "controller");
        rec.name_track(TRACK_SCHEDULER, "scheduler");
        for (i, att) in self.switches.iter().enumerate() {
            let track = switch_track(u32::try_from(i).expect("switch count fits u32"));
            rec.name_track(track, format!("switch {i} (dpid {})", att.dpid.0));
        }
        Some(rec)
    }

    /// Attaches a switch built from `profile` behind `ctrl_link`.
    pub fn attach(&mut self, dpid: Dpid, profile: SwitchProfile, ctrl_link: Link) {
        let (seed, link_rng) = chan::attach_streams(&mut self.rng, dpid);
        let switch = Switch::new(profile, dpid, seed);
        let now = self.sim.now();
        let idx = u32::try_from(self.switches.len()).expect("switch count fits u32");
        let prev = self.index.insert(dpid, idx);
        assert!(prev.is_none(), "dpid {dpid:?} attached twice");
        self.switches.push(Attached {
            dpid,
            agent: Agent::new(switch),
            ctrl_link,
            rng: link_rng,
            codec: ChanCodec::new(),
            incoming: VecDeque::new(),
            waiting: VecDeque::new(),
            current: None,
            last_arrival: now,
            quiet_at: now,
            last_ack: now,
            parked: VecDeque::new(),
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
        self.sim.now()
    }

    /// Advances the shared clock (e.g. to model controller think time).
    pub fn advance(&mut self, d: SimDuration) {
        self.sim.advance(d);
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
        self.switches[self.idx(dpid) as usize].agent.switch()
    }

    /// Encodes `op` into wire bytes on the channel of the switch at
    /// `idx`, assigning xids and drawing both link latencies from the
    /// switch's own stream.
    fn encode(&mut self, idx: u32, token: OpToken, op: ControlOp) -> PendingOp {
        let mut bytes = self.spare_bufs.pop().unwrap_or_default();
        bytes.clear();
        let att = &mut self.switches[idx as usize];
        let dpid = att.dpid;
        let kind = att.codec.encode_op(op, &mut bytes);
        let (up, down) =
            chan::draw_latencies(&att.ctrl_link, &mut att.rng, dpid, kind, bytes.len());
        PendingOp {
            token,
            kind,
            bytes,
            up,
            down,
        }
    }

    /// `op` leaves the controller at `ready_at`: encode, schedule arrival.
    fn launch(&mut self, idx: u32, token: OpToken, op: ControlOp, ready_at: SimTime) {
        let pending = self.encode(idx, token, op);
        self.telemetry.count(
            match pending.kind {
                OpKind::FlowMod => "op/flow_mod",
                OpKind::Batch { .. } => "op/batch",
                OpKind::Probe => "op/probe",
                OpKind::Echo { .. } => "op/echo",
            },
            1,
        );
        let att = &mut self.switches[idx as usize];
        // In-order delivery: a frame cannot overtake an earlier one on
        // the same channel. The clamp is timing-neutral for processing
        // (the CPU queue already serializes) but keeps arrivals FIFO.
        let arrive = (ready_at + pending.up).max(att.last_arrival);
        att.last_arrival = arrive;
        att.incoming.push_back(pending);
        self.sim.schedule_at(arrive, CtrlEvent::Arrive(idx));
    }

    /// Begins processing `op` on the switch at `idx` at time `start`:
    /// runs the agent, derives the completion, and schedules its `Done`
    /// event. The op's wire buffer retires to the spare pool.
    fn begin(&mut self, idx: u32, op: PendingOp, start: SimTime) {
        let span_name = match op.kind {
            OpKind::FlowMod => "flow_mod",
            OpKind::Batch { .. } => "batch",
            OpKind::Probe => "probe",
            OpKind::Echo { .. } => "echo",
        };
        let span = self
            .telemetry
            .span_begin(switch_track(idx), span_name, start);
        // Reuse one scratch vector for agent outputs across all ops.
        let mut outs = std::mem::take(&mut self.agent_outs);
        outs.clear();
        let att = &mut self.switches[idx as usize];
        att.agent
            .feed_into(&op.bytes, start, &mut outs)
            .expect("well-formed frame");
        let (duration, outcome) = chan::op_completion(op.kind, &outs, att.codec.barriers_mut());
        let done_at = start + duration;
        att.current = Some(InFlight {
            token: op.token,
            done_at,
            acked_at: done_at + op.down,
            outcome,
            span,
        });
        self.agent_outs = outs;
        self.spare_bufs.push(op.bytes);
        self.sim.schedule_at(done_at, CtrlEvent::Done(idx));
    }

    /// Processes one simulator event.
    fn handle(&mut self, at: SimTime, ev: CtrlEvent) {
        match ev {
            CtrlEvent::Arrive(idx) => {
                let att = &mut self.switches[idx as usize];
                let op = att
                    .incoming
                    .pop_front()
                    .expect("arrival event without a pending op");
                if att.current.is_some() {
                    att.waiting.push_back(op);
                    // Depth counts the op on the CPU plus everyone queued.
                    let depth = att.waiting.len() as f64 + 1.0;
                    self.telemetry.observe("switch/queue_depth", depth);
                } else {
                    self.telemetry.observe("switch/queue_depth", 1.0);
                    self.begin(idx, op, at);
                }
            }
            CtrlEvent::Done(idx) => {
                let att = &mut self.switches[idx as usize];
                let inflight = att.current.take().expect("done event without an op");
                att.quiet_at = att.quiet_at.max(inflight.done_at);
                att.last_ack = inflight.acked_at;
                let next = att.waiting.pop_front();
                self.telemetry.span_end(inflight.span, inflight.done_at);
                self.telemetry.count("switch/ops_done", 1);
                self.ring.push(Completion {
                    token: inflight.token,
                    dpid: att.dpid,
                    done_at: inflight.done_at,
                    acked_at: inflight.acked_at,
                    outcome: inflight.outcome,
                });
                if let Some(op) = next {
                    self.begin(idx, op, at);
                } else if att.incoming.is_empty() {
                    // The last launched op is done: its ack releases the
                    // front parked op.
                    if let Some((token, op)) = att.parked.pop_front() {
                        self.launch(idx, token, op, inflight.acked_at);
                    }
                }
            }
        }
    }

    /// Synchronously applies one flow-mod: send → process → barrier-ack.
    /// Advances the clock by the full round trip and returns the result
    /// and the elapsed time.
    pub fn flow_mod(&mut self, dpid: Dpid, fm: FlowMod) -> (OpResult, SimDuration) {
        let start = self.sim.now();
        let token = self.submit(dpid, ControlOp::FlowMod(fm), start);
        let c = self.wait_for(token);
        self.warp_to(c.acked_at);
        let result = match c.outcome {
            OpOutcome::FlowMod(r) => r,
            _ => unreachable!("flow-mod submit yields a flow-mod outcome"),
        };
        (result, c.acked_at.since(start))
    }

    /// Synchronously applies a batch of flow-mods followed by a barrier
    /// (the paper's installation-time measurement methodology). Messages
    /// are pipelined: one upstream latency, serial processing, one
    /// downstream latency. Returns (successes, failures, elapsed).
    pub fn batch(&mut self, dpid: Dpid, fms: Vec<FlowMod>) -> (usize, usize, SimDuration) {
        let start = self.sim.now();
        let token = self.submit(dpid, ControlOp::Batch(fms), start);
        let c = self.wait_for(token);
        self.warp_to(c.acked_at);
        let (ok, failed) = match c.outcome {
            OpOutcome::Batch { ok, failed } => (ok, failed),
            _ => unreachable!("batch submit yields a batch outcome"),
        };
        (ok, failed, c.acked_at.since(start))
    }

    /// Sends a probe frame matching `key` through the switch's data
    /// plane via `packet_out`, returning where it was served and the
    /// measured RTT (generator link + forwarding delay). Advances the
    /// clock by the RTT.
    pub fn probe(&mut self, dpid: Dpid, key: &FlowKey) -> (Hit, SimDuration) {
        let start = self.sim.now();
        let token = self.submit(dpid, ControlOp::Probe(*key), start);
        let c = self.wait_for(token);
        self.warp_to(c.done_at);
        let hit = match c.outcome {
            OpOutcome::Probe(hit) => hit,
            _ => unreachable!("probe submit yields a probe outcome"),
        };
        (hit, c.done_at.since(start))
    }

    /// Measures one control-channel round trip with an `echo_request`
    /// of `payload` bytes (the classic liveness/RTT probe). Advances the
    /// clock by the RTT.
    pub fn echo(&mut self, dpid: Dpid, payload: usize) -> SimDuration {
        let start = self.sim.now();
        let token = self.submit(dpid, ControlOp::Echo(payload), start);
        let c = self.wait_for(token);
        self.warp_to(c.acked_at);
        c.acked_at.since(start)
    }

    /// Runs every in-flight operation to completion and returns the time
    /// the network goes quiet (network-wide makespan reference point).
    /// Completions delivered along the way remain available through
    /// [`ControlPath::next_completion`]; the shared clock advances to the
    /// last settled event.
    pub fn all_quiet_at(&mut self) -> SimTime {
        while let Some((at, ev)) = self.sim.next_event() {
            self.handle(at, ev);
        }
        self.switches
            .iter()
            .map(|a| a.quiet_at)
            .max()
            .unwrap_or_else(|| self.sim.now())
            .max(self.sim.now())
    }

    /// Warps the shared clock to `t` (must not go backwards).
    pub fn warp_to(&mut self, t: SimTime) {
        let now = self.sim.now();
        assert!(t >= now, "clock cannot go backwards");
        self.sim.advance(t.since(now));
    }
}

impl ControlPath for Testbed {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn submit(&mut self, dpid: Dpid, op: ControlOp, mut ready_at: SimTime) -> OpToken {
        let idx = self.idx(dpid);
        let token = OpToken(self.next_token);
        self.next_token += 1;
        let att = &mut self.switches[idx as usize];
        if ready_at == READY_ON_PREVIOUS_ACK {
            if att.current.is_some() || !att.incoming.is_empty() || !att.waiting.is_empty() {
                att.parked.push_back((token, op));
                return token;
            }
            ready_at = att.last_ack;
        } else {
            assert!(att.parked.is_empty(), "timed submit behind parked ops");
        }
        assert!(
            ready_at >= self.sim.now(),
            "op submitted at {ready_at} before now {}",
            self.sim.now()
        );
        self.launch(idx, token, op, ready_at);
        token
    }

    fn next_completion(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.ring.pop_delivered() {
                return Some(c);
            }
            let (at, ev) = self.sim.next_event()?;
            self.handle(at, ev);
        }
    }

    fn wait_for(&mut self, token: OpToken) -> Completion {
        if let Some(c) = self.ring.take(token) {
            return c;
        }
        loop {
            let (at, ev) = self
                .sim
                .next_event()
                .expect("token must identify an in-flight op");
            self.handle(at, ev);
            if let Some(c) = self.ring.take(token) {
                return c;
            }
        }
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

    /// Drains `tb`, filing completions per switch; returns the streams
    /// and the final clock.
    fn drain(mut tb: Testbed) -> (BTreeMap<Dpid, Stream>, SimTime) {
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
        assert_eq!(drain(chained), (expected, timed.now()));
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
    #[should_panic(expected = "timed submit behind parked ops")]
    fn timed_submit_behind_parked_ops_is_a_caller_error() {
        let (mut tb, dpid) = testbed_with(SwitchProfile::ovs());
        let t0 = tb.now();
        tb.submit(dpid, ControlOp::Echo(8), t0);
        tb.submit(dpid, ControlOp::Echo(8), READY_ON_PREVIOUS_ACK);
        tb.submit(dpid, ControlOp::Echo(8), t0);
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
        // remaining completions (ring tombstone path).
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
}
