//! The event-driven testbed, kept as the timing oracle the shipping
//! `Testbed` is diffed against (`proptest_timing_oracle.rs`).
//!
//! Every attached switch hangs off one [`EventQueue`] carrying message
//! *arrival* and operation *done* events. Per-switch FIFO queues
//! serialize the channel; an op submitted with [`READY_ON_PREVIOUS_ACK`]
//! while its predecessor is out is *parked* (token minted, nothing
//! encoded, no event) and launched by the `Done` of the last launched op
//! at that op's `acked_at`. Completions surface in event order, so ties
//! on `done_at` go to the op whose processing began first.
//!
//! Timing only: no telemetry and no synchronous adapters. It shares the
//! channel's encoding, latency draws and outcome fold with the shipping
//! testbed ([`switchsim::chan`]); the scheduling is all its own.

use ofwire::types::Dpid;
use simnet::event::EventQueue;
use simnet::link::Link;
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use switchsim::agent::{Agent, AgentOutput};
use switchsim::chan::{self, ChanCodec, OpKind};
use switchsim::control::{
    Completion, ControlOp, ControlPath, OpOutcome, OpToken, READY_ON_PREVIOUS_ACK,
};
use switchsim::profiles::SwitchProfile;
use switchsim::switch::Switch;

/// An op encoded (frames built, latencies drawn) and travelling the link.
struct PendingOp {
    token: OpToken,
    kind: OpKind,
    bytes: Vec<u8>,
    /// Return-leg latency, drawn at launch.
    down: SimDuration,
}

/// The op occupying a switch's control CPU, its completion computed.
struct InFlight {
    token: OpToken,
    done_at: SimTime,
    acked_at: SimTime,
    outcome: OpOutcome,
}

struct Attached {
    dpid: Dpid,
    agent: Agent,
    link: Link,
    rng: DetRng,
    codec: ChanCodec,
    /// Launched ops whose arrival has not fired yet.
    incoming: VecDeque<PendingOp>,
    /// Arrived ops waiting for the control CPU.
    waiting: VecDeque<PendingOp>,
    current: Option<InFlight>,
    /// Arrivals are clamped monotone: in-order delivery.
    last_arrival: SimTime,
    /// `acked_at` of the op that completed last (attach time before any).
    last_ack: SimTime,
    /// Chained ops behind an op still out.
    parked: VecDeque<(OpToken, ControlOp)>,
}

#[derive(Clone, Copy)]
enum CtrlEvent {
    Arrive(usize),
    Done(usize),
}

/// The event-driven testbed. See the module docs.
pub struct EventTestbed {
    now: SimTime,
    queue: EventQueue<CtrlEvent>,
    switches: Vec<Attached>,
    index: BTreeMap<Dpid, usize>,
    rng: DetRng,
    next_token: u64,
    /// Completions delivered by the event loop, awaiting pickup.
    delivered: VecDeque<Completion>,
    /// When each op's processing began, by token.
    starts: HashMap<OpToken, SimTime>,
    outs: Vec<AgentOutput>,
}

impl EventTestbed {
    /// An empty testbed whose master stream is seeded with `seed`, as
    /// `Testbed::new(seed)`.
    pub fn new(seed: u64) -> EventTestbed {
        EventTestbed {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            switches: Vec::new(),
            index: BTreeMap::new(),
            rng: DetRng::new(seed),
            next_token: 0,
            delivered: VecDeque::new(),
            starts: HashMap::new(),
            outs: Vec::new(),
        }
    }

    /// Attaches a switch, deriving its streams as `Testbed::attach` does.
    pub fn attach(&mut self, dpid: Dpid, profile: SwitchProfile, link: Link) {
        let (seed, rng) = chan::attach_streams(&mut self.rng, dpid);
        self.index.insert(dpid, self.switches.len());
        self.switches.push(Attached {
            dpid,
            agent: Agent::new(Switch::new(profile, dpid, seed)),
            link,
            rng,
            codec: ChanCodec::new(),
            incoming: VecDeque::new(),
            waiting: VecDeque::new(),
            current: None,
            last_arrival: self.now,
            last_ack: self.now,
            parked: VecDeque::new(),
        });
    }

    /// When the op behind `token` began processing.
    pub fn start_of(&self, token: OpToken) -> SimTime {
        self.starts[&token]
    }

    /// `op` leaves the controller at `ready_at`: encode, schedule arrival.
    fn launch(&mut self, idx: usize, token: OpToken, op: ControlOp, ready_at: SimTime) {
        let att = &mut self.switches[idx];
        let mut bytes = Vec::new();
        let kind = att.codec.encode_op(op, &mut bytes);
        let (up, down) = chan::draw_latencies(&att.link, &mut att.rng, att.dpid, kind, bytes.len());
        let arrive = (ready_at + up).max(att.last_arrival);
        att.last_arrival = arrive;
        att.incoming.push_back(PendingOp {
            token,
            kind,
            bytes,
            down,
        });
        assert!(arrive >= self.now, "scheduling in the past");
        self.queue.push(arrive, CtrlEvent::Arrive(idx));
    }

    /// Runs the agent on `op` at `start` and schedules its `Done`.
    fn begin(&mut self, idx: usize, op: PendingOp, start: SimTime) {
        let att = &mut self.switches[idx];
        self.outs.clear();
        att.agent
            .feed_into(&op.bytes, start, &mut self.outs)
            .expect("well-formed frame");
        let (cost, outcome) = chan::op_completion(op.kind, &op.bytes, &self.outs)
            .expect("the codec encodes well-formed ops");
        let done_at = start + cost;
        att.current = Some(InFlight {
            token: op.token,
            done_at,
            acked_at: done_at + op.down,
            outcome,
        });
        self.starts.insert(op.token, start);
        self.queue.push(done_at, CtrlEvent::Done(idx));
    }

    /// Pops one event, moving the clock to it; false when none is left.
    fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        self.now = at;
        match ev {
            CtrlEvent::Arrive(idx) => {
                let att = &mut self.switches[idx];
                let op = att.incoming.pop_front().expect("an arrival per launch");
                if att.current.is_some() {
                    att.waiting.push_back(op);
                } else {
                    self.begin(idx, op, at);
                }
            }
            CtrlEvent::Done(idx) => {
                let att = &mut self.switches[idx];
                let done = att.current.take().expect("a done per begin");
                att.last_ack = done.acked_at;
                self.delivered.push_back(Completion {
                    token: done.token,
                    dpid: att.dpid,
                    done_at: done.done_at,
                    acked_at: done.acked_at,
                    outcome: done.outcome,
                });
                if let Some(op) = att.waiting.pop_front() {
                    self.begin(idx, op, at);
                } else if att.incoming.is_empty() {
                    if let Some((token, op)) = att.parked.pop_front() {
                        self.launch(idx, token, op, done.acked_at);
                    }
                }
            }
        }
        true
    }

    fn take(&mut self, token: OpToken) -> Option<Completion> {
        let at = self.delivered.iter().position(|c| c.token == token)?;
        self.delivered.remove(at)
    }
}

impl ControlPath for EventTestbed {
    fn now(&self) -> SimTime {
        self.now
    }

    fn submit(&mut self, dpid: Dpid, op: ControlOp, mut ready_at: SimTime) -> OpToken {
        let idx = self.index[&dpid];
        let token = OpToken::from_seq(self.next_token);
        self.next_token += 1;
        let att = &mut self.switches[idx];
        if ready_at == READY_ON_PREVIOUS_ACK {
            if att.current.is_some() || !att.incoming.is_empty() || !att.waiting.is_empty() {
                att.parked.push_back((token, op));
                return token;
            }
            ready_at = att.last_ack;
        } else {
            assert!(att.parked.is_empty(), "timed submit behind parked ops");
        }
        assert!(ready_at >= self.now, "op submitted before now");
        self.launch(idx, token, op, ready_at);
        token
    }

    fn next_completion(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.delivered.pop_front() {
                return Some(c);
            }
            if !self.step() {
                return None;
            }
        }
    }

    fn wait_for(&mut self, token: OpToken) -> Completion {
        loop {
            if let Some(c) = self.take(token) {
                return c;
            }
            assert!(self.step(), "token must identify an in-flight op");
        }
    }

    fn warp_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "clock cannot go backwards");
        self.now = t;
    }
}
