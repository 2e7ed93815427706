//! The control channel, shared by every transport: the wire discipline
//! and the one timing model.
//!
//! The in-memory [`Testbed`](crate::harness::Testbed) and the real-TCP
//! transport (`tango-net`) must put byte-identical frames on their
//! channels, replay identical latency/derivation streams, and time every
//! op the same way, or the inference results diverge. Everything that
//! fixes those bytes, draws and instants lives here, in one place both
//! transports call:
//!
//! * [`ChanCodec`] — per-switch xid assignment and op → frame encoding
//!   (the controller end).
//! * [`OpKind`] — what an encoded op is, and its one-byte wire tag. The
//!   op's bytes give the rest: their length sizes both link legs, and a
//!   batch's fence is the header they end with.
//! * [`SwitchCore`] — the switch end: agent, link, latency RNG and
//!   [`VirtualTimeline`]. Its [`resolve`](SwitchCore::resolve) takes one
//!   encoded op from ready time to ack, and is the only code that
//!   computes an op's arrival, start, done and ack instants, and the one
//!   place that checks the bytes form the op their kind names.
//! * [`draw_latencies`] — the per-op link-latency draws, including the
//!   exact fork-label discipline that makes a switch's jitter depend
//!   only on its own operation history.
//! * [`op_completion`] — folding the agent's outputs for one op into
//!   its typed [`OpOutcome`] and control-CPU processing cost, or a
//!   [`MalformedOp`] when the bytes do not form the op they claim.
//! * [`attach_streams`] — deriving a switch's datapath seed and link
//!   RNG from the master stream (attach-order sensitive).

use crate::agent::{Agent, AgentOutput};
use crate::control::{ControlOp, OpOutcome, OpResult, READY_ON_PREVIOUS_ACK};
use ofwire::header::{Header, MessageType, OFP_HEADER_LEN};
use ofwire::message::Message;
use ofwire::packet::PacketOut;
use ofwire::types::{Dpid, PortNo, Xid};
use simnet::link::Link;
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};

/// Classification of an encoded operation: what travelled, stripped of
/// the bytes themselves, whose length and last header give every size
/// and the fence the op needs. Fixed at encode time; consumed when
/// drawing latencies and deriving the completion. The discriminant is
/// the kind's wire tag (`kind as u8`, read back by [`OpKind::from_u8`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// One flow-mod frame.
    FlowMod = 1,
    /// Flow-mod frames fenced by the `barrier_request` that ends them.
    Batch = 2,
    /// One `packet_out` probe frame.
    Probe = 3,
    /// One `echo_request` frame.
    Echo = 4,
}

impl OpKind {
    /// The kind whose wire tag is `tag`, if any.
    #[must_use]
    pub fn from_u8(tag: u8) -> Option<OpKind> {
        [OpKind::FlowMod, OpKind::Batch, OpKind::Probe, OpKind::Echo]
            .into_iter()
            .find(|&k| k as u8 == tag)
    }
}

/// Per-switch controller-side encoder: assigns xids in stream order.
/// One instance per attached switch; its state is part of the channel's
/// identity (clone it, and the clone continues the same xid stream).
#[derive(Debug, Clone)]
pub struct ChanCodec {
    next_xid: Xid,
}

impl Default for ChanCodec {
    fn default() -> ChanCodec {
        ChanCodec::new()
    }
}

impl ChanCodec {
    /// A fresh channel codec; xids start at 1 (0 is reserved for
    /// unsolicited switch notifications).
    #[must_use]
    pub fn new() -> ChanCodec {
        ChanCodec { next_xid: Xid(1) }
    }

    fn take_xid(&mut self) -> Xid {
        let xid = self.next_xid;
        self.next_xid = xid.next();
        xid
    }

    /// Encodes `op` as wire frames appended to `bytes` (whose existing
    /// contents are kept — clear it first for a fresh op), assigning
    /// xids from this channel's stream.
    pub fn encode_op(&mut self, op: ControlOp, bytes: &mut Vec<u8>) -> OpKind {
        match op {
            ControlOp::FlowMod(fm) => {
                let xid = self.take_xid();
                fm.encode_frame_into(xid, bytes);
                OpKind::FlowMod
            }
            ControlOp::Batch(fms) => {
                // All frames build into one reused buffer: no
                // per-message intermediate allocation on the batch path.
                for fm in fms {
                    let xid = self.take_xid();
                    fm.encode_frame_into(xid, bytes);
                }
                let barrier_xid = self.take_xid();
                Message::BarrierRequest.encode_frame_into(barrier_xid, bytes);
                OpKind::Batch
            }
            ControlOp::Probe(key) => {
                let xid = self.take_xid();
                PacketOut::encode_probe_frame(&key, 46, PortNo(1), xid, bytes);
                OpKind::Probe
            }
            ControlOp::Echo(payload) => {
                let xid = self.take_xid();
                Message::EchoRequest(vec![0xec; payload]).encode_frame_into(xid, bytes);
                OpKind::Echo
            }
        }
    }
}

/// Draws the (up, down) link latencies for one encoded op: each op kind
/// forks fixed labels off the switch's latency stream, so the draws
/// depend only on the switch's own operation history — the property
/// that makes concurrent multi-switch runs reproduce sequential ones,
/// and lets a remote transport replay them.
///
/// `wire_len` is the full encoded length of the op (every frame,
/// barrier included); an echo's reply is as long as its request.
pub fn draw_latencies(
    link: &Link,
    rng: &mut DetRng,
    dpid: Dpid,
    kind: OpKind,
    wire_len: usize,
) -> (SimDuration, SimDuration) {
    match kind {
        OpKind::FlowMod => {
            let mut up_rng = rng.fork(dpid.0 ^ 0xa11ce);
            let up = link.delivery_latency(wire_len, &mut up_rng);
            let mut down_rng = rng.fork(dpid.0 ^ 0xd0_17);
            let down = link.delivery_latency(16, &mut down_rng);
            (up, down)
        }
        OpKind::Batch => {
            let mut link_rng = rng.fork(dpid.0 ^ 0xba7c4);
            let up = link.delivery_latency(wire_len, &mut link_rng);
            let down = link.delivery_latency(16, &mut link_rng);
            (up, down)
        }
        OpKind::Probe => {
            let mut up_rng = rng.fork(dpid.0 ^ 0xa11ce);
            let up = link.delivery_latency(wire_len, &mut up_rng);
            (up, SimDuration::ZERO)
        }
        OpKind::Echo => {
            let mut up_rng = rng.fork(dpid.0 ^ 0xa11ce);
            let up = link.delivery_latency(wire_len, &mut up_rng);
            let mut down_rng = rng.fork(dpid.0 ^ 0xec0);
            let down = link.delivery_latency(wire_len, &mut down_rng);
            (up, down)
        }
    }
}

/// Why an op's bytes do not form the op its [`OpKind`] names. The
/// channel codec never produces one; a peer writing frames by hand can.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MalformedOp {
    /// The agent could not parse the frames.
    Unparseable,
    /// The bytes end inside a frame.
    Torn,
    /// A flow-mod, probe or echo whose bytes are not exactly one frame.
    NotOneFrame,
    /// A probe whose frames produced no forwarding outcome.
    NotAProbe,
    /// An echo whose first frame is not an `echo_request`.
    NotAnEcho,
    /// A batch whose last header is no `barrier_request`, or whose
    /// fence drew no reply.
    Unfenced,
    /// A barrier reply other than the one to the batch's fence.
    StrayBarrier,
}

impl std::fmt::Display for MalformedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MalformedOp::Unparseable => "op frames rejected by the agent",
            MalformedOp::Torn => "op bytes end inside a frame",
            MalformedOp::NotOneFrame => "single-frame op whose bytes are not one frame",
            MalformedOp::NotAProbe => "probe op without a forwarding outcome",
            MalformedOp::NotAnEcho => "echo op whose frame is not an echo request",
            MalformedOp::Unfenced => "batch op not closed by a barrier request",
            MalformedOp::StrayBarrier => "barrier reply pairs with no fence",
        })
    }
}

impl std::error::Error for MalformedOp {}

/// Folds the agent outputs of one op, encoded as `bytes`, into its
/// control-CPU processing duration and typed outcome. A flow-mod, probe
/// or echo must be exactly one frame. A batch's fence is the
/// `barrier_request` header in its last [`OFP_HEADER_LEN`] bytes, and
/// the reply to that xid is the one barrier reply the batch must draw.
/// Any other shape, a probe that forwarded nothing and an echo that did
/// not echo are [`MalformedOp`]s.
pub fn op_completion(
    kind: OpKind,
    bytes: &[u8],
    outs: &[AgentOutput],
) -> Result<(SimDuration, OpOutcome), MalformedOp> {
    if kind != OpKind::Batch {
        match Header::peek(bytes) {
            Ok(h) if usize::from(h.length) == bytes.len() => {}
            _ => return Err(MalformedOp::NotOneFrame),
        }
    }
    match kind {
        OpKind::FlowMod => {
            let cost = total_cost(outs);
            let result = if any_error(outs) {
                OpResult::TableFull
            } else {
                OpResult::Ok
            };
            Ok((cost, OpOutcome::FlowMod(result)))
        }
        OpKind::Batch => {
            let fence = fence_xid(bytes).ok_or(MalformedOp::Unfenced)?;
            let (mut ok, mut failed, mut fenced) = (0, 0, false);
            for o in outs {
                match &o.reply {
                    Some(Message::Error(_)) => failed += 1,
                    Some(Message::BarrierReply) if o.xid == fence && !fenced => fenced = true,
                    Some(Message::BarrierReply) => return Err(MalformedOp::StrayBarrier),
                    None => ok += 1,
                    _ => {}
                }
            }
            if !fenced {
                return Err(MalformedOp::Unfenced);
            }
            Ok((total_cost(outs), OpOutcome::Batch { ok, failed }))
        }
        OpKind::Probe => {
            let (hit, fwd) = outs
                .iter()
                .find_map(|o| o.forwarded)
                .ok_or(MalformedOp::NotAProbe)?;
            Ok((fwd, OpOutcome::Probe(hit)))
        }
        OpKind::Echo => match outs.first().and_then(|o| o.reply.as_ref()) {
            Some(Message::EchoReply(_)) => Ok((SimDuration::ZERO, OpOutcome::Echo)),
            _ => Err(MalformedOp::NotAnEcho),
        },
    }
}

/// The xid of the `barrier_request` header that `bytes` end with.
fn fence_xid(bytes: &[u8]) -> Option<Xid> {
    let tail = bytes.len().checked_sub(OFP_HEADER_LEN)?;
    let h = Header::peek(&bytes[tail..]).ok()?;
    let is_fence =
        h.msg_type == MessageType::BarrierRequest && usize::from(h.length) == OFP_HEADER_LEN;
    is_fence.then_some(h.xid)
}

/// Sum of control-plane processing costs across one op's outputs.
fn total_cost(outs: &[AgentOutput]) -> SimDuration {
    outs.iter().fold(SimDuration::ZERO, |acc, o| acc + o.cost)
}

fn any_error(outs: &[AgentOutput]) -> bool {
    outs.iter()
        .any(|o| matches!(o.reply, Some(Message::Error(_))))
}

/// Derives a switch's (datapath seed, link-latency RNG) from the master
/// stream, exactly as the testbed does at attach. Attach order matters:
/// each derivation advances `master`, so transports must attach the
/// same dpids in the same order to reproduce a testbed's streams.
pub fn attach_streams(master: &mut DetRng, dpid: Dpid) -> (u64, DetRng) {
    use rand::RngCore;
    let seed = master.fork(dpid.0).next_u64();
    let link_rng = master.fork(dpid.0 ^ 0xc417);
    (seed, link_rng)
}

/// What one switch's channel remembers between ops: the latest arrival,
/// completion and acknowledgement, all at the attach instant before the
/// first op. [`SwitchCore::resolve`] gives the next op
///
/// ```text
/// arrive = max(ready_at + up, last arrival)   // in-order delivery
/// start  = max(arrive, last done)             // one control CPU
/// done   = start + processing cost
/// acked  = done + down
/// ```
///
/// with [`READY_ON_PREVIOUS_ACK`] as `ready_at` meaning the last ack.
/// Timelines of different switches share nothing, so per-switch FIFO
/// order is all a transport must preserve to reproduce them.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualTimeline {
    last_arrival: SimTime,
    last_done: SimTime,
    last_ack: SimTime,
}

/// One op resolved on its switch: when it arrived, ran and was
/// acknowledged, and what it produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resolved {
    /// When the op's frames reached the switch.
    pub arrive: SimTime,
    /// When the switch's control CPU began processing it.
    pub start: SimTime,
    /// When processing finished (data-plane visible).
    pub done_at: SimTime,
    /// When the controller observes the result.
    pub acked_at: SimTime,
    /// What the op produced.
    pub outcome: OpOutcome,
}

/// The switch end of one control channel: the agent, the link with the
/// latency RNG forked for this switch at attach, and the
/// [`VirtualTimeline`]. The `Testbed` holds one per attached
/// switch and the virtual-time server one per connection; both resolve
/// every op through [`SwitchCore::resolve`].
#[derive(Debug, Clone)]
pub struct SwitchCore {
    dpid: Dpid,
    agent: Agent,
    link: Link,
    rng: DetRng,
    timeline: VirtualTimeline,
}

impl SwitchCore {
    /// The channel of switch `dpid` (wrapped by `agent`) over `link`,
    /// drawing latencies from `rng`, attached at `at`.
    #[must_use]
    pub fn new(dpid: Dpid, agent: Agent, link: Link, rng: DetRng, at: SimTime) -> SwitchCore {
        SwitchCore {
            dpid,
            agent,
            link,
            rng,
            timeline: VirtualTimeline {
                last_arrival: at,
                last_done: at,
                last_ack: at,
            },
        }
    }

    /// The switch's datapath id.
    #[must_use]
    pub fn dpid(&self) -> Dpid {
        self.dpid
    }

    /// The switch's agent (and through it, the switch).
    #[must_use]
    pub fn agent(&self) -> &Agent {
        &self.agent
    }

    /// Resolves the next op in channel order: draws its link latencies,
    /// admits it behind everything earlier on this channel, feeds its
    /// `bytes` (encoded as `kind`) to the agent at the instant processing
    /// starts, folds the agent's outputs (left in `outs`) into cost and
    /// outcome, and completes it. `ready_at` is when the op leaves the
    /// controller, or [`READY_ON_PREVIOUS_ACK`].
    ///
    /// The bytes must be whole frames that form the op, as
    /// [`op_completion`] states. On a [`MalformedOp`] the channel is
    /// unusable from there on: the caller drops it.
    pub fn resolve(
        &mut self,
        ready_at: SimTime,
        kind: OpKind,
        bytes: &[u8],
        outs: &mut Vec<AgentOutput>,
    ) -> Result<Resolved, MalformedOp> {
        let (up, down) = draw_latencies(&self.link, &mut self.rng, self.dpid, kind, bytes.len());
        let tl = self.timeline;
        let ready_at = if ready_at == READY_ON_PREVIOUS_ACK {
            tl.last_ack
        } else {
            ready_at
        };
        let arrive = (ready_at + up).max(tl.last_arrival);
        let start = arrive.max(tl.last_done);
        outs.clear();
        self.agent
            .feed_into(bytes, start, outs)
            .map_err(|_| MalformedOp::Unparseable)?;
        if self.agent.pending() > 0 {
            return Err(MalformedOp::Torn);
        }
        let (cost, outcome) = op_completion(kind, bytes, outs)?;
        let done_at = start + cost;
        let acked_at = done_at + down;
        self.timeline = VirtualTimeline {
            last_arrival: arrive,
            last_done: done_at,
            last_ack: acked_at,
        };
        Ok(Resolved {
            arrive,
            start,
            done_at,
            acked_at,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::SwitchProfile;
    use crate::switch::Switch;
    use ofwire::flow_match::FlowMatch;
    use ofwire::flow_mod::{FlowMod, FlowModFlags};
    use ofwire::types::BufferId;
    use simnet::dist::Dist;
    use std::slice;

    #[test]
    fn encode_assigns_sequential_xids() {
        let mut codec = ChanCodec::new();
        let mut bytes = Vec::new();
        let kind = codec.encode_op(
            ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(1), 10)),
            &mut bytes,
        );
        assert_eq!(kind, OpKind::FlowMod);
        let (h, _) = Message::from_bytes(&bytes).unwrap();
        assert_eq!(h.xid, Xid(1));
        bytes.clear();
        let fms = (0..3u32)
            .map(|i| FlowMod::add(FlowMatch::l3_for_id(i), 10))
            .collect();
        let kind = codec.encode_op(ControlOp::Batch(fms), &mut bytes);
        assert_eq!(kind, OpKind::Batch);
        // The fence is the last frame.
        assert_eq!(
            fence_xid(&bytes),
            Some(Xid(5)),
            "xids 2..4 went to the flow-mods"
        );
    }

    const MS: SimDuration = SimDuration::from_millis(1);

    /// An OVS switch behind a jitter-free 1 ms link, attached at `at`.
    fn ovs_core(at: SimTime) -> SwitchCore {
        let switch = Switch::new(SwitchProfile::ovs(), Dpid(1), 7);
        let link = Link::ideal(Dist::Constant(1.0));
        SwitchCore::new(Dpid(1), Agent::new(switch), link, DetRng::new(3), at)
    }

    /// Encodes `op` on `codec` and resolves it on `core`.
    fn resolve(
        core: &mut SwitchCore,
        codec: &mut ChanCodec,
        op: ControlOp,
        ready_at: SimTime,
    ) -> Resolved {
        let mut bytes = Vec::new();
        let kind = codec.encode_op(op, &mut bytes);
        core.resolve(ready_at, kind, &bytes, &mut Vec::new())
            .expect("the codec encodes well-formed ops")
    }

    fn add(id: u32) -> ControlOp {
        ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(id), 10))
    }

    #[test]
    fn resolve_serializes_on_the_cpu_and_keeps_arrivals_in_order() {
        let (mut core, mut codec) = (ovs_core(SimTime::ZERO), ChanCodec::new());
        // Two ops ready at once: both arrive 1 ms later, the second
        // waits for the CPU.
        let a = resolve(&mut core, &mut codec, add(1), SimTime::ZERO);
        assert_eq!(
            (a.arrive, a.start),
            (SimTime::ZERO + MS, SimTime::ZERO + MS)
        );
        assert!(a.done_at > a.start);
        assert_eq!(a.acked_at, a.done_at + MS);
        let b = resolve(&mut core, &mut codec, add(2), SimTime::ZERO);
        assert_eq!(b.arrive, a.arrive);
        assert_eq!(
            b.start, a.done_at,
            "the second op starts when the first finishes"
        );
        // An op ready earlier than the last arrival cannot overtake it,
        // and an echo costs the CPU nothing.
        let c = resolve(&mut core, &mut codec, ControlOp::Echo(8), SimTime::ZERO);
        assert_eq!(c.arrive, b.arrive);
        assert_eq!((c.start, c.done_at), (b.done_at, b.done_at));
    }

    #[test]
    fn resolve_chains_on_the_previous_ack() {
        // Before any op the last ack is the attach instant.
        let at = SimTime::ZERO + MS * 5;
        let (mut core, mut codec) = (ovs_core(at), ChanCodec::new());
        let mut timed = (ovs_core(at), ChanCodec::new());
        let mut prev_ack = at;
        for id in 0..3 {
            let chained = resolve(&mut core, &mut codec, add(id), READY_ON_PREVIOUS_ACK);
            let explicit = resolve(&mut timed.0, &mut timed.1, add(id), prev_ack);
            assert_eq!(chained, explicit);
            assert_eq!(
                chained.arrive,
                prev_ack + MS,
                "acks outrun the CPU and FIFO"
            );
            prev_ack = chained.acked_at;
        }
    }

    /// Hand-written `frames`, xids from 5 up.
    fn frames(frames: &[Message]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (xid, m) in (5..).zip(frames) {
            m.encode_frame_into(Xid(xid), &mut bytes);
        }
        bytes
    }

    /// Resolves `bytes` as one op of `kind`.
    fn resolve_bytes(kind: OpKind, bytes: &[u8]) -> Result<Resolved, MalformedOp> {
        ovs_core(SimTime::ZERO).resolve(SimTime::ZERO, kind, bytes, &mut Vec::new())
    }

    #[test]
    fn frames_that_do_not_form_their_op_are_typed_errors() {
        let echo = Message::EchoRequest(vec![0; 4]);
        let fm = Message::FlowMod(FlowMod::add(FlowMatch::l3_for_id(1), 10));
        let barrier = Message::BarrierRequest;
        let mut cut = frames(slice::from_ref(&fm));
        cut.truncate(cut.len() - 4);
        // A flow-mod whose last 8 bytes (buffer id, out port, flags)
        // spell a `barrier_request` header with xid 9.
        let mut disguised = FlowMod::add_with_actions(FlowMatch::l3_for_id(2), 10, Vec::new());
        disguised.buffer_id = BufferId(0x0112_0008);
        disguised.out_port = PortNo(0);
        disguised.flags = FlowModFlags(9);
        let disguised = frames(&[Message::FlowMod(disguised)]);
        assert_eq!(fence_xid(&disguised), Some(Xid(9)));
        let cases = [
            (
                OpKind::Probe,
                frames(slice::from_ref(&echo)),
                MalformedOp::NotAProbe,
            ),
            (
                OpKind::Echo,
                frames(slice::from_ref(&fm)),
                MalformedOp::NotAnEcho,
            ),
            (
                OpKind::Batch,
                frames(&[barrier.clone(), barrier.clone()]),
                MalformedOp::StrayBarrier,
            ),
            (
                OpKind::Batch,
                frames(&[echo.clone(), fm]),
                MalformedOp::Unfenced,
            ),
            (OpKind::FlowMod, cut, MalformedOp::Torn),
            (
                OpKind::Echo,
                frames(&[echo.clone(), echo]),
                MalformedOp::NotOneFrame,
            ),
            (OpKind::Batch, disguised, MalformedOp::Unfenced),
        ];
        for (kind, bytes, err) in cases {
            assert_eq!(resolve_bytes(kind, &bytes), Err(err), "{kind:?}");
        }
        let fenced = resolve_bytes(OpKind::Batch, &frames(&[barrier]));
        assert_eq!(
            fenced.unwrap().outcome,
            OpOutcome::Batch { ok: 0, failed: 0 }
        );
    }
}
