//! The control-channel wire discipline, shared by every transport.
//!
//! The in-memory [`Testbed`](crate::harness::Testbed) and the real-TCP
//! transport (`tango-net`) must put byte-identical frames on their
//! channels and replay identical latency/derivation streams, or the
//! inference results diverge. Everything that fixes those bytes and
//! draws lives here, in one place both transports call:
//!
//! * [`ChanCodec`] — per-switch xid assignment, op → frame encoding,
//!   and barrier bookkeeping (registration at encode, pairing at
//!   completion).
//! * [`draw_latencies`] — the per-op link-latency draws, including the
//!   exact fork-label discipline that makes a switch's jitter depend
//!   only on its own operation history.
//! * [`op_completion`] — folding the agent's outputs for one op into
//!   its typed [`OpOutcome`] and control-CPU processing cost.
//! * [`attach_streams`] — deriving a switch's datapath seed and link
//!   RNG from the master stream (attach-order sensitive).
//! * [`VirtualTimeline`] — the per-switch arrival/start/done arithmetic
//!   a real transport replays to reproduce the testbed's virtual
//!   timestamps op by op.

use crate::agent::AgentOutput;
use crate::control::{ControlOp, OpOutcome, OpResult, READY_ON_PREVIOUS_ACK};
use ofwire::barrier::BarrierTracker;
use ofwire::message::Message;
use ofwire::packet::PacketOut;
use ofwire::types::{Dpid, PortNo, Xid};
use simnet::link::Link;
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};

/// Telemetry counter keys for the wire plane, shared by every transport
/// that reports through [`simnet::telemetry`]. Keys live here — next to
/// the wire discipline both transports already import — so the real-TCP
/// reactor and any future transport aggregate under identical names.
pub mod wire_keys {
    /// Bytes read off sockets.
    pub const BYTES_IN: &str = "wire/bytes_in";
    /// Bytes written to sockets.
    pub const BYTES_OUT: &str = "wire/bytes_out";
    /// Reactor sweeps that moved at least one byte.
    pub const WAKEUPS: &str = "wire/wakeups";
    /// Socket reads/writes that returned `WouldBlock`.
    pub const WOULD_BLOCK: &str = "wire/would_block";
    /// Reads refused because a connection was over its high watermark.
    pub const WATERMARK_STALLS: &str = "wire/watermark_stalls";
    /// Connections bound to this shard over its lifetime.
    pub const CONNS: &str = "wire/conns";
    /// Messages dispatched / ops completed.
    pub const OPS: &str = "wire/ops";
}

/// Classification of an encoded operation: what travelled, stripped of
/// the bytes themselves. Fixed at encode time; consumed when drawing
/// latencies and deriving the completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One flow-mod frame.
    FlowMod,
    /// Flow-mod frames fenced by one barrier.
    Batch {
        /// Byte length of the fenced flow-mod frames (barrier excluded);
        /// checked when the barrier reply is paired.
        size: usize,
    },
    /// One `packet_out` probe frame.
    Probe,
    /// One `echo_request` frame.
    Echo {
        /// Echo payload length in bytes (sizes the return leg).
        payload: usize,
    },
}

impl OpKind {
    /// How many wire frames an encoding of `op` produces.
    #[must_use]
    pub fn frames_of(op: &ControlOp) -> usize {
        match op {
            ControlOp::Batch(fms) => fms.len() + 1,
            _ => 1,
        }
    }
}

/// Per-switch controller-side encoder: assigns xids in stream order and
/// tracks outstanding barriers. One instance per attached switch; its
/// state is part of the channel's identity (clone it, and the clone
/// continues the same xid stream).
#[derive(Debug, Clone)]
pub struct ChanCodec {
    next_xid: Xid,
    barriers: BarrierTracker<usize>,
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
        ChanCodec {
            next_xid: Xid(1),
            barriers: BarrierTracker::new(),
        }
    }

    fn take_xid(&mut self) -> Xid {
        let xid = self.next_xid;
        self.next_xid = xid.next();
        xid
    }

    /// Encodes `op` as wire frames appended to `bytes` (whose existing
    /// contents are kept — clear it first for a fresh op), assigning
    /// xids from this channel's stream. Batch ops register their barrier
    /// so [`op_completion`] can pair the reply.
    pub fn encode_op(&mut self, op: ControlOp, bytes: &mut Vec<u8>) -> OpKind {
        match op {
            ControlOp::FlowMod(fm) => {
                let xid = self.take_xid();
                fm.encode_frame_into(xid, bytes);
                OpKind::FlowMod
            }
            ControlOp::Batch(fms) => {
                let start = bytes.len();
                // All frames build into one reused buffer: no
                // per-message intermediate allocation on the batch path.
                for fm in fms {
                    let xid = self.take_xid();
                    fm.encode_frame_into(xid, bytes);
                }
                let barrier_xid = self.take_xid();
                let size = bytes.len() - start;
                self.barriers.register(barrier_xid, size);
                Message::BarrierRequest.encode_frame_into(barrier_xid, bytes);
                OpKind::Batch { size }
            }
            ControlOp::Probe(key) => {
                let xid = self.take_xid();
                PacketOut::encode_probe_frame(&key, 46, PortNo(1), xid, bytes);
                OpKind::Probe
            }
            ControlOp::Echo(payload) => {
                let xid = self.take_xid();
                Message::EchoRequest(vec![0xec; payload]).encode_frame_into(xid, bytes);
                OpKind::Echo { payload }
            }
        }
    }

    /// The barrier registry (switch-side pairing when both ends share
    /// one codec, as the in-memory testbed does).
    pub fn barriers_mut(&mut self) -> &mut BarrierTracker<usize> {
        &mut self.barriers
    }
}

/// Draws the (up, down) link latencies for one encoded op, replaying
/// the exact fork-label discipline of the in-memory testbed: each op
/// kind forks fixed labels off the switch's latency stream, so the
/// draws depend only on the switch's own operation history — the
/// property that makes concurrent multi-switch runs reproduce
/// sequential ones, and lets a remote transport replay them.
///
/// `wire_len` is the full encoded length of the op (every frame,
/// barrier included).
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
        OpKind::Batch { .. } => {
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
        OpKind::Echo { payload } => {
            let mut up_rng = rng.fork(dpid.0 ^ 0xa11ce);
            let up = link.delivery_latency(wire_len, &mut up_rng);
            let mut down_rng = rng.fork(dpid.0 ^ 0xec0);
            let down = link.delivery_latency(payload + 8, &mut down_rng);
            (up, down)
        }
    }
}

/// Folds the agent outputs of one op into its control-CPU processing
/// duration and typed outcome. `barriers` pairs batch fences with their
/// registration (a mismatch means the fence got reordered — a framing
/// bug, so it panics).
pub fn op_completion(
    kind: OpKind,
    outs: &[AgentOutput],
    barriers: &mut BarrierTracker<usize>,
) -> (SimDuration, OpOutcome) {
    match kind {
        OpKind::FlowMod => {
            let cost = total_cost(outs);
            let result = if any_error(outs) {
                OpResult::TableFull
            } else {
                OpResult::Ok
            };
            (cost, OpOutcome::FlowMod(result))
        }
        OpKind::Batch { size } => {
            let mut ok = 0;
            let mut failed = 0;
            let cost = total_cost(outs);
            for o in outs {
                match &o.reply {
                    Some(Message::Error(_)) => failed += 1,
                    Some(Message::BarrierReply) => {
                        let fenced = barriers.complete(o.xid);
                        assert_eq!(fenced, Some(size), "barrier xid mismatch");
                    }
                    None => ok += 1,
                    _ => {}
                }
            }
            (cost, OpOutcome::Batch { ok, failed })
        }
        OpKind::Probe => {
            let (hit, fwd) = outs
                .iter()
                .find_map(|o| o.forwarded)
                .expect("packet_out produces a forwarding outcome");
            (fwd, OpOutcome::Probe(hit))
        }
        OpKind::Echo { .. } => {
            debug_assert!(matches!(
                outs.first().and_then(|o| o.reply.as_ref()),
                Some(Message::EchoReply(_))
            ));
            (SimDuration::ZERO, OpOutcome::Echo)
        }
    }
}

/// Sum of control-plane processing costs across one op's outputs.
#[must_use]
pub fn total_cost(outs: &[AgentOutput]) -> SimDuration {
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

/// Per-switch virtual-time bookkeeping for replaying the testbed's
/// timing model over a real transport.
///
/// The testbed's event core gives each op on a switch:
///
/// ```text
/// arrive = max(ready_at + up, last_arrival)   // in-order delivery
/// start  = max(arrive, previous op's done)    // one control CPU
/// done   = start + processing cost
/// acked  = done + down
/// ```
///
/// ([`READY_ON_PREVIOUS_ACK`] as `ready_at` is the previous `acked`.)
///
/// Per-switch timelines are fully independent (the only cross-switch
/// state is the shared clock, which never influences these values), so
/// a transport that processes each connection's ops in FIFO order can
/// recompute them with this little accumulator and land on the exact
/// timestamps the in-memory testbed would have produced.
#[derive(Debug, Clone, Default)]
pub struct VirtualTimeline {
    last_arrival: SimTime,
    prev_done: SimTime,
    prev_acked: SimTime,
}

impl VirtualTimeline {
    /// A timeline starting at virtual time zero (a switch attached to a
    /// freshly built testbed).
    #[must_use]
    pub fn new() -> VirtualTimeline {
        VirtualTimeline::default()
    }

    /// Admits the next op in channel order; returns the virtual time
    /// its processing starts.
    pub fn admit(&mut self, ready_at: SimTime, up: SimDuration) -> SimTime {
        let ready_at = if ready_at == READY_ON_PREVIOUS_ACK {
            self.prev_acked
        } else {
            ready_at
        };
        let arrive = (ready_at + up).max(self.last_arrival);
        self.last_arrival = arrive;
        arrive.max(self.prev_done)
    }

    /// Completes the op admitted last; returns `(done_at, acked_at)`.
    pub fn complete(
        &mut self,
        start: SimTime,
        cost: SimDuration,
        down: SimDuration,
    ) -> (SimTime, SimTime) {
        let done = start + cost;
        self.prev_done = done;
        self.prev_acked = done + down;
        (done, self.prev_acked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofwire::flow_match::FlowMatch;
    use ofwire::flow_mod::FlowMod;

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
        let OpKind::Batch { size } = kind else {
            panic!("batch encodes as batch");
        };
        // The fenced span is everything before the barrier frame.
        let (bh, bm) = Message::from_bytes(&bytes[size..]).unwrap();
        assert_eq!(bm, Message::BarrierRequest);
        assert_eq!(bh.xid, Xid(5), "xids 2..4 went to the flow-mods");
    }

    #[test]
    fn timeline_reproduces_serialization_and_fifo_clamp() {
        let mut tl = VirtualTimeline::new();
        let up = SimDuration::from_millis_f64(1.0);
        let cost = SimDuration::from_millis_f64(5.0);
        let down = SimDuration::from_millis_f64(1.0);
        // Two ops submitted back-to-back at t=0: the second arrives at
        // the same instant but waits for the CPU.
        let s1 = tl.admit(SimTime::ZERO, up);
        let (d1, a1) = tl.complete(s1, cost, down);
        assert_eq!(s1, SimTime::ZERO + up);
        assert_eq!(d1, s1 + cost);
        assert_eq!(a1, d1 + down);
        let s2 = tl.admit(SimTime::ZERO, up);
        assert_eq!(s2, d1, "second op starts when the first finishes");
        let (d2, _) = tl.complete(s2, cost, down);
        // A later op with a faster draw still cannot arrive before an
        // earlier one (in-order delivery clamp).
        let s3 = tl.admit(SimTime::ZERO, SimDuration::ZERO);
        assert_eq!(s3, d2);
    }

    #[test]
    fn timeline_resolves_ready_on_previous_ack() {
        let up = SimDuration::from_millis_f64(1.0);
        let cost = SimDuration::from_millis_f64(5.0);
        let down = SimDuration::from_millis_f64(2.0);
        let mut chained = VirtualTimeline::new();
        let mut timed = VirtualTimeline::new();
        // Before any op the previous ack is the attach time, zero.
        let mut prev_acked = SimTime::ZERO;
        for _ in 0..3 {
            let s = chained.admit(READY_ON_PREVIOUS_ACK, up);
            assert_eq!(s, timed.admit(prev_acked, up));
            assert_eq!(s, prev_acked + up, "acks outrun the CPU and FIFO clamps");
            let done = chained.complete(s, cost, down);
            assert_eq!(done, timed.complete(s, cost, down));
            prev_acked = done.1;
        }
    }
}
