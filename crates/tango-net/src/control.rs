//! [`TcpFleet`]: a [`ControlPath`] over real loopback TCP.
//!
//! One connection per switch, each speaking the annotated op stream of
//! [`crate::vt`] to an [`AgentServer`](crate::server::AgentServer) in
//! virtual-time mode. Everything above the trait —
//! `tango::fleet::run_inference`, the probe drivers, the schedulers —
//! runs unmodified, and produces the same virtual timestamps and
//! outcomes as the in-memory testbed (per-switch op encoding, xid
//! discipline, latency draws, and timeline arithmetic are all shared
//! code in [`switchsim::chan`]).
//!
//! ## Ordering relaxation
//!
//! The in-memory testbed delivers completions in global virtual-time
//! order. `TcpFleet` preserves *per-switch* order (each connection is
//! FIFO) but delivers across switches in arrival order, which a real
//! transport cannot avoid. The driver runner files completions by
//! token, and each driver's behaviour depends only on its own switch's
//! completions, so inference outcomes are unaffected — this is the
//! documented contract relaxation of taking the control path onto real
//! sockets.
//!
//! The controller clock is correspondingly lazy: it advances only on
//! [`warp_to`](ControlPath::warp_to) (which the drivers call at the
//! instants a synchronous loop would have reached), never as a side
//! effect of delivering a completion.
//!
//! ## Batching
//!
//! [`submit`](ControlPath::submit) only encodes into the connection's
//! out-buffer; the pump, run when a caller asks for a completion,
//! flushes it and reads the acks that have arrived on the connections
//! with ops out. A run of ops submitted first — each chained to its
//! predecessor's ack with `READY_ON_PREVIOUS_ACK`, which rides in
//! `ready_ns` as it is — costs one round trip, not one per op. The probe
//! programs submit every op they are certain to send before reading an
//! earlier outcome: stage-1 warm-ups, the stage-2 sweep, and stage-3
//! samples while no unread one can end the level. So a default size
//! probe makes a few hundred round trips, not thousands. Nothing here
//! caps a run: callers bound their own depth (the driver runner keeps
//! 128 per switch).
//!
//! Each connection counts its own ops in flight, and an ack on a
//! connection with none is refused by name: per-connection FIFO order
//! is what files a completion under its switch.

use crate::reactor::{NbConn, Pacer, Watermark, READ_CHUNK};
use crate::vt::VtMsg;
use ofwire::codec::Framer;
use ofwire::types::{Dpid, Xid};
use simnet::time::SimTime;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use switchsim::chan::ChanCodec;
use switchsim::control::{Completion, ControlOp, ControlPath, OpToken};

/// One switch's connection: socket, op codec (the xid stream, identical
/// to the testbed's per-switch codec), ack framer, and the ops submitted
/// on it and not yet acked.
struct FleetConn {
    dpid: Dpid,
    conn: NbConn,
    codec: ChanCodec,
    framer: Framer,
    inflight: usize,
}

/// A fleet control path over loopback TCP. See the module docs.
pub struct TcpFleet {
    conns: Vec<FleetConn>,
    by_dpid: HashMap<Dpid, usize>,
    clock: SimTime,
    next_seq: u64,
    /// Completions received but not yet delivered, in arrival order:
    /// `next_completion` pops the front, `wait_for` searches (O(ops in
    /// flight), and only the synchronous adapters call it).
    done: VecDeque<Completion>,
    /// Shared scratch buffers (read chunk + op encode), reused per call.
    scratch: Vec<u8>,
    enc: Vec<u8>,
    pacer: Pacer,
}

impl TcpFleet {
    /// Connects one stream per dpid, in order, to a virtual-time
    /// [`AgentServer`](crate::server::AgentServer) at `addr`, and sends
    /// each connection's binding hello.
    ///
    /// The dpid order must match the server's roster order only in so
    /// far as the *server* derives streams in roster order — connections
    /// may bind in any order, so this just takes the dpids the caller
    /// wants to drive.
    pub fn connect(addr: SocketAddr, dpids: &[Dpid]) -> io::Result<TcpFleet> {
        let mut conns = Vec::with_capacity(dpids.len());
        let mut by_dpid = HashMap::with_capacity(dpids.len());
        for &dpid in dpids {
            let mut conn = NbConn::new(TcpStream::connect(addr)?)?;
            // Never pause reads on pending output: a controller that
            // stops reading acks while its submits back up stalls the
            // server on its watermark — deadlock once the kernel fills.
            conn.wm = Watermark::new(usize::MAX, usize::MAX);
            VtMsg::Hello { dpid: dpid.0 }
                .to_message()
                .encode_frame_into(Xid(0), conn.out.tail());
            conn.flush()?;
            by_dpid.insert(dpid, conns.len());
            conns.push(FleetConn {
                dpid,
                conn,
                codec: ChanCodec::new(),
                framer: Framer::new(),
                inflight: 0,
            });
        }
        Ok(TcpFleet {
            conns,
            by_dpid,
            clock: SimTime::ZERO,
            next_seq: 0,
            done: VecDeque::new(),
            scratch: vec![0u8; READ_CHUNK],
            enc: Vec::new(),
            pacer: Pacer::new(),
        })
    }

    /// True while any connection has ops out.
    fn busy(&self) -> bool {
        self.conns.iter().any(|fc| fc.inflight > 0)
    }

    /// One sweep over the connections with ops out: flush pending output
    /// (ops are written nowhere else), read, and file any acks. Transport
    /// failures panic — the trait has no error channel, and on loopback
    /// an io error means the server died, which no retry repairs.
    fn pump(&mut self) {
        let mut progress = false;
        for fc in &mut self.conns {
            if fc.inflight == 0 {
                continue;
            }
            progress |= fc.conn.flush().expect("loopback write failed") > 0;
            let n = fc
                .conn
                .read_into(&mut self.scratch)
                .expect("loopback read failed");
            if n == 0 {
                if fc.conn.is_closed() {
                    panic!("agent server closed the connection for {:?}", fc.dpid);
                }
                continue;
            }
            progress = true;
            let mut input = &self.scratch[..n];
            // Acks decode in place, as the server reads submits.
            while let Some(msg) = VtMsg::next_from(&mut fc.framer, &mut input)
                .unwrap_or_else(|e| panic!("bad ack stream for {:?}: {e}", fc.dpid))
            {
                let VtMsg::Ack {
                    token,
                    done_ns,
                    acked_ns,
                    outcome,
                } = msg
                else {
                    panic!("controller expects only ack frames");
                };
                assert!(
                    fc.inflight > 0,
                    "ack for token {token} with no op in flight on {:?}",
                    fc.dpid
                );
                fc.inflight -= 1;
                self.done.push_back(Completion {
                    token: OpToken::from_seq(token),
                    dpid: fc.dpid,
                    done_at: SimTime(done_ns),
                    acked_at: SimTime(acked_ns),
                    outcome,
                });
            }
        }
        if progress {
            self.pacer.progressed();
        } else {
            self.pacer.idle(self.busy());
        }
    }
}

impl ControlPath for TcpFleet {
    fn now(&self) -> SimTime {
        self.clock
    }

    fn submit(&mut self, dpid: Dpid, op: ControlOp, ready_at: SimTime) -> OpToken {
        assert!(ready_at >= self.clock, "ready_at precedes the clock");
        let idx = *self
            .by_dpid
            .get(&dpid)
            .unwrap_or_else(|| panic!("submit to unconnected switch {dpid:?}"));
        let token = self.next_seq;
        self.next_seq += 1;
        self.enc.clear();
        let fc = &mut self.conns[idx];
        let kind = fc.codec.encode_op(op, &mut self.enc);
        VtMsg::Submit {
            token,
            ready_ns: ready_at.0,
            kind,
            wire_len: self.enc.len() as u32,
        }
        .to_message()
        .encode_frame_into(Xid(0), fc.conn.out.tail());
        fc.conn.out.tail().extend_from_slice(&self.enc);
        fc.inflight += 1;
        OpToken::from_seq(token)
    }

    fn next_completion(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.done.pop_front() {
                return Some(c);
            }
            if !self.busy() {
                return None;
            }
            self.pump();
        }
    }

    fn wait_for(&mut self, token: OpToken) -> Completion {
        loop {
            if let Some(at) = self.done.iter().position(|c| c.token == token) {
                return self.done.remove(at).expect("position is in range");
            }
            assert!(self.busy(), "token is not in flight");
            self.pump();
        }
    }

    fn warp_to(&mut self, t: SimTime) {
        assert!(t >= self.clock, "clock warps only forward");
        self.clock = t;
    }
}
