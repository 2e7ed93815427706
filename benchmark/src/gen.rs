//! The wire load generator: a closed loop over `std::net` sockets and
//! pre-encoded bytes.
//!
//! A controller waits on barrier replies, so each connection keeps a
//! **fixed** window of un-acked flow-mods and sends one fence per fixed
//! interval. Nothing adapts: the offered shape is the same on every
//! commit, and a slower server simply receives the same stream more
//! slowly. Frames are encoded with `ofwire` once, during set-up
//! ([`flow_mod_cycle`]); the timed loop only copies bytes, calls
//! `write`/`read`, and parses 8-byte reply headers itself, so a later
//! change to `ofwire` or `tango-net` cannot change the load it is
//! measured with.
//!
//! Ack latency is per flow-mod, from the `write` call that handed it to
//! the kernel to the read that returned the covering `BarrierReply`
//! (OpenFlow does not acknowledge successful flow-mods one by one — the
//! fence is what a controller waits on). Flow-mods handed over by one
//! `write` share its timestamp.

use crate::hist::Histogram;
use crate::span::Recorder;
use ofwire::action::Action;
use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::header::{MessageType, OFP_HEADER_LEN, OFP_VERSION};
use ofwire::message::Message;
use ofwire::types::{PortNo, Xid};
use simnet::rng::DetRng;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Flow ids rotate through this many adds, then the matching strict
/// deletes, so the switch's table stays bounded however long a run is.
pub const ID_BLOCK: u32 = 1024;

/// Pre-encoded frames, back to back.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    pub bytes: Vec<u8>,
    /// End offset of each frame in `bytes`.
    pub ends: Vec<u32>,
}

impl Stream {
    /// Number of frames.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.ends.len()
    }

    /// Bytes of frame `i`.
    #[must_use]
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    fn push(&mut self, msg: &Message, xid: Xid) {
        msg.encode_frame_into(xid, &mut self.bytes);
        self.ends.push(self.bytes.len() as u32);
    }
}

/// One rotation of the flow-mod stream: [`ID_BLOCK`] adds, then strict
/// deletes of the same rules in the same order (oldest first). `seed`
/// permutes which id each position carries.
#[must_use]
pub fn flow_mod_cycle(seed: u64) -> Stream {
    let mut ids: Vec<u32> = (0..ID_BLOCK).collect();
    DetRng::new(seed).shuffle(&mut ids);
    let mut s = Stream::default();
    for &id in &ids {
        let fm = FlowMod::add(FlowMatch::l3_for_id(id), 10).with_action(Action::Output {
            port: PortNo(1),
            max_len: 0,
        });
        s.push(&Message::FlowMod(fm), Xid(0));
    }
    for &id in &ids {
        let fm = FlowMod::delete_strict(FlowMatch::l3_for_id(id), 10);
        s.push(&Message::FlowMod(fm), Xid(0));
    }
    s
}

/// The fixed load shape of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadShape {
    /// Un-acked flow-mods kept in flight.
    pub window: usize,
    /// One fence per this many flow-mods.
    pub fence_every: usize,
}

/// Totals over one connection's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnCounters {
    pub sent: u64,
    pub acked: u64,
    pub fences_sent: u64,
    pub fences_acked: u64,
    /// `Error` replies seen.
    pub error_replies: u64,
    /// Barrier replies whose xid was not the oldest outstanding fence.
    pub out_of_order: u64,
    pub write_calls: u64,
    pub read_calls: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

const BARRIER_REQUEST: u8 = MessageType::BarrierRequest as u8;
const BARRIER_REPLY: u8 = MessageType::BarrierReply as u8;
const ERROR: u8 = MessageType::Error as u8;

/// One generator connection.
pub struct Conn {
    /// Identifies the connection in span request ids.
    pub id: u64,
    sock: TcpStream,
    cycle: Stream,
    /// Next frame of the cycle to send.
    next_frame: usize,
    out: Vec<u8>,
    out_cursor: usize,
    /// Flow-mods appended to `out` but not yet handed to the kernel.
    unstamped: u64,
    since_fence: usize,
    /// Outstanding fences, oldest first: (xid, flow-mods sent when it was
    /// issued, recorder time it was issued).
    fences: VecDeque<(u32, u64, u64)>,
    /// Hand-over time of un-acked flow-mods, oldest first: (time, count).
    stamps: VecDeque<(Instant, u64)>,
    rbuf: Vec<u8>,
    rlen: usize,
    pub n: ConnCounters,
}

impl Conn {
    /// Wraps a connected socket. `first_bytes` (the binding hello) are
    /// queued ahead of the stream.
    pub fn new(id: u64, sock: TcpStream, cycle: Stream, first_bytes: &[u8]) -> io::Result<Conn> {
        sock.set_nonblocking(true)?;
        sock.set_nodelay(true)?;
        Ok(Conn {
            id,
            sock,
            cycle,
            next_frame: 0,
            out: first_bytes.to_vec(),
            out_cursor: 0,
            unstamped: 0,
            since_fence: 0,
            fences: VecDeque::new(),
            stamps: VecDeque::new(),
            rbuf: vec![0; 64 * 1024],
            rlen: 0,
            n: ConnCounters::default(),
        })
    }

    fn push_fence(&mut self, now_ns: u64) {
        let xid = self.n.fences_sent as u32 + 1;
        self.out
            .extend_from_slice(&[OFP_VERSION, BARRIER_REQUEST, 0, OFP_HEADER_LEN as u8]);
        self.out.extend_from_slice(&xid.to_be_bytes());
        self.fences.push_back((xid, self.n.sent, now_ns));
        self.n.fences_sent += 1;
        self.since_fence = 0;
    }

    /// Tops the window up from the cycle, fencing every
    /// `shape.fence_every` flow-mods and at the end of the stream.
    fn top_up(&mut self, shape: LoadShape, target: u64, now_ns: u64) {
        while self.n.sent < target && (self.n.sent - self.n.acked) < shape.window as u64 {
            self.out
                .extend_from_slice(self.cycle.frame(self.next_frame));
            self.next_frame = (self.next_frame + 1) % self.cycle.frames();
            self.n.sent += 1;
            self.unstamped += 1;
            self.since_fence += 1;
            if self.since_fence >= shape.fence_every {
                self.push_fence(now_ns);
            }
        }
        // Window full or stream finished: fence the tail so its acks can
        // come back (a no-op when the window is a multiple of the fence
        // interval, which every committed shape is).
        if self.since_fence > 0 {
            self.push_fence(now_ns);
        }
    }

    /// Hands pending bytes to the kernel. Returns bytes written.
    fn flush(&mut self) -> io::Result<usize> {
        let mut moved = 0;
        while self.out_cursor < self.out.len() {
            self.n.write_calls += 1;
            match self.sock.write(&self.out[self.out_cursor..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_cursor += n;
                    moved += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_cursor == self.out.len() {
            self.out.clear();
            self.out_cursor = 0;
        }
        self.n.bytes_out += moved as u64;
        Ok(moved)
    }

    /// Reads once and consumes every complete reply. Returns bytes read.
    fn drain(&mut self, lat: &mut Histogram, rec: &mut Recorder) -> io::Result<usize> {
        self.n.read_calls += 1;
        let got = match self.sock.read(&mut self.rbuf[self.rlen..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                return Ok(0)
            }
            Err(e) => return Err(e),
        };
        self.n.bytes_in += got as u64;
        self.rlen += got;
        let now = Instant::now();
        let mut at = 0;
        while self.rlen - at >= OFP_HEADER_LEN {
            let h = &self.rbuf[at..at + OFP_HEADER_LEN];
            let len = usize::from(u16::from_be_bytes([h[2], h[3]]));
            if len < OFP_HEADER_LEN || len > self.rbuf.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad reply length",
                ));
            }
            if self.rlen - at < len {
                break;
            }
            let xid = u32::from_be_bytes([h[4], h[5], h[6], h[7]]);
            match h[1] {
                BARRIER_REPLY => self.on_barrier_reply(xid, now, lat, rec),
                ERROR => self.n.error_replies += 1,
                _ => {}
            }
            at += len;
        }
        self.rbuf.copy_within(at..self.rlen, 0);
        self.rlen -= at;
        Ok(got)
    }

    fn on_barrier_reply(
        &mut self,
        xid: u32,
        now: Instant,
        lat: &mut Histogram,
        rec: &mut Recorder,
    ) {
        let Some((expect, covered, issued_ns)) = self.fences.pop_front() else {
            self.n.out_of_order += 1;
            return;
        };
        if xid != expect {
            self.n.out_of_order += 1;
        }
        self.n.fences_acked += 1;
        if rec.is_on() {
            let req = (self.id << 32) | u64::from(expect);
            rec.complete("wire.fence_round_trip", req, issued_ns, rec.now_ns());
        }
        while self.n.acked < covered {
            let (t, n) = self.stamps.front_mut().expect("a stamp per sent flow-mod");
            let take = (*n).min(covered - self.n.acked);
            lat.record_n(now.duration_since(*t).as_nanos() as u64, take);
            self.n.acked += take;
            *n -= take;
            if *n == 0 {
                self.stamps.pop_front();
            }
        }
    }

    /// Whether anything sent still waits for its fence.
    #[must_use]
    pub fn in_flight(&self) -> bool {
        self.n.acked < self.n.sent || !self.fences.is_empty()
    }
}

/// How one [`drive`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveEnd {
    /// Every connection reached its target and every fence returned.
    Done,
    /// The watchdog expired first; un-acked ops count as failed.
    TimedOut,
}

/// Drives every connection until each has `ops_per_conn` **more**
/// flow-mods acknowledged than when the call began, from this one
/// thread. Latencies go to `lat`; with a live recorder each `write`,
/// `read` and fence round trip is a span.
pub fn drive(
    conns: &mut [Conn],
    shape: LoadShape,
    ops_per_conn: u64,
    watchdog: Duration,
    lat: &mut Histogram,
    rec: &mut Recorder,
) -> io::Result<DriveEnd> {
    let targets: Vec<u64> = conns.iter().map(|c| c.n.sent + ops_per_conn).collect();
    let deadline = Instant::now() + watchdog;
    let mut idle_sweeps = 0u32;
    loop {
        let mut progress = false;
        let mut done = true;
        for (c, &target) in conns.iter_mut().zip(&targets) {
            let now_ns = if rec.is_on() { rec.now_ns() } else { 0 };
            let sent_before = c.n.sent;
            c.top_up(shape, target, now_ns);
            if c.out_cursor < c.out.len() {
                let req = (c.id << 32) | c.n.fences_sent;
                rec.enter("gen.write", req);
                let stamp = Instant::now();
                let moved = c.flush()?;
                rec.exit();
                // Stamp on hand-over. A partial write still stamps the
                // whole batch: the tail is in our buffer, not on the
                // wire, but it is already late from the controller's
                // point of view.
                if c.unstamped > 0 {
                    c.stamps.push_back((stamp, c.unstamped));
                    c.unstamped = 0;
                }
                progress |= moved > 0;
            }
            progress |= c.n.sent > sent_before;
            if c.in_flight() {
                let req = (c.id << 32) | c.n.fences_acked;
                rec.enter("gen.read", req);
                let got = c.drain(lat, rec)?;
                rec.exit();
                progress |= got > 0;
            }
            done &= c.n.acked >= target && !c.in_flight();
        }
        if done {
            return Ok(DriveEnd::Done);
        }
        if progress {
            idle_sweeps = 0;
        } else {
            // Fixed idle policy: give the core away, never sleep.
            std::thread::yield_now();
            idle_sweeps += 1;
            if idle_sweeps.is_multiple_of(1024) && Instant::now() > deadline {
                return Ok(DriveEnd::TimedOut);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An in-process peer that answers every `BarrierRequest` with a
    /// `BarrierReply` of the same xid and swallows everything else.
    /// Returns (flow-mod frames seen, fences seen).
    fn echo_barriers(listener: TcpListener, conns: usize) -> std::thread::JoinHandle<(u64, u64)> {
        std::thread::spawn(move || {
            let mut socks: Vec<TcpStream> =
                (0..conns).map(|_| listener.accept().unwrap().0).collect();
            let mut totals = (0, 0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = socks
                    .iter_mut()
                    .map(|s| {
                        scope.spawn(move || {
                            let (mut fms, mut fences) = (0u64, 0u64);
                            let mut buf = Vec::new();
                            let mut chunk = [0u8; 4096];
                            loop {
                                let n = s.read(&mut chunk).unwrap();
                                if n == 0 {
                                    return (fms, fences);
                                }
                                buf.extend_from_slice(&chunk[..n]);
                                let mut at = 0;
                                while buf.len() - at >= 8 {
                                    let len =
                                        usize::from(u16::from_be_bytes([buf[at + 2], buf[at + 3]]));
                                    if buf.len() - at < len {
                                        break;
                                    }
                                    if buf[at + 1] == BARRIER_REQUEST {
                                        fences += 1;
                                        let mut reply = buf[at..at + 8].to_vec();
                                        reply[1] = BARRIER_REPLY;
                                        s.write_all(&reply).unwrap();
                                    } else if buf[at + 1] == MessageType::FlowMod as u8 {
                                        fms += 1;
                                    }
                                    at += len;
                                }
                                buf.drain(..at);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    let (f, b) = h.join().unwrap();
                    totals.0 += f;
                    totals.1 += b;
                }
            });
            totals
        })
    }

    #[test]
    fn cycle_is_adds_then_matching_deletes_and_seed_permutes_it() {
        let a = flow_mod_cycle(1);
        let b = flow_mod_cycle(2);
        assert_eq!(a.frames(), 2 * ID_BLOCK as usize);
        assert_eq!(a.bytes.len(), b.bytes.len());
        assert_ne!(a.bytes, b.bytes);
        assert_eq!(a.bytes, flow_mod_cycle(1).bytes);
        let mut framer = ofwire::codec::Framer::new();
        let mut input = &a.bytes[..];
        let mut adds = Vec::new();
        let mut dels = Vec::new();
        while let Some((_, msg)) = framer.next_message_from(&mut input).unwrap() {
            let Message::FlowMod(fm) = msg else {
                panic!("only flow-mods")
            };
            if fm.command.is_delete() {
                dels.push(fm.flow_match);
            } else {
                adds.push(fm.flow_match);
            }
        }
        assert_eq!(adds.len(), ID_BLOCK as usize);
        assert_eq!(adds, dels);
    }

    #[test]
    fn fence_accounting_against_an_echo_of_barrier_replies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = echo_barriers(listener, 2);
        let mut conns: Vec<Conn> = (0..2)
            .map(|i| {
                let sock = TcpStream::connect(addr).unwrap();
                Conn::new(i, sock, flow_mod_cycle(i), &[]).unwrap()
            })
            .collect();
        let mut lat = Histogram::new();
        let mut rec = Recorder::on(1 << 16);
        // 24 is not a multiple of 5: the tail fence path runs too.
        let shape = LoadShape {
            window: 24,
            fence_every: 5,
        };
        for round in 1..=2u64 {
            let end = drive(
                &mut conns,
                shape,
                5000,
                Duration::from_secs(30),
                &mut lat,
                &mut rec,
            )
            .unwrap();
            assert_eq!(end, DriveEnd::Done);
            for c in &conns {
                assert_eq!(c.n.sent, 5000 * round);
                assert_eq!(c.n.acked, c.n.sent);
                assert_eq!(c.n.fences_acked, c.n.fences_sent);
                assert_eq!(c.n.out_of_order, 0);
                assert_eq!(c.n.error_replies, 0);
                assert!(!c.in_flight());
                // Never more than the window in flight: at least one
                // fence per window's worth of flow-mods.
                assert!(c.n.fences_sent >= c.n.sent / shape.window as u64);
            }
        }
        assert_eq!(lat.len(), 20_000);
        let fences: u64 = conns.iter().map(|c| c.n.fences_sent).sum();
        assert_eq!(rec.totals("wire.fence_round_trip").count, fences);
        assert!(rec.totals("gen.write").count > 0);
        let bytes_out: u64 = conns.iter().map(|c| c.n.bytes_out).sum();
        drop(conns);
        let (fms, fences_seen) = peer.join().unwrap();
        assert_eq!(fms, 20_000);
        assert_eq!(fences_seen, fences);
        assert!(bytes_out > 20_000 * 72);
    }

    #[test]
    fn a_silent_peer_trips_the_watchdog_and_leaves_ops_unacked() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sock = TcpStream::connect(addr).unwrap();
        let (_held, _) = listener.accept().unwrap();
        let mut conns = vec![Conn::new(0, sock, flow_mod_cycle(0), &[]).unwrap()];
        let end = drive(
            &mut conns,
            LoadShape {
                window: 8,
                fence_every: 8,
            },
            100,
            Duration::from_millis(50),
            &mut Histogram::new(),
            &mut Recorder::off(),
        )
        .unwrap();
        assert_eq!(end, DriveEnd::TimedOut);
        assert_eq!(conns[0].n.sent, 8);
        assert_eq!(conns[0].n.acked, 0);
    }
}
