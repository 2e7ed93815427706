//! The agent server: N switch agents behind a sharded, reactor-per-core
//! transport.
//!
//! Every connection speaks plain `ofwire` frames. The first frame must
//! be a [`VtMsg::Hello`] binding the connection to a switch from the
//! server's roster; after that the connection runs in whichever mode
//! the server was built in:
//!
//! * **Realtime** ([`ServerMode::Realtime`]) — the benchmark mode.
//!   Inbound bytes go straight to
//!   [`Agent::feed_into`](switchsim::agent::Agent::feed_into) (the
//!   agent's own framer handles torn frames, whole frames decode
//!   zero-copy from the read scratch), wire replies append to the
//!   connection's reused [`OutBuf`](crate::reactor::OutBuf), and `now`
//!   is the wall clock. Throughput comes from syscall batching: one
//!   read drains a whole pipeline window, one write flushes all its
//!   replies.
//! * **Virtual time** ([`ServerMode::Virtual`]) — the inference mode.
//!   Ops arrive annotated with [`VtMsg::Submit`]; each connection holds
//!   the switch's [`SwitchCore`] (agent, link model and per-switch
//!   latency RNG, derived exactly as the in-memory testbed derives them
//!   at attach), resolves every op on it as the testbed does, and
//!   answers with a [`VtMsg::Ack`] instead of the op's plain replies.
//!   See [`crate::vt`] for why.
//!
//! ## Sharding
//!
//! The server is split into a **front door** and N **reactor shards**
//! ([`ServerConfig::shards`]):
//!
//! * The front door owns the listener. It accepts connections, runs the
//!   hello handshake, validates and claims the roster slot, and hands
//!   the bound connection — socket, torn-frame leftover and all — to
//!   shard [`shard_of`]`(dpid, N)` over that shard's mpsc channel.
//! * Each shard is an independent readiness loop with its own read
//!   scratch and [`Pacer`]. Shards share **nothing mutable** on the hot
//!   path: the only cross-thread traffic is the accept-time handoff and
//!   one atomic per roster slot (the claim flag, touched at bind/close)
//!   plus the live-connection count used for shutdown.
//!
//! The partition function is pure — a reconnecting switch always lands
//! back on the same shard, and a roster slot whose connection closed
//! releases its claim so the reconnect can bind again.
//!
//! Backpressure: a connection whose write buffer is over its high
//! watermark is not read until it drains — the reactor never queues
//! unboundedly on behalf of a slow peer.

use crate::reactor::{IoCounters, NbConn, Pacer, READ_CHUNK};
use crate::vt::VtMsg;
use ofwire::codec::Framer;
use ofwire::types::{Dpid, Xid};
use simnet::link::Link;
use simnet::rng::DetRng;
use simnet::telemetry::{Recorder, Telemetry};
use simnet::time::SimTime;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use switchsim::agent::{Agent, AgentOutput};
use switchsim::chan::{self, OpKind, SwitchCore};
use switchsim::control::READY_ON_PREVIOUS_ACK;
use switchsim::profiles::SwitchProfile;
use switchsim::switch::Switch;

/// How the server interprets time and answers operations.
#[derive(Debug, Clone)]
pub enum ServerMode {
    /// Wall-clock agents answering with plain wire replies (benchmark
    /// and demo mode).
    Realtime,
    /// Virtual-time agents answering with [`VtMsg::Ack`] reports,
    /// modelling every control channel with `link` (inference mode).
    Virtual {
        /// The control-channel model applied to every switch.
        link: Link,
    },
}

/// Server shape: how many reactor shards, and whether they record
/// telemetry.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Reactor shard count (threads). 1 reproduces the single-loop
    /// behaviour behind the same front door.
    pub shards: usize,
    /// Render the shards' wire counters (see [`wire_keys`]) into
    /// [`ServerStats::metrics`] at shutdown: each shard writes its
    /// [`ShardStats`] into a recorder once, when it exits.
    pub telemetry: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 1,
            telemetry: false,
        }
    }
}

/// Which shard a switch's connection is served by.
///
/// Pure (FNV-1a over the dpid), so a reconnecting switch lands on the
/// same shard every time and a fleet spreads evenly without
/// coordination.
#[must_use]
pub fn shard_of(dpid: u64, shards: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in dpid.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    (h % shards.max(1) as u64) as usize
}

/// Telemetry counter keys under which [`ServerStats::metrics`] reports
/// the wire plane.
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
    /// Connections bound to a shard over its lifetime.
    pub const CONNS: &str = "wire/conns";
    /// Messages dispatched / ops completed.
    pub const OPS: &str = "wire/ops";
}

/// Counters one reactor shard reports when it exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Connections bound to this shard over its lifetime.
    pub conns: usize,
    /// Operations completed (virtual-time ops, or realtime messages
    /// dispatched to an agent).
    pub ops: u64,
    /// Protocol violations that closed a connection.
    pub errors: usize,
    /// Sweeps that moved at least one byte.
    pub wakeups: u64,
    /// Bytes read off this shard's sockets.
    pub bytes_in: u64,
    /// Bytes written to this shard's sockets.
    pub bytes_out: u64,
    /// Socket calls that returned `WouldBlock`.
    pub would_block: u64,
    /// Reads refused by watermark backpressure.
    pub watermark_stalls: u64,
}

impl ShardStats {
    /// Adds every counter to `tele` under its [`wire_keys`] name.
    fn record(&self, tele: &mut Telemetry) {
        tele.count(wire_keys::CONNS, self.conns as u64);
        tele.count(wire_keys::OPS, self.ops);
        tele.count(wire_keys::WAKEUPS, self.wakeups);
        tele.count(wire_keys::BYTES_IN, self.bytes_in);
        tele.count(wire_keys::BYTES_OUT, self.bytes_out);
        tele.count(wire_keys::WOULD_BLOCK, self.would_block);
        tele.count(wire_keys::WATERMARK_STALLS, self.watermark_stalls);
    }
}

/// Counters the server reports when it exits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub accepted: usize,
    /// Operations completed, summed over shards.
    pub ops: u64,
    /// Protocol violations that closed a connection (handshake errors
    /// plus shard-side stream errors).
    pub errors: usize,
    /// Per-shard breakdown.
    pub shards: Vec<ShardStats>,
    /// Rendered telemetry snapshot, when [`ServerConfig::telemetry`]
    /// was on: each [`wire_keys`] counter summed over shards.
    pub metrics: Option<String>,
}

/// Handle to a running [`AgentServer`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<io::Result<ServerStats>>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the server to stop and waits for its threads, returning
    /// the final counters.
    pub fn shutdown(mut self) -> io::Result<ServerStats> {
        self.stop.store(true, Ordering::Relaxed);
        let join = self.join.take().expect("shutdown consumes the handle");
        join.join().expect("server thread panicked")
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// One roster slot: a switch a connection may claim with its hello.
/// Everything but the claim flag is immutable, so the front door can
/// bind (and shards release) without a lock.
struct RosterSlot {
    dpid: Dpid,
    /// Set while a connection is bound to this switch; a hello for a
    /// claimed dpid is a protocol error, and a closed connection
    /// releases the claim so the switch can reconnect.
    claimed: AtomicBool,
    profile: SwitchProfile,
    seed: u64,
    link_rng: DetRng,
}

/// A bound connection travelling from the front door to its shard.
struct Handoff {
    conn: NbConn,
    /// Index into the roster (claim already taken by the front door).
    slot: usize,
    /// Bytes that arrived behind the hello in the same read(s).
    leftover: Vec<u8>,
}

/// The switch-agent server. Construction happens via
/// [`AgentServer::spawn`] / [`AgentServer::spawn_with`].
pub struct AgentServer;

impl AgentServer {
    /// Binds a loopback listener and spawns a single-shard server for
    /// `roster`. `seed` plays the role of the testbed's master seed:
    /// per-switch datapath seeds and link-latency streams derive from
    /// it in roster order, exactly as
    /// [`Testbed::attach`](switchsim::harness::Testbed::attach) would
    /// derive them attaching the same dpids in the same order.
    ///
    /// The server exits when [`ServerHandle::shutdown`] is called, or
    /// on its own once at least one connection was accepted and all
    /// connections have closed.
    pub fn spawn(
        seed: u64,
        roster: Vec<(Dpid, SwitchProfile)>,
        mode: ServerMode,
    ) -> io::Result<ServerHandle> {
        Self::spawn_with(seed, roster, mode, ServerConfig::default())
    }

    /// [`AgentServer::spawn`] with an explicit shard count and
    /// telemetry switch.
    pub fn spawn_with(
        seed: u64,
        roster: Vec<(Dpid, SwitchProfile)>,
        mode: ServerMode,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let mut master = DetRng::new(seed);
        let roster: Arc<Vec<RosterSlot>> = Arc::new(
            roster
                .into_iter()
                .map(|(dpid, profile)| {
                    let (seed, link_rng) = chan::attach_streams(&mut master, dpid);
                    RosterSlot {
                        dpid,
                        claimed: AtomicBool::new(false),
                        profile,
                        seed,
                        link_rng,
                    }
                })
                .collect(),
        );
        let shards = cfg.shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut shard_joins = Vec::with_capacity(shards);
        for idx in 0..shards {
            let (tx, rx) = std::sync::mpsc::channel();
            senders.push(tx);
            let roster = Arc::clone(&roster);
            let mode = mode.clone();
            let stop = Arc::clone(&stop);
            let live = Arc::clone(&live);
            let join = std::thread::Builder::new()
                .name(format!("tango-net-shard{idx}"))
                .spawn(move || run_shard(idx, &rx, &roster, &mode, &stop, &live, cfg.telemetry))?;
            shard_joins.push(join);
        }
        let stop_flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("tango-net-accept".into())
            .spawn(move || {
                run_acceptor(&listener, &roster, senders, shard_joins, &stop_flag, &live)
            })?;
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
        })
    }
}

/// A connection still waiting for its binding hello.
struct PendingConn {
    conn: NbConn,
    framer: Framer,
}

/// Outcome of feeding handshake bytes to a pending connection.
enum HandshakeStep {
    /// Hello not complete yet.
    Incomplete,
    /// Hello parsed and roster slot claimed.
    Bound { slot: usize, leftover: Vec<u8> },
}

fn proto_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Parses handshake bytes; claims the roster slot on a complete hello.
fn handshake_step(
    framer: &mut Framer,
    bytes: &[u8],
    roster: &[RosterSlot],
) -> io::Result<HandshakeStep> {
    let mut input = bytes;
    let dpid = match VtMsg::next_from(framer, &mut input) {
        Ok(None) => return Ok(HandshakeStep::Incomplete), // hello still torn
        Ok(Some(VtMsg::Hello { dpid })) => dpid,
        Ok(Some(_)) => return Err(proto_err("first vt message must be hello")),
        Err(_) => return Err(proto_err("bad hello frame")),
    };
    let slot = roster
        .iter()
        .position(|e| e.dpid.0 == dpid)
        .ok_or_else(|| proto_err("hello for a dpid not in the roster"))?;
    if roster[slot].claimed.swap(true, Ordering::AcqRel) {
        return Err(proto_err("dpid already claimed"));
    }
    // A complete frame leaves nothing in the framer.
    Ok(HandshakeStep::Bound {
        slot,
        leftover: input.to_vec(),
    })
}

/// The front door: accept, handshake, hand off to the owning shard.
fn run_acceptor(
    listener: &TcpListener,
    roster: &[RosterSlot],
    senders: Vec<Sender<Handoff>>,
    shard_joins: Vec<JoinHandle<ShardExit>>,
    stop: &AtomicBool,
    live: &AtomicUsize,
) -> io::Result<ServerStats> {
    let mut stats = ServerStats::default();
    let mut pending: Vec<PendingConn> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut pacer = Pacer::new();
    let shards = senders.len();
    loop {
        let done = stop.load(Ordering::Relaxed)
            || (stats.accepted > 0 && pending.is_empty() && live.load(Ordering::Relaxed) == 0);
        if done {
            break;
        }
        let mut progress = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    pending.push(PendingConn {
                        conn: NbConn::new(stream)?,
                        framer: Framer::new(),
                    });
                    stats.accepted += 1;
                    live.fetch_add(1, Ordering::Relaxed);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut i = 0;
        while i < pending.len() {
            let p = &mut pending[i];
            let n = p.conn.read_into(&mut scratch).unwrap_or_default();
            if p.conn.is_closed() {
                // The peer vanished mid-handshake: not a protocol
                // violation, just a connection that never bound.
                pending.swap_remove(i);
                live.fetch_sub(1, Ordering::Relaxed);
                progress = true;
                continue;
            }
            if n == 0 {
                i += 1;
                continue;
            }
            progress = true;
            match handshake_step(&mut p.framer, &scratch[..n], roster) {
                Ok(HandshakeStep::Incomplete) => {
                    i += 1;
                }
                Ok(HandshakeStep::Bound { slot, leftover }) => {
                    let p = pending.swap_remove(i);
                    let shard = shard_of(roster[slot].dpid.0, shards);
                    if senders[shard]
                        .send(Handoff {
                            conn: p.conn,
                            slot,
                            leftover,
                        })
                        .is_err()
                    {
                        // Shard already gone (shutdown race): the claim
                        // dies with the connection.
                        roster[slot].claimed.store(false, Ordering::Release);
                        live.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    stats.errors += 1;
                    pending.swap_remove(i);
                    live.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        if progress {
            pacer.progressed();
        } else {
            pacer.idle(!pending.is_empty());
        }
    }
    // Closing the channels tells every shard to finish and exit.
    drop(senders);
    let mut recorders: Vec<Recorder> = Vec::new();
    for join in shard_joins {
        let shard = join.join().expect("shard thread panicked");
        stats.ops += shard.stats.ops;
        stats.errors += shard.stats.errors;
        stats.shards.push(shard.stats);
        if let Some(rec) = shard.recorder {
            recorders.push(*rec);
        }
    }
    if !recorders.is_empty() {
        stats.metrics = Some(Recorder::merge_metrics(recorders.iter()).render_text());
    }
    Ok(stats)
}

/// What a shard thread returns: its counters, plus a recorder holding
/// them when [`ServerConfig::telemetry`] is on.
struct ShardExit {
    stats: ShardStats,
    recorder: Option<Box<Recorder>>,
}

/// Per-connection protocol state (post-handshake).
enum SessState {
    /// Bound, wall-clock mode.
    Realtime(Box<RtState>),
    /// Bound, virtual-time mode.
    Virtual(Box<VtState>),
}

struct RtState {
    agent: Agent,
}

struct VtState {
    core: SwitchCore,
    framer: Framer,
    /// The op whose bytes are arriving, announced by its submit frame.
    cur: Option<CurOp>,
    /// The current op's bytes so far (kept between ops for reuse).
    op: Vec<u8>,
}

struct CurOp {
    token: u64,
    ready: SimTime,
    kind: OpKind,
    wire_len: usize,
}

struct Session {
    conn: NbConn,
    slot: usize,
    state: SessState,
    /// Consecutive empty reads (the backoff exponent).
    misses: u32,
    /// Sweeps left before this session is polled again. A session that
    /// keeps returning `WouldBlock` while its shard-mates are busy is
    /// skipped for up to [`MAX_READ_SKIP`] sweeps — otherwise a shard
    /// with a few hot connections burns a wasted read syscall per idle
    /// connection per sweep (the dominant cost at 256 connections).
    skip: u32,
}

/// Latest explicit ready time a submit may carry: half the clock's
/// range, so the timeline's unchecked additions cannot overflow.
const MAX_READY_NS: u64 = u64::MAX / 2;

/// Longest a session sits out the read sweep, in sweeps. Busy shards
/// sweep in tens of microseconds and idle ones tick at the pacer's
/// 50 µs tier, so the cap adds well under a millisecond of latency
/// while cutting the idle-poll syscall rate ~16×.
const MAX_READ_SKIP: u32 = 16;

/// Builds a bound session from a handoff, in the server's mode.
fn bind_session(h: Handoff, roster: &[RosterSlot], mode: &ServerMode) -> Session {
    let slot = &roster[h.slot];
    let agent = Agent::new(Switch::new(slot.profile.clone(), slot.dpid, slot.seed));
    let state = match mode {
        ServerMode::Realtime => SessState::Realtime(Box::new(RtState { agent })),
        ServerMode::Virtual { link } => SessState::Virtual(Box::new(VtState {
            core: SwitchCore::new(
                slot.dpid,
                agent,
                *link,
                slot.link_rng.clone(),
                SimTime::ZERO,
            ),
            framer: Framer::new(),
            cur: None,
            op: Vec::new(),
        })),
    };
    Session {
        conn: h.conn,
        slot: h.slot,
        state,
        misses: 0,
        skip: 0,
    }
}

/// One reactor shard: drains its handoff channel, then sweeps its
/// sessions — flush, read, dispatch — with no shared mutable state
/// beyond the roster claim flags and the live count.
fn run_shard(
    idx: usize,
    rx: &Receiver<Handoff>,
    roster: &[RosterSlot],
    mode: &ServerMode,
    stop: &AtomicBool,
    live: &AtomicUsize,
    telemetry: bool,
) -> ShardExit {
    let mut stats = ShardStats {
        shard: idx,
        ..ShardStats::default()
    };
    let mut sessions: Vec<Session> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut outs: Vec<AgentOutput> = Vec::new();
    let mut pacer = Pacer::new();
    let epoch = Instant::now();
    let mut inlet_open = true;
    loop {
        let mut progress = false;
        while inlet_open {
            match rx.try_recv() {
                Ok(mut h) => {
                    let leftover = std::mem::take(&mut h.leftover);
                    let mut sess = bind_session(h, roster, mode);
                    stats.conns += 1;
                    progress = true;
                    // Frames that arrived behind the hello in the same
                    // read(s) must be processed before any socket data.
                    if !leftover.is_empty() {
                        let now = SimTime(epoch.elapsed().as_nanos() as u64);
                        if sess
                            .on_bytes(&leftover, now, &mut outs, &mut stats)
                            .is_err()
                        {
                            stats.errors += 1;
                            retire_session(sess, roster, live, &mut stats);
                            continue;
                        }
                    }
                    sessions.push(sess);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    inlet_open = false;
                }
            }
        }
        let stopping = stop.load(Ordering::Relaxed);
        let mut i = 0;
        while i < sessions.len() {
            let sess = &mut sessions[i];
            // A write error means the peer vanished; reads will observe
            // the close below.
            let flushed = sess.conn.flush().unwrap_or(0);
            progress |= flushed > 0;
            let mut drop_sess = false;
            let mut errored = false;
            if sess.skip > 0 && !stopping {
                sess.skip -= 1;
            } else {
                match sess.conn.read_into(&mut scratch) {
                    Ok(n) if n > 0 => {
                        progress = true;
                        sess.misses = 0;
                        let now = SimTime(epoch.elapsed().as_nanos() as u64);
                        if sess
                            .on_bytes(&scratch[..n], now, &mut outs, &mut stats)
                            .is_err()
                        {
                            drop_sess = true;
                            errored = true;
                        }
                    }
                    Ok(_) => {
                        sess.misses += 1;
                        sess.skip = (1u32 << sess.misses.min(4)).min(MAX_READ_SKIP);
                    }
                    Err(_) => {
                        drop_sess = true;
                        errored = true;
                    }
                }
            }
            if !drop_sess && sess.conn.is_closed() && sess.conn.out.pending() == 0 {
                drop_sess = true;
            }
            if drop_sess || stopping {
                if errored {
                    stats.errors += 1;
                }
                let sess = sessions.swap_remove(i);
                retire_session(sess, roster, live, &mut stats);
                progress = true;
                continue;
            }
            i += 1;
        }
        if stopping || (!inlet_open && sessions.is_empty()) {
            break;
        }
        if progress {
            stats.wakeups += 1;
            pacer.progressed();
        } else {
            // Idle sweeps still tick each session's skip countdown, so
            // a skipped session is re-polled within MAX_READ_SKIP pacer
            // periods — the skip schedule needs no reset on idle.
            let in_flight = sessions.iter().any(|s| s.conn.out.pending() > 0);
            pacer.idle(in_flight);
        }
    }
    for sess in sessions.drain(..) {
        retire_session(sess, roster, live, &mut stats);
    }
    let recorder = telemetry.then(|| {
        let mut tele = Telemetry::recording();
        stats.record(&mut tele);
        tele.take().expect("recording")
    });
    ShardExit { stats, recorder }
}

/// Releases a closing session's roster claim and folds its I/O counters
/// into the shard totals.
fn retire_session(
    sess: Session,
    roster: &[RosterSlot],
    live: &AtomicUsize,
    stats: &mut ShardStats,
) {
    let IoCounters {
        bytes_in,
        bytes_out,
        would_block,
        watermark_stalls,
    } = sess.conn.io;
    stats.bytes_in += bytes_in;
    stats.bytes_out += bytes_out;
    stats.would_block += would_block;
    stats.watermark_stalls += watermark_stalls;
    roster[sess.slot].claimed.store(false, Ordering::Release);
    live.fetch_sub(1, Ordering::Relaxed);
}

impl Session {
    fn on_bytes(
        &mut self,
        bytes: &[u8],
        now: SimTime,
        outs: &mut Vec<AgentOutput>,
        stats: &mut ShardStats,
    ) -> io::Result<()> {
        match &mut self.state {
            SessState::Realtime(rt) => {
                outs.clear();
                rt.agent
                    .feed_into(bytes, now, outs)
                    .map_err(|_| proto_err("unparseable frame stream"))?;
                stats.ops += outs.len() as u64;
                for o in outs.drain(..) {
                    if let Some(reply) = o.reply {
                        reply.encode_frame_into(o.xid, self.conn.out.tail());
                    }
                }
                Ok(())
            }
            SessState::Virtual(vt) => {
                let acked = vt.on_bytes(bytes, outs, self.conn.out.tail())?;
                stats.ops += acked;
                Ok(())
            }
        }
    }
}

impl VtState {
    /// Consumes a chunk of the annotated op stream; appends acks to
    /// `out`. Returns the number of ops completed.
    fn on_bytes(
        &mut self,
        bytes: &[u8],
        outs: &mut Vec<AgentOutput>,
        out: &mut Vec<u8>,
    ) -> io::Result<u64> {
        let mut acked = 0;
        let mut input = bytes;
        loop {
            if let Some(cur) = &self.cur {
                // The announced op's bytes, taken whole as they arrive:
                // `resolve` checks that they form the op.
                let (taken, rest) = input.split_at((cur.wire_len - self.op.len()).min(input.len()));
                self.op.extend_from_slice(taken);
                input = rest;
                if self.op.len() < cur.wire_len {
                    return Ok(acked);
                }
                self.finish_op(outs, out)?;
                acked += 1;
            }
            let vt = VtMsg::next_from(&mut self.framer, &mut input)
                .map_err(|_| proto_err("bad vt frame"))?;
            let Some(vt) = vt else {
                return Ok(acked);
            };
            let VtMsg::Submit {
                token,
                ready_ns,
                kind,
                wire_len,
            } = vt
            else {
                return Err(proto_err("unexpected vt message mid-stream"));
            };
            if ready_ns > MAX_READY_NS && SimTime(ready_ns) != READY_ON_PREVIOUS_ACK {
                return Err(proto_err("ready time out of range"));
            }
            self.cur = Some(CurOp {
                token,
                ready: SimTime(ready_ns),
                kind,
                wire_len: wire_len as usize,
            });
        }
    }

    /// All of the current op's bytes have arrived: resolve it on the
    /// switch's core, as the testbed does, and emit the ack. Bytes that
    /// do not form the op their kind names close the connection.
    fn finish_op(&mut self, outs: &mut Vec<AgentOutput>, out: &mut Vec<u8>) -> io::Result<()> {
        let cur = self.cur.take().expect("finish_op follows a submit");
        let r = self
            .core
            .resolve(cur.ready, cur.kind, &self.op, outs)
            .map_err(|e| proto_err(&e.to_string()))?;
        self.op.clear();
        VtMsg::Ack {
            token: cur.token,
            done_ns: r.done_at.0,
            acked_ns: r.acked_at.0,
            outcome: r.outcome,
        }
        .to_message()
        .encode_frame_into(Xid(0), out);
        Ok(())
    }
}
