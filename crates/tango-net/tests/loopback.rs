//! Loopback integration: the reactor's two server modes against real
//! sockets.
//!
//! The virtual-time test is the crate's core claim in miniature: the
//! same `ControlPath` call sequence against the in-memory testbed and
//! against `TcpFleet` → a virtual-time agent server must produce
//! *identical* completions — tokens, virtual timestamps, outcomes.

use ofwire::codec::Framer;
use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::header::OFP_HEADER_LEN;
use ofwire::message::Message;
use ofwire::types::{Dpid, Xid};
use simnet::link::Link;
use simnet::time::SimTime;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;
use switchsim::chan::OpKind;
use switchsim::control::{ControlOp, ControlPath, OpOutcome, READY_ON_PREVIOUS_ACK};
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango_net::control::TcpFleet;
use tango_net::server::{shard_of, AgentServer, ServerConfig, ServerMode, ShardStats};
use tango_net::vt::VtMsg;

/// Drives the same mixed workload over any control path one op at a
/// time: two switches, one op in flight each, the follow-up submitted at
/// the previous op's `acked_at`. Returns the
/// per-switch completion streams (tokens and cross-switch delivery
/// order are transport bookkeeping, and `TcpFleet` documents that it
/// relaxes global delivery order — per-switch virtual timestamps and
/// outcomes are the contract).
fn drive<C: ControlPath>(cp: &mut C) -> Vec<(u64, SimTime, SimTime, OpOutcome)> {
    let (dp1, dp2) = (Dpid(1), Dpid(2));
    let t0 = cp.now();
    let a = cp.submit(
        dp1,
        ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(7), 10)),
        t0,
    );
    let b = cp.submit(
        dp2,
        ControlOp::Batch(
            (0..5)
                .map(|i| FlowMod::add(FlowMatch::l3_for_id(i), 10))
                .collect(),
        ),
        t0,
    );
    let mut followup = HashMap::new();
    followup.insert(a.seq(), (dp1, ControlOp::Probe(FlowMatch::key_for_id(7))));
    followup.insert(b.seq(), (dp2, ControlOp::Echo(64)));
    let mut out = Vec::new();
    let mut horizon = t0;
    while let Some(c) = cp.next_completion() {
        horizon = horizon.max(c.acked_at);
        out.push((c.dpid.0, c.done_at, c.acked_at, c.outcome));
        if let Some((dpid, op)) = followup.remove(&c.token.seq()) {
            cp.submit(dpid, op, c.acked_at);
        }
    }
    cp.warp_to(horizon);
    // Per-switch virtual-time order: done instants are strictly
    // increasing within a switch (each op's arrival trails the previous
    // op's ack).
    out.sort_by_key(|&(dpid, done, _, _)| (dpid, done.0));
    out
}

/// [`drive`]'s workload submitted ahead of time, the way the driver
/// runner does: each switch's follow-up goes out right behind its first
/// op, chained to that op's ack by the path.
fn drive_chained<C: ControlPath>(cp: &mut C) -> Vec<(u64, SimTime, SimTime, OpOutcome)> {
    let (dp1, dp2) = (Dpid(1), Dpid(2));
    let t0 = cp.now();
    let add = ControlOp::FlowMod(FlowMod::add(FlowMatch::l3_for_id(7), 10));
    let fill = (0..5).map(|i| FlowMod::add(FlowMatch::l3_for_id(i), 10));
    cp.submit(dp1, add, t0);
    cp.submit(dp2, ControlOp::Batch(fill.collect()), t0);
    let probe = ControlOp::Probe(FlowMatch::key_for_id(7));
    cp.submit(dp1, probe, READY_ON_PREVIOUS_ACK);
    cp.submit(dp2, ControlOp::Echo(64), READY_ON_PREVIOUS_ACK);
    let mut out = Vec::new();
    let mut horizon = t0;
    while let Some(c) = cp.next_completion() {
        horizon = horizon.max(c.acked_at);
        out.push((c.dpid.0, c.done_at, c.acked_at, c.outcome));
    }
    cp.warp_to(horizon);
    out.sort_by_key(|&(dpid, done, _, _)| (dpid, done.0));
    out
}

const SEED: u64 = 0x7a4e;

fn roster() -> Vec<(Dpid, SwitchProfile)> {
    vec![
        (Dpid(1), SwitchProfile::ovs()),
        (Dpid(2), SwitchProfile::vendor1()),
    ]
}

fn link() -> Link {
    Link::control_channel(0.1)
}

fn testbed() -> Testbed {
    let mut tb = Testbed::new(SEED);
    for (dpid, profile) in roster() {
        tb.attach(dpid, profile, link());
    }
    tb
}

#[test]
fn virtual_time_completions_match_the_testbed() {
    let mut tb = testbed();
    let expected = drive(&mut tb);
    let mut chained_tb = testbed();
    assert_eq!(drive_chained(&mut chained_tb), expected);
    assert_eq!(chained_tb.now(), tb.now());

    for chained in [false, true] {
        let server = AgentServer::spawn(SEED, roster(), ServerMode::Virtual { link: link() })
            .expect("loopback server spawns");
        let mut fleet =
            TcpFleet::connect(server.addr(), &[Dpid(1), Dpid(2)]).expect("loopback fleet connects");
        let actual = if chained {
            drive_chained(&mut fleet)
        } else {
            drive(&mut fleet)
        };
        assert_eq!(fleet.now(), tb.now(), "final clocks agree");
        drop(fleet);
        let stats = server.shutdown().expect("server exits cleanly");

        assert_eq!(
            actual, expected,
            "wire completions diverge from the testbed (chained: {chained})"
        );
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.ops, 4);
        assert_eq!(stats.errors, 0);
    }
}

/// With telemetry on, the rendered metrics state each wire quantity as
/// the sum of the per-shard counters, no more and no less.
#[test]
fn telemetry_reports_the_shard_sums() {
    let config = ServerConfig {
        shards: 2,
        telemetry: true,
    };
    let server =
        AgentServer::spawn_with(SEED, roster(), ServerMode::Virtual { link: link() }, config)
            .expect("loopback server spawns");
    let mut fleet =
        TcpFleet::connect(server.addr(), &[Dpid(1), Dpid(2)]).expect("loopback fleet connects");
    drive(&mut fleet);
    drop(fleet);
    let stats = server.shutdown().expect("server exits cleanly");

    let metrics = stats.metrics.expect("telemetry was on");
    let counter = |key: &str| -> u64 {
        let prefix = format!("{key} = ");
        let line = metrics.lines().find(|l| l.starts_with(&prefix));
        let line = line.unwrap_or_else(|| panic!("no `{key}` in\n{metrics}"));
        line[prefix.len()..].parse().expect("a counter value")
    };
    let sum = |f: fn(&ShardStats) -> u64| -> u64 { stats.shards.iter().map(f).sum() };
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(counter("wire/ops"), 4);
    assert_eq!(counter("wire/ops"), sum(|s| s.ops));
    assert_eq!(counter("wire/conns"), 2);
    assert_eq!(counter("wire/conns"), sum(|s| s.conns as u64));
    assert!(counter("wire/bytes_in") > 0);
    assert_eq!(counter("wire/bytes_in"), sum(|s| s.bytes_in));
    assert!(counter("wire/bytes_out") > 0);
    assert_eq!(counter("wire/bytes_out"), sum(|s| s.bytes_out));
}

/// The transport does not lean on the runner's window: 20 000 probes
/// chained on one connection before the first pump (≈ 2.2 MB of
/// submits, ≈ 0.9 MB of acks — both past `HIGH_WATER`) all complete, in
/// order, with the testbed's timestamps.
#[test]
fn a_deep_chain_on_one_connection_matches_the_testbed() {
    const PROBES: u32 = 20_000;
    fn sweep<C: ControlPath>(cp: &mut C) -> Vec<(SimTime, SimTime, OpOutcome)> {
        let t0 = cp.now();
        let fill = (0..64).map(|i| FlowMod::add(FlowMatch::l3_for_id(i), 10));
        cp.submit(Dpid(2), ControlOp::Batch(fill.collect()), t0);
        for i in 0..PROBES {
            // Two in three hit an installed rule, the rest miss.
            let probe = ControlOp::Probe(FlowMatch::key_for_id(i % 96));
            cp.submit(Dpid(2), probe, READY_ON_PREVIOUS_ACK);
        }
        let mut out = Vec::new();
        while let Some(c) = cp.next_completion() {
            assert_eq!(c.token.seq(), out.len() as u64, "per-switch FIFO");
            out.push((c.done_at, c.acked_at, c.outcome));
        }
        out
    }
    let expected = sweep(&mut testbed());
    assert_eq!(expected.len(), PROBES as usize + 1);

    let server = AgentServer::spawn(SEED, roster(), ServerMode::Virtual { link: link() })
        .expect("loopback server spawns");
    let mut fleet = TcpFleet::connect(server.addr(), &[Dpid(2)]).expect("loopback fleet connects");
    let actual = sweep(&mut fleet);
    drop(fleet);
    let stats = server.shutdown().expect("server exits cleanly");
    assert!(
        actual == expected,
        "wire completions diverge from the testbed"
    );
    assert_eq!(stats.ops, u64::from(PROBES) + 1);
    assert_eq!(stats.errors, 0);
}

/// A submit whose explicit ready time would overflow the timeline's
/// arithmetic is a protocol error on its own connection — the shard, and
/// the healthy connection beside it, keep serving.
#[test]
fn out_of_range_ready_time_closes_only_its_connection() {
    let server = AgentServer::spawn(SEED, roster(), ServerMode::Virtual { link: link() })
        .expect("loopback server spawns");
    let mut fleet = TcpFleet::connect(server.addr(), &[Dpid(1)]).expect("loopback fleet connects");
    let warm = fleet.submit(Dpid(1), ControlOp::Echo(8), SimTime::ZERO);
    let warm = fleet.wait_for(warm);

    let mut bytes = Vec::new();
    VtMsg::Hello { dpid: 2 }
        .to_message()
        .encode_frame_into(Xid(0), &mut bytes);
    let echo = Message::EchoRequest(vec![0; 8]);
    VtMsg::Submit {
        token: 0,
        // Not the sentinel, yet no link latency can be added to it.
        ready_ns: u64::MAX - 1,
        kind: OpKind::Echo,
        wire_len: (OFP_HEADER_LEN + 8) as u32,
    }
    .to_message()
    .encode_frame_into(Xid(0), &mut bytes);
    echo.encode_frame_into(Xid(1), &mut bytes);
    let mut rogue = TcpStream::connect(server.addr()).expect("connect");
    rogue.write_all(&bytes).expect("send");
    rogue
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut reply = Vec::new();
    // The server closes without acking: a clean EOF (or a reset, if our
    // op frame was still unread), never an ack and never a timeout.
    match rogue.read_to_end(&mut reply) {
        Ok(_) => assert!(reply.is_empty(), "rejected op was acked"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }

    // The shard still serves the connection next to it.
    let after = fleet.submit(Dpid(1), ControlOp::Echo(8), warm.acked_at);
    let after = fleet.wait_for(after);
    assert!(after.acked_at > warm.acked_at);
    drop(fleet);
    let stats = server.shutdown().expect("server exits cleanly");
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.ops, 2);
}

/// A pipelined flow-mod stream through a sharded realtime server, from
/// a fixed-shape blocking client: every connection writes its whole
/// stream (64-id blocks of `add` then `delete_strict`, so tables stay
/// bounded; a barrier after every 16 flow-mods), then reads the replies
/// back.
#[test]
fn realtime_bench_smoke() {
    const SHARDS: usize = 2;
    const CONNS: u64 = 4;
    const FLOW_MODS: u32 = 512;
    const ID_BLOCK: u32 = 64;
    const FENCE_EVERY: u32 = 16;
    let roster = (1..=CONNS)
        .map(|i| (Dpid(i), SwitchProfile::ovs()))
        .collect::<Vec<_>>();
    let config = ServerConfig {
        shards: SHARDS,
        telemetry: false,
    };
    let server = AgentServer::spawn_with(1, roster, ServerMode::Realtime, config)
        .expect("loopback server spawns");

    // Every connection sends the same post-hello stream.
    let mut body = Vec::new();
    let mut fences = Vec::new();
    let mut xid = 0;
    for i in 0..FLOW_MODS {
        let m = FlowMatch::l3_for_id(i % ID_BLOCK);
        let fm = if (i / ID_BLOCK).is_multiple_of(2) {
            FlowMod::add(m, 10)
        } else {
            FlowMod::delete_strict(m, 10)
        };
        xid += 1;
        Message::FlowMod(fm).encode_frame_into(Xid(xid), &mut body);
        if (i + 1).is_multiple_of(FENCE_EVERY) {
            xid += 1;
            Message::BarrierRequest.encode_frame_into(Xid(xid), &mut body);
            fences.push(Xid(xid));
        }
    }
    assert_eq!(fences.len(), 32);
    let mut streams = Vec::new();
    for dpid in 1..=CONNS {
        let mut hello = Vec::new();
        VtMsg::Hello { dpid }
            .to_message()
            .encode_frame_into(Xid(0), &mut hello);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(&hello).expect("send hello");
        stream.write_all(&body).expect("send stream");
        streams.push(stream);
    }

    for stream in &mut streams {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        // A barrier reply is a bare header and the last frame sent is a
        // barrier: an error reply shifts these bytes, a lost one starves
        // the read.
        let mut bytes = vec![0u8; fences.len() * OFP_HEADER_LEN];
        stream.read_exact(&mut bytes).expect("read replies");
        let mut framer = Framer::new();
        let mut input = &bytes[..];
        let mut replies = Vec::new();
        while let Some((header, msg)) = framer.next_message_from(&mut input).expect("frames") {
            assert!(matches!(msg, Message::BarrierReply), "got {msg:?}");
            replies.push(header.xid);
        }
        assert!(input.is_empty(), "whole frames");
        assert_eq!(replies, fences, "barrier replies lost or out of order");
    }
    drop(streams);
    let stats = server.shutdown().expect("server exits cleanly");

    assert_eq!(stats.accepted, CONNS as usize);
    assert_eq!(stats.errors, 0);
    assert_eq!(
        stats.ops,
        CONNS * u64::from(FLOW_MODS + FLOW_MODS / FENCE_EVERY)
    );
    let mut expected = vec![0usize; SHARDS];
    for dpid in 1..=CONNS {
        expected[shard_of(dpid, SHARDS)] += 1;
    }
    let served: Vec<usize> = stats.shards.iter().map(|s| s.conns).collect();
    assert_eq!(served, expected);
}

/// Writes one hand-made op — `kind` over `frames` (xid, message), ready
/// at zero, announced `short_by` bytes shorter than the frames — on a
/// rogue connection bound to switch 2, beside a healthy fleet connection
/// to switch 1. Bytes that do not form the op their kind names are a
/// protocol error on that connection alone: no ack, one error, and the
/// shard keeps serving the connection next to it.
fn malformed_op_closes_only_its_connection(
    kind: OpKind,
    frames: &[(u32, Message)],
    short_by: usize,
) {
    let server = AgentServer::spawn(SEED, roster(), ServerMode::Virtual { link: link() })
        .expect("loopback server spawns");
    let mut fleet = TcpFleet::connect(server.addr(), &[Dpid(1)]).expect("loopback fleet connects");
    let warm = fleet.submit(Dpid(1), ControlOp::Echo(8), SimTime::ZERO);
    let warm = fleet.wait_for(warm);

    let mut op = Vec::new();
    for (xid, m) in frames {
        m.encode_frame_into(Xid(*xid), &mut op);
    }
    let mut bytes = Vec::new();
    VtMsg::Hello { dpid: 2 }
        .to_message()
        .encode_frame_into(Xid(0), &mut bytes);
    VtMsg::Submit {
        token: 0,
        ready_ns: 0,
        kind,
        wire_len: (op.len() - short_by) as u32,
    }
    .to_message()
    .encode_frame_into(Xid(0), &mut bytes);
    bytes.extend_from_slice(&op);
    let mut rogue = TcpStream::connect(server.addr()).expect("connect");
    rogue.write_all(&bytes).expect("send");
    rogue
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let mut reply = Vec::new();
    match rogue.read_to_end(&mut reply) {
        Ok(_) => assert!(reply.is_empty(), "malformed {kind:?} op was acked"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }

    let after = fleet.submit(Dpid(1), ControlOp::Echo(8), warm.acked_at);
    let after = fleet.wait_for(after);
    assert!(after.acked_at > warm.acked_at);
    drop(fleet);
    let stats = server.shutdown().expect("server exits cleanly");
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.ops, 2);
}

fn flow_mod(id: u32) -> Message {
    Message::FlowMod(FlowMod::add(FlowMatch::l3_for_id(id), 10))
}

#[test]
fn a_probe_that_is_an_echo_closes_only_its_connection() {
    let echo = Message::EchoRequest(vec![0; 8]);
    malformed_op_closes_only_its_connection(OpKind::Probe, &[(1, echo)], 0);
}

#[test]
fn a_batch_of_two_barriers_closes_only_its_connection() {
    let fences = [(5, Message::BarrierRequest), (6, Message::BarrierRequest)];
    malformed_op_closes_only_its_connection(OpKind::Batch, &fences, 0);
}

#[test]
fn an_echo_that_is_a_flow_mod_closes_only_its_connection() {
    malformed_op_closes_only_its_connection(OpKind::Echo, &[(1, flow_mod(1))], 0);
}

#[test]
fn a_batch_without_its_barrier_closes_only_its_connection() {
    let fms = [(1, flow_mod(1)), (2, flow_mod(2))];
    malformed_op_closes_only_its_connection(OpKind::Batch, &fms, 0);
}

#[test]
fn an_op_that_ends_inside_its_frame_closes_only_its_connection() {
    malformed_op_closes_only_its_connection(OpKind::FlowMod, &[(1, flow_mod(1))], 4);
}

/// A server that answers one submit with two acks breaks the protocol:
/// the pump refuses the second ack by name instead of counting the ops
/// in flight below zero, which in a release build would wrap and leave
/// `next_completion` waiting forever.
#[test]
#[should_panic(expected = "with no op in flight")]
fn a_second_ack_for_one_submit_is_refused() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut framer = Framer::new();
        let mut buf = [0u8; 4096];
        let token = 'submit: loop {
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "client closed before submitting");
            let mut input = &buf[..n];
            while let Some((_, msg)) = framer.next_message_from(&mut input).expect("frames") {
                if let Message::Vendor { data, .. } = msg {
                    if let Ok(VtMsg::Submit { token, .. }) = VtMsg::decode(&data) {
                        break 'submit token;
                    }
                }
            }
        };
        let ack = VtMsg::Ack {
            token,
            done_ns: 1,
            acked_ns: 2,
            outcome: OpOutcome::Echo,
        }
        .to_message();
        // Both acks in one write, so the client reads them in one pump.
        let mut acks = Vec::new();
        ack.encode_frame_into(Xid(0), &mut acks);
        ack.encode_frame_into(Xid(0), &mut acks);
        stream.write_all(&acks).expect("send acks");
        // Hold the connection open until the client goes.
        while stream.read(&mut buf).is_ok_and(|n| n > 0) {}
    });
    let mut fleet = TcpFleet::connect(addr, &[Dpid(1)]).expect("fleet connects");
    fleet.submit(Dpid(1), ControlOp::Echo(8), SimTime::ZERO);
    while fleet.next_completion().is_some() {}
}

/// The server's end of one connection in a hand-rolled server: the
/// virtual-time messages read off it and not yet taken.
struct Peer {
    stream: TcpStream,
    framer: Framer,
    msgs: VecDeque<VtMsg>,
}

impl Peer {
    /// The next virtual-time message the client sent (op frames, which
    /// follow each submit, are skipped).
    fn next_vt(&mut self) -> VtMsg {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(msg) = self.msgs.pop_front() {
                return msg;
            }
            let n = self.stream.read(&mut buf).expect("read");
            assert!(n > 0, "client closed early");
            let mut input = &buf[..n];
            while let Some((_, msg)) = self.framer.next_message_from(&mut input).expect("frames") {
                if let Message::Vendor { data, .. } = msg {
                    self.msgs
                        .push_back(VtMsg::decode(&data).expect("vt message"));
                }
            }
        }
    }

    /// The token of the next submit.
    fn submitted(&mut self) -> u64 {
        loop {
            if let VtMsg::Submit { token, .. } = self.next_vt() {
                return token;
            }
        }
    }
}

/// A server that acks one switch's op on another switch's connection
/// breaks the protocol: each connection counts its own ops in flight, so
/// the ack that arrives on a connection with nothing outstanding is
/// refused by name instead of being filed under the wrong switch.
#[test]
#[should_panic(expected = "with no op in flight on Dpid(2)")]
fn an_ack_on_an_idle_connection_is_refused() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let mut peers = HashMap::new();
        for _ in 0..2 {
            let (stream, _) = listener.accept().expect("accept");
            let mut peer = Peer {
                stream,
                framer: Framer::new(),
                msgs: VecDeque::new(),
            };
            let VtMsg::Hello { dpid } = peer.next_vt() else {
                panic!("a connection opens with its hello");
            };
            peers.insert(dpid, peer);
        }
        let mut ours = peers.remove(&1).expect("switch 1 connected");
        let mut idle = peers.remove(&2).expect("switch 2 connected");
        let (op1, op2) = (ours.submitted(), idle.submitted());
        // Switch 2's own ack, then switch 1's on switch 2's connection,
        // in one write so the client reads both in one pump.
        let mut acks = Vec::new();
        for token in [op2, op1] {
            VtMsg::Ack {
                token,
                done_ns: 1,
                acked_ns: 2,
                outcome: OpOutcome::Echo,
            }
            .to_message()
            .encode_frame_into(Xid(0), &mut acks);
        }
        idle.stream.write_all(&acks).expect("send acks");
        // Hold both connections open until the client goes.
        let mut buf = [0u8; 64];
        while idle.stream.read(&mut buf).is_ok_and(|n| n > 0) {}
        drop(ours);
    });
    let mut fleet = TcpFleet::connect(addr, &[Dpid(1), Dpid(2)]).expect("fleet connects");
    fleet.submit(Dpid(1), ControlOp::Echo(8), SimTime::ZERO);
    fleet.submit(Dpid(2), ControlOp::Echo(8), SimTime::ZERO);
    while fleet.next_completion().is_some() {}
}
