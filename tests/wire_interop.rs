//! Cross-crate integration: the wire protocol end to end — a
//! hand-rolled controller speaking raw `ofwire` bytes to a switch agent,
//! exercising handshake, installation, probing, stats, and error paths
//! exactly as a real control channel would.

use ofwire::prelude::*;
use simnet::time::SimTime;
use switchsim::agent::Agent;
use switchsim::pipeline::Hit;
use switchsim::profiles::SwitchProfile;
use switchsim::switch::Switch;

/// A minimal controller that frames outgoing messages and parses
/// replies through a real `Framer`.
struct MiniController {
    agent: Agent,
    rx: Framer,
    next_xid: Xid,
    now: SimTime,
}

impl MiniController {
    fn new(profile: SwitchProfile) -> MiniController {
        MiniController {
            agent: Agent::new(Switch::new(profile, Dpid(7), 99)),
            rx: Framer::new(),
            next_xid: Xid(1),
            now: SimTime::ZERO,
        }
    }

    /// Sends a message; returns the replies (parsed through the wire).
    fn send(&mut self, msg: Message) -> Vec<(Header, Message)> {
        let xid = self.next_xid;
        self.next_xid = xid.next();
        let bytes = msg.to_bytes(xid);
        // Split the frame in half to exercise reassembly on the agent's
        // side too (the agent framer handles partial delivery).
        let mid = bytes.len() / 2;
        let mut outs = Vec::new();
        self.agent
            .feed_into(&bytes[..mid], self.now, &mut outs)
            .unwrap();
        self.agent
            .feed_into(&bytes[mid..], self.now, &mut outs)
            .unwrap();
        self.now += simnet::time::SimDuration::from_micros(100);
        let mut wire = Vec::new();
        for o in outs {
            if let Some(reply) = o.reply {
                reply.encode_frame_into(o.xid, &mut wire);
            }
        }
        let mut input = &wire[..];
        let mut replies = Vec::new();
        while let Some(pair) = self.rx.next_message_from(&mut input).unwrap() {
            replies.push(pair);
        }
        replies
    }
}

#[test]
fn handshake_and_features() {
    let mut c = MiniController::new(SwitchProfile::vendor1());
    let replies = c.send(Message::Hello);
    assert_eq!(replies[0].1, Message::Hello);
    let replies = c.send(Message::FeaturesRequest);
    match &replies[0].1 {
        Message::FeaturesReply(fr) => {
            assert_eq!(fr.datapath_id, Dpid(7));
            assert_eq!(fr.n_tables, 2);
        }
        other => panic!("expected features reply, got {other:?}"),
    }
    // Replies echo the request xid.
    assert_eq!(replies[0].0.xid, Xid(2));
}

#[test]
fn install_probe_stats_cycle() {
    let mut c = MiniController::new(SwitchProfile::vendor2());
    // Install 10 rules; successes are silent.
    for i in 0..10u32 {
        let replies = c.send(Message::FlowMod(FlowMod::add(FlowMatch::l3_for_id(i), 50)));
        assert!(replies.is_empty(), "successful add must be silent");
    }
    // Barrier.
    let replies = c.send(Message::BarrierRequest);
    assert_eq!(replies[0].1, Message::BarrierReply);
    // Probe one flow: forwarded, no packet_in.
    let frame = RawFrame::build(&FlowMatch::key_for_id(3), 16);
    let replies = c.send(Message::PacketOut(PacketOut::send(frame, PortNo(1))));
    assert!(replies.is_empty());
    // Probe an unknown flow: punted as packet_in.
    let frame = RawFrame::build(&FlowMatch::key_for_id(99), 16);
    let replies = c.send(Message::PacketOut(PacketOut::send(frame, PortNo(1))));
    match &replies[0].1 {
        Message::PacketIn(pi) => {
            assert_eq!(pi.reason, PacketInReason::NoMatch);
            // The punted frame parses back to the original key.
            let key = RawFrame::parse(&pi.data, pi.in_port).unwrap();
            assert_eq!(key.nw_dst, FlowMatch::key_for_id(99).nw_dst);
        }
        other => panic!("expected packet_in, got {other:?}"),
    }
    // Flow stats reflect the traffic.
    let replies = c.send(Message::StatsRequest(StatsRequestBody::all_flows()));
    match &replies[0].1 {
        Message::StatsReply(StatsBody::Flow(entries)) => {
            assert_eq!(entries.len(), 10);
            let probed: u64 = entries.iter().map(|e| e.packet_count).sum();
            assert_eq!(probed, 1, "exactly one matching probe was sent");
        }
        other => panic!("expected flow stats, got {other:?}"),
    }
}

#[test]
fn table_full_error_carries_offending_request() {
    let mut c = MiniController::new(SwitchProfile::vendor3());
    let mut error_seen = false;
    for i in 0..800u32 {
        let fm = FlowMod::add(FlowMatch::l3_for_id(i), 50);
        let replies = c.send(Message::FlowMod(fm));
        if let Some((hdr, Message::Error(e))) = replies.first().map(|r| (r.0, r.1.clone())) {
            assert!(e.is_table_full());
            assert_eq!(i, 767, "vendor3 rejects the 768th L3 rule");
            // The error echoes (a prefix of) the rejected frame, whose
            // header carries the same xid.
            let echoed = Header::peek(&e.data).unwrap();
            assert_eq!(echoed.xid, hdr.xid);
            assert_eq!(echoed.msg_type, MessageType::FlowMod);
            error_seen = true;
            break;
        }
    }
    assert!(error_seen);
}

#[test]
fn echo_measures_control_channel() {
    let mut c = MiniController::new(SwitchProfile::ovs());
    let payload = vec![0xab; 32];
    let replies = c.send(Message::EchoRequest(payload.clone()));
    assert_eq!(replies[0].1, Message::EchoReply(payload));
}

#[test]
fn data_plane_promotion_visible_through_wire() {
    // OVS: first packet slow path (userspace), second fast (kernel) —
    // observable purely through packet_out/agent outputs.
    let mut c = MiniController::new(SwitchProfile::ovs());
    c.send(Message::FlowMod(FlowMod::add(FlowMatch::l3_for_id(1), 5)));
    let hits: Vec<Hit> = (0..2)
        .map(|_| {
            let frame = RawFrame::build(&FlowMatch::key_for_id(1), 16);
            let bytes = Message::PacketOut(PacketOut::send(frame, PortNo(1))).to_bytes(Xid(900));
            let mut outs = Vec::new();
            c.agent.feed_into(&bytes, c.now, &mut outs).unwrap();
            outs[0].forwarded.unwrap().0
        })
        .collect();
    assert_eq!(
        hits[0],
        Hit::Table {
            level: 1,
            entry: switchsim::entry::EntryId(1)
        }
    );
    assert_eq!(
        hits[1],
        Hit::Table {
            level: 0,
            entry: switchsim::entry::EntryId(1)
        }
    );
}
