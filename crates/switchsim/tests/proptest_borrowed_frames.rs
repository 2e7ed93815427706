//! Property test for the agent's flow-mod fast path: a `flow_mod` frame
//! goes from the borrowed frame through `FlowMod::decode` straight into
//! the switch, never becoming a [`Message`]. The owning route stays in
//! `ofwire` ([`Frame::decode`]); the property is that the two cannot be
//! told apart — same outputs, same error, same poisoned framer — on
//! streams of valid, damaged and truncated frames, across expiries and
//! table-full rejections.

use ofwire::prelude::*;
use proptest::prelude::*;
use simnet::time::{SimDuration, SimTime};
use switchsim::agent::{Agent, AgentOutput};
use switchsim::expiry::RemovalReason;
use switchsim::pipeline::Pipeline;
use switchsim::profiles::SwitchProfile;
use switchsim::switch::{FlowModError, Switch};
use switchsim::tcam::TcamGeometry;

/// Four TCAM slots and nothing behind them, so adds get rejected.
fn switch() -> Switch {
    let profile = SwitchProfile {
        pipeline: Pipeline::tcam_only(TcamGeometry::single_wide(4)),
        ..SwitchProfile::vendor3()
    };
    Switch::new(profile, Dpid(1), 7)
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u16..5).prop_map(Action::output),
        any::<u16>().prop_map(Action::SetVlanVid),
        any::<[u8; 6]>().prop_map(|m| Action::SetDlDst(MacAddr(m))),
    ]
}

prop_compose! {
    /// Flow-mods over a handful of rules, so that modifies and deletes
    /// find their targets, some carrying a hard timeout.
    fn arb_flow_mod()(
        id in 0u32..8,
        command in prop_oneof![
            Just(FlowModCommand::Add),
            Just(FlowModCommand::Add),
            Just(FlowModCommand::Modify),
            Just(FlowModCommand::ModifyStrict),
            Just(FlowModCommand::Delete),
            Just(FlowModCommand::DeleteStrict),
        ],
        hard_timeout in prop_oneof![Just(0u16), Just(0u16), 1u16..3],
        cookie in any::<u64>(),
        actions in proptest::collection::vec(arb_action(), 0..4),
    ) -> FlowMod {
        let mut fm = FlowMod::add_with_actions(FlowMatch::l3_for_id(id), 10, actions);
        fm.command = command;
        fm.hard_timeout = hard_timeout;
        fm.cookie = cookie;
        fm
    }
}

/// What happens to one frame between the encoder and the stream.
#[derive(Debug, Clone)]
enum Mangle {
    /// One body byte overwritten.
    Damage(usize, u8),
    /// The body cut to this many bytes, the header's length following.
    Truncate(usize),
}

fn arb_mangle() -> impl Strategy<Value = Mangle> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, v)| Mangle::Damage(at, v)),
        any::<usize>().prop_map(Mangle::Truncate),
    ]
}

fn mangle(frame: &mut Vec<u8>, how: &Mangle) {
    let body = frame.len() - OFP_HEADER_LEN;
    match *how {
        Mangle::Damage(at, v) => frame[OFP_HEADER_LEN + at % body] = v,
        Mangle::Truncate(keep) => {
            frame.truncate(OFP_HEADER_LEN + keep % body);
            let total = frame.len() as u16;
            frame[2..4].copy_from_slice(&total.to_be_bytes());
        }
    }
}

/// The owning route, by hand: split with the framer, decode each frame
/// into a [`Message`], apply the flow-mod, report lapsed rules.
fn by_hand(
    switch: &mut Switch,
    framer: &mut Framer,
    bytes: &[u8],
    now: SimTime,
    outputs: &mut Vec<AgentOutput>,
) -> Result<()> {
    let mut input = bytes;
    while let Some(frame) = framer.next_frame_from(&mut input)? {
        let fm = match frame.decode() {
            Ok(Message::FlowMod(fm)) => fm,
            Ok(other) => panic!("the stream holds flow-mods only, not {other:?}"),
            Err(e) => return Err(framer.poison(e)),
        };
        let (result, cost) = switch.apply_flow_mod(&fm, now);
        let reply = match result {
            Ok(_) => None,
            Err(FlowModError::TableFull) => {
                let head = &frame.bytes[..frame.bytes.len().min(64)];
                Some(Message::Error(ErrorMsg::table_full(head.to_vec())))
            }
        };
        outputs.push(AgentOutput {
            reply,
            xid: frame.header.xid,
            forwarded: None,
            cost,
        });
        for exp in switch.take_expired() {
            let age = now.since(exp.entry.inserted_at);
            let removed = FlowRemoved {
                flow_match: exp.entry.flow_match.unpack(),
                cookie: exp.entry.cookie,
                priority: exp.entry.priority,
                reason: match exp.reason {
                    RemovalReason::IdleTimeout => FlowRemovedReason::IdleTimeout,
                    RemovalReason::HardTimeout => FlowRemovedReason::HardTimeout,
                },
                duration_sec: (age.0 / 1_000_000_000) as u32,
                duration_nsec: (age.0 % 1_000_000_000) as u32,
                idle_timeout: exp.entry.idle_timeout,
                packet_count: exp.entry.packet_count,
                byte_count: exp.entry.byte_count,
            };
            outputs.push(AgentOutput {
                reply: Some(Message::FlowRemoved(removed)),
                xid: Xid(0),
                forwarded: None,
                cost: SimDuration::ZERO,
            });
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flow_mod_frames_dispatch_as_their_messages_would(
        fms in proptest::collection::vec(arb_flow_mod(), 1..24),
        mangled in proptest::option::of((any::<usize>(), arb_mangle())),
        sizes in proptest::collection::vec(1usize..300, 1..16),
    ) {
        let mut stream = Vec::new();
        for (i, fm) in fms.iter().enumerate() {
            let mut frame = Vec::new();
            fm.encode_frame_into(Xid(i as u32 + 1), &mut frame);
            match &mangled {
                Some((which, how)) if which % fms.len() == i => mangle(&mut frame, how),
                _ => {}
            }
            stream.extend(frame);
        }

        let mut agent = Agent::new(switch());
        let (mut reference, mut framer) = (switch(), Framer::new());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        // One read per chunk, a second apart, so hard timeouts lapse
        // between reads and frames tear across them.
        let mut now = SimTime::ZERO;
        let mut off = 0;
        for &size in sizes.iter().cycle() {
            if off == stream.len() {
                break;
            }
            let chunk = &stream[off..stream.len().min(off + size)];
            off += chunk.len();
            let fed = agent.feed_into(chunk, now, &mut got);
            let handled = by_hand(&mut reference, &mut framer, chunk, now, &mut want);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&fed, &handled);
            if fed.is_err() {
                break;
            }
            now += SimDuration::from_secs(1);
        }
        // Both ends refuse the rest of the stream, or neither does.
        let barrier = Message::BarrierRequest.to_bytes(Xid(0));
        let after = agent.feed_into(&barrier, now, &mut got);
        let poisoned = framer.next_frame_from(&mut &barrier[..]).is_err();
        prop_assert_eq!(after.is_err(), poisoned);
        if !poisoned {
            // The barrier ran the agent's sweep.
            reference.expire(now);
        }
        prop_assert_eq!(agent.switch().rule_count(), reference.rule_count());
        prop_assert_eq!(agent.switch().stats(), reference.stats());
    }
}
