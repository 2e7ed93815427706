//! Property tests for the borrowing side of the codec: the zero-copy
//! `packet_out` view, the direct probe-frame encoder, and the
//! borrowed-frame splitter every framer entry point runs on.
//!
//! Each has a counterpart to be checked against: the owning
//! [`PacketOut::decode`], the object path
//! `Message::PacketOut(..).encode_frame_into`, and for the splitter a
//! walk of the whole stream with [`Message::from_bytes`]. The properties
//! here are that the two forms cannot be told apart by what they accept,
//! reject or produce.

use ofwire::flow_match::FlowKey;
use ofwire::prelude::*;
use proptest::prelude::*;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(p, m)| Action::Output {
            port: PortNo(p),
            max_len: m
        }),
        any::<u16>().prop_map(Action::SetVlanVid),
        Just(Action::StripVlan),
        arb_mac().prop_map(Action::SetDlDst),
        any::<u32>().prop_map(Action::SetNwSrc),
        (any::<u16>(), any::<u32>()).prop_map(|(p, q)| Action::Enqueue {
            port: PortNo(p),
            queue_id: q
        }),
    ]
}

prop_compose! {
    fn arb_packet_out()(
        buffer in any::<u32>(),
        in_port in any::<u16>(),
        actions in proptest::collection::vec(arb_action(), 0..5),
        data in proptest::collection::vec(any::<u8>(), 0..96),
    ) -> PacketOut {
        PacketOut { buffer_id: BufferId(buffer), in_port: PortNo(in_port), actions: actions.into(), data }
    }
}

/// `packet_out` bodies: pure noise, well-formed bodies, and well-formed
/// bodies with one byte overwritten or the tail cut off — the last two
/// are what reach the action-list checks.
fn arb_packet_out_body() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64),
        arb_packet_out().prop_map(|po| po.to_vec()),
        (arb_packet_out(), any::<usize>(), any::<u8>()).prop_map(|(po, at, v)| {
            let mut body = po.to_vec();
            let at = at % body.len();
            body[at] = v;
            body
        }),
        (arb_packet_out(), any::<usize>()).prop_map(|(po, keep)| {
            let mut body = po.to_vec();
            body.truncate(keep % (body.len() + 1));
            body
        }),
    ]
}

prop_compose! {
    /// Packet keys over everything the frame builder branches on: tagged
    /// and untagged, IPv4 and not.
    fn arb_key()(
        in_port in any::<u16>(),
        dl_src in arb_mac(),
        dl_dst in arb_mac(),
        dl_vlan in prop_oneof![Just(0xffffu16), 0u16..4096],
        dl_vlan_pcp in 0u8..8,
        dl_type in prop_oneof![Just(0x0800u16), Just(0x0806u16), any::<u16>()],
        nw_tos in any::<u8>(),
        nw_proto in any::<u8>(),
        nw_src in any::<u32>(),
        nw_dst in any::<u32>(),
        tp_src in any::<u16>(),
        tp_dst in any::<u16>(),
    ) -> FlowKey {
        FlowKey {
            in_port, dl_src, dl_dst, dl_vlan, dl_vlan_pcp, dl_type,
            nw_tos, nw_proto, nw_src, nw_dst, tp_src, tp_dst,
        }
    }
}

/// Length-diverse messages, probes included.
fn arb_msg() -> impl Strategy<Value = Message> {
    prop_oneof![
        any::<u32>().prop_map(|id| {
            Message::FlowMod(FlowMod::add(FlowMatch::l3_for_id(id), 7).with_action(
                Action::Output {
                    port: PortNo(1),
                    max_len: 0,
                },
            ))
        }),
        arb_packet_out().prop_map(Message::PacketOut),
        Just(Message::Hello),
        Just(Message::BarrierRequest),
        proptest::collection::vec(any::<u8>(), 0..80).prop_map(Message::EchoRequest),
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(vendor, data)| Message::Vendor { vendor, data }),
    ]
}

/// What one way of driving a framer saw: the messages it produced and
/// whether the stream ended in an error.
type Seen = (Vec<(Header, Message)>, bool);

/// The framer-free reference: walks the whole stream frame by frame with
/// [`Message::from_bytes`], up to the first bad frame or a tail too
/// short to be one.
fn whole_stream(mut stream: &[u8]) -> Seen {
    let mut seen: Seen = (Vec::new(), false);
    while stream.len() >= OFP_HEADER_LEN {
        let Ok(header) = Header::peek(stream) else {
            seen.1 = true;
            break;
        };
        let len = header.length as usize;
        if stream.len() < len {
            break;
        }
        match Message::from_bytes(&stream[..len]) {
            Ok(pair) => seen.0.push(pair),
            Err(_) => {
                seen.1 = true;
                break;
            }
        }
        stream = &stream[len..];
    }
    seen
}

/// Cuts `stream` into chunks by cycling through `sizes`.
fn chunks<'a>(stream: &'a [u8], sizes: &'a [usize]) -> impl Iterator<Item = (usize, &'a [u8])> {
    let mut off = 0;
    let mut cut = sizes.iter().cycle();
    std::iter::from_fn(move || {
        if off == stream.len() {
            return None;
        }
        let k = (*cut.next().unwrap()).min(stream.len() - off);
        off += k;
        Some((off - k, &stream[off - k..off]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn packet_out_view_agrees_with_the_owning_decode(body in arb_packet_out_body()) {
        match (PacketOutView::parse(&body), PacketOut::decode(&body)) {
            (Ok(view), Ok((owned, used))) => {
                prop_assert_eq!(used, body.len());
                prop_assert_eq!(view.buffer_id, owned.buffer_id);
                prop_assert_eq!(view.in_port, owned.in_port);
                prop_assert_eq!(view.data, &owned.data[..]);
                prop_assert_eq!(view.actions.len(), Action::list_len(&owned.actions));
                let (actions, _) = Action::decode_list(view.actions, view.actions.len()).unwrap();
                prop_assert_eq!(actions, owned.actions);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (view, owned) => prop_assert!(false, "view {view:?} but decode {owned:?}"),
        }
    }

    #[test]
    fn probe_frame_encoder_matches_the_object_path(
        key in arb_key(),
        payload in 0usize..1400,
        port in any::<u16>(),
        xid in any::<u32>(),
        already in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut direct = already.clone();
        PacketOut::encode_probe_frame(&key, payload, PortNo(port), Xid(xid), &mut direct);
        let mut object = already.clone();
        Message::PacketOut(PacketOut::send(RawFrame::build(&key, payload), PortNo(port)))
            .encode_frame_into(Xid(xid), &mut object);
        prop_assert_eq!(direct, object);
    }

    /// A stream — well formed, or with one byte overwritten anywhere,
    /// header or body — cut at arbitrary points, driven through both
    /// framer entry points, sees what a walk of the whole stream sees.
    #[test]
    fn next_frame_from_splits_any_chunking_like_the_whole_stream(
        msgs in proptest::collection::vec(arb_msg(), 1..8),
        sizes in proptest::collection::vec(1usize..200, 1..48),
        damage in proptest::option::of((any::<usize>(), any::<u8>())),
    ) {
        let mut stream = Vec::new();
        for (i, msg) in msgs.iter().enumerate() {
            msg.encode_frame_into(Xid(i as u32), &mut stream);
        }
        if let Some((at, v)) = damage {
            let at = at % stream.len();
            stream[at] = v;
        }

        let reference = whole_stream(&stream);
        let poisoned = |framer: &mut Framer| {
            let barrier = Message::BarrierRequest.to_bytes(Xid(0));
            framer.next_frame_from(&mut &barrier[..]).is_err()
        };

        // The wrapper.
        let mut wrapped: Seen = (Vec::new(), false);
        let mut framer = Framer::new();
        'wrap: for (_, chunk) in chunks(&stream, &sizes) {
            let mut input = chunk;
            loop {
                match framer.next_message_from(&mut input) {
                    Ok(Some(pair)) => wrapped.0.push(pair),
                    Ok(None) => break,
                    Err(_) => {
                        wrapped.1 = true;
                        break 'wrap;
                    }
                }
            }
            prop_assert!(input.is_empty());
        }
        prop_assert_eq!(poisoned(&mut framer), wrapped.1);
        prop_assert_eq!(&wrapped, &reference);

        // The primitive, decoded by its caller the way the agent does.
        let mut borrowed: Seen = (Vec::new(), false);
        let mut framer = Framer::new();
        let mut consumed = 0;
        'borrow: for (off, chunk) in chunks(&stream, &sizes) {
            let mut input = chunk;
            loop {
                let frame = match framer.next_frame_from(&mut input) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        borrowed.1 = true;
                        break 'borrow;
                    }
                };
                // Frames come out in stream order, byte for byte...
                let range = consumed..consumed + frame.bytes.len();
                prop_assert_eq!(frame.bytes, &stream[range.clone()]);
                prop_assert_eq!(frame.header.length as usize, frame.bytes.len());
                consumed = range.end;
                // ...and one that arrived whole in this read is a slice
                // of the read itself; only a torn one was copied.
                let in_place = chunk.as_ptr_range().contains(&frame.bytes.as_ptr());
                prop_assert_eq!(in_place, range.start >= off);
                match frame.decode() {
                    Ok(msg) => borrowed.0.push((frame.header, msg)),
                    Err(e) => {
                        framer.poison(e);
                        borrowed.1 = true;
                        break 'borrow;
                    }
                }
            }
            prop_assert!(input.is_empty());
        }
        prop_assert_eq!(poisoned(&mut framer), borrowed.1);
        prop_assert_eq!(&borrowed, &reference);
    }
}
