//! Property-based tests: every structurally-valid message must survive an
//! encode→decode roundtrip byte-for-byte, and the framer must reassemble
//! arbitrary chunkings of a message stream.

use ofwire::flow_match::Ipv4Prefix;
use ofwire::prelude::*;
use proptest::prelude::*;

mod strategies;
use strategies::{arb_action, arb_mac};

// Prefix lengths start at 1: a /0 constraint is wire-identical to "no
// constraint", and the decoder canonicalizes it to `None`.
fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 1u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len))
}

prop_compose! {
    fn arb_match()(
        in_port in proptest::option::of(any::<u16>()),
        dl_src in proptest::option::of(arb_mac()),
        dl_dst in proptest::option::of(arb_mac()),
        dl_vlan in proptest::option::of(any::<u16>()),
        dl_vlan_pcp in proptest::option::of(0u8..8),
        dl_type in proptest::option::of(any::<u16>()),
        nw_tos in proptest::option::of(any::<u8>()),
        nw_proto in proptest::option::of(any::<u8>()),
        nw_src in proptest::option::of(arb_prefix()),
        nw_dst in proptest::option::of(arb_prefix()),
        tp_src in proptest::option::of(any::<u16>()),
        tp_dst in proptest::option::of(any::<u16>()),
    ) -> FlowMatch {
        FlowMatch {
            in_port, dl_src, dl_dst, dl_vlan, dl_vlan_pcp, dl_type,
            nw_tos, nw_proto, nw_src, nw_dst, tp_src, tp_dst,
        }
    }
}

prop_compose! {
    fn arb_flow_mod()(
        m in arb_match(),
        cookie in any::<u64>(),
        command in prop_oneof![
            Just(FlowModCommand::Add),
            Just(FlowModCommand::Modify),
            Just(FlowModCommand::ModifyStrict),
            Just(FlowModCommand::Delete),
            Just(FlowModCommand::DeleteStrict),
        ],
        idle in any::<u16>(),
        hard in any::<u16>(),
        priority in any::<u16>(),
        buffer in any::<u32>(),
        out_port in any::<u16>(),
        flags in 0u16..8,
        actions in proptest::collection::vec(arb_action(), 0..6),
    ) -> FlowMod {
        FlowMod {
            flow_match: m,
            cookie,
            command,
            idle_timeout: idle,
            hard_timeout: hard,
            priority,
            buffer_id: BufferId(buffer),
            out_port: PortNo(out_port),
            flags: FlowModFlags(flags),
            actions: actions.into(),
        }
    }
}

proptest! {
    #[test]
    fn flow_mod_roundtrips(fm in arb_flow_mod(), xid in any::<u32>()) {
        let msg = Message::FlowMod(fm);
        let bytes = msg.to_bytes(Xid(xid));
        let (header, back) = Message::from_bytes(&bytes).unwrap();
        prop_assert_eq!(header.xid, Xid(xid));
        prop_assert_eq!(back, msg);
    }

    /// The block frame encoder against a frame put together from the
    /// generic `Encode` impls, behind bytes already in the buffer.
    #[test]
    fn flow_mod_frame_encoder_matches_the_generic_path(
        fm in arb_flow_mod(),
        xid in any::<u32>(),
        already in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut direct = already.clone();
        fm.encode_frame_into(Xid(xid), &mut direct);
        let mut generic = already.clone();
        let body = fm.to_vec();
        Header::new(MessageType::FlowMod, body.len(), Xid(xid)).encode(&mut generic);
        generic.extend_from_slice(&body);
        prop_assert_eq!(direct, generic);
    }

    #[test]
    fn match_covers_is_consistent_with_overlap(a in arb_match(), b in arb_match()) {
        // If both matches cover the same concrete key, they must overlap.
        let key = FlowMatch::key_for_id(77);
        if a.covers(&key) && b.covers(&key) {
            prop_assert!(a.overlaps(&b));
        }
        // Overlap is symmetric.
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        // Subsumption implies overlap (a match can't subsume a disjoint one).
        if a.subsumes(&b) {
            prop_assert!(a.overlaps(&b));
        }
    }

    #[test]
    fn subsumption_is_reflexive_and_transitive_with_self(a in arb_match()) {
        prop_assert!(a.subsumes(&a));
        prop_assert!(FlowMatch::any().subsumes(&a));
    }

    #[test]
    fn raw_frame_roundtrips_key(id in any::<u32>(), payload in 0usize..256) {
        let key = FlowMatch::key_for_id(id);
        let frame = RawFrame::build(&key, payload);
        prop_assert!(RawFrame::verify_ipv4_checksum(&frame));
        let parsed = RawFrame::parse(&frame, PortNo(key.in_port)).unwrap();
        prop_assert_eq!(parsed, key);
    }

    #[test]
    fn decoder_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Arbitrary bytes must produce Ok or Err, never a panic.
        let _ = Message::from_bytes(&noise);
        let mut framer = Framer::new();
        let mut input = &noise[..];
        while let Ok(Some(_)) = framer.next_message_from(&mut input) {}
    }
}
