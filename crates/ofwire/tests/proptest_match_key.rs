//! Property tests for [`MatchKey`](ofwire::flow_match::MatchKey): the
//! packed key must partition matches exactly as `canonical()` does, and a
//! packet packed onto a match's shape must equal the match's key exactly
//! when the match covers the packet. `switchsim`'s flow-table index
//! hashes nothing but these keys, so both directions of both
//! equivalences carry its correctness.
//!
//! Independent random draws almost never produce equal canonical forms
//! or covered packets, so each case also derives a near neighbour: the
//! same match respelled (host bits, `/0` against `None`), the same match
//! with one field nudged, a packet built to be covered, and that packet
//! with one field nudged.

use ofwire::flow_match::{FlowKey, FlowMatch, Ipv4Prefix, PackedMatch};
use ofwire::types::MacAddr;
use proptest::prelude::*;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

/// Prefixes exactly as a caller may spell them: host bits left set, and
/// any length 0–40 (past 32 means 32).
fn arb_raw_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=40).prop_map(|(addr, prefix_len)| Ipv4Prefix { addr, prefix_len })
}

prop_compose! {
    fn arb_match()(
        in_port in proptest::option::of(any::<u16>()),
        dl_src in proptest::option::of(arb_mac()),
        dl_dst in proptest::option::of(arb_mac()),
        dl_vlan in proptest::option::of(any::<u16>()),
        dl_vlan_pcp in proptest::option::of(any::<u8>()),
        dl_type in proptest::option::of(any::<u16>()),
        nw_tos in proptest::option::of(any::<u8>()),
        nw_proto in proptest::option::of(any::<u8>()),
        nw_src in proptest::option::of(arb_raw_prefix()),
        nw_dst in proptest::option::of(arb_raw_prefix()),
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
    fn arb_key()(
        in_port in any::<u16>(),
        dl_src in arb_mac(),
        dl_dst in arb_mac(),
        dl_vlan in any::<u16>(),
        dl_vlan_pcp in any::<u8>(),
        dl_type in any::<u16>(),
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

/// The same packet set spelled differently: host bits below each prefix
/// replaced by `noise`, and an absent prefix respelled as a `/0`.
fn respell(m: &FlowMatch, noise: u32) -> FlowMatch {
    let twist = |p: Option<Ipv4Prefix>| match p {
        None => Some(Ipv4Prefix {
            addr: noise,
            prefix_len: 0,
        }),
        Some(p) => {
            let mask = Ipv4Prefix::mask(p.prefix_len);
            Some(Ipv4Prefix {
                addr: (p.addr & mask) | (noise & !mask),
                prefix_len: p.prefix_len,
            })
        }
    };
    FlowMatch {
        nw_src: twist(m.nw_src),
        nw_dst: twist(m.nw_dst),
        ..*m
    }
}

/// `m` with field number `field` toggled between constrained and
/// wildcarded, or its value or prefix length moved by one.
fn nudge_match(m: &FlowMatch, field: u8, toggle: bool) -> FlowMatch {
    fn int<T: Copy + Default>(v: Option<T>, toggle: bool, bump: impl Fn(T) -> T) -> Option<T> {
        match (v, toggle) {
            (Some(_), true) => None,
            (None, _) => Some(T::default()),
            (Some(x), false) => Some(bump(x)),
        }
    }
    fn prefix(p: Option<Ipv4Prefix>, toggle: bool) -> Option<Ipv4Prefix> {
        match (p, toggle) {
            (Some(_), true) => None,
            (None, _) => Some(Ipv4Prefix::host(0)),
            (Some(p), false) => Some(Ipv4Prefix {
                addr: p.addr,
                prefix_len: if p.prefix_len == 32 {
                    31
                } else {
                    p.prefix_len + 1
                },
            }),
        }
    }
    let mac = |a: MacAddr| MacAddr([a.0[0], a.0[1], a.0[2], a.0[3], a.0[4], a.0[5] ^ 1]);
    let mut out = *m;
    match field % 12 {
        0 => out.in_port = int(m.in_port, toggle, |x| x ^ 1),
        1 => out.dl_src = int(m.dl_src, toggle, mac),
        2 => out.dl_dst = int(m.dl_dst, toggle, mac),
        3 => out.dl_vlan = int(m.dl_vlan, toggle, |x| x ^ 1),
        4 => out.dl_vlan_pcp = int(m.dl_vlan_pcp, toggle, |x| x ^ 1),
        5 => out.dl_type = int(m.dl_type, toggle, |x| x ^ 1),
        6 => out.nw_tos = int(m.nw_tos, toggle, |x| x ^ 1),
        7 => out.nw_proto = int(m.nw_proto, toggle, |x| x ^ 1),
        8 => out.nw_src = prefix(m.nw_src, toggle),
        9 => out.nw_dst = prefix(m.nw_dst, toggle),
        10 => out.tp_src = int(m.tp_src, toggle, |x| x ^ 1),
        _ => out.tp_dst = int(m.tp_dst, toggle, |x| x ^ 1),
    }
    out
}

/// A packet `m` covers: `k` with every constrained field overwritten by
/// the match's value (prefixes keep `k`'s host bits).
fn covered_by(m: &FlowMatch, k: &FlowKey) -> FlowKey {
    let addr = |p: Option<Ipv4Prefix>, v: u32| match p {
        None => v,
        Some(p) => {
            let mask = Ipv4Prefix::mask(p.prefix_len);
            (p.addr & mask) | (v & !mask)
        }
    };
    FlowKey {
        in_port: m.in_port.unwrap_or(k.in_port),
        dl_src: m.dl_src.unwrap_or(k.dl_src),
        dl_dst: m.dl_dst.unwrap_or(k.dl_dst),
        dl_vlan: m.dl_vlan.unwrap_or(k.dl_vlan),
        dl_vlan_pcp: m.dl_vlan_pcp.unwrap_or(k.dl_vlan_pcp),
        dl_type: m.dl_type.unwrap_or(k.dl_type),
        nw_tos: m.nw_tos.unwrap_or(k.nw_tos),
        nw_proto: m.nw_proto.unwrap_or(k.nw_proto),
        nw_src: addr(m.nw_src, k.nw_src),
        nw_dst: addr(m.nw_dst, k.nw_dst),
        tp_src: m.tp_src.unwrap_or(k.tp_src),
        tp_dst: m.tp_dst.unwrap_or(k.tp_dst),
    }
}

/// `k` with one bit of field number `field` flipped (`bit` picks which,
/// for the 32-bit addresses, so both prefix and host bits get hit).
fn nudge_key(k: &FlowKey, field: u8, bit: u8) -> FlowKey {
    let mut out = *k;
    match field % 12 {
        0 => out.in_port ^= 1,
        1 => out.dl_src.0[5] ^= 1,
        2 => out.dl_dst.0[5] ^= 1,
        3 => out.dl_vlan ^= 1,
        4 => out.dl_vlan_pcp ^= 1,
        5 => out.dl_type ^= 1,
        6 => out.nw_tos ^= 1,
        7 => out.nw_proto ^= 1,
        8 => out.nw_src ^= 1 << (bit % 32),
        9 => out.nw_dst ^= 1 << (bit % 32),
        10 => out.tp_src ^= 1,
        _ => out.tp_dst ^= 1,
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn key_equality_is_canonical_equality(
        a in arb_match(),
        b in arb_match(),
        noise in any::<u32>(),
        field in any::<u8>(),
        toggle in any::<bool>(),
    ) {
        let same = respell(&a, noise);
        prop_assert_eq!(a.canonical(), same.canonical());
        prop_assert_eq!(a.key(), same.key());
        prop_assert_eq!(a.key().wildcards(), a.wildcards());
        for other in [b, nudge_match(&a, field, toggle), nudge_match(&same, field, toggle)] {
            prop_assert_eq!(
                a.canonical() == other.canonical(),
                a.key() == other.key(),
                "{:?} vs {:?}", a, other
            );
        }
    }

    /// `PackedMatch` keeps every spelling: unpacking gives the match
    /// back, its key is the match's key, and two packed matches are equal
    /// exactly when the matches are, respellings included.
    #[test]
    fn packing_is_lossless(
        a in arb_match(),
        b in arb_match(),
        noise in any::<u32>(),
        field in any::<u8>(),
        toggle in any::<bool>(),
    ) {
        let packed = PackedMatch::from(a);
        prop_assert_eq!(packed.unpack(), a);
        prop_assert_eq!(packed.key(), a.key());
        for other in [a, b, respell(&a, noise), nudge_match(&a, field, toggle)] {
            prop_assert_eq!(
                packed == PackedMatch::from(other),
                a == other,
                "{:?} vs {:?}", a, other
            );
        }
    }

    #[test]
    fn packed_projection_is_covers(
        m in arb_match(),
        k in arb_key(),
        field in any::<u8>(),
        bit in any::<u8>(),
    ) {
        let hit = covered_by(&m, &k);
        prop_assert!(m.covers(&hit));
        for key in [k, hit, nudge_key(&hit, field, bit)] {
            prop_assert_eq!(
                m.covers(&key),
                m.key() == FlowMatch::project_key(&key, m.wildcards()),
                "{:?} vs {:?}", m, key
            );
        }
    }
}
