//! The OpenFlow 1.0 flow match structure (`ofp_match`).
//!
//! A match is a set of per-field constraints; unconstrained fields are
//! *wildcarded* via a 22-bit wildcard word in which the IPv4 source and
//! destination get 6-bit prefix-wildcard counters (CIDR semantics) and
//! every other field a single all-or-nothing bit.
//!
//! Besides wire encoding, this module supplies the matching semantics the
//! switch simulator and the dependency analysis are built on:
//! [`FlowMatch::covers`] (does a concrete packet hit this match),
//! [`FlowMatch::overlaps`] (do two matches share any packet), and
//! [`FlowMatch::entry_kind`] (L2-only / L3-only / combined — which
//! determines TCAM slot width, cf. Table 1 of the paper).

use crate::codec::{be_u16, be_u32, Decode, Encode};
use crate::error::{ensure, Result};
use crate::types::{MacAddr, PortNo};
use bytes::BufMut;
use std::hash::{Hash, Hasher};

/// Encoded size of `ofp_match` on the wire.
pub const OFP_MATCH_LEN: usize = 40;

const OFPFW_IN_PORT: u32 = 1 << 0;
const OFPFW_DL_VLAN: u32 = 1 << 1;
const OFPFW_DL_SRC: u32 = 1 << 2;
const OFPFW_DL_DST: u32 = 1 << 3;
const OFPFW_DL_TYPE: u32 = 1 << 4;
const OFPFW_NW_PROTO: u32 = 1 << 5;
const OFPFW_TP_SRC: u32 = 1 << 6;
const OFPFW_TP_DST: u32 = 1 << 7;
const OFPFW_NW_SRC_SHIFT: u32 = 8;
const OFPFW_NW_DST_SHIFT: u32 = 14;
const OFPFW_DL_VLAN_PCP: u32 = 1 << 20;
const OFPFW_NW_TOS: u32 = 1 << 21;
/// Every all-or-nothing wildcard bit (the two 6-bit prefix counters and
/// the undefined high bits excluded).
const OFPFW_FLAG_BITS: u32 = 0xff | OFPFW_DL_VLAN_PCP | OFPFW_NW_TOS;

/// An IPv4 prefix constraint: `addr` with the top `prefix_len` bits
/// significant (0 = match anything, 32 = exact host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Prefix {
    /// Address bits (host-order u32 of the dotted quad).
    pub addr: u32,
    /// Number of significant leading bits, 0..=32.
    pub prefix_len: u8,
}

impl Ipv4Prefix {
    /// Exact-host prefix.
    #[must_use]
    pub fn host(addr: u32) -> Ipv4Prefix {
        Ipv4Prefix {
            addr,
            prefix_len: 32,
        }
    }

    /// Builds a prefix, masking off insignificant bits.
    #[must_use]
    pub fn new(addr: u32, prefix_len: u8) -> Ipv4Prefix {
        let prefix_len = prefix_len.min(32);
        Ipv4Prefix {
            addr: addr & Self::mask(prefix_len),
            prefix_len,
        }
    }

    /// The netmask for a prefix length (lengths past 32 mean 32).
    #[must_use]
    pub fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(prefix_len.min(32)))
        }
    }

    /// Does the concrete address fall inside this prefix?
    #[must_use]
    pub fn contains(self, addr: u32) -> bool {
        (addr ^ self.addr) & Self::mask(self.prefix_len) == 0
    }

    /// Do two prefixes share any address? True iff the shorter prefix
    /// contains the longer one's network address.
    #[must_use]
    pub fn overlaps(self, other: Ipv4Prefix) -> bool {
        let common = self.prefix_len.min(other.prefix_len);
        (self.addr ^ other.addr) & Self::mask(common) == 0
    }
}

/// The concrete header fields of one packet, used when evaluating matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowKey {
    /// Ingress port.
    pub in_port: u16,
    /// Ethernet source.
    pub dl_src: MacAddr,
    /// Ethernet destination.
    pub dl_dst: MacAddr,
    /// VLAN id (0xffff = untagged, as in OpenFlow 1.0).
    pub dl_vlan: u16,
    /// VLAN priority bits.
    pub dl_vlan_pcp: u8,
    /// EtherType.
    pub dl_type: u16,
    /// IP ToS (DSCP).
    pub nw_tos: u8,
    /// IP protocol.
    pub nw_proto: u8,
    /// IPv4 source.
    pub nw_src: u32,
    /// IPv4 destination.
    pub nw_dst: u32,
    /// Transport source port.
    pub tp_src: u16,
    /// Transport destination port.
    pub tp_dst: u16,
}

/// Classification of a match by which header layers it constrains.
/// Determines how many TCAM slots an entry consumes (single- vs
/// double-wide; cf. §3 "Diverse flow tables and table sizes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// Constrains only Ethernet-layer fields (or nothing).
    L2Only,
    /// Constrains only IP/transport-layer fields.
    L3Only,
    /// Constrains both layers.
    L2L3,
}

/// A flow-table match: per-field constraints with wildcard semantics.
///
/// `None` means the field is wildcarded. IPv4 source/destination use
/// prefix constraints. The default value matches every packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowMatch {
    /// Ingress port constraint.
    pub in_port: Option<u16>,
    /// Ethernet source constraint.
    pub dl_src: Option<MacAddr>,
    /// Ethernet destination constraint.
    pub dl_dst: Option<MacAddr>,
    /// VLAN id constraint.
    pub dl_vlan: Option<u16>,
    /// VLAN priority constraint.
    pub dl_vlan_pcp: Option<u8>,
    /// EtherType constraint.
    pub dl_type: Option<u16>,
    /// IP ToS constraint.
    pub nw_tos: Option<u8>,
    /// IP protocol constraint.
    pub nw_proto: Option<u8>,
    /// IPv4 source prefix constraint. A `/0` prefix constrains nothing
    /// and is wire-identical to `None`; decoding canonicalizes it away.
    /// A length past 32 means 32.
    pub nw_src: Option<Ipv4Prefix>,
    /// IPv4 destination prefix constraint (same `/0` canonicalization).
    pub nw_dst: Option<Ipv4Prefix>,
    /// Transport source port constraint.
    pub tp_src: Option<u16>,
    /// Transport destination port constraint.
    pub tp_dst: Option<u16>,
}

/// A canonical match packed into five words: the `ofp_match` fields
/// moved onto word boundaries, wildcard word first, wildcarded fields
/// zero and IPv4 addresses masked to their prefix. Two matches have the
/// same key iff their [`FlowMatch::canonical`] forms are equal, so a key
/// stands in for the match wherever one is hashed or compared: five
/// integer mixes and a 40-byte compare instead of twelve `Option`s. The
/// derived order (word by word) means nothing about the matches; it is
/// there so that a tie between keyed things can be broken the same way in
/// every process.
#[derive(Debug, Clone, Copy, Eq, PartialOrd, Ord)]
pub struct MatchKey([u64; 5]);

impl MatchKey {
    /// The wildcard word of the packed match — its *shape*: which fields
    /// are constrained, at which prefix lengths.
    #[must_use]
    pub fn wildcards(&self) -> u32 {
        self.0[0] as u32
    }
}

/// Five-word equality in registers: the words XORed pairwise and the
/// differences ORed, where a derived `==` on `[u64; 5]` calls `bcmp`.
#[inline]
fn words_eq(a: &[u64; 5], b: &[u64; 5]) -> bool {
    (a[0] ^ b[0]) | (a[1] ^ b[1]) | (a[2] ^ b[2]) | (a[3] ^ b[3]) | (a[4] ^ b[4]) == 0
}

impl PartialEq for MatchKey {
    #[inline]
    fn eq(&self, other: &MatchKey) -> bool {
        words_eq(&self.0, &other.0)
    }
}

/// [`PackedMatch`]'s head (word 0's low half) besides the ten wildcard
/// flags: each IPv4 prefix's raw length and whether it is there.
const PACKED_SRC_LEN_SHIFT: u32 = 8;
const PACKED_DST_LEN_SHIFT: u32 = 22;
const PACKED_SRC_SET: u32 = 1 << 30;
const PACKED_DST_SET: u32 = 1 << 31;

/// A [`FlowMatch`] packed losslessly into five words, in [`MatchKey`]'s
/// layout: every field where the key puts it, zero when absent. Two
/// things differ from the key. Word 0's low half holds the ten
/// all-or-nothing wildcard flags where the key has them, and for each
/// IPv4 prefix a presence bit (30 source, 31 destination) and its raw
/// length (bits 8–15 source, 22–29 destination). Word 3 holds both
/// addresses raw, host bits and all. So a host bit, a `/0` against no
/// prefix and a length past 32 all survive packing, which strict
/// operations need, and [`PackedMatch::key`] is a mask rather than a
/// re-pack. Equality is exactly [`FlowMatch`] equality.
///
/// 40 bytes where the match is 64: flow-table entries and scheduler
/// requests store this form and unpack it where an API speaks
/// [`FlowMatch`].
#[derive(Debug, Clone, Copy, Eq)]
pub struct PackedMatch([u64; 5]);

impl PackedMatch {
    /// The match spelled out again, exactly as it was packed.
    #[must_use]
    pub fn unpack(&self) -> FlowMatch {
        let [w0, w1, w2, w3, w4] = self.0;
        let head = w0 as u32;
        let has = |flag: u32| head & flag == 0;
        let mac = |w: u64| {
            let [_, _, a, b, c, d, e, f] = w.to_be_bytes();
            MacAddr([a, b, c, d, e, f])
        };
        let prefix = |set: u32, shift: u32, addr: u64| {
            (head & set != 0).then_some(Ipv4Prefix {
                addr: addr as u32,
                prefix_len: (head >> shift) as u8,
            })
        };
        FlowMatch {
            in_port: has(OFPFW_IN_PORT).then_some((w0 >> 32) as u16),
            dl_src: has(OFPFW_DL_SRC).then(|| mac(w1)),
            dl_dst: has(OFPFW_DL_DST).then(|| mac(w2)),
            dl_vlan: has(OFPFW_DL_VLAN).then_some((w0 >> 48) as u16),
            dl_vlan_pcp: has(OFPFW_DL_VLAN_PCP).then_some((w2 >> 48) as u8),
            dl_type: has(OFPFW_DL_TYPE).then_some((w1 >> 48) as u16),
            nw_tos: has(OFPFW_NW_TOS).then_some((w2 >> 56) as u8),
            nw_proto: has(OFPFW_NW_PROTO).then_some((w4 >> 32) as u8),
            nw_src: prefix(PACKED_SRC_SET, PACKED_SRC_LEN_SHIFT, w3),
            nw_dst: prefix(PACKED_DST_SET, PACKED_DST_LEN_SHIFT, w3 >> 32),
            tp_src: has(OFPFW_TP_SRC).then_some(w4 as u16),
            tp_dst: has(OFPFW_TP_DST).then_some((w4 >> 16) as u16),
        }
    }

    /// The canonical key, equal to [`FlowMatch::key`] of the unpacked
    /// match: the prefix lengths become wildcard counts and the
    /// addresses lose their host bits; every other word is already the
    /// key's.
    #[must_use]
    pub fn key(&self) -> MatchKey {
        let head = self.0[0] as u32;
        // An absent prefix packs length 0: all 32 bits wild.
        let wild = |shift: u32| 32 - ((head >> shift) & 0xff).min(32);
        let (src_wild, dst_wild) = (wild(PACKED_SRC_LEN_SHIFT), wild(PACKED_DST_LEN_SHIFT));
        let w = (head & OFPFW_FLAG_BITS)
            | src_wild << OFPFW_NW_SRC_SHIFT
            | dst_wild << OFPFW_NW_DST_SHIFT;
        let mask = |wild: u32| u64::from(Ipv4Prefix::mask((32 - wild) as u8));
        let mut k = self.0;
        k[0] = (k[0] >> 32 << 32) | u64::from(w);
        k[3] &= mask(src_wild) | mask(dst_wild) << 32;
        debug_assert_eq!(MatchKey(k), self.unpack().key(), "{self:?}");
        MatchKey(k)
    }
}

impl From<FlowMatch> for PackedMatch {
    fn from(m: FlowMatch) -> PackedMatch {
        // Projected with no prefix bit wild, both addresses stay whole.
        let mut words = FlowMatch::project_key(&m.values(), m.wildcards() & OFPFW_FLAG_BITS).0;
        let prefix = |p: Option<Ipv4Prefix>, set: u32, shift: u32| {
            p.map_or(0, |p| set | u32::from(p.prefix_len) << shift)
        };
        words[0] |= u64::from(
            prefix(m.nw_src, PACKED_SRC_SET, PACKED_SRC_LEN_SHIFT)
                | prefix(m.nw_dst, PACKED_DST_SET, PACKED_DST_LEN_SHIFT),
        );
        PackedMatch(words)
    }
}

impl PartialEq for PackedMatch {
    #[inline]
    fn eq(&self, other: &PackedMatch) -> bool {
        words_eq(&self.0, &other.0)
    }
}

impl Hash for MatchKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Word by word: the derived impl would hash a length prefix and
        // then a 40-byte slice.
        for w in self.0 {
            state.write_u64(w);
        }
    }
}

impl FlowMatch {
    /// The match that matches every packet (all fields wildcarded).
    #[must_use]
    pub fn any() -> FlowMatch {
        FlowMatch::default()
    }

    /// Exact match on an IPv4 source/destination pair (IP ethertype set).
    #[must_use]
    pub fn exact_ip_pair(src: [u8; 4], dst: [u8; 4]) -> FlowMatch {
        FlowMatch {
            dl_type: Some(0x0800),
            nw_src: Some(Ipv4Prefix::host(u32::from_be_bytes(src))),
            nw_dst: Some(Ipv4Prefix::host(u32::from_be_bytes(dst))),
            ..FlowMatch::default()
        }
    }

    /// An L2-only match on a destination MAC derived from `id`.
    #[must_use]
    pub fn l2_for_id(id: u32) -> FlowMatch {
        FlowMatch {
            dl_dst: Some(MacAddr::from_host_id(id)),
            ..FlowMatch::default()
        }
    }

    /// An L3-only match on a destination host derived from `id`.
    #[must_use]
    pub fn l3_for_id(id: u32) -> FlowMatch {
        FlowMatch {
            dl_type: Some(0x0800),
            nw_dst: Some(Ipv4Prefix::host(0x0a00_0000 | (id & 0x00ff_ffff))),
            ..FlowMatch::default()
        }
    }

    /// A combined L2+L3 match derived from `id` (consumes a double-wide
    /// TCAM slot on width-sensitive switches).
    #[must_use]
    pub fn l2l3_for_id(id: u32) -> FlowMatch {
        FlowMatch {
            dl_dst: Some(MacAddr::from_host_id(id)),
            dl_type: Some(0x0800),
            nw_dst: Some(Ipv4Prefix::host(0x0a00_0000 | (id & 0x00ff_ffff))),
            ..FlowMatch::default()
        }
    }

    /// A probe packet key guaranteed to hit the match produced by the
    /// `*_for_id` constructors for the same `id`.
    #[must_use]
    pub fn key_for_id(id: u32) -> FlowKey {
        FlowKey {
            in_port: 1,
            dl_src: MacAddr::from_host_id(0xffff_0000 | (id & 0xffff)),
            dl_dst: MacAddr::from_host_id(id),
            dl_vlan: 0xffff,
            dl_type: 0x0800,
            nw_proto: 17,
            nw_src: 0x0a80_0000 | (id & 0x00ff_ffff),
            nw_dst: 0x0a00_0000 | (id & 0x00ff_ffff),
            tp_src: 10_000 + (id % 50_000) as u16,
            tp_dst: 80,
            ..FlowKey::default()
        }
    }

    /// True if every constraint accepts the corresponding field of `key`.
    #[must_use]
    pub fn covers(&self, key: &FlowKey) -> bool {
        fn field<T: PartialEq>(c: Option<T>, v: T) -> bool {
            match c {
                None => true,
                Some(want) => want == v,
            }
        }
        field(self.in_port, key.in_port)
            && field(self.dl_src, key.dl_src)
            && field(self.dl_dst, key.dl_dst)
            && field(self.dl_vlan, key.dl_vlan)
            && field(self.dl_vlan_pcp, key.dl_vlan_pcp)
            && field(self.dl_type, key.dl_type)
            && field(self.nw_tos, key.nw_tos)
            && field(self.nw_proto, key.nw_proto)
            && self.nw_src.is_none_or(|p| p.contains(key.nw_src))
            && self.nw_dst.is_none_or(|p| p.contains(key.nw_dst))
            && field(self.tp_src, key.tp_src)
            && field(self.tp_dst, key.tp_dst)
    }

    /// True if some packet is covered by both matches. Used to derive
    /// rule-dependency DAGs (overlapping rules with different priorities
    /// are order-dependent).
    #[must_use]
    pub fn overlaps(&self, other: &FlowMatch) -> bool {
        fn field<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> bool {
            match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            }
        }
        fn prefix(a: Option<Ipv4Prefix>, b: Option<Ipv4Prefix>) -> bool {
            match (a, b) {
                (Some(x), Some(y)) => x.overlaps(y),
                _ => true,
            }
        }
        field(self.in_port, other.in_port)
            && field(self.dl_src, other.dl_src)
            && field(self.dl_dst, other.dl_dst)
            && field(self.dl_vlan, other.dl_vlan)
            && field(self.dl_vlan_pcp, other.dl_vlan_pcp)
            && field(self.dl_type, other.dl_type)
            && field(self.nw_tos, other.nw_tos)
            && field(self.nw_proto, other.nw_proto)
            && prefix(self.nw_src, other.nw_src)
            && prefix(self.nw_dst, other.nw_dst)
            && field(self.tp_src, other.tp_src)
            && field(self.tp_dst, other.tp_dst)
    }

    /// True if this match constrains a strict superset of packets of
    /// `other` — i.e. every packet `other` covers, `self` covers too.
    #[must_use]
    pub fn subsumes(&self, other: &FlowMatch) -> bool {
        fn field<T: PartialEq + Copy>(gen: Option<T>, spec: Option<T>) -> bool {
            match (gen, spec) {
                (None, _) => true,
                (Some(x), Some(y)) => x == y,
                (Some(_), None) => false,
            }
        }
        fn prefix(gen: Option<Ipv4Prefix>, spec: Option<Ipv4Prefix>) -> bool {
            match (gen, spec) {
                (None, _) => true,
                (Some(g), Some(s)) => g.prefix_len <= s.prefix_len && g.overlaps(s),
                (Some(_), None) => false,
            }
        }
        field(self.in_port, other.in_port)
            && field(self.dl_src, other.dl_src)
            && field(self.dl_dst, other.dl_dst)
            && field(self.dl_vlan, other.dl_vlan)
            && field(self.dl_vlan_pcp, other.dl_vlan_pcp)
            && field(self.dl_type, other.dl_type)
            && field(self.nw_tos, other.nw_tos)
            && field(self.nw_proto, other.nw_proto)
            && prefix(self.nw_src, other.nw_src)
            && prefix(self.nw_dst, other.nw_dst)
            && field(self.tp_src, other.tp_src)
            && field(self.tp_dst, other.tp_dst)
    }

    /// Classifies the match by constrained layer, for TCAM slot-width
    /// accounting. A match constraining nothing counts as L2-only (it
    /// fits the narrowest slot).
    #[must_use]
    pub fn entry_kind(&self) -> EntryKind {
        let l2 = self.dl_src.is_some()
            || self.dl_dst.is_some()
            || self.dl_vlan.is_some()
            || self.dl_vlan_pcp.is_some();
        // `dl_type` is the L2 field that *enables* L3 matching; we follow
        // the paper's usage where "L3-only" rules still set dl_type=IP.
        let l3 = self.nw_src.is_some()
            || self.nw_dst.is_some()
            || self.nw_proto.is_some()
            || self.nw_tos.is_some()
            || self.tp_src.is_some()
            || self.tp_dst.is_some();
        match (l2, l3) {
            (true, true) => EntryKind::L2L3,
            (false, true) => EntryKind::L3Only,
            _ => EntryKind::L2Only,
        }
    }

    /// The canonical form of this match: IPv4 prefixes have their host
    /// bits masked off and `/0` prefixes (wire-identical to a full
    /// wildcard) are dropped. Two matches cover exactly the same packet
    /// set under per-field comparison iff their canonical forms are
    /// equal. [`FlowMatch::key`] packs this form; lookup indexes hash the
    /// packed key, and this struct form is the readable reference for it.
    #[must_use]
    pub fn canonical(&self) -> FlowMatch {
        fn canon(p: Option<Ipv4Prefix>) -> Option<Ipv4Prefix> {
            p.and_then(|p| (p.prefix_len > 0).then(|| Ipv4Prefix::new(p.addr, p.prefix_len)))
        }
        FlowMatch {
            nw_src: canon(self.nw_src),
            nw_dst: canon(self.nw_dst),
            ..*self
        }
    }

    /// This match packed into a [`MatchKey`]: equal keys iff equal
    /// [`FlowMatch::canonical`] forms. Pack once per operation and keep
    /// the key; hashing or comparing it never looks at the match again.
    #[must_use]
    pub fn key(&self) -> MatchKey {
        FlowMatch::project_key(&self.values(), self.wildcards())
    }

    /// The constrained fields' values, zero where wildcarded, with the
    /// IPv4 addresses as spelled.
    fn values(&self) -> FlowKey {
        FlowKey {
            in_port: self.in_port.unwrap_or(0),
            dl_src: self.dl_src.unwrap_or(MacAddr::ZERO),
            dl_dst: self.dl_dst.unwrap_or(MacAddr::ZERO),
            dl_vlan: self.dl_vlan.unwrap_or(0),
            dl_vlan_pcp: self.dl_vlan_pcp.unwrap_or(0),
            dl_type: self.dl_type.unwrap_or(0),
            nw_tos: self.nw_tos.unwrap_or(0),
            nw_proto: self.nw_proto.unwrap_or(0),
            nw_src: self.nw_src.map_or(0, |p| p.addr),
            nw_dst: self.nw_dst.map_or(0, |p| p.addr),
            tp_src: self.tp_src.unwrap_or(0),
            tp_dst: self.tp_dst.unwrap_or(0),
        }
    }

    /// Packs a concrete packet key onto the match shape described by a
    /// wildcard word: every non-wildcarded field keeps the key's value,
    /// IPv4 fields masked to the word's prefix lengths, everything else
    /// zero.
    ///
    /// The defining property (the tuple-space lookup invariant): for any
    /// match `m` and key `k`,
    /// `m.covers(&k) == (m.key() == FlowMatch::project_key(&k, m.wildcards()))`.
    #[must_use]
    pub fn project_key(key: &FlowKey, wildcards: u32) -> MatchKey {
        // The word itself goes into the key, so bring it to the one
        // spelling `wildcards()` produces: defined bits only, prefix
        // counts capped at "all 32 bits wild".
        let src_wild = ((wildcards >> OFPFW_NW_SRC_SHIFT) & 0x3f).min(32);
        let dst_wild = ((wildcards >> OFPFW_NW_DST_SHIFT) & 0x3f).min(32);
        let w = (wildcards & OFPFW_FLAG_BITS)
            | src_wild << OFPFW_NW_SRC_SHIFT
            | dst_wild << OFPFW_NW_DST_SHIFT;
        let keep = |bit: u32, v: u64| if w & bit == 0 { v } else { 0 };
        let mac = |m: MacAddr| {
            let [a, b, c, d, e, f] = m.0;
            u64::from_be_bytes([0, 0, a, b, c, d, e, f])
        };
        let nw_src = key.nw_src & Ipv4Prefix::mask((32 - src_wild) as u8);
        let nw_dst = key.nw_dst & Ipv4Prefix::mask((32 - dst_wild) as u8);
        MatchKey([
            u64::from(w)
                | keep(OFPFW_IN_PORT, u64::from(key.in_port)) << 32
                | keep(OFPFW_DL_VLAN, u64::from(key.dl_vlan)) << 48,
            keep(OFPFW_DL_SRC, mac(key.dl_src)) | keep(OFPFW_DL_TYPE, u64::from(key.dl_type)) << 48,
            keep(OFPFW_DL_DST, mac(key.dl_dst))
                | keep(OFPFW_DL_VLAN_PCP, u64::from(key.dl_vlan_pcp)) << 48
                | keep(OFPFW_NW_TOS, u64::from(key.nw_tos)) << 56,
            u64::from(nw_src) | u64::from(nw_dst) << 32,
            keep(OFPFW_TP_SRC, u64::from(key.tp_src))
                | keep(OFPFW_TP_DST, u64::from(key.tp_dst)) << 16
                | keep(OFPFW_NW_PROTO, u64::from(key.nw_proto)) << 32,
        ])
    }

    /// The OpenFlow 1.0 wildcard word for this match.
    #[must_use]
    pub fn wildcards(&self) -> u32 {
        let mut w = 0u32;
        if self.in_port.is_none() {
            w |= OFPFW_IN_PORT;
        }
        if self.dl_vlan.is_none() {
            w |= OFPFW_DL_VLAN;
        }
        if self.dl_src.is_none() {
            w |= OFPFW_DL_SRC;
        }
        if self.dl_dst.is_none() {
            w |= OFPFW_DL_DST;
        }
        if self.dl_type.is_none() {
            w |= OFPFW_DL_TYPE;
        }
        if self.nw_proto.is_none() {
            w |= OFPFW_NW_PROTO;
        }
        if self.tp_src.is_none() {
            w |= OFPFW_TP_SRC;
        }
        if self.tp_dst.is_none() {
            w |= OFPFW_TP_DST;
        }
        // A length past 32 means 32, as in `Ipv4Prefix::mask`.
        let wild = |p: Option<Ipv4Prefix>| 32 - u32::from(p.map_or(0, |p| p.prefix_len.min(32)));
        w |= wild(self.nw_src) << OFPFW_NW_SRC_SHIFT;
        w |= wild(self.nw_dst) << OFPFW_NW_DST_SHIFT;
        if self.dl_vlan_pcp.is_none() {
            w |= OFPFW_DL_VLAN_PCP;
        }
        if self.nw_tos.is_none() {
            w |= OFPFW_NW_TOS;
        }
        w
    }

    /// Writes the 40-byte `ofp_match` into `b`, pad bytes included — the
    /// one spelling of the layout, for [`Encode`] and for the flow-mod
    /// frame encoder.
    pub(crate) fn write_to(&self, b: &mut [u8; OFP_MATCH_LEN]) {
        b[0..4].copy_from_slice(&self.wildcards().to_be_bytes());
        b[4..6].copy_from_slice(&self.in_port.unwrap_or(0).to_be_bytes());
        b[6..12].copy_from_slice(&self.dl_src.unwrap_or(MacAddr::ZERO).0);
        b[12..18].copy_from_slice(&self.dl_dst.unwrap_or(MacAddr::ZERO).0);
        b[18..20].copy_from_slice(&self.dl_vlan.unwrap_or(0).to_be_bytes());
        b[20] = self.dl_vlan_pcp.unwrap_or(0);
        b[21] = 0;
        b[22..24].copy_from_slice(&self.dl_type.unwrap_or(0).to_be_bytes());
        b[24] = self.nw_tos.unwrap_or(0);
        b[25] = self.nw_proto.unwrap_or(0);
        b[26..28].fill(0);
        b[28..32].copy_from_slice(&self.nw_src.map_or(0, |p| p.addr).to_be_bytes());
        b[32..36].copy_from_slice(&self.nw_dst.map_or(0, |p| p.addr).to_be_bytes());
        b[36..38].copy_from_slice(&self.tp_src.unwrap_or(0).to_be_bytes());
        b[38..40].copy_from_slice(&self.tp_dst.unwrap_or(0).to_be_bytes());
    }
}

impl Encode for FlowMatch {
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut b = [0; OFP_MATCH_LEN];
        self.write_to(&mut b);
        buf.put_slice(&b);
    }
}

impl Decode for FlowMatch {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, OFP_MATCH_LEN, "ofp_match")?;
        let w = be_u32(buf, 0);
        let get = |bit: u32| w & bit == 0;
        let src_wild = ((w >> OFPFW_NW_SRC_SHIFT) & 0x3f).min(32);
        let dst_wild = ((w >> OFPFW_NW_DST_SHIFT) & 0x3f).min(32);

        let mut dl_src = [0u8; 6];
        dl_src.copy_from_slice(&buf[6..12]);
        let mut dl_dst = [0u8; 6];
        dl_dst.copy_from_slice(&buf[12..18]);

        let m = FlowMatch {
            in_port: get(OFPFW_IN_PORT).then(|| be_u16(buf, 4)),
            dl_src: get(OFPFW_DL_SRC).then_some(MacAddr(dl_src)),
            dl_dst: get(OFPFW_DL_DST).then_some(MacAddr(dl_dst)),
            dl_vlan: get(OFPFW_DL_VLAN).then(|| be_u16(buf, 18)),
            dl_vlan_pcp: get(OFPFW_DL_VLAN_PCP).then(|| buf[20]),
            dl_type: get(OFPFW_DL_TYPE).then(|| be_u16(buf, 22)),
            nw_tos: get(OFPFW_NW_TOS).then(|| buf[24]),
            nw_proto: get(OFPFW_NW_PROTO).then(|| buf[25]),
            nw_src: (src_wild < 32)
                .then(|| Ipv4Prefix::new(be_u32(buf, 28), (32 - src_wild) as u8)),
            nw_dst: (dst_wild < 32)
                .then(|| Ipv4Prefix::new(be_u32(buf, 32), (32 - dst_wild) as u8)),
            tp_src: get(OFPFW_TP_SRC).then(|| be_u16(buf, 36)),
            tp_dst: get(OFPFW_TP_DST).then(|| be_u16(buf, 38)),
        };
        Ok((m, OFP_MATCH_LEN))
    }
}

/// Port number helper: matches OpenFlow's use of `PortNo` for in-port
/// constraints expressed as `u16` in the match structure.
impl From<PortNo> for FlowMatch {
    fn from(p: PortNo) -> FlowMatch {
        FlowMatch {
            in_port: Some(p.0),
            ..FlowMatch::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_matches_everything() {
        let m = FlowMatch::any();
        assert!(m.covers(&FlowKey::default()));
        assert!(m.covers(&FlowMatch::key_for_id(42)));
        assert_eq!(m.wildcards() & 0xff, 0xff);
    }

    #[test]
    fn exact_ip_pair_covers_only_that_pair() {
        let m = FlowMatch::exact_ip_pair([10, 0, 0, 1], [10, 0, 0, 2]);
        let mut key = FlowKey {
            dl_type: 0x0800,
            nw_src: u32::from_be_bytes([10, 0, 0, 1]),
            nw_dst: u32::from_be_bytes([10, 0, 0, 2]),
            ..FlowKey::default()
        };
        assert!(m.covers(&key));
        key.nw_dst += 1;
        assert!(!m.covers(&key));
    }

    #[test]
    fn id_constructors_are_hit_by_their_keys() {
        for id in [0u32, 1, 100, 65_535] {
            let key = FlowMatch::key_for_id(id);
            assert!(FlowMatch::l2_for_id(id).covers(&key), "l2 id={id}");
            assert!(FlowMatch::l3_for_id(id).covers(&key), "l3 id={id}");
            assert!(FlowMatch::l2l3_for_id(id).covers(&key), "l2l3 id={id}");
            // And not by a different id's key.
            let other = FlowMatch::key_for_id(id + 1);
            assert!(!FlowMatch::l2_for_id(id).covers(&other));
            assert!(!FlowMatch::l3_for_id(id).covers(&other));
        }
    }

    #[test]
    fn entry_kinds() {
        assert_eq!(FlowMatch::l2_for_id(1).entry_kind(), EntryKind::L2Only);
        assert_eq!(FlowMatch::l3_for_id(1).entry_kind(), EntryKind::L3Only);
        assert_eq!(FlowMatch::l2l3_for_id(1).entry_kind(), EntryKind::L2L3);
        assert_eq!(FlowMatch::any().entry_kind(), EntryKind::L2Only);
    }

    #[test]
    fn prefix_overlap_and_containment() {
        let wide = Ipv4Prefix::new(0x0a00_0000, 8); // 10/8
        let narrow = Ipv4Prefix::new(0x0a01_0000, 16); // 10.1/16
        let other = Ipv4Prefix::new(0x0b00_0000, 8); // 11/8
        assert!(wide.overlaps(narrow));
        assert!(narrow.overlaps(wide));
        assert!(!wide.overlaps(other));
        assert!(wide.contains(0x0aff_ffff));
        assert!(!wide.contains(0x0b00_0000));
    }

    #[test]
    fn overlap_semantics() {
        let a = FlowMatch {
            nw_dst: Some(Ipv4Prefix::new(0x0a00_0000, 8)),
            ..FlowMatch::default()
        };
        let b = FlowMatch {
            nw_dst: Some(Ipv4Prefix::new(0x0a01_0000, 16)),
            tp_dst: Some(80),
            ..FlowMatch::default()
        };
        assert!(a.overlaps(&b));
        assert!(a.subsumes(&b));
        assert!(!b.subsumes(&a));

        let c = FlowMatch {
            nw_dst: Some(Ipv4Prefix::new(0x0b00_0000, 8)),
            ..FlowMatch::default()
        };
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn wire_roundtrip_preserves_all_fields() {
        let m = FlowMatch {
            in_port: Some(3),
            dl_src: Some(MacAddr::from_host_id(7)),
            dl_dst: Some(MacAddr::from_host_id(9)),
            dl_vlan: Some(100),
            dl_vlan_pcp: Some(5),
            dl_type: Some(0x0800),
            nw_tos: Some(0x10),
            nw_proto: Some(6),
            nw_src: Some(Ipv4Prefix::new(0x0a00_0000, 8)),
            nw_dst: Some(Ipv4Prefix::host(0x0a00_0001)),
            tp_src: Some(1234),
            tp_dst: Some(80),
        };
        let bytes = m.to_vec();
        assert_eq!(bytes.len(), OFP_MATCH_LEN);
        let (back, used) = FlowMatch::decode(&bytes).unwrap();
        assert_eq!(used, OFP_MATCH_LEN);
        assert_eq!(back, m);
    }

    #[test]
    fn wire_roundtrip_wildcard_match() {
        let bytes = FlowMatch::any().to_vec();
        let (back, _) = FlowMatch::decode(&bytes).unwrap();
        assert_eq!(back, FlowMatch::any());
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(FlowMatch::decode(&[0u8; 10]).is_err());
    }

    /// The tuple-space lookup invariant: a match covers a key iff the
    /// key packed onto the match's wildcard shape equals the match's
    /// own key.
    #[test]
    fn projection_agrees_with_covers() {
        let matches = [
            FlowMatch::any(),
            FlowMatch::l2_for_id(7),
            FlowMatch::l3_for_id(7),
            FlowMatch::l2l3_for_id(7),
            FlowMatch::exact_ip_pair([10, 0, 0, 1], [10, 0, 0, 7]),
            FlowMatch {
                // Non-canonical: host bits set past the prefix length.
                nw_dst: Some(Ipv4Prefix {
                    addr: 0x0a00_0007,
                    prefix_len: 8,
                }),
                tp_dst: Some(80),
                ..FlowMatch::default()
            },
            FlowMatch {
                // A /0 prefix constrains nothing.
                nw_src: Some(Ipv4Prefix {
                    addr: 0x0a00_0007,
                    prefix_len: 0,
                }),
                ..FlowMatch::default()
            },
        ];
        let keys = [
            FlowMatch::key_for_id(7),
            FlowMatch::key_for_id(8),
            FlowKey::default(),
            FlowKey {
                nw_src: 0x0a00_0001,
                nw_dst: 0x0a12_3456,
                dl_type: 0x0800,
                tp_dst: 80,
                ..FlowKey::default()
            },
        ];
        for m in &matches {
            for k in &keys {
                assert_eq!(
                    m.covers(k),
                    m.key() == FlowMatch::project_key(k, m.wildcards()),
                    "projection invariant broken for {m:?} vs {k:?}"
                );
            }
        }
    }

    /// `canonical()` is idempotent and wildcard-word preserving, so the
    /// word of a stored (possibly non-canonical) match indexes the same
    /// tuple group as its canonical form.
    #[test]
    fn canonical_preserves_wildcard_word() {
        let m = FlowMatch {
            nw_src: Some(Ipv4Prefix {
                addr: 0x0a00_00ff,
                prefix_len: 0,
            }),
            nw_dst: Some(Ipv4Prefix {
                addr: 0x0a00_00ff,
                prefix_len: 24,
            }),
            dl_type: Some(0x0800),
            ..FlowMatch::default()
        };
        let c = m.canonical();
        assert_eq!(c.wildcards(), m.wildcards());
        assert_eq!(c.canonical(), c);
        assert_eq!(c.nw_src, None);
        assert_eq!(
            c.nw_dst,
            Some(Ipv4Prefix {
                addr: 0x0a00_0000,
                prefix_len: 24
            })
        );
    }
}
