//! `packet_in` / `packet_out` messages and a real Ethernet/IPv4/UDP frame
//! builder used for probing traffic.
//!
//! Tango's probing engine needs to inject data-plane packets that match
//! specific flow rules. [`RawFrame`] constructs genuine Ethernet II frames
//! (optionally VLAN-tagged) carrying IPv4/UDP headers with a correct IPv4
//! checksum, and parses received frames back into a
//! [`FlowKey`] for table lookup.

use crate::action::{Action, ActionList};
use crate::codec::{be_u16, be_u32, Decode, Encode};
use crate::error::{ensure, Result, WireError};
use crate::flow_match::FlowKey;
use crate::header::{MessageType, OFP_VERSION};
use crate::types::{BufferId, MacAddr, PortNo, Xid};
use bytes::BufMut;

/// Why a packet was sent to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketInReason {
    /// No flow entry matched the packet.
    NoMatch = 0,
    /// A flow entry's action explicitly sent it.
    Action = 1,
}

impl PacketInReason {
    /// Parses a raw reason byte.
    pub fn from_u8(v: u8) -> Result<PacketInReason> {
        match v {
            0 => Ok(PacketInReason::NoMatch),
            1 => Ok(PacketInReason::Action),
            other => Err(WireError::BadEnumValue {
                what: "packet_in reason",
                value: other as u32,
            }),
        }
    }
}

/// A data packet forwarded from the switch to the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketIn {
    /// Switch-side buffer holding the full packet, if buffered.
    pub buffer_id: BufferId,
    /// Full length of the original frame.
    pub total_len: u16,
    /// Port the packet arrived on.
    pub in_port: PortNo,
    /// Why it was sent up.
    pub reason: PacketInReason,
    /// The (possibly truncated) frame bytes.
    pub data: Vec<u8>,
}

const PACKET_IN_FIXED: usize = 10;

impl Encode for PacketIn {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.buffer_id.0);
        buf.put_u16(self.total_len);
        buf.put_u16(self.in_port.0);
        buf.put_u8(self.reason as u8);
        buf.put_u8(0);
        buf.put_slice(&self.data);
    }
}

impl Decode for PacketIn {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, PACKET_IN_FIXED, "packet_in")?;
        Ok((
            PacketIn {
                buffer_id: BufferId(be_u32(buf, 0)),
                total_len: be_u16(buf, 4),
                in_port: PortNo(be_u16(buf, 6)),
                reason: PacketInReason::from_u8(buf[8])?,
                data: buf[PACKET_IN_FIXED..].to_vec(),
            },
            buf.len(),
        ))
    }
}

/// A controller-originated packet transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketOut {
    /// Buffer to release, or [`BufferId::NO_BUFFER`] if `data` is inline.
    pub buffer_id: BufferId,
    /// Nominal ingress port (for actions that reference it).
    pub in_port: PortNo,
    /// Actions applied to the packet (usually a single `Output`).
    pub actions: ActionList,
    /// The frame to send when not buffered.
    pub data: Vec<u8>,
}

const PACKET_OUT_FIXED: usize = 8;

impl PacketOut {
    /// Sends `data` out of `port`.
    #[must_use]
    pub fn send(data: Vec<u8>, port: PortNo) -> PacketOut {
        PacketOut {
            buffer_id: BufferId::NO_BUFFER,
            in_port: PortNo::NONE,
            actions: Action::Output { port, max_len: 0 }.into(),
            data,
        }
    }

    /// Encoded body length (header excluded).
    #[must_use]
    pub fn body_len(&self) -> usize {
        PACKET_OUT_FIXED + Action::list_len(&self.actions) + self.data.len()
    }

    /// Appends the complete frame of a probe: the `packet_out` that sends
    /// [`RawFrame::build`]`(key, payload)` out of `port`. Byte for byte
    /// what `Message::PacketOut(PacketOut::send(RawFrame::build(key,
    /// payload), port)).encode_frame_into(xid, out)` appends, written
    /// straight into `out` with no intermediate frame, action list or
    /// message.
    pub fn encode_probe_frame(
        key: &FlowKey,
        payload: usize,
        port: PortNo,
        xid: Xid,
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.extend_from_slice(&[OFP_VERSION, MessageType::PacketOut as u8, 0, 0]);
        out.extend_from_slice(&xid.0.to_be_bytes());
        out.extend_from_slice(&BufferId::NO_BUFFER.0.to_be_bytes());
        out.extend_from_slice(&PortNo::NONE.0.to_be_bytes());
        // actions_len 8, then the one `Output { port, max_len: 0 }` TLV:
        // type 0, length 8, port, max_len.
        out.extend_from_slice(&[0, 8, 0, 0, 0, 8]);
        out.extend_from_slice(&port.0.to_be_bytes());
        out.extend_from_slice(&[0, 0]);
        RawFrame::build_into(key, payload, out);
        let total = (out.len() - start) as u16;
        out[start + 2..start + 4].copy_from_slice(&total.to_be_bytes());
    }
}

/// The fixed part of a `packet_out` body: `(buffer_id, in_port,
/// actions_len)`.
fn packet_out_fixed(buf: &[u8]) -> Result<(BufferId, PortNo, usize)> {
    ensure(buf, PACKET_OUT_FIXED, "packet_out")?;
    Ok((
        BufferId(be_u32(buf, 0)),
        PortNo(be_u16(buf, 4)),
        be_u16(buf, 6) as usize,
    ))
}

/// A validated `packet_out` body read in place: the borrowing form of
/// [`PacketOut::decode`], for receivers that act on the frame and let go
/// of it. Parsing accepts and rejects exactly the bodies `decode` does —
/// the action list is walked TLV by TLV — but nothing is collected.
#[derive(Debug, Clone, Copy)]
pub struct PacketOutView<'a> {
    /// Buffer to release, or [`BufferId::NO_BUFFER`] if `data` is inline.
    pub buffer_id: BufferId,
    /// Nominal ingress port.
    pub in_port: PortNo,
    /// The action TLVs as they arrived (already checked).
    pub actions: &'a [u8],
    /// The frame to send when not buffered.
    pub data: &'a [u8],
}

impl<'a> PacketOutView<'a> {
    /// Parses a `packet_out` body (header excluded) without copying it.
    pub fn parse(body: &'a [u8]) -> Result<PacketOutView<'a>> {
        let (buffer_id, in_port, actions_len) = packet_out_fixed(body)?;
        let rest = &body[PACKET_OUT_FIXED..];
        let used = Action::check_list(rest, actions_len)?;
        let (actions, data) = rest.split_at(used);
        Ok(PacketOutView {
            buffer_id,
            in_port,
            actions,
            data,
        })
    }
}

impl Encode for PacketOut {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.buffer_id.0);
        buf.put_u16(self.in_port.0);
        buf.put_u16(Action::list_len(&self.actions) as u16);
        Action::encode_list(&self.actions, buf);
        buf.put_slice(&self.data);
    }
}

impl Decode for PacketOut {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        let (buffer_id, in_port, actions_len) = packet_out_fixed(buf)?;
        let (actions, used) = Action::decode_list(&buf[PACKET_OUT_FIXED..], actions_len)?;
        let data = buf[PACKET_OUT_FIXED + used..].to_vec();
        Ok((
            PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            },
            buf.len(),
        ))
    }
}

/// Builder/parser for genuine Ethernet II + IPv4 + UDP probe frames.
///
/// The simulated data plane transports real frame bytes end to end, so the
/// whole encode→wire→parse→match pipeline is exercised exactly as it would
/// be against hardware.
#[derive(Debug, Clone, Copy)]
pub struct RawFrame;

const ETHERTYPE_IPV4: u16 = 0x0800;
const ETHERTYPE_VLAN: u16 = 0x8100;

impl RawFrame {
    /// Builds a frame whose headers carry exactly the fields of `key`.
    /// A VLAN tag is inserted iff `key.dl_vlan != 0xffff` (the OpenFlow
    /// "untagged" sentinel). `payload` bytes of zeros follow the UDP
    /// header.
    #[must_use]
    pub fn build(key: &FlowKey, payload: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + payload);
        RawFrame::build_into(key, payload, &mut out);
        out
    }

    /// Appends the frame [`RawFrame::build`] returns to `out`, reusing
    /// its allocation.
    pub fn build_into(key: &FlowKey, payload: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&key.dl_dst.0);
        out.extend_from_slice(&key.dl_src.0);
        if key.dl_vlan != 0xffff {
            out.extend_from_slice(&ETHERTYPE_VLAN.to_be_bytes());
            let tci = (u16::from(key.dl_vlan_pcp) << 13) | (key.dl_vlan & 0x0fff);
            out.extend_from_slice(&tci.to_be_bytes());
        }
        out.extend_from_slice(&key.dl_type.to_be_bytes());
        if key.dl_type == ETHERTYPE_IPV4 {
            let ip = out.len();
            let total_len = (20 + 8 + payload) as u16;
            out.extend_from_slice(&[0x45, key.nw_tos]); // version 4, IHL 5
            out.extend_from_slice(&total_len.to_be_bytes());
            // identification 0; DF, no fragment offset; ttl 64
            out.extend_from_slice(&[0, 0, 0x40, 0, 64, key.nw_proto]);
            out.extend_from_slice(&[0, 0]); // checksum placeholder
            out.extend_from_slice(&key.nw_src.to_be_bytes());
            out.extend_from_slice(&key.nw_dst.to_be_bytes());
            let csum = ipv4_checksum(&out[ip..ip + 20]);
            out[ip + 10..ip + 12].copy_from_slice(&csum.to_be_bytes());
            // UDP (or generic 4-byte-port transport) header.
            out.extend_from_slice(&key.tp_src.to_be_bytes());
            out.extend_from_slice(&key.tp_dst.to_be_bytes());
            out.extend_from_slice(&((8 + payload) as u16).to_be_bytes());
            out.extend_from_slice(&[0, 0]); // UDP checksum optional over IPv4
        }
        out.resize(out.len() + payload, 0);
    }

    /// Parses a frame built by [`RawFrame::build`] (or any Ethernet
    /// II/IPv4/UDP frame) back into a [`FlowKey`]. `in_port` is supplied
    /// by the receiving port, not the frame.
    pub fn parse(frame: &[u8], in_port: PortNo) -> Result<FlowKey> {
        ensure(frame, 14, "ethernet header")?;
        let mut key = FlowKey {
            in_port: in_port.0,
            dl_vlan: 0xffff,
            ..FlowKey::default()
        };
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&frame[0..6]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&frame[6..12]);
        key.dl_dst = MacAddr(dst);
        key.dl_src = MacAddr(src);
        let mut off = 12;
        let mut ethertype = be_u16(frame, off);
        off += 2;
        if ethertype == ETHERTYPE_VLAN {
            ensure(frame, off + 4, "vlan tag")?;
            let tci = be_u16(frame, off);
            key.dl_vlan = tci & 0x0fff;
            key.dl_vlan_pcp = (tci >> 13) as u8;
            ethertype = be_u16(frame, off + 2);
            off += 4;
        }
        key.dl_type = ethertype;
        if ethertype == ETHERTYPE_IPV4 {
            ensure(frame, off + 20, "ipv4 header")?;
            let ihl = (frame[off] & 0x0f) as usize * 4;
            if ihl < 20 {
                return Err(WireError::BadLength {
                    what: "ipv4 ihl",
                    len: ihl,
                });
            }
            key.nw_tos = frame[off + 1];
            key.nw_proto = frame[off + 9];
            key.nw_src = be_u32(frame, off + 12);
            key.nw_dst = be_u32(frame, off + 16);
            let l4 = off + ihl;
            // TCP(6)/UDP(17) ports live in the first 4 bytes either way.
            if (key.nw_proto == 6 || key.nw_proto == 17) && frame.len() >= l4 + 4 {
                key.tp_src = be_u16(frame, l4);
                key.tp_dst = be_u16(frame, l4 + 2);
            }
        }
        Ok(key)
    }

    /// Verifies the IPv4 header checksum of a frame produced by
    /// [`RawFrame::build`]. Returns `false` for non-IP frames.
    #[must_use]
    pub fn verify_ipv4_checksum(frame: &[u8]) -> bool {
        if frame.len() < 14 {
            return false;
        }
        let mut off = 12;
        let mut ethertype = be_u16(frame, off);
        off += 2;
        if ethertype == ETHERTYPE_VLAN {
            if frame.len() < off + 4 {
                return false;
            }
            ethertype = be_u16(frame, off + 2);
            off += 4;
        }
        if ethertype != ETHERTYPE_IPV4 || frame.len() < off + 20 {
            return false;
        }
        ipv4_checksum(&frame[off..off + 20]) == 0
    }
}

/// One's-complement sum over 16-bit words, as used by the IPv4 header
/// checksum. When computed over a header whose checksum field is correct,
/// the result is zero.
fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut i = 0;
    while i + 1 < header.len() {
        sum += u32::from(be_u16(header, i));
        i += 2;
    }
    if i < header.len() {
        sum += u32::from(header[i]) << 8;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_match::FlowMatch;

    #[test]
    fn packet_in_roundtrip() {
        let pi = PacketIn {
            buffer_id: BufferId(55),
            total_len: 1500,
            in_port: PortNo(3),
            reason: PacketInReason::NoMatch,
            data: vec![1, 2, 3, 4],
        };
        let (back, _) = PacketIn::decode(&pi.to_vec()).unwrap();
        assert_eq!(back, pi);
    }

    #[test]
    fn packet_out_roundtrip() {
        let po = PacketOut::send(vec![9; 60], PortNo(2));
        let bytes = po.to_vec();
        assert_eq!(bytes.len(), po.body_len());
        let (back, _) = PacketOut::decode(&bytes).unwrap();
        assert_eq!(back, po);
    }

    #[test]
    fn frame_roundtrip_untagged() {
        let key = FlowMatch::key_for_id(1234);
        let frame = RawFrame::build(&key, 32);
        assert!(RawFrame::verify_ipv4_checksum(&frame));
        let parsed = RawFrame::parse(&frame, PortNo(key.in_port)).unwrap();
        assert_eq!(parsed, key);
    }

    #[test]
    fn frame_roundtrip_vlan_tagged() {
        let key = FlowKey {
            in_port: 7,
            dl_src: MacAddr::from_host_id(1),
            dl_dst: MacAddr::from_host_id(2),
            dl_vlan: 100,
            dl_vlan_pcp: 5,
            dl_type: ETHERTYPE_IPV4,
            nw_tos: 0x20,
            nw_proto: 6,
            nw_src: 0x0a000001,
            nw_dst: 0x0a000002,
            tp_src: 4321,
            tp_dst: 443,
        };
        let frame = RawFrame::build(&key, 0);
        assert!(RawFrame::verify_ipv4_checksum(&frame));
        let parsed = RawFrame::parse(&frame, PortNo(7)).unwrap();
        assert_eq!(parsed, key);
    }

    /// Exact recorded bytes: untagged IPv4/UDP, tagged IPv4/TCP,
    /// untagged ARP, and the complete probe `packet_out` the channel
    /// codec sends.
    #[test]
    fn built_frames_match_recorded_bytes() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let tagged = FlowKey {
            in_port: 7,
            dl_src: MacAddr::from_host_id(1),
            dl_dst: MacAddr::from_host_id(2),
            dl_vlan: 100,
            dl_vlan_pcp: 5,
            dl_type: ETHERTYPE_IPV4,
            nw_tos: 0x20,
            nw_proto: 6,
            nw_src: 0x0a000001,
            nw_dst: 0x0a000002,
            tp_src: 4321,
            tp_dst: 443,
        };
        let arp = FlowKey {
            in_port: 1,
            dl_src: MacAddr::from_host_id(3),
            dl_dst: MacAddr::from_host_id(4),
            dl_vlan: 0xffff,
            dl_type: 0x0806,
            ..FlowKey::default()
        };
        assert_eq!(
            hex(&RawFrame::build(&FlowMatch::key_for_id(1234), 4)),
            "0200000004d20200ffff04d20800450000200000400040111caa0a8004d20a0004d2\
             2be20050000c000000000000"
        );
        assert_eq!(
            hex(&RawFrame::build(&tagged, 0)),
            "0200000000020200000000018100a06408004520001c00004000400626ba0a000001\
             0a00000210e101bb00080000"
        );
        assert_eq!(
            hex(&RawFrame::build(&arp, 2)),
            "02000000000402000000000308060000"
        );
        let mut probe = Vec::new();
        let key = FlowMatch::key_for_id(1234);
        PacketOut::encode_probe_frame(&key, 46, PortNo(1), Xid(0x0102_0304), &mut probe);
        assert_eq!(
            hex(&probe),
            format!(
                "010d007001020304ffffffffffff00080000000800010000\
                 0200000004d20200ffff04d208004500004a0000400040111c800a8004d20a0004d2\
                 2be2005000360000{}",
                "00".repeat(46)
            )
        );
    }

    #[test]
    fn non_ip_frame_parses_l2_only() {
        let key = FlowKey {
            in_port: 1,
            dl_src: MacAddr::from_host_id(3),
            dl_dst: MacAddr::from_host_id(4),
            dl_vlan: 0xffff,
            dl_type: 0x0806, // ARP
            ..FlowKey::default()
        };
        let frame = RawFrame::build(&key, 16);
        let parsed = RawFrame::parse(&frame, PortNo(1)).unwrap();
        assert_eq!(parsed.dl_type, 0x0806);
        assert_eq!(parsed.nw_src, 0);
        assert!(!RawFrame::verify_ipv4_checksum(&frame));
    }

    #[test]
    fn corrupted_checksum_detected() {
        let key = FlowMatch::key_for_id(5);
        let mut frame = RawFrame::build(&key, 0);
        frame[14 + 12] ^= 0xff; // flip a source-address byte
        assert!(!RawFrame::verify_ipv4_checksum(&frame));
    }

    #[test]
    fn reason_parsing() {
        assert_eq!(PacketInReason::from_u8(0).unwrap(), PacketInReason::NoMatch);
        assert_eq!(PacketInReason::from_u8(1).unwrap(), PacketInReason::Action);
        assert!(PacketInReason::from_u8(2).is_err());
    }
}
