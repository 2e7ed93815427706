//! The top-level [`Message`] enum unifying every OpenFlow message this
//! crate speaks, with whole-frame encode/decode.

use crate::codec::{Decode, Encode};
use crate::error::{Result, WireError};
use crate::error_msg::ErrorMsg;
use crate::features::FeaturesReply;
use crate::flow_mod::FlowMod;
use crate::flow_removed::FlowRemoved;
use crate::header::{Header, MessageType, OFP_HEADER_LEN};
use crate::packet::{PacketIn, PacketOut};
use crate::stats::{StatsBody, StatsRequestBody};
use crate::types::Xid;

/// Any OpenFlow message (body only; the header is supplied/parsed at the
/// framing layer so that xids stay a transport concern).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Version negotiation.
    Hello,
    /// Switch-reported error.
    Error(ErrorMsg),
    /// Liveness/RTT probe.
    EchoRequest(Vec<u8>),
    /// Echo answer, payload mirrored.
    EchoReply(Vec<u8>),
    /// Vendor/experimenter extension: an opaque payload scoped by a
    /// 32-bit vendor id. Transports use this for side-band signalling
    /// (e.g. the virtual-time channel in `tango-net`) without leaving
    /// the OpenFlow 1.0 framing.
    Vendor {
        /// Vendor/experimenter id owning the payload format.
        vendor: u32,
        /// Opaque vendor-defined payload.
        data: Vec<u8>,
    },
    /// Ask for switch features.
    FeaturesRequest,
    /// Feature report.
    FeaturesReply(FeaturesReply),
    /// Data packet up to the controller.
    PacketIn(PacketIn),
    /// Data packet down from the controller.
    PacketOut(PacketOut),
    /// Flow-table modification.
    FlowMod(FlowMod),
    /// An entry expired or was deleted with notification requested.
    FlowRemoved(FlowRemoved),
    /// Statistics request.
    StatsRequest(StatsRequestBody),
    /// Statistics reply.
    StatsReply(StatsBody),
    /// Fence request.
    BarrierRequest,
    /// Fence acknowledgement.
    BarrierReply,
}

impl Message {
    /// The wire message type of this body.
    #[must_use]
    pub fn msg_type(&self) -> MessageType {
        match self {
            Message::Hello => MessageType::Hello,
            Message::Error(_) => MessageType::Error,
            Message::EchoRequest(_) => MessageType::EchoRequest,
            Message::EchoReply(_) => MessageType::EchoReply,
            Message::Vendor { .. } => MessageType::Vendor,
            Message::FeaturesRequest => MessageType::FeaturesRequest,
            Message::FeaturesReply(_) => MessageType::FeaturesReply,
            Message::PacketIn(_) => MessageType::PacketIn,
            Message::PacketOut(_) => MessageType::PacketOut,
            Message::FlowMod(_) => MessageType::FlowMod,
            Message::FlowRemoved(_) => MessageType::FlowRemoved,
            Message::StatsRequest(_) => MessageType::StatsRequest,
            Message::StatsReply(_) => MessageType::StatsReply,
            Message::BarrierRequest => MessageType::BarrierRequest,
            Message::BarrierReply => MessageType::BarrierReply,
        }
    }

    /// Encodes a complete frame (header + body) with the given xid.
    #[must_use]
    pub fn to_bytes(&self, xid: Xid) -> Vec<u8> {
        let mut out = Vec::with_capacity(OFP_HEADER_LEN);
        self.encode_frame_into(xid, &mut out);
        out
    }

    /// Appends a complete frame (header + body) to `out`, reusing its
    /// allocation. The header is written first with a placeholder
    /// length, the body is encoded in place behind it, and the length
    /// field is patched — one buffer, no intermediate body copy. A
    /// flow-mod goes to its own frame encoder.
    pub fn encode_frame_into(&self, xid: Xid, out: &mut Vec<u8>) {
        if let Message::FlowMod(fm) = self {
            return fm.encode_frame_into(xid, out);
        }
        let start = out.len();
        Header::new(self.msg_type(), 0, xid).encode(out);
        self.encode_body(out);
        let total = (out.len() - start) as u16;
        out[start + 2..start + 4].copy_from_slice(&total.to_be_bytes());
    }

    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Hello
            | Message::FeaturesRequest
            | Message::BarrierRequest
            | Message::BarrierReply => {}
            Message::Error(e) => e.encode(buf),
            Message::EchoRequest(data) | Message::EchoReply(data) => {
                buf.extend_from_slice(data);
            }
            Message::Vendor { vendor, data } => {
                buf.extend_from_slice(&vendor.to_be_bytes());
                buf.extend_from_slice(data);
            }
            Message::FeaturesReply(f) => f.encode(buf),
            Message::PacketIn(p) => p.encode(buf),
            Message::PacketOut(p) => p.encode(buf),
            Message::FlowMod(f) => f.encode(buf),
            Message::FlowRemoved(f) => f.encode(buf),
            Message::StatsRequest(s) => s.encode(buf),
            Message::StatsReply(s) => s.encode(buf),
        }
    }

    /// Decodes a complete frame, returning its header and body.
    ///
    /// `frame` must contain exactly one message (as produced by
    /// [`Message::to_bytes`] or split out by [`crate::codec::Framer`]).
    pub fn from_bytes(frame: &[u8]) -> Result<(Header, Message)> {
        let header = Header::peek(frame)?;
        let total = header.length as usize;
        if frame.len() < total {
            return Err(WireError::Truncated {
                what: "message frame",
                needed: total,
                available: frame.len(),
            });
        }
        let msg = Message::decode_body(&header, &frame[OFP_HEADER_LEN..total])?;
        Ok((header, msg))
    }

    /// Decodes the body of a frame whose header is already parsed —
    /// what [`Message::from_bytes`] does after its header checks, for
    /// callers (the [`Framer`](crate::codec::Framer)) that split the
    /// frame off themselves. `body` is the frame minus its header.
    #[inline]
    pub fn decode_body(header: &Header, body: &[u8]) -> Result<Message> {
        Ok(match header.msg_type {
            MessageType::Hello => Message::Hello,
            MessageType::Error => Message::Error(ErrorMsg::decode(body)?.0),
            MessageType::EchoRequest => Message::EchoRequest(body.to_vec()),
            MessageType::EchoReply => Message::EchoReply(body.to_vec()),
            MessageType::Vendor => {
                if body.len() < 4 {
                    return Err(WireError::Truncated {
                        what: "vendor id",
                        needed: 4,
                        available: body.len(),
                    });
                }
                Message::Vendor {
                    vendor: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                    data: body[4..].to_vec(),
                }
            }
            MessageType::FeaturesRequest => Message::FeaturesRequest,
            MessageType::FeaturesReply => Message::FeaturesReply(FeaturesReply::decode(body)?.0),
            MessageType::PacketIn => Message::PacketIn(PacketIn::decode(body)?.0),
            MessageType::PacketOut => Message::PacketOut(PacketOut::decode(body)?.0),
            MessageType::FlowMod => Message::FlowMod(FlowMod::decode(body)?.0),
            MessageType::StatsRequest => Message::StatsRequest(StatsRequestBody::decode(body)?.0),
            MessageType::StatsReply => Message::StatsReply(StatsBody::decode(body)?.0),
            MessageType::BarrierRequest => Message::BarrierRequest,
            MessageType::BarrierReply => Message::BarrierReply,
            MessageType::FlowRemoved => Message::FlowRemoved(FlowRemoved::decode(body)?.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_match::FlowMatch;
    use crate::types::{BufferId, Dpid, PortNo};

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello,
            Message::Error(ErrorMsg::table_full(vec![0; 64])),
            Message::EchoRequest(vec![1, 2, 3]),
            Message::EchoReply(vec![]),
            Message::Vendor {
                vendor: 0x00ca_fe42,
                data: vec![0xde, 0xad, 0xbe, 0xef],
            },
            Message::FeaturesRequest,
            Message::FeaturesReply(FeaturesReply {
                datapath_id: Dpid(7),
                n_buffers: 64,
                n_tables: 2,
                capabilities: 0,
                actions: 0xfff,
                ports: vec![crate::features::PhyPort::gigabit(1)],
            }),
            Message::PacketIn(PacketIn {
                buffer_id: BufferId::NO_BUFFER,
                total_len: 60,
                in_port: PortNo(1),
                reason: crate::packet::PacketInReason::NoMatch,
                data: vec![0xaa; 60],
            }),
            Message::PacketOut(PacketOut::send(vec![0xbb; 60], PortNo(2))),
            Message::FlowMod(FlowMod::add(FlowMatch::l2l3_for_id(5), 10)),
            Message::FlowRemoved(crate::flow_removed::FlowRemoved {
                flow_match: FlowMatch::l3_for_id(3),
                cookie: 1,
                priority: 9,
                reason: crate::flow_removed::FlowRemovedReason::HardTimeout,
                duration_sec: 1,
                duration_nsec: 2,
                idle_timeout: 0,
                packet_count: 3,
                byte_count: 4,
            }),
            Message::StatsRequest(StatsRequestBody::all_flows()),
            Message::StatsReply(StatsBody::Flow(vec![])),
            Message::BarrierRequest,
            Message::BarrierReply,
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for (i, msg) in samples().into_iter().enumerate() {
            let xid = Xid(i as u32);
            let bytes = msg.to_bytes(xid);
            let (header, back) = Message::from_bytes(&bytes).unwrap();
            assert_eq!(header.xid, xid);
            assert_eq!(header.length as usize, bytes.len());
            assert_eq!(back, msg, "message #{i}");
        }
    }

    #[test]
    fn frame_into_appends_identically() {
        let mut batched = Vec::new();
        let mut concat = Vec::new();
        for (i, msg) in samples().into_iter().enumerate() {
            let xid = Xid(i as u32);
            msg.encode_frame_into(xid, &mut batched);
            concat.extend_from_slice(&msg.to_bytes(xid));
        }
        assert_eq!(batched, concat);
        // The combined stream still frames correctly.
        let mut framer = crate::codec::Framer::new();
        let mut input = &batched[..];
        let mut frames = 0;
        while framer.next_message_from(&mut input).unwrap().is_some() {
            frames += 1;
        }
        assert_eq!(frames, samples().len());
    }

    #[test]
    fn truncated_frame_rejected() {
        let bytes = Message::FlowMod(FlowMod::add(FlowMatch::any(), 1)).to_bytes(Xid(0));
        assert!(Message::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn msg_type_mapping_is_consistent() {
        for msg in samples() {
            let bytes = msg.to_bytes(Xid(0));
            let header = Header::peek(&bytes).unwrap();
            assert_eq!(header.msg_type, msg.msg_type());
        }
    }
}
