//! The common OpenFlow message header: version, type, length, xid.

use crate::codec::{be_u16, be_u32, Encode};
use crate::error::{ensure, Result, WireError};
use crate::types::Xid;
use bytes::BufMut;

/// Wire protocol version implemented by this crate (OpenFlow 1.0).
pub const OFP_VERSION: u8 = 0x01;

/// Size of the fixed message header in bytes.
pub const OFP_HEADER_LEN: usize = 8;

/// OpenFlow message type discriminants (OpenFlow 1.0 numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MessageType {
    /// Version negotiation; sent by both sides on connect.
    Hello = 0,
    /// Error notification from the switch.
    Error = 1,
    /// Liveness / RTT probe request.
    EchoRequest = 2,
    /// Liveness / RTT probe reply.
    EchoReply = 3,
    /// Vendor/experimenter extension message.
    Vendor = 4,
    /// Ask the switch for its datapath features.
    FeaturesRequest = 5,
    /// Switch feature report.
    FeaturesReply = 6,
    /// Data packet delivered to the controller.
    PacketIn = 10,
    /// A flow entry expired or was deleted.
    FlowRemoved = 11,
    /// Controller-originated packet transmission.
    PacketOut = 13,
    /// Install / modify / remove flow table entries.
    FlowMod = 14,
    /// Statistics request.
    StatsRequest = 16,
    /// Statistics reply.
    StatsReply = 17,
    /// Fence: reply is sent once all earlier messages are processed.
    BarrierRequest = 18,
    /// Barrier acknowledgement.
    BarrierReply = 19,
}

impl MessageType {
    /// Parses a raw type byte.
    pub fn from_u8(v: u8) -> Result<MessageType> {
        Ok(match v {
            0 => MessageType::Hello,
            1 => MessageType::Error,
            2 => MessageType::EchoRequest,
            3 => MessageType::EchoReply,
            4 => MessageType::Vendor,
            5 => MessageType::FeaturesRequest,
            6 => MessageType::FeaturesReply,
            10 => MessageType::PacketIn,
            11 => MessageType::FlowRemoved,
            13 => MessageType::PacketOut,
            14 => MessageType::FlowMod,
            16 => MessageType::StatsRequest,
            17 => MessageType::StatsReply,
            18 => MessageType::BarrierRequest,
            19 => MessageType::BarrierReply,
            other => return Err(WireError::UnknownMessageType(other)),
        })
    }
}

/// The 8-byte header that precedes every OpenFlow message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Protocol version ([`OFP_VERSION`]).
    pub version: u8,
    /// Message type.
    pub msg_type: MessageType,
    /// Total frame length, header included.
    pub length: u16,
    /// Transaction id; replies echo the request's xid.
    pub xid: Xid,
}

impl Header {
    /// Builds a header for a message of type `msg_type` whose body (after
    /// the header) is `body_len` bytes.
    #[must_use]
    pub fn new(msg_type: MessageType, body_len: usize, xid: Xid) -> Header {
        let length = (OFP_HEADER_LEN + body_len) as u16;
        Header {
            version: OFP_VERSION,
            msg_type,
            length,
            xid,
        }
    }

    /// Parses the header at the front of `buf` without consuming it.
    pub fn peek(buf: &[u8]) -> Result<Header> {
        ensure(buf, OFP_HEADER_LEN, "header")?;
        let version = buf[0];
        if version != OFP_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let msg_type = MessageType::from_u8(buf[1])?;
        let length = be_u16(buf, 2);
        if (length as usize) < OFP_HEADER_LEN {
            return Err(WireError::BadLength {
                what: "header.length",
                len: length as usize,
            });
        }
        let xid = Xid(be_u32(buf, 4));
        Ok(Header {
            version,
            msg_type,
            length,
            xid,
        })
    }
}

impl Encode for Header {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(self.version);
        buf.put_u8(self.msg_type as u8);
        buf.put_u16(self.length);
        buf.put_u32(self.xid.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header::new(MessageType::FlowMod, 64, Xid(0xdead_beef));
        let bytes = h.to_vec();
        assert_eq!(bytes.len(), OFP_HEADER_LEN);
        let parsed = Header::peek(&bytes).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.length as usize, OFP_HEADER_LEN + 64);
    }

    #[test]
    fn rejects_bad_version() {
        let mut h = Header::new(MessageType::Hello, 0, Xid(0)).to_vec();
        h[0] = 4; // OpenFlow 1.3 version byte; we only speak 1.0.
        assert_eq!(Header::peek(&h).unwrap_err(), WireError::BadVersion(4));
    }

    #[test]
    fn rejects_unknown_type() {
        let mut h = Header::new(MessageType::Hello, 0, Xid(0)).to_vec();
        h[1] = 99;
        assert_eq!(
            Header::peek(&h).unwrap_err(),
            WireError::UnknownMessageType(99)
        );
    }

    #[test]
    fn rejects_short_length_field() {
        let mut h = Header::new(MessageType::Hello, 0, Xid(0)).to_vec();
        h[2] = 0;
        h[3] = 4; // length 4 < 8
        assert!(matches!(
            Header::peek(&h).unwrap_err(),
            WireError::BadLength { .. }
        ));
    }

    #[test]
    fn all_message_types_roundtrip() {
        for t in [
            MessageType::Hello,
            MessageType::Error,
            MessageType::EchoRequest,
            MessageType::EchoReply,
            MessageType::Vendor,
            MessageType::FeaturesRequest,
            MessageType::FeaturesReply,
            MessageType::PacketIn,
            MessageType::FlowRemoved,
            MessageType::PacketOut,
            MessageType::FlowMod,
            MessageType::StatsRequest,
            MessageType::StatsReply,
            MessageType::BarrierRequest,
            MessageType::BarrierReply,
        ] {
            assert_eq!(MessageType::from_u8(t as u8).unwrap(), t);
        }
    }
}
