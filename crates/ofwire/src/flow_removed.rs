//! The `flow_removed` notification: sent when an entry expires (idle or
//! hard timeout) or is deleted with `SEND_FLOW_REM` set.

use crate::codec::{be_u16, be_u32, be_u64, pad, Decode, Encode};
use crate::error::{ensure, Result, WireError};
use crate::flow_match::FlowMatch;
use bytes::BufMut;

/// Why the switch removed the entry (OpenFlow 1.0 numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FlowRemovedReason {
    /// Idle timeout elapsed.
    IdleTimeout = 0,
    /// Hard timeout elapsed.
    HardTimeout = 1,
    /// Deleted by a controller `flow_mod`.
    Delete = 2,
}

impl FlowRemovedReason {
    /// Parses a raw reason byte.
    pub fn from_u8(v: u8) -> Result<FlowRemovedReason> {
        Ok(match v {
            0 => FlowRemovedReason::IdleTimeout,
            1 => FlowRemovedReason::HardTimeout,
            2 => FlowRemovedReason::Delete,
            other => {
                return Err(WireError::BadEnumValue {
                    what: "flow_removed reason",
                    value: other as u32,
                })
            }
        })
    }
}

/// A flow-removed notification body (80 bytes on the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRemoved {
    /// The removed entry's match.
    pub flow_match: FlowMatch,
    /// Controller cookie.
    pub cookie: u64,
    /// Entry priority.
    pub priority: u16,
    /// Why it was removed.
    pub reason: FlowRemovedReason,
    /// Seconds the entry lived.
    pub duration_sec: u32,
    /// Sub-second remainder, nanoseconds.
    pub duration_nsec: u32,
    /// The idle timeout that was configured.
    pub idle_timeout: u16,
    /// Packets matched over the entry's lifetime.
    pub packet_count: u64,
    /// Bytes matched over the entry's lifetime.
    pub byte_count: u64,
}

/// Encoded size of the body.
pub const FLOW_REMOVED_LEN: usize = 80;

impl Encode for FlowRemoved {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.flow_match.encode(buf);
        buf.put_u64(self.cookie);
        buf.put_u16(self.priority);
        buf.put_u8(self.reason as u8);
        pad(buf, 1);
        buf.put_u32(self.duration_sec);
        buf.put_u32(self.duration_nsec);
        buf.put_u16(self.idle_timeout);
        pad(buf, 2);
        buf.put_u64(self.packet_count);
        buf.put_u64(self.byte_count);
    }
}

impl Decode for FlowRemoved {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, FLOW_REMOVED_LEN, "flow_removed")?;
        let (flow_match, _) = FlowMatch::decode(buf)?;
        Ok((
            FlowRemoved {
                flow_match,
                cookie: be_u64(buf, 40),
                priority: be_u16(buf, 48),
                reason: FlowRemovedReason::from_u8(buf[50])?,
                duration_sec: be_u32(buf, 52),
                duration_nsec: be_u32(buf, 56),
                idle_timeout: be_u16(buf, 60),
                packet_count: be_u64(buf, 64),
                byte_count: be_u64(buf, 72),
            },
            FLOW_REMOVED_LEN,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let fr = FlowRemoved {
            flow_match: FlowMatch::l3_for_id(9),
            cookie: 0xdead,
            priority: 77,
            reason: FlowRemovedReason::IdleTimeout,
            duration_sec: 12,
            duration_nsec: 345,
            idle_timeout: 10,
            packet_count: 42,
            byte_count: 4200,
        };
        let bytes = fr.to_vec();
        assert_eq!(bytes.len(), FLOW_REMOVED_LEN);
        let (back, used) = FlowRemoved::decode(&bytes).unwrap();
        assert_eq!(used, FLOW_REMOVED_LEN);
        assert_eq!(back, fr);
    }

    #[test]
    fn all_reasons_roundtrip() {
        for r in [
            FlowRemovedReason::IdleTimeout,
            FlowRemovedReason::HardTimeout,
            FlowRemovedReason::Delete,
        ] {
            assert_eq!(FlowRemovedReason::from_u8(r as u8).unwrap(), r);
        }
        assert!(FlowRemovedReason::from_u8(3).is_err());
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(FlowRemoved::decode(&[0u8; 79]).is_err());
    }
}
