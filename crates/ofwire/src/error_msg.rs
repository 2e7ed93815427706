//! The `error` message a switch sends when it rejects a request.
//!
//! The size-probing algorithm (paper §5.2) relies on exactly one of these
//! behaviours: "We continue installing new flows until the OpenFlow API
//! rejects the call, which indicates that we have exceeded the total cache
//! size." The rejection arrives as `FlowModFailed/AllTablesFull`.

use crate::codec::{be_u16, Decode, Encode};
use crate::error::{ensure, Result, WireError};
use bytes::BufMut;

/// High-level error class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorType {
    /// Hello protocol failed.
    HelloFailed = 0,
    /// Request could not be parsed.
    BadRequest = 1,
    /// An action was invalid.
    BadAction = 2,
    /// A `flow_mod` could not be applied.
    FlowModFailed = 3,
    /// A port-mod failed (kept for wire completeness).
    PortModFailed = 4,
    /// A queue operation failed.
    QueueOpFailed = 5,
}

impl ErrorType {
    /// Parses a raw error-type discriminant.
    pub fn from_u16(v: u16) -> Result<ErrorType> {
        Ok(match v {
            0 => ErrorType::HelloFailed,
            1 => ErrorType::BadRequest,
            2 => ErrorType::BadAction,
            3 => ErrorType::FlowModFailed,
            4 => ErrorType::PortModFailed,
            5 => ErrorType::QueueOpFailed,
            other => {
                return Err(WireError::BadEnumValue {
                    what: "error type",
                    value: other as u32,
                })
            }
        })
    }
}

/// `FlowModFailed` error codes (OpenFlow 1.0 numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ErrorCode(pub u16);

impl ErrorCode {
    /// Flow not added because all tables are full — the signal Algorithm 1
    /// terminates its doubling phase on.
    pub const ALL_TABLES_FULL: ErrorCode = ErrorCode(0);
    /// Overlapping entry rejected because CHECK_OVERLAP was set.
    pub const OVERLAP: ErrorCode = ErrorCode(1);
    /// Permissions error.
    pub const EPERM: ErrorCode = ErrorCode(2);
    /// Unsupported timeout combination.
    pub const BAD_EMERG_TIMEOUT: ErrorCode = ErrorCode(3);
    /// Unsupported command.
    pub const BAD_COMMAND: ErrorCode = ErrorCode(4);
}

/// An error notification, echoing (a prefix of) the offending request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorMsg {
    /// Error class.
    pub err_type: ErrorType,
    /// Class-specific code.
    pub code: ErrorCode,
    /// At least 64 bytes of the request that triggered the error.
    pub data: Vec<u8>,
}

impl ErrorMsg {
    /// The table-full rejection for a flow-mod.
    #[must_use]
    pub fn table_full(request_prefix: Vec<u8>) -> ErrorMsg {
        ErrorMsg {
            err_type: ErrorType::FlowModFailed,
            code: ErrorCode::ALL_TABLES_FULL,
            data: request_prefix,
        }
    }

    /// True if this is the table-full rejection.
    #[must_use]
    pub fn is_table_full(&self) -> bool {
        self.err_type == ErrorType::FlowModFailed && self.code == ErrorCode::ALL_TABLES_FULL
    }
}

impl Encode for ErrorMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u16(self.err_type as u16);
        buf.put_u16(self.code.0);
        buf.put_slice(&self.data);
    }
}

impl Decode for ErrorMsg {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, 4, "error message")?;
        Ok((
            ErrorMsg {
                err_type: ErrorType::from_u16(be_u16(buf, 0))?,
                code: ErrorCode(be_u16(buf, 2)),
                data: buf[4..].to_vec(),
            },
            buf.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let e = ErrorMsg::table_full(vec![1, 2, 3]);
        let (back, _) = ErrorMsg::decode(&e.to_vec()).unwrap();
        assert_eq!(back, e);
        assert!(back.is_table_full());
    }

    #[test]
    fn non_table_full() {
        let e = ErrorMsg {
            err_type: ErrorType::BadRequest,
            code: ErrorCode(1),
            data: vec![],
        };
        assert!(!e.is_table_full());
        let (back, _) = ErrorMsg::decode(&e.to_vec()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn all_types_parse() {
        for t in 0u16..=5 {
            assert!(ErrorType::from_u16(t).is_ok());
        }
        assert!(ErrorType::from_u16(6).is_err());
    }
}
