//! Wire-level error type shared by every decoder in the crate.

use std::fmt;

/// Result alias used throughout `ofwire`.
pub type Result<T> = std::result::Result<T, WireError>;

/// Errors that can occur while decoding (or framing) OpenFlow messages.
///
/// Encoding is infallible by construction: every representable value has a
/// wire form, and writers append to the caller's `Vec<u8>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the fixed-size structure was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The version byte in the header is not [`crate::header::OFP_VERSION`].
    BadVersion(u8),
    /// The message-type byte is not one this crate understands.
    UnknownMessageType(u8),
    /// A discriminant inside a message body had an unassigned value.
    BadEnumValue {
        /// Which field held the bad value.
        what: &'static str,
        /// The offending value, widened for display.
        value: u32,
    },
    /// The header length field is nonsensical (shorter than the header,
    /// or inconsistent with the body that follows).
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The length field observed on the wire.
        len: usize,
    },
    /// An action TLV declared a length that is not valid for its type.
    BadActionLength {
        /// Action type discriminant.
        action_type: u16,
        /// Declared TLV length.
        len: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated {what}: needed {needed} bytes, had {available}"
            ),
            WireError::BadVersion(v) => write!(f, "unsupported OpenFlow version {v:#04x}"),
            WireError::UnknownMessageType(t) => write!(f, "unknown message type {t}"),
            WireError::BadEnumValue { what, value } => {
                write!(f, "invalid value {value} for {what}")
            }
            WireError::BadLength { what, len } => {
                write!(f, "invalid length {len} while decoding {what}")
            }
            WireError::BadActionLength { action_type, len } => {
                write!(f, "invalid length {len} for action type {action_type}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Checks that `buf` holds at least `needed` bytes, returning a
/// [`WireError::Truncated`] that names `what` otherwise.
pub(crate) fn ensure(buf: &[u8], needed: usize, what: &'static str) -> Result<()> {
    if buf.len() < needed {
        Err(WireError::Truncated {
            what,
            needed,
            available: buf.len(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = WireError::Truncated {
            what: "header",
            needed: 8,
            available: 3,
        };
        assert_eq!(e.to_string(), "truncated header: needed 8 bytes, had 3");
        assert_eq!(
            WireError::BadVersion(9).to_string(),
            "unsupported OpenFlow version 0x09"
        );
        assert_eq!(
            WireError::UnknownMessageType(250).to_string(),
            "unknown message type 250"
        );
    }

    #[test]
    fn ensure_checks_length() {
        assert!(ensure(&[0u8; 4], 4, "x").is_ok());
        let err = ensure(&[0u8; 3], 4, "x").unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                what: "x",
                needed: 4,
                available: 3
            }
        );
    }
}
