//! Encoding/decoding traits and a stream framer.
//!
//! Every wire structure implements [`Encode`] (append to the caller's
//! `Vec<u8>`) and [`Decode`] (parse from a byte slice, reporting how much
//! was consumed). The [`Framer`] splits an arbitrarily chunked byte
//! stream — as delivered by a TCP socket or the in-memory simulated
//! channel — into complete frames.

use crate::error::{Result, WireError};
use crate::header::{Header, OFP_HEADER_LEN};
use crate::message::Message;
use bytes::BufMut;

/// Serialize a structure by appending its wire form to `buf`.
pub trait Encode {
    /// Appends the wire encoding of `self` to `buf`, reusing its
    /// allocation.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience: encode into a fresh buffer.
    fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Deserialize a structure from the front of a byte slice.
pub trait Decode: Sized {
    /// Parses one value from the front of `buf`, returning it together
    /// with the number of bytes consumed.
    fn decode(buf: &[u8]) -> Result<(Self, usize)>;
}

/// Reads a big-endian `u16` at `off` (caller must have length-checked).
pub(crate) fn be_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

/// Reads a big-endian `u32` at `off` (caller must have length-checked).
pub(crate) fn be_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Reads a big-endian `u64` at `off` (caller must have length-checked).
pub(crate) fn be_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_be_bytes(b)
}

/// Appends `n` zero bytes of padding.
pub(crate) fn pad(buf: &mut Vec<u8>, n: usize) {
    buf.put_bytes(0, n);
}

/// One frame split off a byte stream by [`Framer::next_frame_from`]: its
/// parsed header and its bytes, borrowed from wherever they already
/// were. The borrow ends at the next call on the framer, so a holder
/// acts on the frame — decodes it, reads it in place, copies what it
/// keeps — before asking for another.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The parsed header (`header.length == bytes.len()`).
    pub header: Header,
    /// The whole frame as it arrived, header included.
    pub bytes: &'a [u8],
}

impl<'a> Frame<'a> {
    /// The frame minus its header.
    #[must_use]
    pub fn body(&self) -> &'a [u8] {
        &self.bytes[OFP_HEADER_LEN..]
    }

    /// Decodes the body into an owned [`Message`].
    #[inline]
    pub fn decode(&self) -> Result<Message> {
        Message::decode_body(&self.header, self.body())
    }
}

/// Incremental frame splitter for a byte stream carrying OpenFlow
/// messages.
///
/// Bytes enter by one door: hand each read to
/// [`Framer::next_frame_from`], or to [`Framer::next_message_from`],
/// which is that plus a decode. Malformed input surfaces as an error and
/// poisons the framer (stream framing cannot be resynchronized once
/// lengths are wrong).
///
/// Only a frame torn across reads is stored, in a plain `Vec<u8>` with a
/// drain cursor, so the buffer never holds more than one frame. It is
/// cleared when the next torn frame is stored, never while a returned
/// [`Frame`] may still point into it.
#[derive(Debug, Default, Clone)]
pub struct Framer {
    buf: Vec<u8>,
    /// Bytes of `buf` before this offset are already consumed.
    cursor: usize,
    poisoned: bool,
}

impl Framer {
    /// Creates an empty framer.
    #[must_use]
    pub fn new() -> Framer {
        Framer::default()
    }

    /// Number of buffered, not-yet-consumed bytes.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.cursor
    }

    /// Marks the stream unparseable and hands `e` back. The framer does
    /// this itself for a bad header or a body [`Framer::next_message_from`]
    /// cannot decode; a caller that decodes borrowed frames on its own
    /// does it when a body turns out malformed, so that the rest of the
    /// stream is refused either way.
    pub fn poison(&mut self, e: WireError) -> WireError {
        self.poisoned = true;
        e
    }

    /// Moves up to `want` bytes from the front of `input` into the
    /// buffer.
    fn take_from(&mut self, input: &mut &[u8], want: usize) {
        let (taken, rest) = input.split_at(want.min(input.len()));
        self.buf.extend_from_slice(taken);
        *input = rest;
    }

    /// Takes whatever partial-frame bytes are buffered, leaving the
    /// framer empty. Transports use this to hand a stream over to a
    /// different consumer (e.g. from a handshake parser to the agent)
    /// without losing a torn frame at the switchover point.
    #[must_use]
    pub fn take_pending(&mut self) -> Vec<u8> {
        let out = self.buf[self.cursor..].to_vec();
        self.buf.clear();
        self.cursor = 0;
        out
    }

    /// Attempts to extract the next complete message, consuming from
    /// `input` before touching the internal buffer: one
    /// [`Framer::next_frame_from`] plus a decode of the frame it found.
    /// `input` is advanced past whatever was consumed; call in a loop
    /// until it returns `Ok(None)` with `input` empty.
    pub fn next_message_from(&mut self, input: &mut &[u8]) -> Result<Option<(Header, Message)>> {
        let Some(frame) = self.next_frame_from(input)? else {
            return Ok(None);
        };
        let header = frame.header;
        match frame.decode() {
            Ok(msg) => Ok(Some((header, msg))),
            Err(e) => Err(self.poison(e)),
        }
    }

    /// Splits the next complete frame off the stream without copying or
    /// decoding it.
    ///
    /// While the internal buffer is empty — the steady state for a
    /// request/response control channel — a whole frame is returned as a
    /// slice of `input` itself. A frame torn across reads is completed
    /// in the internal buffer from exactly as many of `input`'s bytes as
    /// it needs and returned as a slice of that buffer; the rest of
    /// `input` goes back through the zero-copy path, so only torn-frame
    /// bytes are ever copied no matter how the stream is chunked.
    /// `input` is advanced past whatever was consumed; call in a loop
    /// until it returns `Ok(None)` with `input` empty.
    ///
    /// Only the header is checked here. A caller that finds the body
    /// malformed reports it through [`Framer::poison`].
    // `#[inline]` here, on `Frame::decode` and on `Message::decode_body`:
    // the per-frame loops that call them live in other crates (the agent,
    // the transports), and without the hint the split costs the flow-mod
    // path a call and a by-memory `Message` per frame (measured: 62 vs
    // 89 ns per decoded frame).
    #[inline]
    pub fn next_frame_from<'f, 'i: 'f>(
        &'f mut self,
        input: &mut &'i [u8],
    ) -> Result<Option<Frame<'f>>> {
        if self.poisoned {
            return Err(WireError::BadLength {
                what: "poisoned framer",
                len: 0,
            });
        }
        if self.pending() > 0 {
            // Mid-frame: take only what completes the torn frame. First
            // finish the header (to learn the frame length), then the
            // body; if `input` runs out first, wait for the next read.
            if self.pending() < OFP_HEADER_LEN {
                self.take_from(input, OFP_HEADER_LEN - self.pending());
                if self.pending() < OFP_HEADER_LEN {
                    return Ok(None);
                }
            }
            let header = match Header::peek(&self.buf[self.cursor..]) {
                Ok(h) => h,
                Err(e) => return Err(self.poison(e)),
            };
            let total = header.length as usize;
            if self.pending() < total {
                self.take_from(input, total - self.pending());
                if self.pending() < total {
                    return Ok(None);
                }
            }
            let start = self.cursor;
            self.cursor += total;
            return Ok(Some(Frame {
                header,
                bytes: &self.buf[start..self.cursor],
            }));
        }
        if input.len() >= OFP_HEADER_LEN {
            let header = match Header::peek(input) {
                Ok(h) => h,
                Err(e) => return Err(self.poison(e)),
            };
            if input.len() >= header.length as usize {
                let (bytes, rest) = input.split_at(header.length as usize);
                *input = rest;
                return Ok(Some(Frame { header, bytes }));
            }
        }
        // A torn header or torn frame: stash it for the next read. The
        // buffer holds nothing unconsumed, and the frame last handed out
        // of it is done with.
        self.buf.clear();
        self.cursor = 0;
        self.take_from(input, input.len());
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Xid;

    /// Drains `input` through `next_message_from` the way the agent does.
    fn drain_from(framer: &mut Framer, mut input: &[u8]) -> Vec<(Header, Message)> {
        let mut got = Vec::new();
        while let Some(pair) = framer.next_message_from(&mut input).unwrap() {
            got.push(pair);
        }
        assert!(input.is_empty(), "Ok(None) must mean input fully consumed");
        got
    }

    #[test]
    fn framer_handles_split_delivery() {
        let mut framer = Framer::new();
        let m1 = Message::EchoRequest(vec![1, 2, 3]);
        let m2 = Message::BarrierRequest;
        let b1 = m1.to_bytes(Xid(1));
        let b2 = m2.to_bytes(Xid(2));

        // Deliver byte-by-byte across both messages.
        let all: Vec<u8> = b1.iter().chain(b2.iter()).copied().collect();
        let mut got = Vec::new();
        for byte in all {
            got.extend(drain_from(&mut framer, &[byte]));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.xid, Xid(1));
        assert_eq!(got[0].1, m1);
        assert_eq!(got[1].0.xid, Xid(2));
        assert_eq!(got[1].1, m2);
        assert_eq!(framer.pending(), 0);
    }

    #[test]
    fn incomplete_header_returns_none() {
        let mut framer = Framer::new();
        let mut input: &[u8] = &[1, 2, 3];
        assert_eq!(framer.next_message_from(&mut input).unwrap(), None);
        assert!(input.is_empty());
        assert_eq!(framer.pending(), 3);
    }

    #[test]
    fn next_message_from_decodes_whole_frames_without_buffering() {
        let mut framer = Framer::new();
        let m1 = Message::EchoRequest(vec![9, 9]);
        let m2 = Message::BarrierRequest;
        let mut bytes = m1.to_bytes(Xid(7));
        bytes.extend_from_slice(&m2.to_bytes(Xid(8)));
        let got = drain_from(&mut framer, &bytes);
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].0.xid, &got[0].1), (Xid(7), &m1));
        assert_eq!((got[1].0.xid, &got[1].1), (Xid(8), &m2));
        // Whole frames never touched the internal buffer.
        assert_eq!(framer.pending(), 0);
    }

    #[test]
    fn next_message_from_stashes_and_resumes_partial_frames() {
        let mut framer = Framer::new();
        let m1 = Message::EchoRequest(vec![1, 2, 3, 4]);
        let m2 = Message::BarrierReply;
        let mut bytes = m1.to_bytes(Xid(1));
        bytes.extend_from_slice(&m2.to_bytes(Xid(2)));

        // Deliver in awkward chunk sizes spanning header and body splits.
        let mut got = Vec::new();
        for chunk in bytes.chunks(5) {
            got.extend(drain_from(&mut framer, chunk));
        }
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].0.xid, &got[0].1), (Xid(1), &m1));
        assert_eq!((got[1].0.xid, &got[1].1), (Xid(2), &m2));
        assert_eq!(framer.pending(), 0);
    }

    #[test]
    fn next_message_from_poisons_on_bad_version() {
        let mut framer = Framer::new();
        let mut input: &[u8] = &[0x09, 0, 0, 8, 0, 0, 0, 0];
        assert!(framer.next_message_from(&mut input).is_err());
        let good = Message::BarrierRequest.to_bytes(Xid(0));
        let mut input: &[u8] = &good;
        assert!(framer.next_message_from(&mut input).is_err());
    }
}
