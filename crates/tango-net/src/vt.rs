//! The virtual-time side channel: how fleet inference over real TCP
//! reproduces the in-memory testbed bit-for-bit.
//!
//! Inference results depend on virtual timestamps (RTT clustering,
//! installation-time curves), so a wall-clock transport could never
//! match the testbed's `TangoDb` byte-for-byte. Instead, the
//! controller annotates every operation with its virtual *ready* time
//! (an instant, or "when the previous op is acked"), and the agent
//! server — which owns the link model and the per-switch latency RNG,
//! derived exactly as
//! [`chan::attach_streams`](switchsim::chan::attach_streams) derives
//! them — resolves each op on the same
//! [`chan::SwitchCore`](switchsim::chan::SwitchCore) the in-memory
//! testbed times its switches with, and ships the resulting timestamps
//! back with the typed outcome.
//!
//! The annotations ride *inside* the OpenFlow stream as vendor
//! messages ([`Message::Vendor`]) under [`TANGO_VENDOR`], so framing,
//! byte order, and the one-TCP-stream-per-switch discipline all stay
//! protocol-faithful: a [`VtMsg::Submit`] frame — token, ready time,
//! the op's [`OpKind`] as its wire tag, and its length — precedes each
//! op's bytes, and a [`VtMsg::Ack`] frame comes back in place of the
//! op's plain replies (which the server suppresses in virtual-time mode
//! — the controller already gets their meaning in the typed outcome).
//! The server takes the announced bytes whole and leaves checking that
//! they form the op to [`SwitchCore::resolve`](switchsim::chan::SwitchCore::resolve).
//! Both ends read every vt frame with [`VtMsg::next_from`].

use ofwire::codec::Framer;
use ofwire::error::{Result, WireError};
use ofwire::header::MessageType;
use ofwire::message::Message;
use switchsim::chan::OpKind;
use switchsim::control::{OpOutcome, OpResult};
use switchsim::entry::EntryId;
use switchsim::pipeline::Hit;

/// Vendor/experimenter id owning the virtual-time payloads ("TANG").
pub const TANGO_VENDOR: u32 = 0x5441_4e47;

/// A virtual-time side-channel message.
#[derive(Debug, Clone, PartialEq)]
pub enum VtMsg {
    /// First frame on every connection: binds it to a switch.
    Hello {
        /// Datapath id of the switch this connection speaks for.
        dpid: u64,
    },
    /// Announces the next operation: the `wire_len` bytes that follow
    /// form one op of `kind` submitted at virtual time `ready_ns`.
    Submit {
        /// Dense token identifying the op's completion.
        token: u64,
        /// Controller-side virtual ready time, in nanoseconds — or
        /// `u64::MAX` (`READY_ON_PREVIOUS_ACK`): the ack time the server
        /// computed for this connection's previous op. Any other value
        /// past half the clock's range is rejected.
        ready_ns: u64,
        /// What the bytes form.
        kind: OpKind,
        /// Length of the op's bytes: whole OpenFlow frames.
        wire_len: u32,
    },
    /// The server's completion report for one submitted op.
    Ack {
        /// Token from the matching [`VtMsg::Submit`].
        token: u64,
        /// Virtual time the switch finished processing.
        done_ns: u64,
        /// Virtual time the controller observes the result.
        acked_ns: u64,
        /// The typed outcome.
        outcome: OpOutcome,
    },
}

const SUB_HELLO: u8 = 1;
const SUB_SUBMIT: u8 = 2;
const SUB_ACK: u8 = 3;

const OUT_FLOW_MOD_OK: u8 = 0;
const OUT_FLOW_MOD_FULL: u8 = 1;
const OUT_BATCH: u8 = 2;
const OUT_PROBE_MISS: u8 = 3;
const OUT_PROBE_TABLE: u8 = 4;
const OUT_ECHO: u8 = 5;

fn need(data: &[u8], n: usize, what: &'static str) -> Result<()> {
    if data.len() < n {
        return Err(WireError::Truncated {
            what,
            needed: n,
            available: data.len(),
        });
    }
    Ok(())
}

fn u32_at(data: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]])
}

fn u64_at(data: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[off..off + 8]);
    u64::from_be_bytes(b)
}

impl VtMsg {
    /// Wraps this message in its OpenFlow vendor frame.
    #[must_use]
    pub fn to_message(&self) -> Message {
        let mut data = Vec::with_capacity(40);
        match self {
            VtMsg::Hello { dpid } => {
                data.push(SUB_HELLO);
                data.extend_from_slice(&dpid.to_be_bytes());
            }
            VtMsg::Submit {
                token,
                ready_ns,
                kind,
                wire_len,
            } => {
                data.push(SUB_SUBMIT);
                data.extend_from_slice(&token.to_be_bytes());
                data.extend_from_slice(&ready_ns.to_be_bytes());
                data.push(*kind as u8);
                data.extend_from_slice(&wire_len.to_be_bytes());
            }
            VtMsg::Ack {
                token,
                done_ns,
                acked_ns,
                outcome,
            } => {
                data.push(SUB_ACK);
                data.extend_from_slice(&token.to_be_bytes());
                data.extend_from_slice(&done_ns.to_be_bytes());
                data.extend_from_slice(&acked_ns.to_be_bytes());
                encode_outcome(outcome, &mut data);
            }
        }
        Message::Vendor {
            vendor: TANGO_VENDOR,
            data,
        }
    }

    /// Reads the next frame of `input` through `framer` as a virtual-time
    /// message: `Ok(None)` while the frame is still torn, an error for a
    /// frame that is no [`TANGO_VENDOR`] vendor frame or whose payload
    /// does not decode. The frame is read in place.
    pub fn next_from(framer: &mut Framer, input: &mut &[u8]) -> Result<Option<VtMsg>> {
        let Some(frame) = framer.next_frame_from(input)? else {
            return Ok(None);
        };
        if frame.header.msg_type != MessageType::Vendor {
            return Err(WireError::BadEnumValue {
                what: "vt frame type",
                value: u32::from(frame.header.msg_type as u8),
            });
        }
        let body = frame.body();
        need(body, 4, "vendor id")?;
        let vendor = u32_at(body, 0);
        if vendor != TANGO_VENDOR {
            return Err(WireError::BadEnumValue {
                what: "vendor id",
                value: vendor,
            });
        }
        VtMsg::decode(&body[4..]).map(Some)
    }

    /// Parses a vendor payload previously built by [`VtMsg::to_message`].
    pub fn decode(data: &[u8]) -> Result<VtMsg> {
        need(data, 1, "vt subtype")?;
        match data[0] {
            SUB_HELLO => {
                need(data, 9, "vt hello")?;
                Ok(VtMsg::Hello {
                    dpid: u64_at(data, 1),
                })
            }
            SUB_SUBMIT => {
                need(data, 22, "vt submit")?;
                Ok(VtMsg::Submit {
                    token: u64_at(data, 1),
                    ready_ns: u64_at(data, 9),
                    kind: OpKind::from_u8(data[17]).ok_or(WireError::BadEnumValue {
                        what: "vt op kind",
                        value: u32::from(data[17]),
                    })?,
                    wire_len: u32_at(data, 18),
                })
            }
            SUB_ACK => {
                need(data, 26, "vt ack")?;
                Ok(VtMsg::Ack {
                    token: u64_at(data, 1),
                    done_ns: u64_at(data, 9),
                    acked_ns: u64_at(data, 17),
                    outcome: decode_outcome(&data[25..])?,
                })
            }
            other => Err(WireError::UnknownMessageType(other)),
        }
    }
}

fn encode_outcome(outcome: &OpOutcome, data: &mut Vec<u8>) {
    match outcome {
        OpOutcome::FlowMod(OpResult::Ok) => data.push(OUT_FLOW_MOD_OK),
        OpOutcome::FlowMod(OpResult::TableFull) => data.push(OUT_FLOW_MOD_FULL),
        OpOutcome::Batch { ok, failed } => {
            data.push(OUT_BATCH);
            data.extend_from_slice(&(*ok as u32).to_be_bytes());
            data.extend_from_slice(&(*failed as u32).to_be_bytes());
        }
        OpOutcome::Probe(Hit::Miss) => data.push(OUT_PROBE_MISS),
        OpOutcome::Probe(Hit::Table { level, entry }) => {
            data.push(OUT_PROBE_TABLE);
            data.extend_from_slice(&(*level as u32).to_be_bytes());
            data.extend_from_slice(&entry.0.to_be_bytes());
        }
        OpOutcome::Echo => data.push(OUT_ECHO),
    }
}

fn decode_outcome(data: &[u8]) -> Result<OpOutcome> {
    need(data, 1, "vt outcome")?;
    Ok(match data[0] {
        OUT_FLOW_MOD_OK => OpOutcome::FlowMod(OpResult::Ok),
        OUT_FLOW_MOD_FULL => OpOutcome::FlowMod(OpResult::TableFull),
        OUT_BATCH => {
            need(data, 9, "vt batch outcome")?;
            OpOutcome::Batch {
                ok: u32_at(data, 1) as usize,
                failed: u32_at(data, 5) as usize,
            }
        }
        OUT_PROBE_MISS => OpOutcome::Probe(Hit::Miss),
        OUT_PROBE_TABLE => {
            need(data, 13, "vt probe outcome")?;
            OpOutcome::Probe(Hit::Table {
                level: u32_at(data, 1) as usize,
                entry: EntryId(u64_at(data, 5)),
            })
        }
        OUT_ECHO => OpOutcome::Echo,
        other => return Err(WireError::UnknownMessageType(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofwire::types::Xid;

    /// Reads one frame of `bytes` as a vt message.
    fn read(bytes: &[u8]) -> Result<Option<VtMsg>> {
        let mut input = bytes;
        let msg = VtMsg::next_from(&mut Framer::new(), &mut input);
        assert!(input.is_empty(), "one frame, read whole");
        msg
    }

    fn roundtrip(msg: VtMsg) {
        let frame = msg.to_message().to_bytes(Xid(0));
        assert_eq!(read(&frame).unwrap(), Some(msg));
    }

    #[test]
    fn every_vt_message_roundtrips() {
        roundtrip(VtMsg::Hello { dpid: 42 });
        for kind in [OpKind::FlowMod, OpKind::Batch, OpKind::Probe, OpKind::Echo] {
            roundtrip(VtMsg::Submit {
                token: u64::MAX - 3,
                ready_ns: 123_456_789,
                kind,
                wire_len: 18_504,
            });
        }
        for outcome in [
            OpOutcome::FlowMod(OpResult::Ok),
            OpOutcome::FlowMod(OpResult::TableFull),
            OpOutcome::Batch { ok: 7, failed: 3 },
            OpOutcome::Probe(Hit::Miss),
            OpOutcome::Probe(Hit::Table {
                level: 1,
                entry: EntryId(0xdead_beef_cafe),
            }),
            OpOutcome::Echo,
        ] {
            roundtrip(VtMsg::Ack {
                token: 9,
                done_ns: 1_000,
                acked_ns: 2_000,
                outcome,
            });
        }
    }

    #[test]
    fn junk_payloads_are_typed_errors() {
        assert!(VtMsg::decode(&[]).is_err());
        assert!(VtMsg::decode(&[99]).is_err());
        assert!(VtMsg::decode(&[SUB_SUBMIT, 0, 0]).is_err());
        let Message::Vendor { mut data, .. } = VtMsg::Submit {
            token: 1,
            ready_ns: 2,
            kind: OpKind::Probe,
            wire_len: 3,
        }
        .to_message() else {
            panic!("vt messages ride vendor frames");
        };
        let foreign = Message::Vendor {
            vendor: TANGO_VENDOR + 1,
            data: data.clone(),
        };
        assert!(read(&foreign.to_bytes(Xid(0))).is_err());
        assert!(read(&Message::EchoRequest(data.clone()).to_bytes(Xid(0))).is_err());
        data[17] = 0;
        assert_eq!(
            VtMsg::decode(&data),
            Err(WireError::BadEnumValue {
                what: "vt op kind",
                value: 0
            })
        );
    }
}
