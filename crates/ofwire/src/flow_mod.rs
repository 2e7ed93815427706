//! The `flow_mod` message: add, modify, and delete flow-table entries.
//!
//! This is the workhorse of the whole system — Tango patterns are, per the
//! paper, "a sequence of standard OpenFlow flow mod commands and a
//! corresponding data traffic pattern".

use crate::action::{Action, ActionList};
use crate::codec::{be_u16, be_u32, be_u64, Decode, Encode};
use crate::error::{ensure, Result, WireError};
use crate::flow_match::{FlowMatch, OFP_MATCH_LEN};
use crate::header::{MessageType, OFP_HEADER_LEN, OFP_VERSION};
use crate::types::{BufferId, PortNo, Xid};
use bytes::BufMut;

/// Fixed-size portion of the flow_mod body (match + fields, no actions).
pub const FLOW_MOD_FIXED_LEN: usize = 64;

/// The flow-table operation to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum FlowModCommand {
    /// Insert a new entry.
    Add = 0,
    /// Modify the actions of all entries matched by `match`.
    Modify = 1,
    /// Modify the actions of the entry that *strictly* equals `match`
    /// (same wildcards and priority).
    ModifyStrict = 2,
    /// Delete all entries matched by `match`.
    Delete = 3,
    /// Delete the strictly-matching entry.
    DeleteStrict = 4,
}

impl FlowModCommand {
    /// Parses a raw command discriminant.
    pub fn from_u16(v: u16) -> Result<FlowModCommand> {
        Ok(match v {
            0 => FlowModCommand::Add,
            1 => FlowModCommand::Modify,
            2 => FlowModCommand::ModifyStrict,
            3 => FlowModCommand::Delete,
            4 => FlowModCommand::DeleteStrict,
            other => {
                return Err(WireError::BadEnumValue {
                    what: "flow_mod command",
                    value: other as u32,
                })
            }
        })
    }

    /// True for the two delete variants.
    #[must_use]
    pub fn is_delete(self) -> bool {
        matches!(self, FlowModCommand::Delete | FlowModCommand::DeleteStrict)
    }

    /// True for the two modify variants.
    #[must_use]
    pub fn is_modify(self) -> bool {
        matches!(self, FlowModCommand::Modify | FlowModCommand::ModifyStrict)
    }
}

/// `flow_mod` flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowModFlags(pub u16);

impl FlowModFlags {
    /// Ask for a `flow_removed` message when the entry expires.
    pub const SEND_FLOW_REM: FlowModFlags = FlowModFlags(1 << 0);
    /// Refuse to add if the rule overlaps a conflicting entry.
    pub const CHECK_OVERLAP: FlowModFlags = FlowModFlags(1 << 1);
    /// Process via emergency flow table (unused here, kept for fidelity).
    pub const EMERG: FlowModFlags = FlowModFlags(1 << 2);

    /// Bitwise test.
    #[must_use]
    pub fn contains(self, other: FlowModFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

/// A flow-table modification request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowMod {
    /// Which packets the entry matches.
    pub flow_match: FlowMatch,
    /// Opaque controller cookie, echoed in stats and removals.
    pub cookie: u64,
    /// Operation.
    pub command: FlowModCommand,
    /// Seconds of inactivity before expiry (0 = never).
    pub idle_timeout: u16,
    /// Seconds before unconditional expiry (0 = never).
    pub hard_timeout: u16,
    /// Matching precedence: higher wins. Paper experiments sweep this.
    pub priority: u16,
    /// Buffered packet to apply the new actions to, if any.
    pub buffer_id: BufferId,
    /// For deletes: restrict to entries with this output port
    /// ([`PortNo::NONE`] = no restriction).
    pub out_port: PortNo,
    /// Option flags.
    pub flags: FlowModFlags,
    /// Actions for matching packets (empty = drop).
    pub actions: ActionList,
}

impl FlowMod {
    /// Every constructor's shape: zero cookie and timeouts, no buffer, no
    /// port restriction, no flags.
    fn new(
        command: FlowModCommand,
        flow_match: FlowMatch,
        priority: u16,
        actions: ActionList,
    ) -> FlowMod {
        FlowMod {
            flow_match,
            cookie: 0,
            command,
            idle_timeout: 0,
            hard_timeout: 0,
            priority,
            buffer_id: BufferId::NO_BUFFER,
            out_port: PortNo::NONE,
            flags: FlowModFlags::default(),
            actions,
        }
    }

    /// An `Add` with the given match and priority, forwarding to port 1.
    ///
    /// The default single output action keeps probe rules realistic — a
    /// rule with no actions is a drop rule, which some switches place in
    /// a different table.
    #[must_use]
    pub fn add(flow_match: FlowMatch, priority: u16) -> FlowMod {
        FlowMod::add_with_actions(flow_match, priority, Action::output(1))
    }

    /// An `Add` with the given match, priority and action list.
    #[must_use]
    pub fn add_with_actions(
        flow_match: FlowMatch,
        priority: u16,
        actions: impl Into<ActionList>,
    ) -> FlowMod {
        FlowMod::new(FlowModCommand::Add, flow_match, priority, actions.into())
    }

    /// A strict modify of the given match/priority, rewriting the action
    /// list.
    #[must_use]
    pub fn modify_strict(
        flow_match: FlowMatch,
        priority: u16,
        actions: impl Into<ActionList>,
    ) -> FlowMod {
        FlowMod::new(
            FlowModCommand::ModifyStrict,
            flow_match,
            priority,
            actions.into(),
        )
    }

    /// A strict delete of the given match/priority.
    #[must_use]
    pub fn delete_strict(flow_match: FlowMatch, priority: u16) -> FlowMod {
        FlowMod::new(
            FlowModCommand::DeleteStrict,
            flow_match,
            priority,
            ActionList::new(),
        )
    }

    /// A non-strict delete-everything-matching request.
    #[must_use]
    pub fn delete_all() -> FlowMod {
        FlowMod::new(
            FlowModCommand::Delete,
            FlowMatch::any(),
            0,
            ActionList::new(),
        )
    }

    /// Builder-style: replace the action list with a single action.
    #[must_use]
    pub fn with_action(mut self, action: Action) -> FlowMod {
        self.actions = action.into();
        self
    }

    /// Builder-style: set the cookie.
    #[must_use]
    pub fn with_cookie(mut self, cookie: u64) -> FlowMod {
        self.cookie = cookie;
        self
    }

    /// Builder-style: set flags.
    #[must_use]
    pub fn with_flags(mut self, flags: FlowModFlags) -> FlowMod {
        self.flags = flags;
        self
    }

    /// Encoded body length (header excluded).
    #[must_use]
    pub fn body_len(&self) -> usize {
        FLOW_MOD_FIXED_LEN + Action::list_len(&self.actions)
    }

    /// Appends the complete frame (header + body) with the given xid to
    /// `out` — the flow-mod frame encoder, which
    /// [`Message::encode_frame_into`](crate::message::Message::encode_frame_into)
    /// and the channel codec both call. Header and fixed body are
    /// assembled on the stack and appended once; the action TLVs follow.
    pub fn encode_frame_into(&self, xid: Xid, out: &mut Vec<u8>) {
        let mut b = [0u8; OFP_HEADER_LEN + FLOW_MOD_FIXED_LEN];
        let (header, body) = b.split_at_mut(OFP_HEADER_LEN);
        header[0] = OFP_VERSION;
        header[1] = MessageType::FlowMod as u8;
        // Truncating, like the generic path's patched-in byte count.
        let total = (OFP_HEADER_LEN + self.body_len()) as u16;
        header[2..4].copy_from_slice(&total.to_be_bytes());
        header[4..8].copy_from_slice(&xid.0.to_be_bytes());
        // Offsets as `FlowMod::decode` reads them.
        let (m, _) = body
            .split_first_chunk_mut::<OFP_MATCH_LEN>()
            .expect("64 bytes hold a 40-byte match");
        self.flow_match.write_to(m);
        body[40..48].copy_from_slice(&self.cookie.to_be_bytes());
        body[48..50].copy_from_slice(&(self.command as u16).to_be_bytes());
        body[50..52].copy_from_slice(&self.idle_timeout.to_be_bytes());
        body[52..54].copy_from_slice(&self.hard_timeout.to_be_bytes());
        body[54..56].copy_from_slice(&self.priority.to_be_bytes());
        body[56..60].copy_from_slice(&self.buffer_id.0.to_be_bytes());
        body[60..62].copy_from_slice(&self.out_port.0.to_be_bytes());
        body[62..64].copy_from_slice(&self.flags.0.to_be_bytes());
        out.extend_from_slice(&b);
        Action::encode_list(&self.actions, out);
    }
}

impl Encode for FlowMod {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.flow_match.encode(buf);
        buf.put_u64(self.cookie);
        buf.put_u16(self.command as u16);
        buf.put_u16(self.idle_timeout);
        buf.put_u16(self.hard_timeout);
        buf.put_u16(self.priority);
        buf.put_u32(self.buffer_id.0);
        buf.put_u16(self.out_port.0);
        buf.put_u16(self.flags.0);
        Action::encode_list(&self.actions, buf);
    }
}

impl Decode for FlowMod {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, FLOW_MOD_FIXED_LEN, "flow_mod")?;
        let (flow_match, m) = FlowMatch::decode(buf)?;
        debug_assert_eq!(m, 40);
        let cookie = be_u64(buf, 40);
        let command = FlowModCommand::from_u16(be_u16(buf, 48))?;
        let idle_timeout = be_u16(buf, 50);
        let hard_timeout = be_u16(buf, 52);
        let priority = be_u16(buf, 54);
        let buffer_id = BufferId(be_u32(buf, 56));
        let out_port = PortNo(be_u16(buf, 60));
        let flags = FlowModFlags(be_u16(buf, 62));
        let actions_len = buf.len() - FLOW_MOD_FIXED_LEN;
        let (actions, used) = Action::decode_list(&buf[FLOW_MOD_FIXED_LEN..], actions_len)?;
        Ok((
            FlowMod {
                flow_match,
                cookie,
                command,
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                out_port,
                flags,
                actions,
            },
            FLOW_MOD_FIXED_LEN + used,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_roundtrip() {
        let fm = FlowMod::add(FlowMatch::l3_for_id(42), 500)
            .with_cookie(0xfeed)
            .with_flags(FlowModFlags::CHECK_OVERLAP);
        let bytes = fm.to_vec();
        assert_eq!(bytes.len(), fm.body_len());
        let (back, used) = FlowMod::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, fm);
    }

    #[test]
    fn delete_roundtrip_no_actions() {
        let fm = FlowMod::delete_all();
        let bytes = fm.to_vec();
        assert_eq!(bytes.len(), FLOW_MOD_FIXED_LEN);
        let (back, _) = FlowMod::decode(&bytes).unwrap();
        assert_eq!(back, fm);
    }

    #[test]
    fn modify_strict_roundtrip() {
        let fm = FlowMod::modify_strict(
            FlowMatch::l2_for_id(9),
            77,
            vec![Action::output(3), Action::SetNwTos(4)],
        );
        let (back, _) = FlowMod::decode(&fm.to_vec()).unwrap();
        assert_eq!(back, fm);
        assert!(back.command.is_modify());
    }

    /// Frames recorded from the generic header + `Encode` + patched-length
    /// path before the block encoder replaced it.
    #[test]
    fn frame_encoder_bytes_are_pinned() {
        use crate::types::MacAddr;
        fn hex(b: &[u8]) -> String {
            b.iter().map(|x| format!("{x:02x}")).collect()
        }
        let add = FlowMod::add(FlowMatch::l3_for_id(42), 500)
            .with_cookie(0xfeed)
            .with_flags(FlowModFlags::CHECK_OVERLAP);
        let modify = FlowMod::modify_strict(
            FlowMatch::l2_for_id(9),
            77,
            vec![Action::output(3), Action::SetNwTos(4)],
        );
        let delete = FlowMod::delete_strict(FlowMatch::l2l3_for_id(7), 10);
        let mut spill = FlowMod::add_with_actions(
            FlowMatch::any(),
            1,
            vec![
                Action::SetDlDst(MacAddr([1, 2, 3, 4, 5, 6])),
                Action::SetVlanVid(100),
                Action::Enqueue {
                    port: PortNo(2),
                    queue_id: 7,
                },
            ],
        );
        spill.idle_timeout = 5;
        spill.hard_timeout = 60;
        spill.buffer_id = BufferId(0x0102_0304);
        spill.out_port = PortNo(9);
        let recorded = [
            (add, 1, "010e005000000001003020ef000000000000000000000000000000000000080000000000000000000a00002a00000000000000000000feed00000000000001f4ffffffffffff00020000000800010000"),
            (modify, 0xdead_beef, "010e0058deadbeef003820f70000000000000000020000000009000000000000000000000000000000000000000000000000000000000000000200000000004dffffffffffff000000000008000300000008000804000000"),
            (delete, 0, "010e004800000000003020e7000000000000000002000000000700000000080000000000000000000a000007000000000000000000000000000400000000000affffffffffff0000"),
            (spill, 7, "010e007000000007003820ff000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005003c00010102030400090000000500100102030405060000000000000001000800640000000b0010000200000000000000000007"),
        ];
        for (fm, xid, want) in recorded {
            let mut frame = Vec::new();
            fm.encode_frame_into(Xid(xid), &mut frame);
            assert_eq!(hex(&frame), want, "{fm:?}");
        }
    }

    #[test]
    fn command_parsing() {
        for c in [
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::ModifyStrict,
            FlowModCommand::Delete,
            FlowModCommand::DeleteStrict,
        ] {
            assert_eq!(FlowModCommand::from_u16(c as u16).unwrap(), c);
        }
        assert!(FlowModCommand::from_u16(9).is_err());
        assert!(FlowModCommand::Delete.is_delete());
        assert!(!FlowModCommand::Add.is_delete());
    }

    #[test]
    fn flags_contains() {
        let f = FlowModFlags(0b11);
        assert!(f.contains(FlowModFlags::SEND_FLOW_REM));
        assert!(f.contains(FlowModFlags::CHECK_OVERLAP));
        assert!(!f.contains(FlowModFlags::EMERG));
    }
}
