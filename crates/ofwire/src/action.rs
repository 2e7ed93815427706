//! OpenFlow 1.0 action TLVs.
//!
//! Actions are carried in `flow_mod` and `packet_out` messages as a
//! sequence of type-length-value structures, each padded to a multiple of
//! 8 bytes.

use crate::codec::{be_u16, be_u32, pad, Decode, Encode};
use crate::error::{ensure, Result, WireError};
use crate::types::{MacAddr, PortNo};
use bytes::BufMut;

const OFPAT_OUTPUT: u16 = 0;
const OFPAT_SET_VLAN_VID: u16 = 1;
const OFPAT_SET_VLAN_PCP: u16 = 2;
const OFPAT_STRIP_VLAN: u16 = 3;
const OFPAT_SET_DL_SRC: u16 = 4;
const OFPAT_SET_DL_DST: u16 = 5;
const OFPAT_SET_NW_SRC: u16 = 6;
const OFPAT_SET_NW_DST: u16 = 7;
const OFPAT_SET_NW_TOS: u16 = 8;
const OFPAT_SET_TP_SRC: u16 = 9;
const OFPAT_SET_TP_DST: u16 = 10;
const OFPAT_ENQUEUE: u16 = 11;

/// One forwarding/rewrite action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Forward out of `port`; `max_len` limits bytes sent to the
    /// controller when `port` is [`PortNo::CONTROLLER`].
    Output {
        /// Egress port (physical or virtual).
        port: PortNo,
        /// Controller truncation length (0 = whole packet).
        max_len: u16,
    },
    /// Set the VLAN id.
    SetVlanVid(u16),
    /// Set the VLAN priority.
    SetVlanPcp(u8),
    /// Remove the VLAN tag.
    StripVlan,
    /// Rewrite the Ethernet source.
    SetDlSrc(MacAddr),
    /// Rewrite the Ethernet destination.
    SetDlDst(MacAddr),
    /// Rewrite the IPv4 source.
    SetNwSrc(u32),
    /// Rewrite the IPv4 destination.
    SetNwDst(u32),
    /// Rewrite the IP ToS byte.
    SetNwTos(u8),
    /// Rewrite the transport source port.
    SetTpSrc(u16),
    /// Rewrite the transport destination port.
    SetTpDst(u16),
    /// Forward out of `port` through queue `queue_id`.
    Enqueue {
        /// Egress port.
        port: PortNo,
        /// Queue on that port.
        queue_id: u32,
    },
}

impl Action {
    /// Shorthand for a plain output action.
    #[must_use]
    pub fn output(port: u16) -> Action {
        Action::Output {
            port: PortNo(port),
            max_len: 0,
        }
    }

    /// Shorthand for "send to controller".
    #[must_use]
    pub fn to_controller(max_len: u16) -> Action {
        Action::Output {
            port: PortNo::CONTROLLER,
            max_len,
        }
    }

    /// Encoded TLV length in bytes (always a multiple of 8).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        match self {
            Action::Output { .. }
            | Action::SetVlanVid(_)
            | Action::SetVlanPcp(_)
            | Action::StripVlan
            | Action::SetNwSrc(_)
            | Action::SetNwDst(_)
            | Action::SetNwTos(_)
            | Action::SetTpSrc(_)
            | Action::SetTpDst(_) => 8,
            Action::SetDlSrc(_) | Action::SetDlDst(_) => 16,
            Action::Enqueue { .. } => 16,
        }
    }

    /// Total encoded length of an action list.
    #[must_use]
    pub fn list_len(actions: &[Action]) -> usize {
        actions.iter().map(Action::wire_len).sum()
    }

    /// Encodes a whole action list.
    pub fn encode_list(actions: &[Action], buf: &mut Vec<u8>) {
        for a in actions {
            a.encode(buf);
        }
    }

    /// Decodes the TLV at `*off` of `list`, moving `*off` past it.
    #[inline]
    fn decode_at(list: &[u8], off: &mut usize) -> Result<Action> {
        let (action, used) = Action::decode(&list[*off..])?;
        *off += used;
        Ok(action)
    }

    /// Decodes exactly `len` bytes of action TLVs.
    pub fn decode_list(buf: &[u8], len: usize) -> Result<(ActionList, usize)> {
        ensure(buf, len, "action list")?;
        let list = &buf[..len];
        let mut off = 0;
        // Straight into the inline slots; only a list that outgrows
        // them is gathered in a `Vec`, which becomes the spill.
        let mut slots = [ActionList::FILLER; INLINE];
        let mut held = 0;
        while off < len && held < INLINE {
            slots[held] = Action::decode_at(list, &mut off)?;
            held += 1;
        }
        if off == len {
            let held = held as u8;
            return Ok((ActionList(Repr::Inline { len: held, slots }), off));
        }
        let mut spill = slots.to_vec();
        while off < len {
            spill.push(Action::decode_at(list, &mut off)?);
        }
        Ok((ActionList(Repr::Spill(spill.into_boxed_slice())), off))
    }

    /// Checks exactly `len` bytes of action TLVs without collecting
    /// them: `Ok(n)` and `Err` exactly when [`Action::decode_list`] would
    /// return them, with nothing allocated.
    pub fn check_list(buf: &[u8], len: usize) -> Result<usize> {
        ensure(buf, len, "action list")?;
        let list = &buf[..len];
        let mut off = 0;
        while off < len {
            Action::decode_at(list, &mut off)?;
        }
        Ok(off)
    }
}

/// How many actions an [`ActionList`] holds without a heap allocation.
const INLINE: usize = 2;

/// An owned action list, held by value: up to two actions sit inline, a
/// longer list spills to one boxed slice. It is no larger than the
/// `Vec<Action>` it stands in for, so the structures that carry one — a
/// flow-mod, an installed entry, a scheduler request — are copied, not
/// cloned through the allocator, for every list the workloads build.
///
/// Reads go through `Deref<Target = [Action]>`. A list is built once
/// (`from`, `collect`, [`Action::decode_list`]) and not grown after.
#[derive(Clone)]
pub struct ActionList(Repr);

#[derive(Clone)]
enum Repr {
    /// `slots[..len]` are the list; the rest is filler.
    Inline { len: u8, slots: [Action; INLINE] },
    /// More than [`INLINE`] actions.
    Spill(Box<[Action]>),
}

impl ActionList {
    /// What an unused inline slot holds; never read as part of a list.
    const FILLER: Action = Action::StripVlan;

    /// The empty list (a drop rule's).
    #[must_use]
    pub const fn new() -> ActionList {
        ActionList(Repr::Inline {
            len: 0,
            slots: [ActionList::FILLER; INLINE],
        })
    }
}

impl Default for ActionList {
    fn default() -> ActionList {
        ActionList::new()
    }
}

impl std::ops::Deref for ActionList {
    type Target = [Action];

    #[inline]
    fn deref(&self) -> &[Action] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..usize::from(*len)],
            Repr::Spill(actions) => actions,
        }
    }
}

impl From<Action> for ActionList {
    fn from(action: Action) -> ActionList {
        ActionList(Repr::Inline {
            len: 1,
            slots: [action, ActionList::FILLER],
        })
    }
}

impl From<Vec<Action>> for ActionList {
    fn from(actions: Vec<Action>) -> ActionList {
        if actions.len() <= INLINE {
            actions.into_iter().collect()
        } else {
            ActionList(Repr::Spill(actions.into_boxed_slice()))
        }
    }
}

impl FromIterator<Action> for ActionList {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> ActionList {
        let mut iter = iter.into_iter();
        let mut slots = [ActionList::FILLER; INLINE];
        let mut len = 0;
        for slot in &mut slots {
            let Some(a) = iter.next() else { break };
            *slot = a;
            len += 1;
        }
        let next = if usize::from(len) == INLINE {
            iter.next()
        } else {
            None
        };
        let Some(next) = next else {
            return ActionList(Repr::Inline { len, slots });
        };
        let mut spill = Vec::with_capacity(INLINE + 1 + iter.size_hint().0);
        spill.extend_from_slice(&slots);
        spill.push(next);
        spill.extend(iter);
        ActionList(Repr::Spill(spill.into_boxed_slice()))
    }
}

impl<'a> IntoIterator for &'a ActionList {
    type Item = &'a Action;
    type IntoIter = std::slice::Iter<'a, Action>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for ActionList {
    fn eq(&self, other: &ActionList) -> bool {
        **self == **other
    }
}

impl Eq for ActionList {}

impl PartialEq<Vec<Action>> for ActionList {
    fn eq(&self, other: &Vec<Action>) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for ActionList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl Encode for Action {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Action::Output { port, max_len } => {
                buf.put_u16(OFPAT_OUTPUT);
                buf.put_u16(8);
                buf.put_u16(port.0);
                buf.put_u16(max_len);
            }
            Action::SetVlanVid(vid) => {
                buf.put_u16(OFPAT_SET_VLAN_VID);
                buf.put_u16(8);
                buf.put_u16(vid);
                pad(buf, 2);
            }
            Action::SetVlanPcp(pcp) => {
                buf.put_u16(OFPAT_SET_VLAN_PCP);
                buf.put_u16(8);
                buf.put_u8(pcp);
                pad(buf, 3);
            }
            Action::StripVlan => {
                buf.put_u16(OFPAT_STRIP_VLAN);
                buf.put_u16(8);
                pad(buf, 4);
            }
            Action::SetDlSrc(mac) => {
                buf.put_u16(OFPAT_SET_DL_SRC);
                buf.put_u16(16);
                buf.put_slice(&mac.0);
                pad(buf, 6);
            }
            Action::SetDlDst(mac) => {
                buf.put_u16(OFPAT_SET_DL_DST);
                buf.put_u16(16);
                buf.put_slice(&mac.0);
                pad(buf, 6);
            }
            Action::SetNwSrc(ip) => {
                buf.put_u16(OFPAT_SET_NW_SRC);
                buf.put_u16(8);
                buf.put_u32(ip);
            }
            Action::SetNwDst(ip) => {
                buf.put_u16(OFPAT_SET_NW_DST);
                buf.put_u16(8);
                buf.put_u32(ip);
            }
            Action::SetNwTos(tos) => {
                buf.put_u16(OFPAT_SET_NW_TOS);
                buf.put_u16(8);
                buf.put_u8(tos);
                pad(buf, 3);
            }
            Action::SetTpSrc(p) => {
                buf.put_u16(OFPAT_SET_TP_SRC);
                buf.put_u16(8);
                buf.put_u16(p);
                pad(buf, 2);
            }
            Action::SetTpDst(p) => {
                buf.put_u16(OFPAT_SET_TP_DST);
                buf.put_u16(8);
                buf.put_u16(p);
                pad(buf, 2);
            }
            Action::Enqueue { port, queue_id } => {
                buf.put_u16(OFPAT_ENQUEUE);
                buf.put_u16(16);
                buf.put_u16(port.0);
                pad(buf, 6);
                buf.put_u32(queue_id);
            }
        }
    }
}

impl Decode for Action {
    fn decode(buf: &[u8]) -> Result<(Self, usize)> {
        ensure(buf, 4, "action header")?;
        let ty = be_u16(buf, 0);
        let len = be_u16(buf, 2) as usize;
        if len < 8 || !len.is_multiple_of(8) {
            return Err(WireError::BadActionLength {
                action_type: ty,
                len,
            });
        }
        ensure(buf, len, "action body")?;
        let expect = |want: usize| -> Result<()> {
            if len != want {
                Err(WireError::BadActionLength {
                    action_type: ty,
                    len,
                })
            } else {
                Ok(())
            }
        };
        let action = match ty {
            OFPAT_OUTPUT => {
                expect(8)?;
                Action::Output {
                    port: PortNo(be_u16(buf, 4)),
                    max_len: be_u16(buf, 6),
                }
            }
            OFPAT_SET_VLAN_VID => {
                expect(8)?;
                Action::SetVlanVid(be_u16(buf, 4))
            }
            OFPAT_SET_VLAN_PCP => {
                expect(8)?;
                Action::SetVlanPcp(buf[4])
            }
            OFPAT_STRIP_VLAN => {
                expect(8)?;
                Action::StripVlan
            }
            OFPAT_SET_DL_SRC | OFPAT_SET_DL_DST => {
                expect(16)?;
                let mut mac = [0u8; 6];
                mac.copy_from_slice(&buf[4..10]);
                if ty == OFPAT_SET_DL_SRC {
                    Action::SetDlSrc(MacAddr(mac))
                } else {
                    Action::SetDlDst(MacAddr(mac))
                }
            }
            OFPAT_SET_NW_SRC => {
                expect(8)?;
                Action::SetNwSrc(be_u32(buf, 4))
            }
            OFPAT_SET_NW_DST => {
                expect(8)?;
                Action::SetNwDst(be_u32(buf, 4))
            }
            OFPAT_SET_NW_TOS => {
                expect(8)?;
                Action::SetNwTos(buf[4])
            }
            OFPAT_SET_TP_SRC => {
                expect(8)?;
                Action::SetTpSrc(be_u16(buf, 4))
            }
            OFPAT_SET_TP_DST => {
                expect(8)?;
                Action::SetTpDst(be_u16(buf, 4))
            }
            OFPAT_ENQUEUE => {
                expect(16)?;
                Action::Enqueue {
                    port: PortNo(be_u16(buf, 4)),
                    queue_id: be_u32(buf, 12),
                }
            }
            other => {
                return Err(WireError::BadEnumValue {
                    what: "action type",
                    value: other as u32,
                })
            }
        };
        Ok((action, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_actions() -> Vec<Action> {
        vec![
            Action::output(4),
            Action::to_controller(128),
            Action::SetVlanVid(100),
            Action::SetVlanPcp(6),
            Action::StripVlan,
            Action::SetDlSrc(MacAddr::from_host_id(1)),
            Action::SetDlDst(MacAddr::from_host_id(2)),
            Action::SetNwSrc(0x0a000001),
            Action::SetNwDst(0x0a000002),
            Action::SetNwTos(0x20),
            Action::SetTpSrc(1000),
            Action::SetTpDst(2000),
            Action::Enqueue {
                port: PortNo(2),
                queue_id: 7,
            },
        ]
    }

    #[test]
    fn every_action_roundtrips() {
        for a in all_actions() {
            let bytes = a.to_vec();
            assert_eq!(bytes.len(), a.wire_len(), "{a:?}");
            let (back, used) = Action::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, a);
        }
    }

    #[test]
    fn action_list_roundtrips() {
        let actions = all_actions();
        let mut buf = Vec::new();
        Action::encode_list(&actions, &mut buf);
        assert_eq!(buf.len(), Action::list_len(&actions));
        let (back, used) = Action::decode_list(&buf, buf.len()).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, actions);
    }

    #[test]
    fn rejects_unknown_type() {
        let mut buf = Vec::new();
        buf.put_u16(0xfff0);
        buf.put_u16(8);
        buf.put_u32(0);
        assert!(matches!(
            Action::decode(&buf).unwrap_err(),
            WireError::BadEnumValue { .. }
        ));
    }

    #[test]
    fn rejects_bad_lengths() {
        // Length not multiple of 8.
        let mut buf = Vec::new();
        buf.put_u16(OFPAT_OUTPUT);
        buf.put_u16(9);
        buf.put_bytes(0, 12);
        assert!(matches!(
            Action::decode(&buf).unwrap_err(),
            WireError::BadActionLength { .. }
        ));
        // Wrong length for type.
        let mut buf = Vec::new();
        buf.put_u16(OFPAT_OUTPUT);
        buf.put_u16(16);
        buf.put_bytes(0, 12);
        assert!(Action::decode(&buf).is_err());
    }
}
