//! # ofwire — an OpenFlow 1.0-flavoured wire protocol, from scratch
//!
//! This crate implements the controller↔switch protocol plumbing that the
//! Tango reproduction is built on: message types, flow matches, actions,
//! and a binary codec over [`bytes`].
//!
//! The subset follows the OpenFlow 1.0 specification closely (header
//! layout, wildcard bit encoding, action TLVs, `flow_mod` semantics) —
//! close enough that the encoded bytes for the implemented messages are
//! valid OpenFlow 1.0 — while omitting features the paper never exercises
//! (queues beyond `Enqueue`, port modification). Vendor/experimenter
//! messages are carried opaquely ([`message::Message::Vendor`]); the
//! `tango-net` transport uses them for its virtual-time side channel.
//!
//! ## Layout
//!
//! * [`header`] — the common 8-byte message header.
//! * [`types`] — small value types: [`types::MacAddr`], [`types::Dpid`],
//!   port numbers, buffer ids.
//! * [`flow_match`] — the 40-byte OpenFlow 1.0 match structure with its
//!   22-bit wildcard field, including CIDR-style IP prefix wildcards.
//! * [`action`] — action TLVs (`Output`, header rewrites, `Enqueue`, …).
//! * [`flow_mod`] — rule add/modify/delete commands.
//! * [`packet`] — `packet_in` / `packet_out` and a tiny raw-frame builder
//!   used by probing traffic.
//! * [`features`], [`stats`], [`error_msg`] — the remaining control
//!   messages Tango's probing engine needs (`barrier_request` and
//!   `barrier_reply` carry no body, so they are bare [`message::Message`]
//!   variants).
//! * [`message`] — the [`message::Message`] enum unifying everything.
//! * [`codec`] — [`codec::Encode`] / [`codec::Decode`] traits plus a
//!   stream [`codec::Framer`] that splits a byte stream into messages.
//!
//! ## Example
//!
//! ```
//! use ofwire::prelude::*;
//!
//! let fm = FlowMod::add(FlowMatch::exact_ip_pair([10, 0, 0, 1], [10, 0, 0, 2]), 100)
//!     .with_action(Action::Output { port: PortNo(2), max_len: 0 });
//! let msg = Message::FlowMod(fm);
//! let bytes = msg.to_bytes(Xid(7));
//! let (hdr, decoded) = Message::from_bytes(&bytes).unwrap();
//! assert_eq!(hdr.xid, Xid(7));
//! assert_eq!(decoded, msg);
//! ```

pub mod action;
pub mod codec;
pub mod error;
pub mod error_msg;
pub mod features;
pub mod flow_match;
pub mod flow_mod;
pub mod flow_removed;
pub mod header;
pub mod message;
pub mod packet;
pub mod stats;
pub mod types;

/// Convenient glob-import of the types most callers need.
pub mod prelude {
    pub use crate::action::{Action, ActionList};
    pub use crate::codec::{Decode, Encode, Frame, Framer};
    pub use crate::error::{Result, WireError};
    pub use crate::error_msg::{ErrorCode, ErrorMsg, ErrorType};
    pub use crate::features::{FeaturesReply, PhyPort};
    pub use crate::flow_match::FlowMatch;
    pub use crate::flow_mod::{FlowMod, FlowModCommand, FlowModFlags};
    pub use crate::flow_removed::{FlowRemoved, FlowRemovedReason};
    pub use crate::header::{Header, MessageType, OFP_HEADER_LEN, OFP_VERSION};
    pub use crate::message::Message;
    pub use crate::packet::{PacketIn, PacketInReason, PacketOut, PacketOutView, RawFrame};
    pub use crate::stats::{
        AggregateStats, FlowStatsEntry, StatsBody, StatsRequestBody, TableStatsEntry,
    };
    pub use crate::types::{BufferId, Dpid, MacAddr, PortNo, Xid};
}
