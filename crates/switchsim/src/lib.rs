//! # switchsim — emulated diverse OpenFlow switches
//!
//! The paper evaluates Tango against three proprietary hardware switches
//! and Open vSwitch. This crate stands those up in simulation: complete
//! behavioural models whose *observable* properties — table sizes and
//! width modes (Table 1), tiered path delays (Fig 2), priority-shift and
//! op-type control costs (Fig 3), and cache-replacement policies (§5.1) —
//! are calibrated to the paper's measurements.
//!
//! Layering, bottom-up:
//!
//! * [`entry`] — installed rules with the four ATTRIB attributes.
//! * [`cache`] — cache policies as lexicographic attribute orderings
//!   (the paper's ATTRIB/MONOTONE/LEX model, §5.1).
//! * [`tcam`] — slot-width geometry and priority-shift counting.
//! * [`table`] — wildcard tables and the OVS kernel microflow cache.
//! * [`pipeline`] — multilevel-cache flow-table organizations.
//! * [`latency`] — control-plane cost and data-path delay models.
//! * [`profiles`] — calibrated vendor presets (OVS, Switches #1–#3) and
//!   generic policy-cached switches for inference studies.
//! * [`switch`] — the assembled switch.
//! * [`agent`] — the wire-protocol agent (real `ofwire` bytes in/out).
//! * [`control`] — the transport-agnostic control-path abstraction
//!   (submit an OpenFlow op, receive a typed completion event).
//! * [`chan`] — the control channel both transports share: op encoding,
//!   latency draws, and the per-switch core that times every op.
//! * [`harness`] — the in-memory control path: a multi-switch testbed
//!   that resolves each op on its switch's core at submit and delivers
//!   completions in virtual-time order.
//!
//! ```
//! use switchsim::prelude::*;
//! use ofwire::prelude::*;
//!
//! let mut tb = Testbed::new(42);
//! tb.attach_default(Dpid(1), SwitchProfile::vendor1());
//! let (res, elapsed) = tb.flow_mod(Dpid(1), FlowMod::add(FlowMatch::l3_for_id(7), 100));
//! assert_eq!(res, OpResult::Ok);
//! assert!(elapsed.as_millis_f64() > 0.0);
//! ```

pub mod agent;
pub mod cache;
pub mod chan;
pub mod control;
pub mod entry;
pub mod expiry;
pub mod harness;
pub mod latency;
pub mod pipeline;
pub mod profiles;
pub mod switch;
pub mod table;
pub mod tcam;

/// Glob-import of the commonly used types.
pub mod prelude {
    pub use crate::agent::{Agent, AgentOutput};
    pub use crate::cache::{Attribute, CachePolicy, Direction, SortKey};
    pub use crate::control::{Completion, ControlOp, ControlPath, OpOutcome, OpResult, OpToken};
    pub use crate::entry::{EntryId, FlowEntry};
    pub use crate::expiry::{Expired, RemovalReason};
    pub use crate::harness::Testbed;
    pub use crate::latency::{ControlCosts, DataPathLatency};
    pub use crate::pipeline::{Hit, Pipeline, TableFull};
    pub use crate::profiles::SwitchProfile;
    pub use crate::switch::{FlowModEffect, FlowModError, Switch};
    pub use crate::table::{FlowTable, MicroflowCache};
    pub use crate::tcam::TcamGeometry;
}
