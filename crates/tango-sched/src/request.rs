//! Switch requests — the scheduler's unit of work (§6).
//!
//! The paper's request format:
//!
//! ```text
//! req_elem = {'location': switch_id,
//!             'type'    : add | del | mod,
//!             'priority': priority number or none,
//!             'rule parameters': match, action,
//!             'install_by': ms or best effort}
//! ```

use ofwire::action::{Action, ActionList};
use ofwire::flow_match::{FlowMatch, PackedMatch};
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;

/// The operation class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqOp {
    /// Install a new rule.
    Add,
    /// Rewrite an existing rule's actions.
    Mod,
    /// Remove a rule.
    Del,
}

impl ReqOp {
    /// Short label ("add"/"mod"/"del").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReqOp::Add => "add",
            ReqOp::Mod => "mod",
            ReqOp::Del => "del",
        }
    }
}

/// Installation deadline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Deadline {
    /// Install whenever convenient.
    #[default]
    BestEffort,
    /// Install within this many milliseconds of submission.
    WithinMs(f64),
}

/// One switch request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReqElem {
    /// Target switch.
    pub location: Dpid,
    /// Operation class.
    pub op: ReqOp,
    /// Rule priority; `None` lets Tango enforce one (Fig 11's "priority
    /// enforcement").
    pub priority: Option<u16>,
    /// Rule match, packed ([`PackedMatch::unpack`] spells it out).
    pub flow_match: PackedMatch,
    /// Rule actions (empty for deletes).
    pub actions: ActionList,
    /// Deadline.
    pub install_by: Deadline,
}

impl ReqElem {
    /// An add request.
    #[must_use]
    pub fn add(location: Dpid, flow_match: FlowMatch, priority: u16, out_port: u16) -> ReqElem {
        ReqElem {
            location,
            op: ReqOp::Add,
            priority: Some(priority),
            flow_match: flow_match.into(),
            actions: Action::output(out_port).into(),
            install_by: Deadline::BestEffort,
        }
    }

    /// A modify request.
    #[must_use]
    pub fn modify(location: Dpid, flow_match: FlowMatch, priority: u16, out_port: u16) -> ReqElem {
        ReqElem {
            op: ReqOp::Mod,
            ..ReqElem::add(location, flow_match, priority, out_port)
        }
    }

    /// A delete request.
    #[must_use]
    pub fn delete(location: Dpid, flow_match: FlowMatch, priority: u16) -> ReqElem {
        ReqElem {
            op: ReqOp::Del,
            actions: ActionList::new(),
            ..ReqElem::add(location, flow_match, priority, 0)
        }
    }

    /// Builder: leave the priority for Tango to enforce.
    #[must_use]
    pub fn without_priority(mut self) -> ReqElem {
        self.priority = None;
        self
    }

    /// The effective priority (0 when unassigned — callers normally run
    /// priority enforcement first).
    #[must_use]
    pub fn effective_priority(&self) -> u16 {
        self.priority.unwrap_or(0)
    }

    /// Lowers the request to a concrete `flow_mod`.
    #[must_use]
    pub fn to_flow_mod(&self) -> FlowMod {
        let (m, priority) = (self.flow_match.unpack(), self.effective_priority());
        match self.op {
            ReqOp::Add => FlowMod::add_with_actions(m, priority, self.actions.clone()),
            ReqOp::Mod => FlowMod::modify_strict(m, priority, self.actions.clone()),
            ReqOp::Del => FlowMod::delete_strict(m, priority),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofwire::flow_mod::FlowModCommand;

    #[test]
    fn lowering_to_flow_mods() {
        let m = FlowMatch::l3_for_id(7);
        let add = ReqElem::add(Dpid(1), m, 10, 2).to_flow_mod();
        assert_eq!(add.command, FlowModCommand::Add);
        assert_eq!(add.priority, 10);
        assert_eq!(add.actions, vec![Action::output(2)]);

        let md = ReqElem::modify(Dpid(1), m, 10, 3).to_flow_mod();
        assert_eq!(md.command, FlowModCommand::ModifyStrict);
        assert_eq!(md.actions, vec![Action::output(3)]);

        let del = ReqElem::delete(Dpid(1), m, 10).to_flow_mod();
        assert_eq!(del.command, FlowModCommand::DeleteStrict);
        assert!(del.actions.is_empty());
    }

    /// The match rides packed and the action list by value.
    #[test]
    fn request_holds_its_match_packed() {
        assert!(std::mem::size_of::<ReqElem>() <= 96);
    }

    #[test]
    fn priority_enforcement_hook() {
        let r = ReqElem::add(Dpid(1), FlowMatch::any(), 10, 1).without_priority();
        assert_eq!(r.priority, None);
        assert_eq!(r.effective_priority(), 0);
        assert_eq!(r.to_flow_mod().priority, 0);
    }

    #[test]
    fn op_labels() {
        assert_eq!(ReqOp::Add.label(), "add");
        assert_eq!(ReqOp::Mod.label(), "mod");
        assert_eq!(ReqOp::Del.label(), "del");
    }
}
