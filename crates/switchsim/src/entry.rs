//! Installed flow entries and their per-flow attributes.
//!
//! The paper's switch model (§5.1 ATTRIB) assumes cache policies operate
//! on a subset of four per-flow attributes that OpenFlow switches
//! maintain: time since insertion, time since last use, traffic count,
//! and rule priority. [`FlowEntry`] carries exactly those, updated by the
//! data plane as real packets arrive.

use ofwire::action::ActionList;
use ofwire::flow_match::{EntryKind, FlowMatch, PackedMatch};
use simnet::time::SimTime;

/// Stable identity of an installed entry (unique per switch, never
/// reused). Used as the deterministic final tie-breaker in cache-policy
/// orderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u64);

/// One installed flow-table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// Stable identity.
    pub id: EntryId,
    /// What the entry matches, packed ([`PackedMatch::unpack`] spells
    /// it out).
    pub flow_match: PackedMatch,
    /// Matching precedence (higher wins).
    pub priority: u16,
    /// Forwarding actions.
    pub actions: ActionList,
    /// Controller cookie.
    pub cookie: u64,
    /// When the entry was installed (ATTRIB: insertion time).
    pub inserted_at: SimTime,
    /// When a packet last matched it (ATTRIB: use time).
    pub last_used_at: SimTime,
    /// Packets matched so far (ATTRIB: traffic count).
    pub packet_count: u64,
    /// Bytes matched so far.
    pub byte_count: u64,
    /// Idle timeout in seconds (0 = none).
    pub idle_timeout: u16,
    /// Hard timeout in seconds (0 = none).
    pub hard_timeout: u16,
}

impl FlowEntry {
    /// Creates a fresh entry installed `now`. Its use time starts equal
    /// to the insertion time (it has never matched a packet).
    #[must_use]
    pub fn new(
        id: EntryId,
        flow_match: FlowMatch,
        priority: u16,
        actions: impl Into<ActionList>,
        now: SimTime,
    ) -> FlowEntry {
        FlowEntry {
            id,
            flow_match: flow_match.into(),
            priority,
            actions: actions.into(),
            cookie: 0,
            inserted_at: now,
            last_used_at: now,
            packet_count: 0,
            byte_count: 0,
            idle_timeout: 0,
            hard_timeout: 0,
        }
    }

    /// Records a packet of `bytes` bytes matching this entry at `now`.
    pub fn touch(&mut self, now: SimTime, bytes: u64) {
        self.last_used_at = now;
        self.packet_count += 1;
        self.byte_count += bytes;
    }

    /// TCAM slot-width class of this entry's match.
    #[must_use]
    pub fn kind(&self) -> EntryKind {
        self.flow_match.unpack().entry_kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_entry_attributes() {
        let t = SimTime(5);
        let e = FlowEntry::new(EntryId(1), FlowMatch::l2_for_id(3), 10, vec![], t);
        assert_eq!(e.inserted_at, t);
        assert_eq!(e.last_used_at, t);
        assert_eq!(e.packet_count, 0);
        assert_eq!(e.kind(), EntryKind::L2Only);
    }

    /// The match rides packed and the action list by value: 40 bytes
    /// and 24, where an unpacked match alone is 64.
    #[test]
    fn entry_holds_its_match_packed() {
        assert!(std::mem::size_of::<FlowEntry>() <= 120);
        assert!(std::mem::size_of::<Option<FlowEntry>>() <= 120);
    }

    #[test]
    fn touch_updates_attributes() {
        let mut e = FlowEntry::new(EntryId(1), FlowMatch::l3_for_id(3), 10, vec![], SimTime(0));
        e.touch(SimTime(100), 64);
        e.touch(SimTime(200), 64);
        assert_eq!(e.last_used_at, SimTime(200));
        assert_eq!(e.packet_count, 2);
        assert_eq!(e.byte_count, 128);
        assert_eq!(e.inserted_at, SimTime(0));
    }
}
