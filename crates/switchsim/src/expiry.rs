//! Flow-entry expiry: idle and hard timeouts, and the `flow_removed`
//! notifications they generate.
//!
//! OpenFlow switches expire entries whose `hard_timeout` has elapsed
//! since installation or whose `idle_timeout` has elapsed since the last
//! matching packet. The paper's switch model leans on exactly these
//! "usage timers" (§5: "OpenFlow switches keep traffic counters and
//! usage timers that are updated each time the switch receives a
//! packet"), so the simulated switches implement them fully.

use crate::entry::FlowEntry;
use simnet::time::SimTime;

/// Why an entry was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalReason {
    /// `idle_timeout` seconds passed without a matching packet.
    IdleTimeout,
    /// `hard_timeout` seconds passed since installation.
    HardTimeout,
}

/// A record of one expired entry (the payload of a `flow_removed`
/// notification).
#[derive(Debug, Clone, PartialEq)]
pub struct Expired {
    /// The removed entry (with final counters).
    pub entry: FlowEntry,
    /// Why it was removed.
    pub reason: RemovalReason,
}

/// Whether `entry` has expired at `now`, and why. Hard timeouts win
/// ties (they are unconditional).
#[must_use]
pub fn expiry_reason(entry: &FlowEntry, now: SimTime) -> Option<RemovalReason> {
    if entry.hard_timeout > 0 {
        let deadline = entry.inserted_at + secs(entry.hard_timeout);
        if now >= deadline {
            return Some(RemovalReason::HardTimeout);
        }
    }
    if entry.idle_timeout > 0 {
        let deadline = entry.last_used_at + secs(entry.idle_timeout);
        if now >= deadline {
            return Some(RemovalReason::IdleTimeout);
        }
    }
    None
}

fn secs(s: u16) -> simnet::time::SimDuration {
    simnet::time::SimDuration::from_secs(u64::from(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryId;
    use ofwire::flow_match::FlowMatch;
    use simnet::time::SimDuration;

    fn entry(idle: u16, hard: u16) -> FlowEntry {
        let mut e = FlowEntry::new(
            EntryId(1),
            FlowMatch::l3_for_id(1),
            10,
            vec![],
            SimTime::ZERO,
        );
        e.idle_timeout = idle;
        e.hard_timeout = hard;
        e
    }

    #[test]
    fn no_timeouts_never_expire() {
        let e = entry(0, 0);
        assert_eq!(expiry_reason(&e, SimTime(u64::MAX / 2)), None);
    }

    #[test]
    fn hard_timeout_fires_regardless_of_traffic() {
        let mut e = entry(0, 5);
        e.touch(SimTime::ZERO + SimDuration::from_secs(4), 64);
        assert_eq!(
            expiry_reason(&e, SimTime::ZERO + SimDuration::from_secs(4)),
            None
        );
        assert_eq!(
            expiry_reason(&e, SimTime::ZERO + SimDuration::from_secs(5)),
            Some(RemovalReason::HardTimeout)
        );
    }

    #[test]
    fn idle_timeout_resets_on_traffic() {
        let mut e = entry(3, 0);
        assert_eq!(
            expiry_reason(&e, SimTime::ZERO + SimDuration::from_secs(2)),
            None
        );
        e.touch(SimTime::ZERO + SimDuration::from_secs(2), 64);
        // Idle clock restarts from the touch.
        assert_eq!(
            expiry_reason(&e, SimTime::ZERO + SimDuration::from_secs(4)),
            None
        );
        assert_eq!(
            expiry_reason(&e, SimTime::ZERO + SimDuration::from_secs(5)),
            Some(RemovalReason::IdleTimeout)
        );
    }

    #[test]
    fn hard_wins_when_both_due() {
        let e = entry(1, 1);
        assert_eq!(
            expiry_reason(&e, SimTime::ZERO + SimDuration::from_secs(1)),
            Some(RemovalReason::HardTimeout)
        );
    }
}
