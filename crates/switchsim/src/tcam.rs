//! TCAM geometry: slot-width accounting and priority-shift cost counting.
//!
//! Two hardware realities from the paper are modelled here:
//!
//! 1. **Width modes** (§3, Table 1) — how many slot units an entry
//!    consumes depends on which layers it matches and on how the TCAM is
//!    configured: Switch #1's single-wide mode fits 4K L2-only/L3-only
//!    rules but only 2K combined rules; Switch #2 is fixed double-wide
//!    (2560 whatever you install); Switch #3 adapts per entry type
//!    (767 vs 369).
//! 2. **Priority shifting** (§3, Fig 3) — TCAM entries are kept sorted by
//!    priority, so inserting an entry below existing higher-priority
//!    entries forces those to shift. Inserting in ascending priority
//!    order never shifts; descending order shifts everything every time.

use ofwire::flow_match::EntryKind;

/// Slot-width accounting for a TCAM.
///
/// Capacity is expressed in abstract *units*; each entry kind costs a
/// number of units. This uniformly expresses all three vendor behaviours
/// (see constructors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamGeometry {
    /// Total capacity in units.
    pub capacity_units: u64,
    /// Units consumed by an L2-only entry.
    pub cost_l2: u64,
    /// Units consumed by an L3-only entry.
    pub cost_l3: u64,
    /// Units consumed by a combined L2+L3 entry.
    pub cost_l2l3: u64,
}

impl TcamGeometry {
    /// Single-wide mode with `slots` physical slots: L2-only or L3-only
    /// entries take one slot, combined entries take two (Switch #1:
    /// 4K single / 2K double).
    #[must_use]
    pub fn single_wide(slots: u64) -> TcamGeometry {
        TcamGeometry {
            capacity_units: slots,
            cost_l2: 1,
            cost_l3: 1,
            cost_l2l3: 2,
        }
    }

    /// Fixed double-wide mode: every entry occupies a double-wide slot,
    /// so capacity is the same regardless of entry kind (Switch #2:
    /// 2560 always).
    #[must_use]
    pub fn double_wide(entries: u64) -> TcamGeometry {
        TcamGeometry {
            capacity_units: entries,
            cost_l2: 1,
            cost_l3: 1,
            cost_l2l3: 1,
        }
    }

    /// Adaptive mode calibrated by observed capacities: `narrow` entries
    /// of a single layer fit, or `wide` combined entries (Switch #3:
    /// 767 vs 369). Implemented with cross-multiplied unit costs so both
    /// capacities are hit exactly and mixes interpolate linearly.
    #[must_use]
    pub fn adaptive(narrow: u64, wide: u64) -> TcamGeometry {
        TcamGeometry {
            capacity_units: narrow * wide,
            cost_l2: wide,
            cost_l3: wide,
            cost_l2l3: narrow,
        }
    }

    /// Units consumed by one entry of the given kind.
    #[must_use]
    pub fn cost(&self, kind: EntryKind) -> u64 {
        match kind {
            EntryKind::L2Only => self.cost_l2,
            EntryKind::L3Only => self.cost_l3,
            EntryKind::L2L3 => self.cost_l2l3,
        }
    }

    /// How many entries of a single kind fit in an empty TCAM.
    #[must_use]
    pub fn capacity_for(&self, kind: EntryKind) -> u64 {
        self.capacity_units / self.cost(kind)
    }

    /// Whether an entry of `kind` fits given `used` units already
    /// consumed.
    #[must_use]
    pub fn fits(&self, used: u64, kind: EntryKind) -> bool {
        used + self.cost(kind) <= self.capacity_units
    }
}

/// Counts how many installed entries a new entry of priority
/// `new_priority` forces to shift: every entry strictly above it in the
/// priority sort. Matches the observed behaviour that ascending-priority
/// insertion never shifts and descending always does (§3, Fig 3c).
///
/// This linear scan is the reference oracle; tables keep a
/// [`PriorityIndex`] incrementally so the hot path answers the same
/// question in O(log 65536).
#[must_use]
pub fn shift_count<'a>(
    existing_priorities: impl Iterator<Item = &'a u16>,
    new_priority: u16,
) -> usize {
    existing_priorities.filter(|&&p| p > new_priority).count()
}

/// Fenwick (binary indexed) tree over the 16-bit priority space.
///
/// Maintains the multiset of installed priorities so "how many entries
/// sit strictly above priority `p`" — the per-insert shift cost of a
/// priority-sorted TCAM — is O(log 65536) instead of a table scan.
/// Updated on every insert/remove/evict; the array is allocated lazily on
/// first insert so empty tables stay a few machine words.
#[derive(Clone, Default)]
pub struct PriorityIndex {
    /// 1-based Fenwick array over priorities 0..=65535 (empty until the
    /// first insert). `tree[i]` covers a power-of-two span ending at
    /// priority `i - 1`.
    tree: Vec<u32>,
    /// Total number of recorded priorities.
    total: usize,
}

/// Fenwick positions run 1..=SPAN where position `p + 1` is priority `p`.
const PRIORITY_SPAN: usize = 1 << 16;

impl PriorityIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> PriorityIndex {
        PriorityIndex::default()
    }

    /// Number of recorded priorities (with multiplicity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.total
    }

    /// True if nothing is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Records one entry at `priority`.
    pub fn add(&mut self, priority: u16) {
        if self.tree.is_empty() {
            self.tree = vec![0; PRIORITY_SPAN + 1];
        }
        let mut i = usize::from(priority) + 1;
        while i <= PRIORITY_SPAN {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
        self.total += 1;
    }

    /// Removes one previously recorded entry at `priority`.
    pub fn remove(&mut self, priority: u16) {
        debug_assert!(self.total > 0, "remove from empty priority index");
        let mut i = usize::from(priority) + 1;
        while i <= PRIORITY_SPAN {
            debug_assert!(self.tree[i] > 0, "priority {priority} not recorded");
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
        self.total -= 1;
    }

    /// Forgets everything (the backing array is kept for reuse).
    pub fn clear(&mut self) {
        self.tree.fill(0);
        self.total = 0;
    }

    /// How many recorded priorities are `<= priority` (prefix count).
    #[must_use]
    fn count_at_most(&self, priority: u16) -> usize {
        let mut i = usize::from(priority) + 1;
        let mut sum = 0usize;
        while i > 0 {
            sum += self.tree.get(i).copied().unwrap_or(0) as usize;
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// How many recorded priorities are strictly above `priority` — the
    /// indexed equivalent of [`shift_count`].
    #[must_use]
    pub fn count_above(&self, priority: u16) -> usize {
        self.total - self.count_at_most(priority)
    }
}

impl std::fmt::Debug for PriorityIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The 64 Ki-slot Fenwick array is noise in debug output; report
        // only the population.
        f.debug_struct("PriorityIndex")
            .field("total", &self.total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_wide_matches_switch1() {
        let g = TcamGeometry::single_wide(4096);
        assert_eq!(g.capacity_for(EntryKind::L2Only), 4096);
        assert_eq!(g.capacity_for(EntryKind::L3Only), 4096);
        assert_eq!(g.capacity_for(EntryKind::L2L3), 2048);
    }

    #[test]
    fn double_wide_matches_switch2() {
        let g = TcamGeometry::double_wide(2560);
        assert_eq!(g.capacity_for(EntryKind::L2Only), 2560);
        assert_eq!(g.capacity_for(EntryKind::L3Only), 2560);
        assert_eq!(g.capacity_for(EntryKind::L2L3), 2560);
    }

    #[test]
    fn adaptive_matches_switch3() {
        let g = TcamGeometry::adaptive(767, 369);
        assert_eq!(g.capacity_for(EntryKind::L2Only), 767);
        assert_eq!(g.capacity_for(EntryKind::L3Only), 767);
        assert_eq!(g.capacity_for(EntryKind::L2L3), 369);
    }

    #[test]
    fn fits_accounts_used_units() {
        let g = TcamGeometry::single_wide(4);
        assert!(g.fits(0, EntryKind::L2L3));
        assert!(g.fits(2, EntryKind::L2L3));
        assert!(!g.fits(3, EntryKind::L2L3));
        assert!(g.fits(3, EntryKind::L2Only));
        assert!(!g.fits(4, EntryKind::L2Only));
    }

    #[test]
    fn shift_counting() {
        let prios = [10u16, 20, 30, 30, 40];
        // Highest priority: nothing above it, no shift.
        assert_eq!(shift_count(prios.iter(), 50), 0);
        // Equal to the max: still nothing strictly above.
        assert_eq!(shift_count(prios.iter(), 40), 0);
        // Lowest: everything shifts.
        assert_eq!(shift_count(prios.iter(), 5), 5);
        // Middle: entries strictly above shift.
        assert_eq!(shift_count(prios.iter(), 30), 1);
        assert_eq!(shift_count(prios.iter(), 25), 3);
    }

    #[test]
    fn ascending_insertion_never_shifts() {
        let mut prios: Vec<u16> = Vec::new();
        let mut total = 0;
        for p in 0..100u16 {
            total += shift_count(prios.iter(), p);
            prios.push(p);
        }
        assert_eq!(total, 0);
    }

    #[test]
    fn descending_insertion_always_shifts() {
        let mut prios: Vec<u16> = Vec::new();
        let mut total = 0;
        for p in (0..100u16).rev() {
            total += shift_count(prios.iter(), p);
            prios.push(p);
        }
        // i-th insert shifts i existing entries: 0+1+..+99.
        assert_eq!(total, 99 * 100 / 2);
    }

    #[test]
    fn priority_index_agrees_with_linear_oracle() {
        let mut idx = PriorityIndex::new();
        let mut prios: Vec<u16> = Vec::new();
        // Deterministic pseudo-random add/remove churn.
        let mut state = 0x9e37u32;
        for step in 0..500 {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let p = (state >> 7) as u16;
            if step % 3 == 2 && !prios.is_empty() {
                let victim = prios.swap_remove((state as usize >> 3) % prios.len());
                idx.remove(victim);
            } else {
                idx.add(p);
                prios.push(p);
            }
            let probe = (state >> 13) as u16;
            assert_eq!(idx.count_above(probe), shift_count(prios.iter(), probe));
            assert_eq!(idx.len(), prios.len());
        }
    }

    #[test]
    fn priority_index_boundaries() {
        let mut idx = PriorityIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.count_above(0), 0);
        idx.add(0);
        idx.add(u16::MAX);
        assert_eq!(idx.count_above(0), 1);
        assert_eq!(idx.count_above(u16::MAX), 0);
        assert_eq!(idx.count_above(u16::MAX - 1), 1);
        idx.remove(u16::MAX);
        assert_eq!(idx.count_above(0), 0);
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.count_above(0), 0);
    }
}
