//! Cache-replacement policies as lexicographic attribute orderings.
//!
//! This is the paper's formal model of switch caching (§5.1) implemented
//! directly:
//!
//! * **ATTRIB** — policies read a subset of {insertion time, use time,
//!   traffic count, priority} ([`Attribute`]).
//! * **MONOTONE** — each attribute is compared monotonically, either
//!   preferring high or low values ([`Direction`]).
//! * **LEX** — a total order is formed lexicographically over a
//!   permutation of the attributes ([`CachePolicy`]), with the stable
//!   entry id as the deterministic final tie-break.
//!
//! Classic policies are instances: FIFO keeps the *oldest* insertions in
//! the fast level (which is exactly the paper's Switch #1, whose software
//! table acts as a FIFO spill buffer for TCAM), LRU keeps the most
//! recently used, LFU the most trafficked, and priority caching keeps the
//! highest priorities.

use crate::entry::{EntryId, FlowEntry};
use crate::table::FlowTable;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

/// The per-flow attributes a policy may inspect (paper ATTRIB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attribute {
    /// Time the entry was installed.
    InsertionTime,
    /// Time a packet last matched the entry.
    UseTime,
    /// Number of packets matched.
    TrafficCount,
    /// Rule priority.
    Priority,
}

impl Attribute {
    /// All four attributes, in the paper's listing order.
    pub const ALL: [Attribute; 4] = [
        Attribute::InsertionTime,
        Attribute::UseTime,
        Attribute::TrafficCount,
        Attribute::Priority,
    ];

    /// "Serial" attributes take distinct values for every flow (each
    /// install/use happens at a distinct instant), so an ordering on one
    /// of them is already total — Algorithm 2 stops recursing when it
    /// identifies one.
    #[must_use]
    pub fn is_serial(self) -> bool {
        matches!(self, Attribute::InsertionTime | Attribute::UseTime)
    }

    /// Reads this attribute of an entry, widened to `u64` for comparison.
    #[must_use]
    pub fn value_of(self, e: &FlowEntry) -> u64 {
        match self {
            Attribute::InsertionTime => e.inserted_at.0,
            Attribute::UseTime => e.last_used_at.0,
            Attribute::TrafficCount => e.packet_count,
            Attribute::Priority => u64::from(e.priority),
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Attribute::InsertionTime => "insertion_time",
            Attribute::UseTime => "use_time",
            Attribute::TrafficCount => "traffic_count",
            Attribute::Priority => "priority",
        };
        f.write_str(s)
    }
}

/// Which extreme of an attribute is *kept* in the fast level (paper
/// MONOTONE: the comparison is monotonic increasing or decreasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Higher values are better (kept); lowest evicted.
    KeepHigh,
    /// Lower values are better (kept); highest evicted.
    KeepLow,
}

impl Direction {
    /// The opposite direction.
    #[must_use]
    pub fn flip(self) -> Direction {
        match self {
            Direction::KeepHigh => Direction::KeepLow,
            Direction::KeepLow => Direction::KeepHigh,
        }
    }
}

/// One sort key: an attribute plus its direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortKey {
    /// Attribute inspected.
    pub attribute: Attribute,
    /// Which extreme is kept.
    pub direction: Direction,
}

/// A cache policy: a lexicographic ordering over sort keys (paper LEX).
///
/// [`CachePolicy::cmp_entries`] returns [`Ordering::Greater`] when the
/// first entry ranks *better* (more deserving of the fast level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachePolicy {
    /// Sort keys, most significant first.
    pub keys: Vec<SortKey>,
}

impl CachePolicy {
    /// Builds a policy from `(attribute, direction)` pairs.
    #[must_use]
    pub fn new(keys: Vec<SortKey>) -> CachePolicy {
        CachePolicy { keys }
    }

    /// FIFO spill: the oldest insertions stay in the fast level; new
    /// entries overflow to software (paper's Switch #1 behaviour).
    #[must_use]
    pub fn fifo() -> CachePolicy {
        CachePolicy::new(vec![SortKey {
            attribute: Attribute::InsertionTime,
            direction: Direction::KeepLow,
        }])
    }

    /// LRU: most recently used entries stay in the fast level.
    #[must_use]
    pub fn lru() -> CachePolicy {
        CachePolicy::new(vec![SortKey {
            attribute: Attribute::UseTime,
            direction: Direction::KeepHigh,
        }])
    }

    /// LFU: most heavily trafficked entries stay in the fast level.
    #[must_use]
    pub fn lfu() -> CachePolicy {
        CachePolicy::new(vec![SortKey {
            attribute: Attribute::TrafficCount,
            direction: Direction::KeepHigh,
        }])
    }

    /// Priority caching: highest-priority rules stay in the fast level.
    #[must_use]
    pub fn priority() -> CachePolicy {
        CachePolicy::new(vec![SortKey {
            attribute: Attribute::Priority,
            direction: Direction::KeepHigh,
        }])
    }

    /// Priority first, LRU tie-break — a composite LEX policy used to
    /// exercise Algorithm 2's recursion.
    #[must_use]
    pub fn priority_then_lru() -> CachePolicy {
        CachePolicy::new(vec![
            SortKey {
                attribute: Attribute::Priority,
                direction: Direction::KeepHigh,
            },
            SortKey {
                attribute: Attribute::UseTime,
                direction: Direction::KeepHigh,
            },
        ])
    }

    /// Traffic first, FIFO tie-break (an LFU-with-aging flavour).
    #[must_use]
    pub fn lfu_then_fifo() -> CachePolicy {
        CachePolicy::new(vec![
            SortKey {
                attribute: Attribute::TrafficCount,
                direction: Direction::KeepHigh,
            },
            SortKey {
                attribute: Attribute::InsertionTime,
                direction: Direction::KeepLow,
            },
        ])
    }

    /// Whether a packet hit can move an entry in this policy's order:
    /// true iff some sort key reads [`Attribute::UseTime`] or
    /// [`Attribute::TrafficCount`], the attributes
    /// [`FlowEntry::touch`] writes. Under a policy that reads neither
    /// (FIFO, priority), an entry's [`CachePolicy::sort_key`] is fixed
    /// from install to removal.
    #[must_use]
    pub fn reads_traffic(&self) -> bool {
        self.keys
            .iter()
            .any(|k| matches!(k.attribute, Attribute::UseTime | Attribute::TrafficCount))
    }

    /// Flattens an entry into a totally ordered key whose natural `Ord`
    /// is exactly [`CachePolicy::cmp_entries`]: greater key ⇔ better
    /// entry. `KeepLow` attributes are bitwise-complemented (which
    /// reverses `u64` order), unused key slots are a constant, and the
    /// complemented id is the final component, so ties are impossible
    /// between distinct entries. This is what lets an [`EvictionIndex`]
    /// keep policy order in plain binary heaps.
    ///
    /// Attributes are deduplicated (first occurrence wins) so policies
    /// with repeated attributes still fit the four slots: a repeated
    /// attribute can never influence `cmp_entries` after its first
    /// appearance.
    #[must_use]
    pub fn sort_key(&self, e: &FlowEntry) -> PolicyKey {
        let mut slots = [0u64; 4];
        let mut seen: [Option<Attribute>; 4] = [None; 4];
        let mut n = 0;
        for key in &self.keys {
            if seen[..n].contains(&Some(key.attribute)) {
                continue;
            }
            seen[n] = Some(key.attribute);
            let v = key.attribute.value_of(e);
            slots[n] = match key.direction {
                Direction::KeepHigh => v,
                Direction::KeepLow => !v,
            };
            n += 1;
            if n == 4 {
                break;
            }
        }
        PolicyKey {
            slots,
            id_rank: !e.id.0,
        }
    }

    /// Compares two entries; `Greater` means `a` is *better* (kept over
    /// `b`). Falls back to entry id (older id better) so the order is
    /// total and deterministic.
    #[must_use]
    pub fn cmp_entries(&self, a: &FlowEntry, b: &FlowEntry) -> Ordering {
        for key in &self.keys {
            let va = key.attribute.value_of(a);
            let vb = key.attribute.value_of(b);
            let ord = match key.direction {
                Direction::KeepHigh => va.cmp(&vb),
                Direction::KeepLow => vb.cmp(&va),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        // Deterministic tie-break: earlier-installed id wins.
        b.id.cmp(&a.id)
    }

    /// Index of the *worst* entry in a slice (the eviction victim).
    /// Returns `None` for an empty slice.
    ///
    /// Linear scan — this is the reference oracle. Hot paths route
    /// victim selection through [`EvictionIndex::worst`], which answers
    /// the same question in O(log n) amortized.
    #[must_use]
    pub fn worst_index(&self, entries: &[FlowEntry]) -> Option<usize> {
        let mut worst: Option<usize> = None;
        for (i, e) in entries.iter().enumerate() {
            match worst {
                None => worst = Some(i),
                Some(w) => {
                    if self.cmp_entries(e, &entries[w]) == Ordering::Less {
                        worst = Some(i);
                    }
                }
            }
        }
        worst
    }

    /// Index of the *best* entry in a slice (the promotion candidate).
    ///
    /// Linear scan — the reference oracle for [`EvictionIndex::best`].
    #[must_use]
    pub fn best_index(&self, entries: &[FlowEntry]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in entries.iter().enumerate() {
            match best {
                None => best = Some(i),
                Some(b) => {
                    if self.cmp_entries(e, &entries[b]) == Ordering::Greater {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// Human-readable form, e.g. `"use_time↑"` or `"priority↑,use_time↑"`.
    #[must_use]
    pub fn describe(&self) -> String {
        self.keys
            .iter()
            .map(|k| {
                let arrow = match k.direction {
                    Direction::KeepHigh => "↑",
                    Direction::KeepLow => "↓",
                };
                format!("{}{arrow}", k.attribute)
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// An entry's position in a policy's total order, flattened to plain
/// integers (see [`CachePolicy::sort_key`]): lexicographically greater ⇔
/// better. The complemented entry id makes keys unique per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PolicyKey {
    /// Direction-transformed attribute values, most significant first;
    /// unused slots are zero (constant, so they never break ties).
    slots: [u64; 4],
    /// `!id` — smaller ids (installed earlier) rank better.
    id_rank: u64,
}

/// Incrementally repaired victim/promotion index for one cache level.
///
/// Two lazy binary heaps hold `(PolicyKey, id)` snapshots: a min-heap
/// whose top is the policy's *worst* resident (the eviction victim) and a
/// max-heap whose top is the *best* (the backfill candidate). Snapshots
/// are pushed on insert and whenever a touch changes an entry's key
/// (never, under a policy whose [`CachePolicy::reads_traffic`] is
/// false); removals and touches invalidate old snapshots *lazily* —
/// a popped snapshot is discarded unless the entry is still installed
/// with exactly that key. Queries are therefore O(log n) amortized
/// (each stale snapshot is paid for by the push that created it), and
/// always return precisely what the linear
/// [`CachePolicy::worst_index`]/[`CachePolicy::best_index`] oracles
/// would, because [`PolicyKey`] order equals `cmp_entries` order.
#[derive(Debug, Clone, Default)]
pub struct EvictionIndex {
    /// Min-heap: worst snapshot on top.
    worst: BinaryHeap<Reverse<(PolicyKey, EntryId)>>,
    /// Max-heap: best snapshot on top.
    best: BinaryHeap<(PolicyKey, EntryId)>,
}

impl EvictionIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> EvictionIndex {
        EvictionIndex::default()
    }

    /// Snapshots (live + stale) currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.worst.len().max(self.best.len())
    }

    /// True when no snapshots are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.worst.is_empty() && self.best.is_empty()
    }

    /// Records the current key of an entry — on insert, and again after
    /// every change to it (the old snapshot turns stale).
    pub fn note(&mut self, key: PolicyKey, id: EntryId) {
        self.worst.push(Reverse((key, id)));
        self.best.push((key, id));
    }

    /// Drops every snapshot and re-records all current residents. Called
    /// when stale snapshots outnumber live entries too heavily, bounding
    /// heap growth under touch-heavy workloads.
    pub fn rebuild(&mut self, policy: &CachePolicy, table: &FlowTable) {
        self.worst.clear();
        self.best.clear();
        for e in table.iter() {
            self.note(policy.sort_key(e), e.id);
        }
    }

    /// A snapshot is live iff its entry is still installed with exactly
    /// the recorded key (touched entries re-record under the new key).
    fn validate(
        policy: &CachePolicy,
        table: &FlowTable,
        key: PolicyKey,
        id: EntryId,
    ) -> Option<usize> {
        let handle = table.handle_of(id)?;
        (policy.sort_key(table.get(handle)) == key).then_some(handle)
    }

    /// Handle of the worst resident of `table` (the eviction victim),
    /// the entry `policy.worst_index(&table.snapshot())` picks.
    pub fn worst(&mut self, policy: &CachePolicy, table: &FlowTable) -> Option<usize> {
        while let Some(&Reverse((key, id))) = self.worst.peek() {
            match Self::validate(policy, table, key, id) {
                Some(handle) => return Some(handle),
                None => {
                    self.worst.pop();
                }
            }
        }
        None
    }

    /// Handle of the best resident of `table` (the backfill/promotion
    /// candidate), the entry `policy.best_index(&table.snapshot())` picks.
    pub fn best(&mut self, policy: &CachePolicy, table: &FlowTable) -> Option<usize> {
        while let Some(&(key, id)) = self.best.peek() {
            match Self::validate(policy, table, key, id) {
                Some(handle) => return Some(handle),
                None => {
                    self.best.pop();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryId;
    use ofwire::flow_match::FlowMatch;
    use simnet::time::SimTime;

    fn entry(id: u64, inserted: u64, used: u64, pkts: u64, prio: u16) -> FlowEntry {
        let mut e = FlowEntry::new(
            EntryId(id),
            FlowMatch::l3_for_id(id as u32),
            prio,
            vec![],
            SimTime(inserted),
        );
        e.last_used_at = SimTime(used);
        e.packet_count = pkts;
        e
    }

    #[test]
    fn fifo_keeps_oldest() {
        let p = CachePolicy::fifo();
        let old = entry(1, 10, 10, 0, 5);
        let new = entry(2, 20, 20, 0, 5);
        assert_eq!(p.cmp_entries(&old, &new), Ordering::Greater);
        let v = vec![old, new];
        assert_eq!(p.worst_index(&v), Some(1));
        assert_eq!(p.best_index(&v), Some(0));
    }

    #[test]
    fn lru_keeps_most_recent() {
        let p = CachePolicy::lru();
        let stale = entry(1, 0, 10, 5, 5);
        let fresh = entry(2, 0, 99, 1, 5);
        assert_eq!(p.cmp_entries(&fresh, &stale), Ordering::Greater);
        assert_eq!(p.worst_index(&[stale, fresh]), Some(0));
    }

    #[test]
    fn lfu_keeps_most_trafficked() {
        let p = CachePolicy::lfu();
        let hot = entry(1, 0, 0, 100, 1);
        let cold = entry(2, 0, 0, 2, 9);
        assert_eq!(p.cmp_entries(&hot, &cold), Ordering::Greater);
    }

    #[test]
    fn priority_keeps_highest() {
        let p = CachePolicy::priority();
        let hi = entry(1, 0, 0, 0, 200);
        let lo = entry(2, 0, 0, 0, 100);
        assert_eq!(p.cmp_entries(&hi, &lo), Ordering::Greater);
    }

    #[test]
    fn lex_tie_break_consults_second_key() {
        let p = CachePolicy::priority_then_lru();
        let a = entry(1, 0, 50, 0, 100);
        let b = entry(2, 0, 60, 0, 100); // same priority, fresher use
        assert_eq!(p.cmp_entries(&b, &a), Ordering::Greater);
        // Different priorities: first key decides regardless of use time.
        let c = entry(3, 0, 1, 0, 200);
        assert_eq!(p.cmp_entries(&c, &b), Ordering::Greater);
    }

    #[test]
    fn final_tie_break_is_total_and_deterministic() {
        let p = CachePolicy::lru();
        let a = entry(1, 0, 10, 0, 5);
        let b = entry(2, 0, 10, 0, 5);
        // Identical attributes: lower id (installed earlier) wins.
        assert_eq!(p.cmp_entries(&a, &b), Ordering::Greater);
        assert_eq!(p.cmp_entries(&b, &a), Ordering::Less);
    }

    #[test]
    fn worst_and_best_of_empty() {
        let p = CachePolicy::lru();
        assert_eq!(p.worst_index(&[]), None);
        assert_eq!(p.best_index(&[]), None);
    }

    #[test]
    fn describe_is_readable() {
        assert_eq!(CachePolicy::fifo().describe(), "insertion_time↓");
        assert_eq!(
            CachePolicy::priority_then_lru().describe(),
            "priority↑,use_time↑"
        );
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::KeepHigh.flip(), Direction::KeepLow);
        assert_eq!(Direction::KeepLow.flip(), Direction::KeepHigh);
    }

    #[test]
    fn serial_attributes() {
        assert!(Attribute::InsertionTime.is_serial());
        assert!(Attribute::UseTime.is_serial());
        assert!(!Attribute::TrafficCount.is_serial());
        assert!(!Attribute::Priority.is_serial());
    }
}
