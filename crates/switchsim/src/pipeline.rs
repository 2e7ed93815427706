//! Multi-level flow-table pipelines — the paper's "flow table organization
//! as a multilevel cache for the entire set of forwarding rules" (§5.1).
//!
//! Two architectures cover every switch in the paper:
//!
//! * [`Pipeline::PolicyCached`] — N levels (level 0 fastest, usually the
//!   TCAM; deeper levels software), with membership managed by a
//!   [`CachePolicy`]. FIFO policy reproduces Switch #1 (software table as
//!   a FIFO spill buffer for the TCAM); a single bounded level with no
//!   overflow reproduces Switches #2/#3 (TCAM-only, reject when full);
//!   LRU/LFU/priority/LEX-composite policies give the family Algorithm 2
//!   infers.
//! * [`Pipeline::OvsMicroflow`] — OVS: rules live in an unbounded
//!   userspace table; the first packet of each flow is processed on the
//!   slow path and clones an exact-match microflow into the kernel cache
//!   (1-to-N mapping), so later packets take the fast path.
//!
//! Lookups search levels in order and the **first covering hit wins**,
//! even if a deeper level holds a higher-priority overlapping rule. This
//! deliberately reproduces the policy-violation hazard the paper notes
//! for FIFO-managed tables.

use crate::cache::{CachePolicy, EvictionIndex};
use crate::entry::{EntryId, FlowEntry};
use crate::expiry::{expiry_reason, Expired};
use crate::table::{FlowTable, MicroflowCache};
use crate::tcam::TcamGeometry;
use ofwire::action::ActionList;
use ofwire::flow_match::{FlowKey, FlowMatch};
use ofwire::types::PortNo;
use simnet::time::SimTime;

/// One cache level of a policy-managed pipeline.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    /// Human-readable name (reported in table stats).
    pub name: String,
    /// Slot geometry; `None` means unbounded software.
    pub geometry: Option<TcamGeometry>,
    /// Entries currently resident at this level.
    pub table: FlowTable,
    /// Units consumed (only meaningful when `geometry` is `Some`).
    used_units: u64,
    /// Lazy victim/promotion index over `table`, keyed by the owning
    /// pipeline's policy (`insert` records the entry's key under that
    /// policy, `note_touched` re-records it after a hit that changed it).
    evict: EvictionIndex,
}

impl CacheLevel {
    /// A bounded hardware level.
    #[must_use]
    pub fn hardware(name: impl Into<String>, geometry: TcamGeometry) -> CacheLevel {
        CacheLevel {
            name: name.into(),
            geometry: Some(geometry),
            table: FlowTable::new(),
            used_units: 0,
            evict: EvictionIndex::new(),
        }
    }

    /// An unbounded software level.
    #[must_use]
    pub fn software(name: impl Into<String>) -> CacheLevel {
        CacheLevel {
            name: name.into(),
            geometry: None,
            table: FlowTable::new(),
            used_units: 0,
            evict: EvictionIndex::new(),
        }
    }

    /// Whether an entry fits right now.
    #[must_use]
    pub fn fits(&self, e: &FlowEntry) -> bool {
        match &self.geometry {
            None => true,
            Some(g) => g.fits(self.used_units, e.kind()),
        }
    }

    /// Whether swapping `out` for `in_` keeps the level within capacity.
    #[must_use]
    fn fits_swapped(&self, out: &FlowEntry, in_: &FlowEntry) -> bool {
        match &self.geometry {
            None => true,
            Some(g) => {
                self.used_units - g.cost(out.kind()) + g.cost(in_.kind()) <= g.capacity_units
            }
        }
    }

    fn insert(&mut self, policy: &CachePolicy, e: FlowEntry) {
        if let Some(g) = &self.geometry {
            self.used_units += g.cost(e.kind());
        }
        self.evict.note(policy.sort_key(&e), e.id);
        self.table.insert(e);
        self.maybe_compact(policy);
    }

    /// Gives back the capacity units a removed entry held. The eviction
    /// index drops the entry's snapshots lazily.
    fn uncharge(&mut self, e: &FlowEntry) {
        if let Some(g) = &self.geometry {
            self.used_units -= g.cost(e.kind());
        }
    }

    fn remove_at(&mut self, handle: usize) -> FlowEntry {
        let e = self.table.remove_at(handle);
        self.uncharge(&e);
        e
    }

    /// Removes the strict target of `(filter, priority)`, if resident
    /// here (see [`FlowTable::remove_strict`]).
    fn remove_strict(&mut self, filter: &FlowMatch, priority: u16) -> Option<FlowEntry> {
        let e = self.table.remove_strict(filter, priority)?;
        self.uncharge(&e);
        Some(e)
    }

    /// Batch removal of distinct handles in install order (see
    /// [`FlowTable::remove_indices`]), one O(1) unlink each. Returns the
    /// removed entries in the order given; the eviction index drops
    /// their snapshots lazily.
    fn remove_indices(&mut self, handles: Vec<usize>) -> Vec<FlowEntry> {
        let removed = self.table.remove_indices(handles);
        for e in &removed {
            self.uncharge(e);
        }
        removed
    }

    /// Re-records the entry of `handle` after its attributes changed
    /// (its previous eviction-index snapshot just went stale).
    fn note_touched(&mut self, policy: &CachePolicy, handle: usize) {
        let e = self.table.get(handle);
        self.evict.note(policy.sort_key(e), e.id);
        self.maybe_compact(policy);
    }

    /// Rebuilds the eviction index when stale snapshots dominate, so its
    /// memory stays proportional to the level's population.
    fn maybe_compact(&mut self, policy: &CachePolicy) {
        if self.evict.len() > 8 * self.table.len() + 64 {
            self.evict.rebuild(policy, &self.table);
        }
    }

    /// Handle of this level's eviction victim under `policy`; `None`
    /// when empty. O(log n) amortized via the lazy eviction index.
    pub fn worst_pos(&mut self, policy: &CachePolicy) -> Option<usize> {
        let pos = self.evict.worst(policy, &self.table);
        debug_assert_eq!(
            pos.map(|h| self.table.get(h).id),
            policy
                .worst_index(&self.table.snapshot())
                .and_then(|i| self.table.iter().nth(i))
                .map(|e| e.id),
            "eviction index diverged from the linear worst-victim oracle"
        );
        pos
    }

    /// Handle of this level's best resident under `policy` (the
    /// backfill/promotion candidate); `None` when empty.
    pub fn best_pos(&mut self, policy: &CachePolicy) -> Option<usize> {
        let pos = self.evict.best(policy, &self.table);
        debug_assert_eq!(
            pos.map(|h| self.table.get(h).id),
            policy
                .best_index(&self.table.snapshot())
                .and_then(|i| self.table.iter().nth(i))
                .map(|e| e.id),
            "eviction index diverged from the linear best-candidate oracle"
        );
        pos
    }

    /// Units currently consumed.
    #[must_use]
    pub fn used_units(&self) -> u64 {
        self.used_units
    }
}

/// Result of a data-plane lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hit {
    /// Served by table level `level` (0 = fastest).
    Table {
        /// Which level matched.
        level: usize,
        /// The matching entry.
        entry: EntryId,
    },
    /// No table matched; the packet goes to the controller.
    Miss,
}

/// Result of installing a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddOutcome {
    /// Level where the new rule landed.
    pub level: usize,
    /// Whether that level is hardware-backed.
    pub hardware: bool,
    /// Entries shifted at that level to maintain priority order.
    pub shifts: usize,
    /// Id assigned to the new entry.
    pub id: EntryId,
}

/// Result of a modify operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModOutcome {
    /// Existing entries had their actions rewritten.
    Modified(usize),
    /// Nothing matched; per OpenFlow semantics the rule was added.
    AddedInstead(AddOutcome),
}

/// The error returned when every table is full (surfaced to the
/// controller as `FlowModFailed/ALL_TABLES_FULL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

/// A switch's flow-table organization.
// One `Pipeline` exists per modelled switch, never per event, so the
// inline size of the SoA-widened `FlowTable` costs nothing; boxing it
// would only add a pointer chase to every packet lookup.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Pipeline {
    /// Policy-managed multilevel cache.
    PolicyCached {
        /// Levels, fastest first.
        levels: Vec<CacheLevel>,
        /// Membership policy.
        policy: CachePolicy,
    },
    /// OVS-style userspace table + kernel microflow cache.
    OvsMicroflow {
        /// Exact-match kernel cache (level 0).
        kernel: MicroflowCache,
        /// Wildcard userspace table (level 1).
        userspace: FlowTable,
    },
}

impl Pipeline {
    /// A TCAM-only pipeline (Switches #2/#3): inserts are rejected once
    /// the TCAM is full.
    #[must_use]
    pub fn tcam_only(geometry: TcamGeometry) -> Pipeline {
        Pipeline::PolicyCached {
            levels: vec![CacheLevel::hardware("tcam", geometry)],
            policy: CachePolicy::fifo(),
        }
    }

    /// TCAM + unbounded software table managed by `policy`.
    #[must_use]
    pub fn cached(geometry: TcamGeometry, policy: CachePolicy) -> Pipeline {
        Pipeline::PolicyCached {
            levels: vec![
                CacheLevel::hardware("tcam", geometry),
                CacheLevel::software("userspace"),
            ],
            policy,
        }
    }

    /// An OVS pipeline with the given kernel-cache capacity.
    #[must_use]
    pub fn ovs(kernel_capacity: usize) -> Pipeline {
        Pipeline::OvsMicroflow {
            kernel: MicroflowCache::new(kernel_capacity),
            userspace: FlowTable::new(),
        }
    }

    /// Number of lookup levels (controller path excluded).
    #[must_use]
    pub fn level_count(&self) -> usize {
        match self {
            Pipeline::PolicyCached { levels, .. } => levels.len(),
            Pipeline::OvsMicroflow { .. } => 2,
        }
    }

    /// Total installed rules (microflow clones not counted).
    #[must_use]
    pub fn rule_count(&self) -> usize {
        match self {
            Pipeline::PolicyCached { levels, .. } => levels.iter().map(|l| l.table.len()).sum(),
            Pipeline::OvsMicroflow { userspace, .. } => userspace.len(),
        }
    }

    /// Rules resident at a given level. For OVS, level 0 counts kernel
    /// microflows.
    #[must_use]
    pub fn level_occupancy(&self, level: usize) -> usize {
        match self {
            Pipeline::PolicyCached { levels, .. } => levels.get(level).map_or(0, |l| l.table.len()),
            Pipeline::OvsMicroflow { kernel, userspace } => match level {
                0 => kernel.len(),
                1 => userspace.len(),
                _ => 0,
            },
        }
    }

    /// The level currently holding `id`, if installed.
    #[must_use]
    pub fn level_of(&self, id: EntryId) -> Option<usize> {
        match self {
            Pipeline::PolicyCached { levels, .. } => levels
                .iter()
                .enumerate()
                .find_map(|(i, l)| l.table.handle_of(id).map(|_| i)),
            Pipeline::OvsMicroflow { userspace, .. } => userspace.handle_of(id).map(|_| 1),
        }
    }

    /// Iterates all installed rules with their level.
    pub fn entries(&self) -> Vec<(usize, &FlowEntry)> {
        match self {
            Pipeline::PolicyCached { levels, .. } => levels
                .iter()
                .enumerate()
                .flat_map(|(i, l)| l.table.iter().map(move |e| (i, e)))
                .collect(),
            Pipeline::OvsMicroflow { userspace, .. } => userspace.iter().map(|e| (1, e)).collect(),
        }
    }

    /// Installs a rule.
    pub fn add(&mut self, entry: FlowEntry) -> Result<AddOutcome, TableFull> {
        match self {
            Pipeline::PolicyCached { levels, policy } => Self::policy_add(levels, policy, entry),
            Pipeline::OvsMicroflow { userspace, .. } => {
                let id = entry.id;
                userspace.insert(entry);
                Ok(AddOutcome {
                    level: 1,
                    hardware: false,
                    shifts: 0,
                    id,
                })
            }
        }
    }

    fn policy_add(
        levels: &mut [CacheLevel],
        policy: &CachePolicy,
        entry: FlowEntry,
    ) -> Result<AddOutcome, TableFull> {
        // Plan, without mutating tables: walk levels deciding where the
        // new entry lands and which resident entries cascade downward.
        #[derive(Clone, Copy)]
        enum Step {
            InstallHere,
            SwapWithWorst(usize), // handle of evicted entry in level table
        }
        let mut steps: Vec<(usize, Step)> = Vec::new();
        // The entry "in hand" while planning; starts as (a copy of) the
        // new one and becomes each evicted entry in turn.
        let mut in_hand: FlowEntry = entry.clone();
        let mut landed = false;
        for (i, level) in levels.iter_mut().enumerate() {
            if level.fits(&in_hand) {
                steps.push((i, Step::InstallHere));
                landed = true;
                break;
            }
            let worst_idx = match level.worst_pos(policy) {
                Some(w) => w,
                None => continue, // zero-capacity level
            };
            let worst = level.table.get(worst_idx);
            let in_hand_better = policy.cmp_entries(&in_hand, worst) == std::cmp::Ordering::Greater;
            if in_hand_better && level.fits_swapped(worst, &in_hand) {
                steps.push((i, Step::SwapWithWorst(worst_idx)));
                in_hand = worst.clone();
            }
            // Otherwise the in-hand entry belongs deeper; keep walking.
        }
        if !landed {
            return Err(TableFull);
        }

        // Apply the plan. The first step concerns the *new* entry; later
        // steps move evicted entries downward. Shifts are charged where
        // the new entry physically lands: the count of already-resident
        // entries strictly above its priority at insert time, read from
        // the level's priority index just before the insert (later steps
        // only touch deeper levels, so the count never changes again).
        let new_id = entry.id;
        let new_priority = entry.priority;
        let mut carried: FlowEntry = entry;
        let mut new_entry_level = 0;
        let mut shifts = 0;
        for (level_idx, step) in steps {
            let carried_is_new = carried.id == new_id;
            match step {
                Step::InstallHere => {
                    if carried_is_new {
                        new_entry_level = level_idx;
                        shifts = levels[level_idx].table.count_above(new_priority);
                    }
                    levels[level_idx].insert(policy, carried);
                    break;
                }
                Step::SwapWithWorst(worst_idx) => {
                    let evicted = levels[level_idx].remove_at(worst_idx);
                    if carried_is_new {
                        new_entry_level = level_idx;
                        shifts = levels[level_idx].table.count_above(new_priority);
                    }
                    levels[level_idx].insert(policy, carried);
                    carried = evicted;
                }
            }
        }
        let hardware = levels[new_entry_level].geometry.is_some();
        Ok(AddOutcome {
            level: new_entry_level,
            hardware,
            shifts,
            id: new_id,
        })
    }

    /// Looks up `key`, updates the matched entry's attributes, and
    /// applies traffic-driven cache movement (promotion / microflow
    /// cloning). `bytes` is the packet size for counters.
    pub fn lookup_touch(&mut self, key: &FlowKey, now: SimTime, bytes: u64) -> Hit {
        match self {
            Pipeline::PolicyCached { levels, policy } => {
                let mut found: Option<(usize, usize)> = None;
                for (li, level) in levels.iter().enumerate() {
                    if let Some(ei) = level.table.lookup(key) {
                        found = Some((li, ei));
                        break;
                    }
                }
                let (li, ei) = match found {
                    Some(f) => f,
                    None => return Hit::Miss,
                };
                let id = {
                    let e = levels[li].table.get_mut(ei);
                    e.touch(now, bytes);
                    e.id
                };
                // If the policy reads what the touch wrote, the entry
                // moved in its order and the eviction-index snapshot went
                // stale. Otherwise the snapshot on file is still the
                // entry's key and there is nothing to write.
                if policy.reads_traffic() {
                    levels[li].note_touched(policy, ei);
                }
                // Promotion: after the touch, the entry may outrank the
                // worst entry of a faster level; bubble it up one level at
                // a time (a hit at level 0 changes nothing).
                let mut cur_level = li;
                let mut cur_idx = ei;
                while cur_level > 0 {
                    let (upper, lower) = levels.split_at_mut(cur_level);
                    let up = &mut upper[cur_level - 1];
                    let lo = &mut lower[0];
                    let candidate = lo.table.get(cur_idx);
                    let moved = if up.fits(candidate) {
                        let e = lo.remove_at(cur_idx);
                        up.insert(policy, e);
                        true
                    } else {
                        match up.worst_pos(policy) {
                            Some(wi) => {
                                let worst = up.table.get(wi);
                                if policy.cmp_entries(candidate, worst)
                                    == std::cmp::Ordering::Greater
                                    && up.fits_swapped(worst, candidate)
                                {
                                    let demoted = up.remove_at(wi);
                                    let promoted = lo.remove_at(cur_idx);
                                    up.insert(policy, promoted);
                                    lo.insert(policy, demoted);
                                    true
                                } else {
                                    false
                                }
                            }
                            None => false,
                        }
                    };
                    if !moved {
                        break;
                    }
                    cur_level -= 1;
                    cur_idx = levels[cur_level]
                        .table
                        .handle_of(id)
                        .expect("promoted entry present");
                }
                Hit::Table {
                    level: li,
                    entry: id,
                }
            }
            Pipeline::OvsMicroflow { kernel, userspace } => {
                if let Some(parent) = kernel.lookup_touch(key, now) {
                    if let Some(pi) = userspace.handle_of(parent) {
                        userspace.get_mut(pi).touch(now, bytes);
                    }
                    return Hit::Table {
                        level: 0,
                        entry: parent,
                    };
                }
                match userspace.lookup(key) {
                    Some(ei) => {
                        let e = userspace.get_mut(ei);
                        e.touch(now, bytes);
                        let id = e.id;
                        // Slow-path processing clones an exact microflow
                        // into the kernel so the next packet is fast.
                        kernel.install(*key, id, now);
                        Hit::Table {
                            level: 1,
                            entry: id,
                        }
                    }
                    None => Hit::Miss,
                }
            }
        }
    }

    /// Deletes entries. Strict deletes match exactly one (match,
    /// priority) — at most one entry per level, removed in one index
    /// probe; loose deletes remove everything subsumed by the filter
    /// (with optional out-port restriction). Returns the removed count.
    pub fn delete(
        &mut self,
        filter: &FlowMatch,
        priority: u16,
        strict: bool,
        out_port: PortNo,
    ) -> usize {
        match self {
            Pipeline::PolicyCached { levels, policy } => {
                let mut removed = 0;
                for level in levels.iter_mut() {
                    removed += if strict {
                        usize::from(level.remove_strict(filter, priority).is_some())
                    } else {
                        let idxs = level.table.select_loose(filter, out_port);
                        level.remove_indices(idxs).len()
                    };
                }
                if removed > 0 {
                    Self::backfill(levels, policy);
                }
                removed
            }
            Pipeline::OvsMicroflow { kernel, userspace } => {
                if strict {
                    match userspace.remove_strict(filter, priority) {
                        Some(e) => {
                            kernel.invalidate_parent(e.id);
                            1
                        }
                        None => 0,
                    }
                } else {
                    let idxs = userspace.select_loose(filter, out_port);
                    let removed = userspace.remove_indices(idxs);
                    for e in &removed {
                        kernel.invalidate_parent(e.id);
                    }
                    removed.len()
                }
            }
        }
    }

    /// After deletions free fast-level capacity, promote the best
    /// lower-level entries into the space (for FIFO this is exactly
    /// "the oldest entry in the software table will be pushed into TCAM
    /// whenever an empty slot is available").
    fn backfill(levels: &mut [CacheLevel], policy: &CachePolicy) {
        for upper_idx in 0..levels.len().saturating_sub(1) {
            loop {
                let (upper, lower_levels) = levels.split_at_mut(upper_idx + 1);
                let up = &mut upper[upper_idx];
                // Each deeper level's own best, then the best of those —
                // nearest level first on ties (replace only on strictly
                // better), matching the old single full scan.
                let mut bests: Vec<(usize, usize)> = Vec::new();
                for (off, lo) in lower_levels.iter_mut().enumerate() {
                    if let Some(bi) = lo.best_pos(policy) {
                        bests.push((off, bi));
                    }
                }
                let mut candidate: Option<(usize, usize)> = None;
                for &(off, bi) in &bests {
                    match candidate {
                        None => candidate = Some((off, bi)),
                        Some((coff, cbi)) => {
                            let cur = lower_levels[coff].table.get(cbi);
                            let new = lower_levels[off].table.get(bi);
                            if policy.cmp_entries(new, cur) == std::cmp::Ordering::Greater {
                                candidate = Some((off, bi));
                            }
                        }
                    }
                }
                let (off, bi) = match candidate {
                    Some(c) => c,
                    None => break,
                };
                if !up.fits(lower_levels[off].table.get(bi)) {
                    break;
                }
                let e = lower_levels[off].remove_at(bi);
                up.insert(policy, e);
            }
        }
    }

    /// How many installed rules carry an idle or hard timeout. Zero
    /// means [`Pipeline::expire`] cannot remove anything.
    #[must_use]
    pub fn timeout_count(&self) -> usize {
        match self {
            Pipeline::PolicyCached { levels, .. } => {
                levels.iter().map(|l| l.table.timeout_count()).sum()
            }
            Pipeline::OvsMicroflow { userspace, .. } => userspace.timeout_count(),
        }
    }

    /// Removes every entry whose idle or hard timeout has elapsed at
    /// `now`, returning the removals (for `flow_removed`
    /// notifications). Freed fast-level space is backfilled per the
    /// cache policy; microflows cloned from expired parents are
    /// invalidated.
    pub fn expire(&mut self, now: SimTime) -> Vec<Expired> {
        let mut out = Vec::new();
        match self {
            Pipeline::PolicyCached { levels, policy } => {
                for level in levels.iter_mut() {
                    // The sweep runs before every control message; levels
                    // where no resident has a timeout (the common case in
                    // inference fills) are skipped in O(1).
                    if level.table.timeout_count() == 0 {
                        continue;
                    }
                    let lapsed: Vec<(usize, _)> = level
                        .table
                        .handles()
                        .filter_map(|h| expiry_reason(level.table.get(h), now).map(|r| (h, r)))
                        .collect();
                    if lapsed.is_empty() {
                        continue;
                    }
                    // Notifications go out in install order, as listed.
                    let removed = level.remove_indices(lapsed.iter().map(|&(h, _)| h).collect());
                    for (entry, &(_, reason)) in removed.into_iter().zip(&lapsed) {
                        out.push(Expired { entry, reason });
                    }
                }
                if !out.is_empty() {
                    Self::backfill(levels, policy);
                }
            }
            Pipeline::OvsMicroflow { kernel, userspace } => {
                if userspace.timeout_count() > 0 {
                    let lapsed: Vec<(usize, _)> = userspace
                        .handles()
                        .filter_map(|h| expiry_reason(userspace.get(h), now).map(|r| (h, r)))
                        .collect();
                    let removed =
                        userspace.remove_indices(lapsed.iter().map(|&(h, _)| h).collect());
                    for (entry, &(_, reason)) in removed.into_iter().zip(&lapsed) {
                        kernel.invalidate_parent(entry.id);
                        out.push(Expired { entry, reason });
                    }
                }
            }
        }
        out
    }

    /// Modifies entries' actions. Per OpenFlow, a modify that matches
    /// nothing behaves as an add (the caller supplies `fallback_entry`
    /// for that case).
    pub fn modify(
        &mut self,
        filter: &FlowMatch,
        priority: u16,
        strict: bool,
        actions: &ActionList,
        fallback_entry: FlowEntry,
    ) -> Result<ModOutcome, TableFull> {
        let touched = match self {
            Pipeline::PolicyCached { levels, .. } => levels
                .iter_mut()
                .map(|level| {
                    Self::rewrite_selected(&mut level.table, filter, priority, strict, |e| {
                        e.actions = actions.clone();
                    })
                })
                .sum(),
            Pipeline::OvsMicroflow { kernel, userspace } => {
                Self::rewrite_selected(userspace, filter, priority, strict, |e| {
                    e.actions = actions.clone();
                    kernel.invalidate_parent(e.id);
                })
            }
        };
        if touched == 0 {
            self.add(fallback_entry).map(ModOutcome::AddedInstead)
        } else {
            Ok(ModOutcome::Modified(touched))
        }
    }

    /// Applies `rewrite` to every entry of `table` a modify selects,
    /// returning how many: the one strict target (no `Vec` on that
    /// path), or everything the loose filter subsumes.
    fn rewrite_selected(
        table: &mut FlowTable,
        filter: &FlowMatch,
        priority: u16,
        strict: bool,
        mut rewrite: impl FnMut(&mut FlowEntry),
    ) -> usize {
        if strict {
            match table.find_strict(filter, priority) {
                Some(i) => {
                    rewrite(table.get_mut(i));
                    1
                }
                None => 0,
            }
        } else {
            let idxs = table.select_loose(filter, PortNo::NONE);
            for &i in &idxs {
                rewrite(table.get_mut(i));
            }
            idxs.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofwire::action::Action;

    fn entry(id: u64, fid: u32, prio: u16, now: SimTime) -> FlowEntry {
        FlowEntry::new(
            EntryId(id),
            FlowMatch::l3_for_id(fid),
            prio,
            vec![Action::output(1)],
            now,
        )
    }

    fn geometry(n: u64) -> TcamGeometry {
        TcamGeometry::double_wide(n)
    }

    #[test]
    fn tcam_only_rejects_when_full() {
        let mut p = Pipeline::tcam_only(geometry(3));
        for i in 0..3 {
            assert!(p.add(entry(i, i as u32, 1, SimTime(i))).is_ok());
        }
        assert_eq!(p.add(entry(9, 9, 1, SimTime(9))), Err(TableFull));
        assert_eq!(p.rule_count(), 3);
    }

    #[test]
    fn fifo_spill_keeps_oldest_in_tcam() {
        let mut p = Pipeline::cached(geometry(2), CachePolicy::fifo());
        for i in 0..4 {
            let out = p.add(entry(i, i as u32, 1, SimTime(i))).unwrap();
            if i < 2 {
                assert_eq!(out.level, 0, "entry {i} should land in tcam");
                assert!(out.hardware);
            } else {
                assert_eq!(out.level, 1, "entry {i} should spill to software");
                assert!(!out.hardware);
            }
        }
        assert_eq!(p.level_occupancy(0), 2);
        assert_eq!(p.level_occupancy(1), 2);
        // FIFO is traffic independent: hammering a software entry never
        // promotes it.
        for _ in 0..10 {
            let hit = p.lookup_touch(&FlowMatch::key_for_id(3), SimTime(100), 64);
            assert_eq!(
                hit,
                Hit::Table {
                    level: 1,
                    entry: EntryId(3)
                }
            );
        }
    }

    #[test]
    fn fifo_promotes_oldest_on_delete() {
        let mut p = Pipeline::cached(geometry(2), CachePolicy::fifo());
        for i in 0..4 {
            p.add(entry(i, i as u32, 1, SimTime(i))).unwrap();
        }
        // Delete a TCAM-resident entry; the oldest software entry (#2)
        // must be promoted into the freed slot.
        let removed = p.delete(&FlowMatch::l3_for_id(0), 1, false, PortNo::NONE);
        assert_eq!(removed, 1);
        assert_eq!(p.level_of(EntryId(2)), Some(0));
        assert_eq!(p.level_of(EntryId(3)), Some(1));
    }

    #[test]
    fn lru_promotes_on_traffic() {
        let mut p = Pipeline::cached(geometry(2), CachePolicy::lru());
        for i in 0..3 {
            p.add(entry(i, i as u32, 1, SimTime(i))).unwrap();
        }
        // LRU admits the new entry: id 2 (most recent use stamp) is in
        // TCAM; one of 0/1 was demoted — the LRU one, id 0.
        assert_eq!(p.level_of(EntryId(0)), Some(1));
        assert_eq!(p.level_of(EntryId(2)), Some(0));
        // Touch the software-resident entry: it must get promoted,
        // demoting the now-least-recently-used TCAM entry.
        let hit = p.lookup_touch(&FlowMatch::key_for_id(0), SimTime(100), 64);
        assert_eq!(
            hit,
            Hit::Table {
                level: 1,
                entry: EntryId(0)
            }
        );
        assert_eq!(p.level_of(EntryId(0)), Some(0));
        assert_eq!(p.level_of(EntryId(1)), Some(1));
    }

    #[test]
    fn cache_hit_does_not_change_membership() {
        // The property Algorithm 1 relies on (§5.2).
        let mut p = Pipeline::cached(geometry(2), CachePolicy::lru());
        for i in 0..4 {
            p.add(entry(i, i as u32, 1, SimTime(i))).unwrap();
        }
        let in_tcam: Vec<Option<usize>> = (0..4).map(|i| p.level_of(EntryId(i))).collect();
        // Hit a TCAM-resident entry repeatedly.
        let tcam_resident = (0..4u64)
            .find(|&i| p.level_of(EntryId(i)) == Some(0))
            .unwrap();
        for t in 0..5 {
            p.lookup_touch(
                &FlowMatch::key_for_id(tcam_resident as u32),
                SimTime(1000 + t),
                64,
            );
        }
        let after: Vec<Option<usize>> = (0..4).map(|i| p.level_of(EntryId(i))).collect();
        assert_eq!(in_tcam, after);
    }

    #[test]
    fn first_level_hit_wins_even_with_higher_priority_below() {
        // The policy-violation hazard for FIFO-managed tables (§3).
        let mut p = Pipeline::cached(geometry(1), CachePolicy::fifo());
        // Low-priority rule fills the TCAM first.
        p.add(entry(0, 7, 1, SimTime(0))).unwrap();
        // Higher-priority overlapping rule lands in software.
        let mut hi = entry(1, 7, 100, SimTime(1));
        hi.flow_match = FlowMatch::l3_for_id(7).into();
        p.add(hi).unwrap();
        let hit = p.lookup_touch(&FlowMatch::key_for_id(7), SimTime(2), 64);
        assert_eq!(
            hit,
            Hit::Table {
                level: 0,
                entry: EntryId(0)
            }
        );
    }

    #[test]
    fn ovs_three_tier_behaviour() {
        let mut p = Pipeline::ovs(1000);
        p.add(entry(0, 5, 1, SimTime(0))).unwrap();
        // First packet: slow path (userspace) + microflow clone.
        let first = p.lookup_touch(&FlowMatch::key_for_id(5), SimTime(10), 64);
        assert_eq!(
            first,
            Hit::Table {
                level: 1,
                entry: EntryId(0)
            }
        );
        // Second packet of the same flow: kernel fast path.
        let second = p.lookup_touch(&FlowMatch::key_for_id(5), SimTime(20), 64);
        assert_eq!(
            second,
            Hit::Table {
                level: 0,
                entry: EntryId(0)
            }
        );
        // Unknown flow: miss to controller.
        let miss = p.lookup_touch(&FlowMatch::key_for_id(99), SimTime(30), 64);
        assert_eq!(miss, Hit::Miss);
        // Parent attributes were updated through both paths.
        let (_, e) = p.entries()[0];
        assert_eq!(e.packet_count, 2);
    }

    #[test]
    fn ovs_delete_invalidates_microflows() {
        let mut p = Pipeline::ovs(1000);
        p.add(entry(0, 5, 1, SimTime(0))).unwrap();
        p.lookup_touch(&FlowMatch::key_for_id(5), SimTime(1), 64);
        assert_eq!(p.level_occupancy(0), 1);
        let removed = p.delete(&FlowMatch::l3_for_id(5), 1, false, PortNo::NONE);
        assert_eq!(removed, 1);
        assert_eq!(p.level_occupancy(0), 0);
        assert_eq!(
            p.lookup_touch(&FlowMatch::key_for_id(5), SimTime(2), 64),
            Hit::Miss
        );
    }

    #[test]
    fn modify_rewrites_actions_without_attribute_reset() {
        let mut p = Pipeline::cached(geometry(4), CachePolicy::fifo());
        p.add(entry(0, 5, 1, SimTime(0))).unwrap();
        p.lookup_touch(&FlowMatch::key_for_id(5), SimTime(7), 64);
        let out = p
            .modify(
                &FlowMatch::l3_for_id(5),
                1,
                true,
                &Action::output(9).into(),
                entry(1, 5, 1, SimTime(8)),
            )
            .unwrap();
        assert_eq!(out, ModOutcome::Modified(1));
        let (_, e) = p.entries()[0];
        assert_eq!(e.actions, vec![Action::output(9)]);
        assert_eq!(e.inserted_at, SimTime(0)); // preserved
        assert_eq!(e.packet_count, 1); // preserved
    }

    #[test]
    fn modify_of_absent_rule_adds() {
        let mut p = Pipeline::cached(geometry(4), CachePolicy::fifo());
        let out = p
            .modify(
                &FlowMatch::l3_for_id(5),
                1,
                true,
                &Action::output(9).into(),
                entry(0, 5, 1, SimTime(0)),
            )
            .unwrap();
        assert!(matches!(out, ModOutcome::AddedInstead(_)));
        assert_eq!(p.rule_count(), 1);
    }

    #[test]
    fn loose_delete_subsumption() {
        let mut p = Pipeline::cached(geometry(8), CachePolicy::fifo());
        for i in 0..4 {
            p.add(entry(i, i as u32, 1, SimTime(i))).unwrap();
        }
        // Wildcard delete removes everything.
        let removed = p.delete(&FlowMatch::any(), 0, false, PortNo::NONE);
        assert_eq!(removed, 4);
        assert_eq!(p.rule_count(), 0);
    }

    #[test]
    fn shifts_reported_for_descending_priority() {
        let mut p = Pipeline::tcam_only(geometry(100));
        let mut total = 0;
        for i in 0..10u16 {
            let out = p
                .add(entry(
                    u64::from(i),
                    u32::from(i),
                    100 - i,
                    SimTime(u64::from(i)),
                ))
                .unwrap();
            total += out.shifts;
        }
        assert_eq!(total, 45); // 0+1+...+9
        let mut p2 = Pipeline::tcam_only(geometry(100));
        let mut total2 = 0;
        for i in 0..10u16 {
            let out = p2
                .add(entry(u64::from(i), u32::from(i), i, SimTime(u64::from(i))))
                .unwrap();
            total2 += out.shifts;
        }
        assert_eq!(total2, 0);
    }

    #[test]
    fn lfu_promotion_requires_larger_count() {
        let mut p = Pipeline::cached(geometry(1), CachePolicy::lfu());
        p.add(entry(0, 1, 1, SimTime(0))).unwrap();
        p.add(entry(1, 2, 1, SimTime(1))).unwrap();
        // Entry 0 is in TCAM (ties broken by id). Give entry 1 traffic.
        let mut t = 10;
        for _ in 0..3 {
            p.lookup_touch(&FlowMatch::key_for_id(2), SimTime(t), 64);
            t += 1;
        }
        assert_eq!(p.level_of(EntryId(1)), Some(0));
        assert_eq!(p.level_of(EntryId(0)), Some(1));
        // Now give entry 0 more traffic than entry 1: it must come back.
        for _ in 0..5 {
            p.lookup_touch(&FlowMatch::key_for_id(1), SimTime(t), 64);
            t += 1;
        }
        assert_eq!(p.level_of(EntryId(0)), Some(0));
    }

    #[test]
    fn add_outcome_reports_landing_level_under_eviction() {
        // LRU: a new entry (freshest use time) displaces the LRU entry.
        let mut p = Pipeline::cached(geometry(1), CachePolicy::lru());
        p.add(entry(0, 1, 1, SimTime(0))).unwrap();
        let out = p.add(entry(1, 2, 1, SimTime(5))).unwrap();
        assert_eq!(out.level, 0);
        assert!(out.hardware);
        assert_eq!(p.level_of(EntryId(0)), Some(1));
    }

    #[test]
    fn three_level_pipeline_cascades() {
        let levels = vec![
            CacheLevel::hardware("tcam", geometry(1)),
            CacheLevel::hardware("kernel", geometry(1)),
            CacheLevel::software("userspace"),
        ];
        let mut p = Pipeline::PolicyCached {
            levels,
            policy: CachePolicy::lru(),
        };
        for i in 0..3 {
            p.add(entry(i, i as u32, 1, SimTime(i * 10))).unwrap();
        }
        // Newest in tcam, middle in kernel, oldest in userspace.
        assert_eq!(p.level_of(EntryId(2)), Some(0));
        assert_eq!(p.level_of(EntryId(1)), Some(1));
        assert_eq!(p.level_of(EntryId(0)), Some(2));
        // Touching the deepest entry bubbles it to the top.
        p.lookup_touch(&FlowMatch::key_for_id(0), SimTime(100), 64);
        assert_eq!(p.level_of(EntryId(0)), Some(0));
    }
}
