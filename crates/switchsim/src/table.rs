//! Flow tables: a priority-ordered wildcard-match table, and the
//! exact-match microflow cache that OVS-style switches maintain in the
//! kernel.

use crate::entry::{EntryId, FlowEntry};
use crate::tcam::PriorityIndex;
use ofwire::action::Action;
use ofwire::flow_match::{FlowKey, FlowMatch, MatchKey, PackedMatch};
use ofwire::types::PortNo;
use simnet::time::SimTime;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

/// Word-at-a-time multiply-rotate hash (FxHash-style). The table's two
/// indexes hash a [`MatchKey`] (five `write_u64` calls) or an entry id
/// (one) on every insert/remove/find — small fixed-size keys from
/// simulation state, so SipHash's flooding resistance buys nothing and
/// costs the hot path several fold. The integer specializations below
/// (one mix each, no byte loop) are what the flow-mod path actually
/// hits.
#[derive(Default)]
pub struct FnvHasher(u64);

impl FnvHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        // Firefox's FxHash constant: pi's fraction bits, odd.
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
    }
}

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // Zero-pad the tail; length is mixed so "ab" != "ab\0\0".
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(tail));
            self.mix(bytes.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    fn finish(&self) -> u64 {
        // Buckets take the hash's low bits; the fields that vary
        // (flow ids) were mixed with a rotate that keeps their entropy
        // high, so fold the high half down.
        self.0 ^ (self.0 >> 32)
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Folds a 64-bit hash (or an entry id, which `by_id` files under as
/// is) to the 32 bits an index files under.
fn fold(h: u64) -> u32 {
    let h = (h ^ h >> 32) as u32;
    #[cfg(test)]
    let h = h & tests::HASH_BITS.with(std::cell::Cell::get);
    h
}

/// The hash `by_match` files a canonical match key under.
fn match_hash(key: &MatchKey) -> u32 {
    let mut h = FnvHasher::default();
    key.hash(&mut h);
    fold(h.0)
}

/// End of a slot chain.
const NIL: u32 = u32::MAX;

/// The slots linked from `first` through the slot column `links`.
fn walk(first: Option<u32>, links: &[u32]) -> impl Iterator<Item = u32> + '_ {
    std::iter::successors(first, |&s| Some(links[s as usize]).filter(|&n| n != NIL))
}

/// A hash index that stores no keys: a 32-bit hash → the first slot of
/// a chain, and a slot column `next` linking each chain in install
/// order. Slots whose keys hash alike share a chain, so a reader walks
/// it and compares each slot's own key: a collision costs a compare,
/// never a wrong answer. One hash slot is 8 bytes, plus 4 per slot for
/// the link.
#[derive(Debug, Clone, Default)]
struct SlotChains {
    heads: FnvMap<u32, u32>,
    next: Vec<u32>,
}

impl SlotChains {
    /// The slots filed under `hash`, in install order.
    fn chain(&self, hash: u32) -> impl Iterator<Item = u32> + '_ {
        walk(self.heads.get(&hash).copied(), &self.next)
    }

    /// Files `slot`, the latest install, at the end of `hash`'s chain.
    fn push(&mut self, hash: u32, slot: u32) {
        let i = slot as usize;
        if self.next.len() <= i {
            self.next.resize(i + 1, NIL);
        }
        self.next[i] = NIL;
        match self.heads.entry(hash) {
            Entry::Vacant(v) => {
                v.insert(slot);
            }
            Entry::Occupied(o) => {
                let mut at = *o.get();
                while self.next[at as usize] != NIL {
                    at = self.next[at as usize];
                }
                self.next[at as usize] = slot;
            }
        }
    }

    /// Unfiles and returns the first slot of `hash`'s chain that passes
    /// `pred`, in one probe of the heads.
    fn take_first(&mut self, hash: u32, mut pred: impl FnMut(u32) -> bool) -> Option<u32> {
        let Entry::Occupied(mut o) = self.heads.entry(hash) else {
            return None;
        };
        let (mut prev, mut at) = (NIL, *o.get());
        while !pred(at) {
            (prev, at) = (at, self.next[at as usize]);
            if at == NIL {
                return None;
            }
        }
        let after = self.next[at as usize];
        if prev != NIL {
            self.next[prev as usize] = after;
        } else if after == NIL {
            o.remove();
        } else {
            *o.get_mut() = after;
        }
        Some(at)
    }

    /// Unfiles `slot` from `hash`'s chain.
    fn remove(&mut self, hash: u32, slot: u32) {
        let found = self.take_first(hash, |s| s == slot);
        debug_assert_eq!(found, Some(slot), "slot not filed under its hash");
    }
}

/// A wildcard-match flow table.
///
/// Lookup returns the highest-priority covering entry; among equal
/// priorities the earliest-installed entry wins (deterministic, and the
/// common hardware behaviour).
///
/// # Storage layout
///
/// Entries live in a **slot-stable slab**: once installed, an entry never
/// moves until it is removed, so every side index can record the entry's
/// slot id and stay valid across arbitrary churn elsewhere in the table.
/// The `usize` the table hands out and takes (`lookup`, `find_strict`,
/// `select_loose`, `handle_of`, `get`, `get_mut`, `remove_at`,
/// `remove_indices`) is that slot: a *handle*, valid until its entry is
/// removed, after which a later insert may reuse it. Install order is a
/// doubly-linked list through two slot columns (`prev`, `next`) from
/// `head`, the oldest resident, to `tail`, the newest: an insert appends
/// and a removal anywhere unlinks, both O(1), and
/// [`FlowTable::handles`] walks it.
///
/// The per-event hot fields are split out of `FlowEntry` into parallel
/// **SoA arrays** indexed by slot — `prio`, `id` and the
/// timeout-participation flag — so the packet-lookup and expiry paths
/// touch a few packed words per candidate instead of dragging whole
/// `FlowEntry` cache lines through the comparisons. These fields are
/// immutable for the lifetime of a slot (see the invariant below), so the
/// copies can never go stale.
///
/// Each entry holds its match once, as a [`PackedMatch`] (40 bytes, the
/// controller's spelling kept); its canonical [`MatchKey`] is a mask of
/// that, never stored. The match index `by_match` stores no keys
/// either: a 32-bit hash of the canonical key → the first slot of a
/// chain, linked through a slot column in install order
/// (`SlotChains`; 8 bytes per hash slot and 4 per slot). An operation
/// packs its match once, probes once and walks the chain (nearly always
/// one slot), comparing each slot's own match, so a hash collision costs
/// a compare and never a wrong answer: [`FlowTable::find_strict`] and
/// [`FlowTable::remove_strict`] take the first slot of equal packed
/// match and priority; [`FlowTable::lookup`] packs the packet onto each
/// resident match shape (the short `shapes` list) and takes slots whose
/// canonical key equals that, instead of running `covers` per entry.
/// Two more indexes exist only in tables that are asked, built on the
/// first call and maintained from then on: an id index of the same
/// chained shape makes [`FlowTable::handle_of`] O(1), and a Fenwick
/// tree over the priority space answers [`FlowTable::count_above`] (the
/// TCAM shift cost of an insert) in O(log 65536).
///
/// Invariant: `flow_match`, `priority`, and the timeout fields of an
/// installed entry are immutable. [`FlowTable::get_mut`] exists for
/// attribute updates (counters, timestamps, actions) only — mutating a
/// key field through it desynchronizes the indexes and the SoA arrays.
/// OpenFlow has no "change the match in place" operation, so no caller
/// needs to.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Slot-stable entry storage; `None` marks a free slot.
    slots: Vec<Option<FlowEntry>>,
    /// Free slot ids available for reuse.
    free: Vec<u32>,
    /// Slot → the next older resident's slot (`NIL` for `head`).
    prev: Vec<u32>,
    /// Slot → the next newer resident's slot (`NIL` for `tail`).
    next: Vec<u32>,
    /// The oldest resident's slot; `None` when empty.
    head: Option<u32>,
    /// The newest resident's slot; `None` when empty.
    tail: Option<u32>,
    /// Slot → entry priority (SoA hot field for lookup comparisons).
    prio: Vec<u16>,
    /// Slot → entry id (SoA hot field for lookup tie-breaks).
    id: Vec<u64>,
    /// Slot → whether the entry participates in expiry.
    timeout: Vec<bool>,
    /// Hash of the canonical match → chain of the slots whose matches
    /// hash so, in install order (so the first slot passing a filter is
    /// the earliest-installed resident, matching the linear scan).
    by_match: SlotChains,
    /// Hash of the entry id → chain of slots, in install order (ids are
    /// unique per switch, so a chain holds one id in practice, and the
    /// first slot of an id is its earliest resident under duplicates).
    /// Built by the first [`FlowTable::handle_of`] (which takes
    /// `&self`, hence the `OnceLock`), so a table nobody asks by id pays
    /// no id hash per insert and remove.
    by_id: OnceLock<SlotChains>,
    /// Resident match shapes — wildcard word (which fields are
    /// constrained, at which prefix lengths) and how many residents have
    /// it. A lookup packs the packet once per shape and probes
    /// `by_match`; real tables hold a handful of shapes, so this is a
    /// short linear scan.
    shapes: Vec<(u32, u32)>,
    /// Multiset of installed priorities for O(log) shift counting:
    /// `None` until the first [`FlowTable::count_above`], so a table
    /// nobody asks for shift counts (OVS's userspace table) carries no
    /// 256 KiB tree and pays no tree update per insert and remove.
    prio_counts: Option<PriorityIndex>,
    /// How many installed entries carry a nonzero idle or hard timeout —
    /// lets the per-op expiry sweep skip tables that can never expire.
    timeout_entries: usize,
}

/// Whether an entry participates in expiry at all.
fn has_timeout(e: &FlowEntry) -> bool {
    e.idle_timeout > 0 || e.hard_timeout > 0
}

impl FlowTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True if no entries are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// The residents' handles, in installation order.
    pub fn handles(&self) -> impl Iterator<Item = usize> + '_ {
        walk(self.head, &self.next).map(|s| s as usize)
    }

    /// Iterates entries in installation order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.handles().map(|h| self.get(h))
    }

    /// Clones the resident entries in installation order — the
    /// test/debug bridge for oracles written against a contiguous
    /// slice (the slab itself has no contiguous view).
    #[must_use]
    pub fn snapshot(&self) -> Vec<FlowEntry> {
        self.iter().cloned().collect()
    }

    /// Allocates a slot for `entry` and records its SoA hot fields.
    fn alloc_slot(&mut self, entry: FlowEntry) -> u32 {
        let prio = entry.priority;
        let id = entry.id.0;
        let to = has_timeout(&entry);
        match self.free.pop() {
            Some(s) => {
                let i = s as usize;
                self.slots[i] = Some(entry);
                self.prio[i] = prio;
                self.id[i] = id;
                self.timeout[i] = to;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("slab overflow");
                self.slots.push(Some(entry));
                self.prev.push(NIL);
                self.next.push(NIL);
                self.prio.push(prio);
                self.id.push(id);
                self.timeout.push(to);
                s
            }
        }
    }

    /// Drops `slot` from the install-order list.
    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        match p {
            NIL => self.head = Some(n).filter(|&n| n != NIL),
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail = Some(p).filter(|&p| p != NIL),
            n => self.prev[n as usize] = p,
        }
    }

    /// Unhooks `slot`, whose match packs to `mkey`, from everything but
    /// `by_match` (the caller has already dropped it from there) and
    /// frees it, returning the entry.
    fn release_slot(&mut self, slot: u32, mkey: MatchKey) -> FlowEntry {
        let i = slot as usize;
        let e = self.slots[i].take().expect("resident slot");
        self.unlink(slot);
        if let Some(by_id) = self.by_id.get_mut() {
            by_id.remove(fold(e.id.0), slot);
        }
        let shape = mkey.wildcards();
        let at = self
            .shapes
            .iter()
            .position(|&(w, _)| w == shape)
            .expect("resident shape counted");
        self.shapes[at].1 -= 1;
        if self.shapes[at].1 == 0 {
            self.shapes.swap_remove(at);
        }
        if let Some(counts) = &mut self.prio_counts {
            counts.remove(self.prio[i]);
        }
        if self.timeout[i] {
            self.timeout_entries -= 1;
        }
        self.free.push(slot);
        e
    }

    /// Installs an entry.
    pub fn insert(&mut self, entry: FlowEntry) {
        let mkey = entry.flow_match.key();
        let id = entry.id;
        let priority = entry.priority;
        if has_timeout(&entry) {
            self.timeout_entries += 1;
        }
        let slot = self.alloc_slot(entry);
        // Append to the install-order list.
        (self.prev[slot as usize], self.next[slot as usize]) = (self.tail.unwrap_or(NIL), NIL);
        match self.tail.replace(slot) {
            Some(t) => self.next[t as usize] = slot,
            None => self.head = Some(slot),
        }
        // The new resident is the last installed, so appending keeps
        // every chain in install order.
        self.by_match.push(match_hash(&mkey), slot);
        if let Some(by_id) = self.by_id.get_mut() {
            by_id.push(fold(id.0), slot);
        }
        let shape = mkey.wildcards();
        match self.shapes.iter_mut().find(|(w, _)| *w == shape) {
            Some((_, n)) => *n += 1,
            None => self.shapes.push((shape, 1)),
        }
        if let Some(counts) = &mut self.prio_counts {
            counts.add(priority);
        }
    }

    /// Removes and returns the entry of `handle`, in O(1) plus its
    /// match-chain walk.
    pub fn remove_at(&mut self, handle: usize) -> FlowEntry {
        let mkey = self.get(handle).flow_match.key();
        self.by_match.remove(match_hash(&mkey), handle as u32);
        self.release_slot(handle as u32, mkey)
    }

    /// Removes and returns the entry [`FlowTable::find_strict`] would
    /// find, in one probe of the match index: the chain walk that
    /// locates the slot unlinks it.
    pub fn remove_strict(&mut self, flow_match: &FlowMatch, priority: u16) -> Option<FlowEntry> {
        let packed = PackedMatch::from(*flow_match);
        let mkey = packed.key();
        let (slots, prio) = (&self.slots, &self.prio);
        let slot = self.by_match.take_first(match_hash(&mkey), |s| {
            Self::is_strict(slots, prio, s, &packed, priority)
        })?;
        Some(self.release_slot(slot, mkey))
    }

    /// Whether the resident of `slot` is the filter's strict target:
    /// same priority and the same match as the controller spelled it.
    fn is_strict(
        slots: &[Option<FlowEntry>],
        prio: &[u16],
        slot: u32,
        packed: &PackedMatch,
        priority: u16,
    ) -> bool {
        prio[slot as usize] == priority
            && slots[slot as usize]
                .as_ref()
                .expect("resident slot")
                .flow_match
                == *packed
    }

    /// Handle of the matching entry for `key`: maximal priority, then
    /// earliest entry id.
    ///
    /// Tuple-space search: packs the key once per resident match shape
    /// (wildcard word) and hash-probes the match index, so cost scales
    /// with the number of *distinct shapes* rather than the number of
    /// entries. A chain slot is a candidate when its canonical key is
    /// the probe; candidate comparisons read the SoA `prio`/`id`
    /// arrays. Candidates sharing a canonical match (at different
    /// priorities or ids) are resolved by the same (priority, id) order
    /// the linear scan applies.
    #[must_use]
    pub fn lookup(&self, key: &FlowKey) -> Option<usize> {
        let mut best: Option<u32> = None;
        for &(shape, _) in &self.shapes {
            let probe = FlowMatch::project_key(key, shape);
            for s in self.by_match.chain(match_hash(&probe)) {
                let m = &self.slots[s as usize]
                    .as_ref()
                    .expect("resident slot")
                    .flow_match;
                if m.key() != probe {
                    continue;
                }
                debug_assert!(m.unpack().covers(key), "stale match index slot {s}");
                match best {
                    None => best = Some(s),
                    Some(b) => {
                        let (sp, bp) = (self.prio[s as usize], self.prio[b as usize]);
                        if sp > bp || (sp == bp && self.id[s as usize] < self.id[b as usize]) {
                            best = Some(s);
                        }
                    }
                }
            }
        }
        best.map(|s| s as usize)
    }

    /// Mutable access by handle. Key fields (`flow_match`, `priority`,
    /// timeouts) must not be changed through this — see the type-level
    /// invariant.
    pub fn get_mut(&mut self, handle: usize) -> &mut FlowEntry {
        self.slots[handle].as_mut().expect("resident slot")
    }

    /// Read access by handle.
    #[must_use]
    pub fn get(&self, handle: usize) -> &FlowEntry {
        self.slots[handle].as_ref().expect("resident slot")
    }

    /// Finds the entry that *strictly* equals the given match and
    /// priority (OpenFlow strict semantics) — the earliest installed, if
    /// several do. One probe of the match index, then a walk of the
    /// chain: its residents may share the canonical match but differ in
    /// priority or in how the match was spelled (host bits, `/0`), or
    /// only share the hash.
    #[must_use]
    pub fn find_strict(&self, flow_match: &FlowMatch, priority: u16) -> Option<usize> {
        let packed = PackedMatch::from(*flow_match);
        self.by_match
            .chain(match_hash(&packed.key()))
            .find(|&s| Self::is_strict(&self.slots, &self.prio, s, &packed, priority))
            .map(|s| s as usize)
    }

    /// Handles, in install order, of entries selected by a non-strict
    /// filter: entries whose match is subsumed by `filter`, optionally
    /// restricted to entries with an output action to `out_port`.
    #[must_use]
    pub fn select_loose(&self, filter: &FlowMatch, out_port: PortNo) -> Vec<usize> {
        self.handles()
            .filter(|&h| {
                let e = self.get(h);
                filter.subsumes(&e.flow_match.unpack())
                    && (out_port == PortNo::NONE
                        || e.actions
                            .iter()
                            .any(|a| matches!(a, Action::Output { port, .. } if *port == out_port)))
            })
            .collect()
    }

    /// Removes the entries of distinct `handles`, given in install order
    /// (as [`FlowTable::select_loose`] gives them), skipping any already
    /// free, and returns them in the order given: one O(1) unlink each.
    pub fn remove_indices(&mut self, handles: Vec<usize>) -> Vec<FlowEntry> {
        let mut removed = Vec::with_capacity(handles.len());
        for h in handles {
            if self.slots[h].is_some() {
                removed.push(self.remove_at(h));
            }
        }
        removed
    }

    /// The handle of the entry with `id`. O(1) via the id index, which
    /// the first call builds from the residents; under (contractually
    /// absent) duplicate ids, the earliest installed, like a linear scan.
    #[must_use]
    pub fn handle_of(&self, id: EntryId) -> Option<usize> {
        self.by_id
            .get_or_init(|| self.build_id_index())
            .chain(fold(id.0))
            .find(|&s| self.id[s as usize] == id.0)
            .map(|s| s as usize)
    }

    /// The id index, from a scan of the residents in install order.
    fn build_id_index(&self) -> SlotChains {
        let mut by_id = SlotChains {
            heads: FnvMap::with_capacity_and_hasher(self.len(), Default::default()),
            next: Vec::with_capacity(self.slots.len()),
        };
        for s in walk(self.head, &self.next) {
            by_id.push(fold(self.id[s as usize]), s);
        }
        by_id
    }

    /// How many installed entries have priority strictly above
    /// `priority` — the TCAM shift cost of inserting at that priority.
    /// O(log 65536) via the Fenwick index, which the first call builds
    /// from the resident priorities; [`crate::tcam::shift_count`] is the
    /// linear oracle.
    #[must_use]
    pub fn count_above(&mut self, priority: u16) -> usize {
        let (head, next, prio) = (self.head, &self.next, &self.prio);
        self.prio_counts
            .get_or_insert_with(|| {
                let mut counts = PriorityIndex::new();
                for s in walk(head, next) {
                    counts.add(prio[s as usize]);
                }
                counts
            })
            .count_above(priority)
    }

    /// How many installed entries carry a nonzero idle or hard timeout.
    /// Zero means no expiry sweep can ever remove anything here, so
    /// per-op sweeps skip the table entirely.
    #[must_use]
    pub fn timeout_count(&self) -> usize {
        self.timeout_entries
    }

    /// Reference oracle: the pre-index linear scan `lookup`. Kept under
    /// `cfg(test)` so property tests can assert the indexed path agrees.
    #[cfg(test)]
    #[must_use]
    pub fn lookup_linear(&self, key: &FlowKey) -> Option<usize> {
        let mut best: Option<usize> = None;
        for h in self.handles() {
            let e = self.get(h);
            if !e.flow_match.unpack().covers(key) {
                continue;
            }
            match best {
                None => best = Some(h),
                Some(b) => {
                    let cur = self.get(b);
                    if e.priority > cur.priority || (e.priority == cur.priority && e.id < cur.id) {
                        best = Some(h);
                    }
                }
            }
        }
        best
    }

    /// Reference oracle: the pre-index linear scan `find_strict`.
    #[cfg(test)]
    #[must_use]
    pub fn find_strict_linear(&self, flow_match: &FlowMatch, priority: u16) -> Option<usize> {
        self.handles().find(|&h| {
            let e = self.get(h);
            e.priority == priority && e.flow_match.unpack() == *flow_match
        })
    }

    /// Test hook: verifies the indexes and SoA arrays describe exactly
    /// the resident entries.
    #[cfg(test)]
    pub fn assert_index_consistent(&self) {
        // The install-order list links every resident exactly once, and
        // each link both ways; `len` counts the residents.
        let listed: Vec<u32> = walk(self.head, &self.next)
            .take(self.slots.len() + 1)
            .collect();
        let mut rank = vec![usize::MAX; self.slots.len()];
        for (r, &s) in listed.iter().enumerate() {
            assert!(self.slots[s as usize].is_some(), "free slot {s} listed");
            assert_eq!(rank[s as usize], usize::MAX, "slot {s} listed twice");
            rank[s as usize] = r;
            let older = if r == 0 { NIL } else { listed[r - 1] };
            assert_eq!(self.prev[s as usize], older, "prev link of slot {s}");
        }
        assert_eq!(self.tail, listed.last().copied(), "tail is the newest");
        let residents = self.slots.iter().filter(|e| e.is_some()).count();
        assert_eq!(listed.len(), residents, "residents listed");
        assert_eq!(self.len(), residents, "len counts the residents");
        // SoA copies match the entries.
        for &s in &listed {
            let e = self.slots[s as usize].as_ref().unwrap();
            assert_eq!(self.prio[s as usize], e.priority, "stale SoA prio {s}");
            assert_eq!(self.id[s as usize], e.id.0, "stale SoA id {s}");
            assert_eq!(
                self.timeout[s as usize],
                has_timeout(e),
                "stale SoA timeout {s}"
            );
        }
        // Each index (the id index once built) files every resident
        // once, under the resident's own hash, each chain in install
        // order — which is what a fresh build would give.
        let check = |chains: &SlotChains, hash_of: &dyn Fn(u32) -> u32| {
            let mut filed = 0;
            for &hash in chains.heads.keys() {
                let chain: Vec<u32> = chains.chain(hash).take(self.len() + 1).collect();
                assert!(
                    chain
                        .windows(2)
                        .all(|w| rank[w[0] as usize] < rank[w[1] as usize]),
                    "chain {hash:#x} not in list order: {chain:?}"
                );
                for &s in &chain {
                    assert!(self.slots[s as usize].is_some(), "free slot {s} filed");
                    assert_eq!(hash_of(s), hash, "slot {s} filed under a stale hash");
                }
                filed += chain.len();
            }
            assert_eq!(filed, self.len(), "residents filed");
        };
        check(&self.by_match, &|s| {
            match_hash(&self.slots[s as usize].as_ref().unwrap().flow_match.key())
        });
        if let Some(by_id) = self.by_id.get() {
            check(by_id, &|s| fold(self.id[s as usize]));
        }
        // `shapes` is exactly the multiset of resident wildcard words.
        let mut want: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        for e in self.iter() {
            *want.entry(e.flow_match.key().wildcards()).or_default() += 1;
        }
        let mut have = self.shapes.clone();
        have.sort_unstable();
        assert_eq!(have, want.into_iter().collect::<Vec<_>>(), "stale shapes");
        // Fenwick priority counts (once something has asked for them)
        // and the timeout counter must match a recompute from scratch.
        if let Some(counts) = &self.prio_counts {
            assert_eq!(counts.len(), self.len());
            for probe in self.iter().map(|e| e.priority).take(64) {
                for p in [probe.saturating_sub(1), probe, probe.saturating_add(1)] {
                    assert_eq!(
                        counts.count_above(p),
                        crate::tcam::shift_count(self.iter().map(|e| &e.priority), p),
                        "fenwick disagrees at priority {p}"
                    );
                }
            }
        }
        assert_eq!(
            self.timeout_entries,
            self.iter().filter(|e| has_timeout(e)).count()
        );
    }
}

/// An exact-match microflow entry in the kernel cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroflowEntry {
    /// The userspace entry this microflow was cloned from.
    pub parent: EntryId,
    /// When the microflow was installed.
    pub installed_at: SimTime,
    /// When it last matched a packet.
    pub last_used_at: SimTime,
}

/// OVS-style kernel cache: exact [`FlowKey`] → microflow entries, with
/// LRU eviction at a configurable capacity. This implements the paper's
/// "1-to-N mapping (one user space entry could map to multiple kernel
/// space entries)".
///
/// Keyed by the packet key packed on the all-fields-exact shape
/// ([`FlowMatch::project_key`]`(key, 0)`, which keeps every field and so
/// tells any two packet keys apart) under the flow table's
/// word-at-a-time hasher: five integer mixes per probe.
#[derive(Debug, Clone)]
pub struct MicroflowCache {
    map: FnvMap<MatchKey, MicroflowEntry>,
    capacity: usize,
}

impl MicroflowCache {
    /// A cache holding at most `capacity` microflows.
    #[must_use]
    pub fn new(capacity: usize) -> MicroflowCache {
        MicroflowCache {
            map: FnvMap::default(),
            capacity,
        }
    }

    /// Number of cached microflows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up an exact key, refreshing its LRU stamp on hit.
    pub fn lookup_touch(&mut self, key: &FlowKey, now: SimTime) -> Option<EntryId> {
        let e = self.map.get_mut(&FlowMatch::project_key(key, 0))?;
        e.last_used_at = now;
        Some(e.parent)
    }

    /// Installs a microflow for `key`, evicting the least recently used
    /// entry if at capacity. Equally stale candidates go oldest install
    /// first, then smallest packed key — a total order, so the victim
    /// never depends on the map's iteration order.
    pub fn install(&mut self, key: FlowKey, parent: EntryId, now: SimTime) {
        let key = FlowMatch::project_key(&key, 0);
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(victim) = self
                .map
                .iter()
                .map(|(k, e)| (e.last_used_at, e.installed_at, *k))
                .min()
            {
                self.map.remove(&victim.2);
            }
        }
        self.map.insert(
            key,
            MicroflowEntry {
                parent,
                installed_at: now,
                last_used_at: now,
            },
        );
    }

    /// Drops every microflow cloned from `parent` (used when the parent
    /// rule is deleted or modified, to preserve semantics).
    pub fn invalidate_parent(&mut self, parent: EntryId) {
        self.map.retain(|_, e| e.parent != parent);
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// The bits of every index hash a test keeps: fewer bits, more
        /// collisions (each test runs on a thread of its own).
        pub(super) static HASH_BITS: std::cell::Cell<u32> =
            const { std::cell::Cell::new(u32::MAX) };
    }

    fn entry(id: u64, m: FlowMatch, prio: u16) -> FlowEntry {
        FlowEntry::new(EntryId(id), m, prio, vec![Action::output(1)], SimTime(id))
    }

    /// The handle of the `n`th resident in install order (from 0).
    fn at(t: &FlowTable, n: usize) -> usize {
        t.handles().nth(n).expect("position in range")
    }

    /// The id of the entry `find_strict` locates.
    fn strict_id(t: &FlowTable, m: &FlowMatch, prio: u16) -> Option<u64> {
        t.find_strict(m, prio).map(|h| t.get(h).id.0)
    }

    #[test]
    fn lookup_prefers_priority_then_age() {
        let mut t = FlowTable::new();
        let key = FlowMatch::key_for_id(7);
        t.insert(entry(1, FlowMatch::l3_for_id(7), 10));
        t.insert(entry(2, FlowMatch::l2_for_id(7), 20));
        t.insert(entry(3, FlowMatch::any(), 20)); // same prio as #2, later id
        let hit = t.lookup(&key).unwrap();
        assert_eq!(t.get(hit).id, EntryId(2));
    }

    #[test]
    fn lookup_miss() {
        let mut t = FlowTable::new();
        t.insert(entry(1, FlowMatch::l3_for_id(5), 10));
        assert!(t.lookup(&FlowMatch::key_for_id(6)).is_none());
    }

    #[test]
    fn strict_find_requires_priority_and_match() {
        let mut t = FlowTable::new();
        let m = FlowMatch::l3_for_id(1);
        t.insert(entry(1, m, 10));
        assert!(t.find_strict(&m, 10).is_some());
        assert!(t.find_strict(&m, 11).is_none());
        assert!(t.find_strict(&FlowMatch::l3_for_id(2), 10).is_none());
    }

    #[test]
    fn loose_selection_uses_subsumption_and_out_port() {
        let mut t = FlowTable::new();
        t.insert(entry(1, FlowMatch::l3_for_id(1), 10)); // output:1
        let mut e2 = entry(2, FlowMatch::l3_for_id(2), 10);
        e2.actions = Action::output(9).into();
        t.insert(e2);
        // The wildcard filter subsumes both.
        let all = t.select_loose(&FlowMatch::any(), PortNo::NONE);
        assert_eq!(all.len(), 2);
        // Out-port restriction narrows to the entry forwarding to 9.
        let only9 = t.select_loose(&FlowMatch::any(), PortNo(9));
        assert_eq!(only9.len(), 1);
        assert_eq!(t.get(only9[0]).id, EntryId(2));
        // A specific filter selects only what it subsumes.
        let one = t.select_loose(&FlowMatch::l3_for_id(1), PortNo::NONE);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn remove_indices_handles_unsorted_dupes() {
        let mut t = FlowTable::new();
        for i in 0..5 {
            t.insert(entry(i, FlowMatch::l3_for_id(i as u32), 1));
        }
        let (h3, h1) = (at(&t, 3), at(&t, 1));
        let removed = t.remove_indices(vec![h3, h1, h3]);
        // In the order given; the repeat is already free and skipped.
        assert_eq!(removed.iter().map(|e| e.id.0).collect::<Vec<_>>(), [3, 1]);
        assert_eq!(t.len(), 3);
        t.assert_index_consistent();
        let left: Vec<u64> = t.iter().map(|e| e.id.0).collect();
        assert_eq!(left, vec![0, 2, 4]);
    }

    #[test]
    fn indexed_lookup_agrees_with_linear_oracle() {
        let mut t = FlowTable::new();
        // Mixed priorities, overlapping covers, churn via remove_at.
        for i in 0..32u64 {
            let m = match i % 4 {
                0 => FlowMatch::any(),
                1 => FlowMatch::l2_for_id((i / 4) as u32),
                2 => FlowMatch::l3_for_id((i / 4) as u32),
                _ => FlowMatch::l3_for_id((i / 2) as u32),
            };
            t.insert(entry(i, m, (i % 5) as u16 * 10));
        }
        t.remove_at(at(&t, 7));
        t.remove_at(at(&t, 0));
        let picks = [4, 12, 4, 20].map(|p| at(&t, p));
        t.remove_indices(picks.to_vec());
        t.assert_index_consistent();
        for id in 0..20u32 {
            let key = FlowMatch::key_for_id(id);
            assert_eq!(t.lookup(&key), t.lookup_linear(&key), "key {id}");
        }
        for id in 0..20u32 {
            for prio in [0u16, 10, 20, 30, 40] {
                let m = FlowMatch::l3_for_id(id);
                assert_eq!(
                    t.find_strict(&m, prio),
                    t.find_strict_linear(&m, prio),
                    "strict {id}/{prio}"
                );
            }
        }
    }

    #[test]
    fn index_survives_duplicate_strict_keys() {
        let mut t = FlowTable::new();
        let m = FlowMatch::l3_for_id(9);
        t.insert(entry(1, m, 10));
        t.insert(entry(2, m, 10)); // duplicate (match, priority)
        t.assert_index_consistent();
        // Strict find returns the earliest installed, like the old scan.
        assert_eq!(strict_id(&t, &m, 10), Some(1));
        t.remove_at(t.find_strict(&m, 10).unwrap());
        t.assert_index_consistent();
        assert_eq!(strict_id(&t, &m, 10), Some(2));
        assert_eq!(t.find_strict(&m, 10), Some(at(&t, 0)));
    }

    #[test]
    fn strict_ops_tell_apart_spellings_that_share_a_bucket() {
        use ofwire::flow_match::Ipv4Prefix;
        // Same packet set, spelled with and without host bits: one
        // canonical match, one bucket — where lookup sees one rule family
        // and strict operations must still see two.
        let spelled = |addr: u32| FlowMatch {
            dl_type: Some(0x0800),
            nw_dst: Some(Ipv4Prefix {
                addr,
                prefix_len: 24,
            }),
            ..FlowMatch::default()
        };
        let (clean, noisy) = (spelled(0x0a00_0000), spelled(0x0a00_0007));
        assert_eq!(clean.key(), noisy.key());
        let mut t = FlowTable::new();
        t.insert(entry(1, noisy, 10));
        t.insert(entry(2, clean, 10)); // same priority, other spelling
        t.insert(entry(3, clean, 20)); // same spelling, other priority
        t.assert_index_consistent();
        assert_eq!(strict_id(&t, &clean, 10), Some(2));
        assert_eq!(strict_id(&t, &noisy, 10), Some(1));
        assert_eq!(t.find_strict(&noisy, 20), None);
        for (m, prio) in [(clean, 10), (noisy, 10), (clean, 20), (noisy, 20)] {
            assert_eq!(t.find_strict(&m, prio), t.find_strict_linear(&m, prio));
        }
        // Lookup ranks all three by (priority, id).
        let key = FlowMatch::key_for_id(5);
        assert_eq!(t.lookup(&key), t.lookup_linear(&key));
        assert_eq!(t.get(t.lookup(&key).unwrap()).id, EntryId(3));
        // One-probe removal takes exactly the strict target and leaves
        // its bucket-mates indexed.
        assert_eq!(t.remove_strict(&noisy, 20), None);
        assert_eq!(t.remove_strict(&clean, 10).map(|e| e.id), Some(EntryId(2)));
        t.assert_index_consistent();
        assert_eq!(
            t.snapshot().iter().map(|e| e.id.0).collect::<Vec<_>>(),
            [1, 3]
        );
        assert_eq!(t.remove_strict(&noisy, 10).map(|e| e.id), Some(EntryId(1)));
        assert_eq!(t.remove_strict(&clean, 20).map(|e| e.id), Some(EntryId(3)));
        t.assert_index_consistent();
        assert!(t.is_empty());
        assert_eq!(t.lookup(&key), None);
    }

    #[test]
    fn slots_are_stable_across_removals() {
        // Removing one entry must not invalidate index answers for the
        // survivors (the property the slab layout exists for).
        let mut t = FlowTable::new();
        for i in 0..8 {
            t.insert(entry(i, FlowMatch::l3_for_id(i as u32), 10 + i as u16));
        }
        let survivors = [1, 2, 3, 5, 6, 7].map(|i| at(&t, i));
        t.remove_at(at(&t, 0));
        t.remove_at(at(&t, 3));
        t.assert_index_consistent();
        for (i, h) in [1u64, 2, 3, 5, 6, 7].into_iter().zip(survivors) {
            assert_eq!(t.handle_of(EntryId(i)), Some(h), "survivor's handle kept");
            assert_eq!(t.get(h).id, EntryId(i));
        }
        // Freed slots get reused without confusing the indexes.
        t.insert(entry(100, FlowMatch::l3_for_id(100), 7));
        t.assert_index_consistent();
        assert_eq!(t.handle_of(EntryId(100)), t.handles().last());
    }

    /// A match of a small family that meets itself often: L3 hosts of
    /// 16 ids, each spelled two ways as a `/24` (with and without host
    /// bits, one canonical match).
    fn churn_match(rng: &mut simnet::rng::DetRng) -> FlowMatch {
        use ofwire::flow_match::Ipv4Prefix;
        let id = rng.index(16) as u32;
        if rng.chance(0.5) {
            return FlowMatch::l3_for_id(id);
        }
        FlowMatch {
            dl_type: Some(0x0800),
            nw_dst: Some(Ipv4Prefix {
                addr: 0x0a00_0000 | id << 8 | rng.index(2) as u32,
                prefix_len: 24,
            }),
            ..FlowMatch::default()
        }
    }

    /// Random churn on two tables, one asked by id from the start and one
    /// only at the end. After every step the first is checked against
    /// the linear oracles (lookup, strict find) and its indexes against
    /// a recompute; at the end both answer every id like a scan.
    fn random_churn_agrees_with_the_oracles(seed: u64) {
        let mut rng = simnet::rng::DetRng::new(seed);
        let (mut early, mut late) = (FlowTable::new(), FlowTable::new());
        assert_eq!(early.handle_of(EntryId(0)), None);
        for step in 0..300u64 {
            let n = early.len();
            // Ids repeat now and then, which the id index allows.
            let id = if rng.chance(0.1) { step / 2 } else { step };
            let m = churn_match(&mut rng);
            let prio = rng.index(3) as u16;
            match rng.index(6) {
                0..=2 => {
                    early.insert(entry(id, m, prio));
                    late.insert(entry(id, m, prio));
                }
                3 if n > 0 => {
                    let i = rng.index(n);
                    assert_eq!(early.remove_at(at(&early, i)), late.remove_at(at(&late, i)));
                }
                4 if n > 0 => {
                    let picks = [rng.index(n), rng.index(n), rng.index(n)];
                    assert_eq!(
                        early.remove_indices(picks.map(|p| at(&early, p)).to_vec()),
                        late.remove_indices(picks.map(|p| at(&late, p)).to_vec())
                    );
                }
                _ => assert_eq!(early.remove_strict(&m, prio), late.remove_strict(&m, prio)),
            }
            early.assert_index_consistent();
            for probe in 0..16 {
                let key = FlowMatch::key_for_id(probe);
                assert_eq!(early.lookup(&key), early.lookup_linear(&key), "seed {seed}");
            }
            assert_eq!(
                early.find_strict(&m, prio),
                early.find_strict_linear(&m, prio),
                "seed {seed} step {step}"
            );
        }
        for t in [&early, &late] {
            for id in 0..300 {
                let scan = t.handles().find(|&h| t.get(h).id == EntryId(id));
                assert_eq!(t.handle_of(EntryId(id)), scan, "seed {seed} id {id}");
            }
            t.assert_index_consistent();
        }
    }

    /// The id index is built by the first `handle_of` and maintained
    /// from then on. Whether that call comes before random churn or only
    /// after it, the index equals a fresh build (checked by
    /// `assert_index_consistent`) and answers every id like a scan.
    #[test]
    fn lazy_id_index_matches_a_fresh_build_early_or_late() {
        for seed in 0..16 {
            random_churn_agrees_with_the_oracles(seed);
        }
    }

    /// With every index hash cut to two bits, nearly every chain mixes
    /// slots of different matches and ids: each walk must still compare
    /// the slot's own match or id.
    #[test]
    fn colliding_chains_agree_with_the_linear_oracles() {
        HASH_BITS.with(|bits| bits.set(0b11));
        for seed in 0..16 {
            random_churn_agrees_with_the_oracles(seed);
        }
        indexed_lookup_agrees_with_linear_oracle();
        strict_ops_tell_apart_spellings_that_share_a_bucket();
        slots_are_stable_across_removals();
        HASH_BITS.with(|bits| bits.set(u32::MAX));
    }

    #[test]
    fn microflow_lru_eviction() {
        let mut c = MicroflowCache::new(2);
        let k1 = FlowMatch::key_for_id(1);
        let k2 = FlowMatch::key_for_id(2);
        let k3 = FlowMatch::key_for_id(3);
        c.install(k1, EntryId(1), SimTime(10));
        c.install(k2, EntryId(1), SimTime(20));
        // Touch k1 so k2 becomes LRU.
        assert_eq!(c.lookup_touch(&k1, SimTime(30)), Some(EntryId(1)));
        c.install(k3, EntryId(2), SimTime(40));
        assert_eq!(c.len(), 2);
        assert!(c.lookup_touch(&k2, SimTime(50)).is_none());
        assert!(c.lookup_touch(&k1, SimTime(50)).is_some());
        assert!(c.lookup_touch(&k3, SimTime(50)).is_some());
    }

    /// Ties on the LRU stamp are broken by install time, then by packed
    /// key — never by the map's iteration order.
    #[test]
    fn microflow_victim_order_is_total() {
        let exact = |id: u32| FlowMatch::project_key(&FlowMatch::key_for_id(id), 0);
        for id in 0..32u32 {
            let (ka, kb) = (FlowMatch::key_for_id(id), FlowMatch::key_for_id(id + 100));
            // Same use stamp, different install stamps: oldest install goes.
            let mut c = MicroflowCache::new(2);
            c.install(ka, EntryId(1), SimTime(10));
            c.install(kb, EntryId(2), SimTime(20));
            c.lookup_touch(&ka, SimTime(20));
            c.install(FlowMatch::key_for_id(999), EntryId(3), SimTime(30));
            assert!(c.lookup_touch(&ka, SimTime(40)).is_none(), "pair {id}");
            assert!(c.lookup_touch(&kb, SimTime(40)).is_some(), "pair {id}");
            // Same stamps throughout: the smaller packed key goes.
            let mut c = MicroflowCache::new(2);
            c.install(ka, EntryId(1), SimTime(10));
            c.install(kb, EntryId(2), SimTime(10));
            c.install(FlowMatch::key_for_id(999), EntryId(3), SimTime(30));
            let (gone, kept) = if exact(id) < exact(id + 100) {
                (ka, kb)
            } else {
                (kb, ka)
            };
            assert!(c.lookup_touch(&gone, SimTime(40)).is_none(), "pair {id}");
            assert!(c.lookup_touch(&kept, SimTime(40)).is_some(), "pair {id}");
        }
    }

    #[test]
    fn microflow_parent_invalidation() {
        let mut c = MicroflowCache::new(10);
        c.install(FlowMatch::key_for_id(1), EntryId(1), SimTime(0));
        c.install(FlowMatch::key_for_id(2), EntryId(1), SimTime(0));
        c.install(FlowMatch::key_for_id(3), EntryId(2), SimTime(0));
        c.invalidate_parent(EntryId(1));
        assert_eq!(c.len(), 1);
        assert!(c
            .lookup_touch(&FlowMatch::key_for_id(3), SimTime(1))
            .is_some());
    }
}
