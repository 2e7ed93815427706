//! Property test: the indexed `FlowTable` agrees with a naive
//! linear-scan oracle on random operation sequences.
//!
//! The oracle reimplements the pre-index semantics (scan everything,
//! max priority then min id; strict find = first position) on a plain
//! `Vec<FlowEntry>`. Every operation — insert, strict modify, strict
//! delete (by handle and in one probe), loose delete, lookup — is
//! applied to both tables and their observable state compared: the
//! table answers with handles, the oracle with positions, and each
//! handle must locate the very entry (ids are unique) the oracle holds
//! at its position. Any index-maintenance bug (stale handle, unsorted
//! bucket, broken install-order link) surfaces as a divergence.

use ofwire::action::Action;
use ofwire::flow_match::{FlowKey, FlowMatch, Ipv4Prefix};
use ofwire::types::PortNo;
use proptest::prelude::*;
use simnet::time::SimTime;
use switchsim::entry::{EntryId, FlowEntry};
use switchsim::table::FlowTable;

/// The pre-index linear-scan semantics, kept deliberately naive.
#[derive(Default)]
struct NaiveTable {
    entries: Vec<FlowEntry>,
}

impl NaiveTable {
    fn insert(&mut self, entry: FlowEntry) {
        self.entries.push(entry);
    }

    fn lookup(&self, key: &FlowKey) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if !e.flow_match.unpack().covers(key) {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    let cur = &self.entries[b];
                    if e.priority > cur.priority || (e.priority == cur.priority && e.id < cur.id) {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    fn find_strict(&self, flow_match: &FlowMatch, priority: u16) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.priority == priority && e.flow_match.unpack() == *flow_match)
    }

    fn select_loose(&self, filter: &FlowMatch) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| filter.subsumes(&e.flow_match.unpack()))
            .map(|(i, _)| i)
            .collect()
    }

    fn remove_at(&mut self, index: usize) -> FlowEntry {
        self.entries.remove(index)
    }

    /// Removes distinct ascending `indices`, returning the entries in
    /// the order given.
    fn remove_indices(&mut self, indices: &[usize]) -> Vec<FlowEntry> {
        let mut removed: Vec<FlowEntry> = indices
            .iter()
            .rev()
            .map(|&i| self.entries.remove(i))
            .collect();
        removed.reverse();
        removed
    }
}

/// The entries the table's handles locate.
fn located<'t>(table: &'t FlowTable, handles: &[usize]) -> Vec<&'t FlowEntry> {
    handles.iter().map(|&h| table.get(h)).collect()
}

/// The entries the oracle holds at `positions`.
fn held<'t>(naive: &'t NaiveTable, positions: &[usize]) -> Vec<&'t FlowEntry> {
    positions.iter().map(|&i| &naive.entries[i]).collect()
}

/// How many distinct matches [`a_match`] produces (`fid` beyond this
/// wraps around).
const FAMILY: u32 = 8 * 6;

fn a_match(fid: u32) -> FlowMatch {
    // A small family with genuine overlap: wildcards cover everything,
    // L2/L3 matches collide across ids modulo a narrow range, and the
    // prefix shapes are spelled several ways — `10.0.0.0/24` with and
    // without host bits, a `/0` with and without them — so matches that
    // differ raw but are equal canonically (one `by_match` bucket, the
    // `/0`s sharing `any()`'s) meet at equal and at different
    // priorities. Strict operations must tell them apart; lookup must
    // not.
    let sub = fid / 8 % 6;
    let prefix = |addr: u32, prefix_len: u8| Some(Ipv4Prefix { addr, prefix_len });
    match fid % 8 {
        0 => FlowMatch::any(),
        1 => FlowMatch::l2_for_id(sub),
        2 => FlowMatch::l3_for_id(sub),
        3 => FlowMatch::l2l3_for_id(sub),
        // sub 0 is the canonical spelling, 1..6 set host bits.
        4 => FlowMatch {
            dl_type: Some(0x0800),
            nw_dst: prefix(0x0a00_0000 | sub, 24),
            ..FlowMatch::default()
        },
        5 => FlowMatch {
            nw_src: prefix(sub, 0),
            ..FlowMatch::default()
        },
        6 => FlowMatch {
            dl_type: Some(0x0800),
            nw_src: prefix(sub % 2, 0),
            nw_dst: prefix(0x0a00_0000 | (sub / 2), 24),
            ..FlowMatch::default()
        },
        _ => FlowMatch {
            nw_dst: prefix(0x0a00_0000 | sub, 32 - sub as u8 * 4),
            ..FlowMatch::default()
        },
    }
}

/// Compares every observable of the two tables.
fn assert_agree(indexed: &FlowTable, naive: &NaiveTable) {
    assert_eq!(indexed.snapshot(), naive.entries, "entry order");
    for fid in 0..8u32 {
        let key = FlowMatch::key_for_id(fid);
        assert_eq!(
            located(indexed, indexed.lookup(&key).as_slice()),
            held(naive, naive.lookup(&key).as_slice()),
            "lookup fid={fid}"
        );
    }
    for fid in 0..FAMILY {
        for prio in 0..4u16 {
            let m = a_match(fid);
            assert_eq!(
                located(indexed, indexed.find_strict(&m, prio).as_slice()),
                held(naive, naive.find_strict(&m, prio).as_slice()),
                "strict fid={fid} prio={prio}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_table_matches_linear_oracle(
        ops in proptest::collection::vec((0u8..6, any::<u32>(), 0u16..4), 1..120)
    ) {
        let mut indexed = FlowTable::new();
        let mut naive = NaiveTable::default();
        let mut next_id = 0u64;
        for (step, (op, fid, prio)) in ops.into_iter().enumerate() {
            match op {
                // Insert (weighted: two opcodes) — duplicates of the
                // same (match, priority) are allowed and exercised.
                0 | 1 => {
                    let e = FlowEntry::new(
                        EntryId(next_id),
                        a_match(fid),
                        prio,
                        vec![Action::output(1)],
                        SimTime(step as u64),
                    );
                    next_id += 1;
                    indexed.insert(e.clone());
                    naive.insert(e);
                }
                // Strict modify: rewrite actions in place (key fields
                // are immutable per the table contract).
                2 => {
                    let m = a_match(fid);
                    let (at, i) = (indexed.find_strict(&m, prio), naive.find_strict(&m, prio));
                    prop_assert_eq!(located(&indexed, at.as_slice()), held(&naive, i.as_slice()));
                    if let (Some(h), Some(i)) = (at, i) {
                        indexed.get_mut(h).actions = Action::output(9).into();
                        naive.entries[i].actions = Action::output(9).into();
                    }
                }
                // Strict delete, by handle.
                3 => {
                    let m = a_match(fid);
                    let (at, i) = (indexed.find_strict(&m, prio), naive.find_strict(&m, prio));
                    prop_assert_eq!(located(&indexed, at.as_slice()), held(&naive, i.as_slice()));
                    if let (Some(h), Some(i)) = (at, i) {
                        let a = indexed.remove_at(h);
                        let b = naive.remove_at(i);
                        prop_assert_eq!(a, b);
                    }
                }
                // Strict delete, in one probe.
                4 => {
                    let m = a_match(fid);
                    let a = indexed.remove_strict(&m, prio);
                    let b = naive.find_strict(&m, prio).map(|i| naive.remove_at(i));
                    prop_assert_eq!(a, b);
                }
                // Loose delete: everything a narrower filter subsumes.
                _ => {
                    let filter = a_match(fid);
                    let (sel, at) = (indexed.select_loose(&filter, PortNo::NONE), naive.select_loose(&filter));
                    prop_assert_eq!(located(&indexed, &sel), held(&naive, &at));
                    let a = indexed.remove_indices(sel);
                    let b = naive.remove_indices(&at);
                    prop_assert_eq!(a, b);
                }
            }
            assert_agree(&indexed, &naive);
        }
    }
}
