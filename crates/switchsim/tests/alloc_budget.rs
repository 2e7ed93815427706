//! Deterministic gates on the two control-op paths, counted by a
//! counting global allocator on a warmed switch.
//!
//! * **Flow-mods**: heap allocations per flow-mod for the stream the wire
//!   benchmark sends — 1 024 adds, then strict deletes of the same rules
//!   oldest first, round and round — fed through [`Agent::feed_into`];
//!   and for the same stream with its deletes in a seeded shuffle, the
//!   mid-table deletes of an update DAG.
//!   The decoded flow-mod and the installed entry hold their one-action
//!   lists by value, so on OVS neither an add nor a strict delete
//!   allocates; a policy-cached add allocates its cascade plan.
//! * **Probes**: heap allocations per `packet_out` probe through
//!   [`Testbed`]'s `submit` → `next_completion`, the path inference runs
//!   on — encode, borrowed-frame decode, lookup, the completion filed
//!   in the switch's FIFO and handed out through the delivery merge.
//!   A hit allocates nothing; a miss allocates the `packet_in`'s copy of
//!   the frame and nothing else.
//! * **Memory**: live heap bytes per resident rule of an OVS [`Agent`]
//!   holding 10 k adds, and that an empty [`FlowTable`] or a fresh
//!   agent allocates nothing at all.
//!
//! Wall-clock rates on a shared box drift by tens of percent; these
//! counts repeat exactly, so a `Vec` that creeps back into a per-op path
//! fails here rather than fading a noisy rate.

use ofwire::action::Action;
use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::message::Message;
use ofwire::types::{Dpid, PortNo, Xid};
use simnet::rng::DetRng;
use simnet::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use switchsim::agent::Agent;
use switchsim::cache::CachePolicy;
use switchsim::control::{ControlOp, ControlPath, OpOutcome};
use switchsim::harness::Testbed;
use switchsim::pipeline::Hit;
use switchsim::profiles::SwitchProfile;
use switchsim::switch::Switch;
use switchsim::table::FlowTable;

thread_local! {
    /// Allocations made by this thread (each test runs on its own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Records one (re)allocation that changes the live heap by `bytes`.
fn note(allocs: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of two
// thread-local `Cell`s that have no destructor and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const IDS: u32 = 1024;
const ROTATIONS: u64 = 8;

/// One rotation as wire bytes: `IDS` adds, then their strict deletes in
/// the same order or, when `shuffled`, in a seeded shuffle.
fn rotation(shuffled: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    for id in 0..IDS {
        let fm = FlowMod::add(FlowMatch::l3_for_id(id), 10).with_action(Action::Output {
            port: PortNo(1),
            max_len: 0,
        });
        bytes.extend(Message::FlowMod(fm).to_bytes(Xid(id)));
    }
    let mut deletes: Vec<u32> = (0..IDS).collect();
    if shuffled {
        DetRng::new(7).shuffle(&mut deletes);
    }
    for id in deletes {
        let fm = FlowMod::delete_strict(FlowMatch::l3_for_id(id), 10);
        bytes.extend(Message::FlowMod(fm).to_bytes(Xid(id)));
    }
    bytes
}

/// Heap allocations per rotation (2 × `IDS` flow-mods) once the switch
/// and the output buffer have seen the stream twice.
fn allocs_per_rotation(profile: SwitchProfile, shuffled: bool) -> u64 {
    let mut agent = Agent::new(Switch::new(profile, Dpid(1), 7));
    let bytes = rotation(shuffled);
    let mut outputs = Vec::new();
    let mut feed = |agent: &mut Agent| {
        agent
            .feed_into(&bytes, SimTime::ZERO, &mut outputs)
            .expect("well-formed stream");
        assert_eq!(outputs.len(), 2 * IDS as usize);
        assert!(outputs.iter().all(|o| o.reply.is_none()), "no rejections");
        outputs.clear();
    };
    feed(&mut agent);
    feed(&mut agent);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..ROTATIONS {
        feed(&mut agent);
    }
    let spent = ALLOCS.with(Cell::get) - before;
    assert_eq!(agent.switch().rule_count(), 0);
    assert_eq!(
        spent % ROTATIONS,
        0,
        "the count repeats rotation to rotation"
    );
    spent / ROTATIONS
}

/// The OVS pipeline `wire_bulk` drives: frame → `FlowMod` value →
/// entry, nothing on the heap, for adds and strict deletes alike, in
/// either delete order.
#[test]
fn ovs_rotation_allocates_nothing() {
    for shuffled in [false, true] {
        let spent = allocs_per_rotation(SwitchProfile::ovs(), shuffled);
        assert_eq!(spent, 0, "shuffled deletes: {shuffled}");
    }
}

/// The policy-cached pipeline (TCAM + software table): the add plans
/// its cascade in a `Vec` — one allocation — and a strict delete still
/// allocates nothing, in either delete order.
#[test]
fn policy_cached_rotation_allocates_once_per_add() {
    for shuffled in [false, true] {
        let spent = allocs_per_rotation(SwitchProfile::vendor1(), shuffled);
        assert!(
            spent <= u64::from(IDS),
            "shuffled deletes: {shuffled}, {spent} allocations"
        );
    }
}

const RULES: u32 = 96;
const PROBE_ROUNDS: u32 = 8;

/// Heap allocations over `PROBE_ROUNDS` × `RULES` probe hits, then over
/// as many misses, on a testbed switch holding `RULES` rules that has
/// already served twelve rounds of each. One probe in flight at a time,
/// as the inference drivers keep it.
fn probe_allocs(profile: SwitchProfile) -> (u64, u64) {
    let dpid = Dpid(1);
    let mut tb = Testbed::new(7);
    tb.attach_default(dpid, profile);
    let rules = (0..RULES)
        .map(|id| FlowMod::add(FlowMatch::l3_for_id(id), 10))
        .collect();
    let (installed, rejected, _) = tb.batch(dpid, rules);
    assert_eq!((installed, rejected), (RULES as usize, 0));
    let sweep = |tb: &mut Testbed, first_id: u32, rounds: u32, hits: bool| {
        let before = ALLOCS.with(Cell::get);
        for _ in 0..rounds {
            for id in first_id..first_id + RULES {
                let key = FlowMatch::key_for_id(id);
                let now = tb.now();
                let token = tb.submit(dpid, ControlOp::Probe(key), now);
                let done = tb.next_completion().expect("the probe completes");
                assert_eq!(done.token, token);
                let OpOutcome::Probe(hit) = done.outcome else {
                    panic!("a probe completes as a probe");
                };
                assert_eq!(hit != Hit::Miss, hits, "probe for id {id}");
            }
        }
        ALLOCS.with(Cell::get) - before
    };
    // Warm-up: buffer pools, the switch's completion FIFO and the
    // delivery merge's heap, OVS's microflows, and (under LRU) the
    // eviction heaps up to their rebuild threshold all reach their
    // steady size.
    sweep(&mut tb, 0, 12, true);
    sweep(&mut tb, RULES, 12, false);
    let on_hits = sweep(&mut tb, 0, PROBE_ROUNDS, true);
    let on_misses = sweep(&mut tb, RULES, PROBE_ROUNDS, false);
    (on_hits, on_misses)
}

/// Every vendor profile, plus an LRU cache (every hit re-notes the
/// eviction index): nothing per hit, the `packet_in` copy per miss. The
/// LRU cache holds the whole rule set, so no hit promotes: a promotion
/// asks the index for a victim, and in a debug build that answer is
/// checked against the linear oracle, which clones the table.
#[test]
fn probe_hits_allocate_nothing_and_misses_once() {
    let lru = SwitchProfile::generic_cached(u64::from(RULES), CachePolicy::lru());
    for profile in [
        SwitchProfile::ovs(),
        SwitchProfile::vendor1(),
        SwitchProfile::vendor2(),
        SwitchProfile::vendor3(),
        lru,
    ] {
        let name = profile.name.clone();
        let (on_hits, on_misses) = probe_allocs(profile);
        assert_eq!(on_hits, 0, "{name}: allocations on probe hits");
        assert!(
            on_misses <= u64::from(PROBE_ROUNDS * RULES),
            "{name}: {on_misses} allocations on {} probe misses",
            PROBE_ROUNDS * RULES
        );
    }
}

const RESIDENTS: u32 = 10_000;
/// Live heap bytes per resident rule of an OVS agent (the entry, its
/// slot in the table's columns and its match-index hash slot and link).
const BYTES_PER_RESIDENT: i64 = 263;

/// An OVS agent fed `RESIDENTS` distinct adds holds them in at most
/// `BYTES_PER_RESIDENT` live heap bytes each, counting everything the
/// agent allocated since it was built from a ready profile.
#[test]
fn ovs_agent_memory_per_resident_within_budget() {
    let mut bytes = Vec::new();
    for id in 0..RESIDENTS {
        let fm = FlowMod::add(FlowMatch::l3_for_id(id), 10).with_action(Action::Output {
            port: PortNo(1),
            max_len: 0,
        });
        bytes.extend(Message::FlowMod(fm).to_bytes(Xid(id)));
    }
    let mut outputs = Vec::with_capacity(RESIDENTS as usize);
    let profile = SwitchProfile::ovs();
    let base = LIVE.with(Cell::get);
    let mut agent = Agent::new(Switch::new(profile, Dpid(1), 7));
    agent
        .feed_into(&bytes, SimTime::ZERO, &mut outputs)
        .expect("well-formed stream");
    assert_eq!(agent.switch().rule_count(), RESIDENTS as usize);
    let held = LIVE.with(Cell::get) - base;
    let per = held as f64 / f64::from(RESIDENTS);
    // Shown by `cargo test -- --nocapture`, and when the gate trips.
    println!("OVS agent: {held} live heap bytes for {RESIDENTS} rules, {per:.1} per rule");
    assert!(
        held <= BYTES_PER_RESIDENT * i64::from(RESIDENTS),
        "{per:.1} bytes per rule"
    );
}

/// Building an empty table, or an agent around a ready profile, touches
/// no heap: a wire connection's first op pays for nothing it does not
/// use.
#[test]
fn empty_table_and_fresh_agent_allocate_nothing() {
    let profile = SwitchProfile::ovs();
    let before = ALLOCS.with(Cell::get);
    let table = FlowTable::new();
    let agent = Agent::new(Switch::new(profile, Dpid(1), 7));
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
    drop((table, agent));
}
