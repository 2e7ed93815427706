//! A deterministic gate on the flow-mod path: heap allocations per
//! flow-mod, counted by a counting global allocator, for the stream the
//! wire benchmark sends — 1 024 adds, then strict deletes of the same
//! rules oldest first, round and round — fed through
//! [`Agent::feed_into`] into a warmed switch.
//!
//! Wall-clock rates on a shared box drift by tens of percent; this count
//! repeats exactly, so a `Vec` that creeps back into the per-op path
//! fails here rather than fading a noisy rate. What is left per add is
//! the decoded flow-mod's action list and the installed entry's copy of
//! it; a strict delete allocates nothing.

use ofwire::action::Action;
use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::message::Message;
use ofwire::types::{Dpid, PortNo, Xid};
use simnet::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use switchsim::agent::Agent;
use switchsim::profiles::SwitchProfile;
use switchsim::switch::Switch;

thread_local! {
    /// Allocations made by this thread (each test runs on its own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a
// thread-local `Cell<u64>` that has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const IDS: u32 = 1024;
const ROTATIONS: u64 = 8;

/// One rotation as wire bytes: `IDS` adds, then their strict deletes in
/// the same order.
fn rotation() -> Vec<u8> {
    let mut bytes = Vec::new();
    for id in 0..IDS {
        let fm = FlowMod::add(FlowMatch::l3_for_id(id), 10).with_action(Action::Output {
            port: PortNo(1),
            max_len: 0,
        });
        bytes.extend(Message::FlowMod(fm).to_bytes(Xid(id)));
    }
    for id in 0..IDS {
        let fm = FlowMod::delete_strict(FlowMatch::l3_for_id(id), 10);
        bytes.extend(Message::FlowMod(fm).to_bytes(Xid(id)));
    }
    bytes
}

/// Heap allocations per rotation (2 × `IDS` flow-mods) once the switch
/// and the output buffer have seen the stream twice.
fn allocs_per_rotation(profile: SwitchProfile) -> u64 {
    let mut agent = Agent::new(Switch::new(profile, Dpid(1), 7));
    let bytes = rotation();
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

/// The OVS pipeline `wire_bulk` drives: two allocations per add (the
/// decoded action list, the entry's copy), none per strict delete.
#[test]
fn ovs_rotation_allocates_twice_per_add() {
    assert!(allocs_per_rotation(SwitchProfile::ovs()) <= 2 * u64::from(IDS));
}

/// The policy-cached pipeline (TCAM + software table): the add plans
/// its cascade in a `Vec` and holds a second copy of the entry while it
/// does — two more per add — and a strict delete still allocates nothing.
#[test]
fn policy_cached_rotation_allocates_four_times_per_add() {
    assert!(allocs_per_rotation(SwitchProfile::vendor1()) <= 4 * u64::from(IDS));
}
