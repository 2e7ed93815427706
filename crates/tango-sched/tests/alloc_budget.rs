//! A deterministic gate on the online dispatcher: heap allocations
//! inside [`execute_with`] per dispatched op, counted by a counting
//! global allocator (as `switchsim/tests/alloc_budget.rs` does for the
//! flow-mod path), on an add-only sweep-shaped 10 k-op DAG, for every
//! registry entry.
//!
//! The dispatch loop itself allocates nothing per op, and neither does
//! a flow-mod on its way down (request → `FlowMod` value → frame →
//! `FlowMod` value → entry). What is left is amortised growth of the
//! tables and queues.
//!
//! The same allocator also tracks live heap bytes, which gate what the
//! DAG itself costs per request, built and cloned (the executor's
//! callers clone one per run; a clone shares the requests and edges and
//! copies only the per-run progress), and its high-water mark, which
//! gates the heap a dispatch holds only while it runs.

use ofwire::flow_match::FlowMatch;
use ofwire::types::Dpid;
use simnet::rng::DetRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::db::TangoDb;
use tango_sched::dag::RequestDag;
use tango_sched::executor::execute_with;
use tango_sched::request::ReqElem;
use tango_sched::schedulers::registry;

thread_local! {
    /// Allocations made by this thread (each test runs on its own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has read since the test last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Records one (re)allocation that changes the live heap by `bytes`.
fn note(allocs: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = LIVE.try_with(|n| {
        n.set(n.get() + bytes);
        let _ = PEAK.try_with(|p| p.set(p.get().max(n.get())));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of three
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

const SWITCHES: u64 = 8;

/// An add-only update DAG shaped like the sweep workload: depth-6
/// chains over 8 switches with occasional cross-chain joins.
fn build_dag(ops: usize) -> RequestDag {
    let mut rng = DetRng::new(0xBE7C);
    let mut dag = RequestDag::new();
    let mut ids = Vec::with_capacity(ops);
    for i in 0..ops {
        let dpid = Dpid(rng.index(SWITCHES as usize) as u64 + 1);
        let prio = 1000 + rng.index(2000) as u16;
        let id = dag.add_node(ReqElem::add(dpid, FlowMatch::l3_for_id(i as u32), prio, 1));
        if i % 6 != 0 {
            dag.add_dep(ids[i - 1], id);
        }
        if i > 0 && rng.chance(0.03) {
            let from = rng.index(i);
            if from != i - 1 {
                dag.add_dep(ids[from], id);
            }
        }
        ids.push(id);
    }
    dag
}

/// Eight OVS switches on one testbed.
fn testbed() -> Testbed {
    let mut tb = Testbed::new(0x5EED);
    for d in 1..=SWITCHES {
        tb.attach_default(Dpid(d), SwitchProfile::ovs());
    }
    tb
}

const OPS: usize = 10_000;
/// Allocations per hundred dispatched ops.
const BUDGET: u64 = 60;

#[test]
fn dispatch_allocates_within_budget_for_every_scheduler() {
    let dag = build_dag(OPS);
    let db = TangoDb::new();
    for entry in registry() {
        let mut tb = testbed();
        let mut d = dag.clone();
        let mut sched = entry.build();
        let before = ALLOCS.with(Cell::get);
        let report = execute_with(&mut tb, &mut d, &db, sched.as_mut(), entry.release);
        let spent = ALLOCS.with(Cell::get) - before;
        let report = report.expect("sweep-shaped DAGs are acyclic");
        assert_eq!(report.completed, OPS, "{}", entry.name);
        // Shown by `cargo test -- --nocapture`, and when the gate trips.
        println!("{}: {spent} allocations for {OPS} ops", entry.name);
        assert!(spent * 100 / OPS as u64 <= BUDGET, "{}", entry.name);
    }
}

/// Heap bytes per request that a dispatch holds while it runs and gives
/// back once it has returned and its report is dropped: the queues, the
/// release instants, the in-flight ops and the report itself. What
/// outlives the call (the scheduler's ranks, the switches' tables, the
/// DAG's progress) is not counted.
const TRANSIENT_BYTES_PER_NODE: i64 = 32;

#[test]
fn dispatch_transient_heap_within_budget_for_every_scheduler() {
    let dag = build_dag(OPS);
    let db = TangoDb::new();
    for entry in registry() {
        let mut tb = testbed();
        let mut d = dag.clone();
        let mut sched = entry.build();
        PEAK.with(|p| p.set(LIVE.with(Cell::get)));
        let report = execute_with(&mut tb, &mut d, &db, sched.as_mut(), entry.release);
        drop(report.expect("sweep-shaped DAGs are acyclic"));
        let transient = PEAK.with(Cell::get) - LIVE.with(Cell::get);
        // Shown by `cargo test -- --nocapture`, and when the gate trips.
        println!(
            "{}: {transient} transient heap bytes for {OPS} ops ({:.1} per request)",
            entry.name,
            transient as f64 / OPS as f64
        );
        assert!(
            transient <= TRANSIENT_BYTES_PER_NODE * OPS as i64,
            "{}: {transient} bytes",
            entry.name
        );
    }
}

/// Live heap bytes per request of the sweep-shaped DAG as built (one
/// `add_node` at a time, so with `Vec` growth slack) and as cloned.
const BUILT_BYTES_PER_NODE: i64 = 225;
const CLONED_BYTES_PER_NODE: i64 = 6;

#[test]
fn request_dag_memory_within_budget() {
    let live = || LIVE.with(Cell::get);
    let before = ALLOCS.with(Cell::get);
    let empty = RequestDag::new();
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "RequestDag::new");
    drop(empty);
    let base = live();
    let dag = build_dag(OPS);
    let built = live() - base;
    let copy = dag.clone();
    let cloned = live() - base - built;
    assert_eq!(copy.len(), OPS);
    let ops = OPS as i64;
    // Shown by `cargo test -- --nocapture`, and when the gate trips.
    println!(
        "RequestDag of {OPS} requests: {built} live heap bytes built ({:.1} per request), \
         {cloned} cloned ({:.1} per request)",
        built as f64 / OPS as f64,
        cloned as f64 / OPS as f64
    );
    assert!(built <= BUILT_BYTES_PER_NODE * ops, "built: {built} bytes");
    assert!(
        cloned <= CLONED_BYTES_PER_NODE * ops,
        "cloned: {cloned} bytes"
    );
}
