//! A deterministic gate on the online dispatcher: heap allocations
//! inside [`execute_with`] per dispatched op, counted by a counting
//! global allocator (as `switchsim/tests/alloc_budget.rs` does for the
//! flow-mod path), on the add-only sweep-shaped 10 k-op DAG of
//! `benches/scheduler.rs`, for every registry entry.
//!
//! The dispatch loop itself allocates nothing per op, and neither does
//! a flow-mod on its way down (request → `FlowMod` value → frame →
//! `FlowMod` value → entry). What is left is amortised growth of the
//! tables and queues.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tango::db::TangoDb;
use tango_sched::executor::execute_with;
use tango_sched::schedulers::registry;

mod support;

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

const OPS: usize = 10_000;
/// Allocations per hundred dispatched ops.
const BUDGET: u64 = 60;

#[test]
fn dispatch_allocates_within_budget_for_every_scheduler() {
    let dag = support::build_dag(OPS);
    let db = TangoDb::new();
    for entry in registry() {
        let mut tb = support::testbed();
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
