//! Deterministic fan-out for grid-shaped experiments.
//!
//! Every experiment grid in this crate — vendors × seeds × sizes — builds
//! an independent `Testbed` per cell with a cell-derived
//! seed, so cells share no mutable state and can run on any core. This
//! module provides the one primitive they need: [`par_map`], a scoped
//! thread pool (hand-rolled over [`std::thread::scope`]; the workspace
//! has no crates.io access, so rayon is not an option) that applies a
//! function to every item and collects results **by input index**. The
//! output is therefore bit-identical to the sequential `map`, whatever
//! the worker count or OS scheduling order.
//!
//! The worker count is an explicit [`set_threads`] call (the
//! `--threads N` flag of the `experiments` binary) or, without one,
//! [`std::thread::available_parallelism`]. `1` disables fan-out
//! entirely (items run inline on the caller's thread).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 0 = "not set, use available_parallelism".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for every subsequent [`par_map`] call.
/// `0` resets to the default (available parallelism).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// The worker count [`par_map`] will use right now.
#[must_use]
pub fn threads() -> usize {
    let explicit = THREADS.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on a pool of scoped worker threads and
/// returns the results in **input order**.
///
/// Determinism contract: `f` must derive all randomness from its item
/// (cell-local seed) and touch no shared mutable state. Under that
/// contract the result vector is bit-identical to
/// `items.into_iter().map(f).collect()` for every worker count.
///
/// Work distribution is a single atomic counter (work stealing over
/// indices); result slots are per-index, so no ordering is imposed on
/// completion — only on collection.
///
/// Panics in `f` propagate: `std::thread::scope` joins every worker
/// before returning, and a panicked worker re-raises on join.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot poisoned")
                    .take()
                    .expect("item taken twice");
                let r = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped an index")
        })
        .collect()
}

/// [`par_map`] over an index range — sugar for grids that are cheaper
/// to describe by position than by materialized item.
pub fn par_map_idx<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map((0..n).collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_input_ordered() {
        set_threads(4);
        let out = par_map((0..100u64).collect(), |i| i * i);
        set_threads(0);
        let expect: Vec<u64> = (0..100).map(|i| i * i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn matches_sequential_for_every_worker_count() {
        let seq: Vec<String> = (0..17).map(|i| format!("cell-{i}")).collect();
        for workers in [1, 2, 3, 8, 32] {
            set_threads(workers);
            let par = par_map((0..17).collect(), |i: i32| format!("cell-{i}"));
            assert_eq!(par, seq, "workers={workers}");
        }
        set_threads(0);
    }

    #[test]
    fn empty_and_singleton() {
        set_threads(4);
        let empty: Vec<u8> = par_map(Vec::<u8>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(vec![7u8], |x| x + 1), vec![8]);
        set_threads(0);
    }

    #[test]
    fn index_sugar() {
        set_threads(2);
        assert_eq!(par_map_idx(4, |i| i * 10), vec![0, 10, 20, 30]);
        set_threads(0);
    }
}
