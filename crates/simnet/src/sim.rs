//! The process-wide event counter.
//!
//! A control path models each operation as two events — its arrival at
//! the switch and its completion — and reports them here when it
//! resolves the op. The count is a throughput meter (events/sec in the
//! bench layer, `events_per_rep` in the benchmark), never a
//! synchronization point, so increments are relaxed. Every control path
//! in the process feeds it: a delta around a region is one experiment's
//! only when nothing else runs concurrently, and per-cell accounting
//! reads the control path's own count instead.

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS_PROCESSED: AtomicU64 = AtomicU64::new(0);

/// Total events recorded by every control path in this process so far.
/// Benchmarks subtract a snapshot taken before an experiment to get its
/// event count.
#[must_use]
pub fn events_processed() -> u64 {
    EVENTS_PROCESSED.load(Ordering::Relaxed)
}

/// Adds `n` modelled events to the process-wide count.
pub fn record_events(n: u64) {
    EVENTS_PROCESSED.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_events_add_up() {
        let before = events_processed();
        record_events(2);
        record_events(3);
        // Other tests may record concurrently: at least our five landed.
        assert!(events_processed() - before >= 5);
    }
}
