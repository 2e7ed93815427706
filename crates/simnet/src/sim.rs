//! The simulator: a virtual clock plus an event queue.
//!
//! `Simulator` supports two styles, and the Tango reproduction uses both:
//!
//! * **closed-loop** — sequential code (e.g. the probing engine) calls
//!   [`Simulator::advance`] to charge virtual time for each operation it
//!   performs, reading timestamps with [`Simulator::now`];
//! * **event-driven** — concurrent machinery (e.g. the network-wide
//!   scheduler executor) schedules completion events and consumes them
//!   with [`Simulator::next_event`], which warps the clock forward.

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of events delivered by [`Simulator::next_event`]
/// across every simulator instance — a *derived sum*, maintained
/// incrementally alongside each simulator's own
/// [`Simulator::events_processed`] count. Relaxed increments: the
/// counter is a throughput meter (events/sec reporting in the bench
/// layer), never a synchronization point. Because every live simulator
/// in the process feeds it, deltas around a region are only attributable
/// to one experiment when nothing else runs concurrently; per-cell
/// accounting should read the per-simulator count instead.
static EVENTS_PROCESSED: AtomicU64 = AtomicU64::new(0);

/// Total events delivered by all simulators in this process so far.
/// Benchmarks subtract a snapshot taken before an experiment to get its
/// event count and derive events/sec from wall-clock; prefer
/// [`Simulator::events_processed`] when a single simulator's count is
/// what you mean.
#[must_use]
pub fn events_processed() -> u64 {
    EVENTS_PROCESSED.load(Ordering::Relaxed)
}

/// A deterministic virtual-time simulator over events of type `E`.
#[derive(Clone)]
pub struct Simulator<E = ()> {
    now: SimTime,
    queue: EventQueue<E>,
    events: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Simulator::new()
    }
}

impl<E> Simulator<E> {
    /// A simulator at time zero with no pending events.
    #[must_use]
    pub fn new() -> Simulator<E> {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            events: 0,
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events delivered by *this* simulator's [`Simulator::next_event`].
    /// Unlike the process-wide [`events_processed`] sum, this count is
    /// unaffected by other simulators running concurrently (e.g. other
    /// experiment cells under `par_map`), so it is the honest per-cell
    /// figure for metrics snapshots. Cloning a simulator clones the
    /// count along with the clock it describes.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Advances the clock by `d` (closed-loop style).
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Schedules an event at an absolute time. Scheduling in the past
    /// is a logic error and panics (it would silently reorder
    /// causality).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduling at {at} before now {}", self.now);
        self.queue.push(at, event);
    }

    /// Schedules an event `d` after the current time. Routed through
    /// [`Simulator::schedule_at`] so both entry points share the
    /// not-in-the-past causality check (`now + d` can only trip it on
    /// arithmetic overflow, which the check turns into a loud panic
    /// instead of a silently reordered simulation).
    pub fn schedule_in(&mut self, d: SimDuration, event: E) {
        self.schedule_at(self.now + d, event);
    }

    /// Pops the earliest event, warping the clock to its timestamp.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.queue.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.events += 1;
        EVENTS_PROCESSED.fetch_add(1, Ordering::Relaxed);
        Some((at, event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The most events ever pending at once, for metrics snapshots.
    #[must_use]
    pub fn queue_depth_max(&self) -> usize {
        self.queue.depth_max()
    }

    /// Runs the event loop to exhaustion, applying `handler` to each
    /// event. The handler may schedule further events.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Simulator<E>, SimTime, E),
    {
        while let Some((at, event)) = self.next_event() {
            handler(self, at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_advance() {
        let mut sim: Simulator = Simulator::new();
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.advance(SimDuration::from_millis(3));
        sim.advance(SimDuration::from_micros(500));
        assert_eq!(sim.now(), SimTime(3_500_000));
    }

    #[test]
    fn event_loop_warps_clock() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(10), "late");
        sim.schedule_in(SimDuration::from_millis(1), "early");
        let (t, e) = sim.next_event().unwrap();
        assert_eq!(e, "early");
        assert_eq!(sim.now(), t);
        let (t2, e2) = sim.next_event().unwrap();
        assert_eq!(e2, "late");
        assert_eq!(t2, SimTime(10_000_000));
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn run_allows_rescheduling() {
        // A chain of events, each scheduling the next until a countdown
        // expires; total elapsed time must be the sum.
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(1), 5u32);
        let mut fired = 0;
        sim.run(|sim, _at, remaining| {
            fired += 1;
            if remaining > 0 {
                sim.schedule_in(SimDuration::from_millis(1), remaining - 1);
            }
        });
        assert_eq!(fired, 6);
        assert_eq!(sim.now(), SimTime(6_000_000));
    }

    #[test]
    fn per_simulator_event_count_is_isolated() {
        let mut a = Simulator::new();
        let mut b = Simulator::new();
        for i in 0..5u64 {
            a.schedule_at(SimTime(i), ());
        }
        b.schedule_at(SimTime(0), ());
        let global_before = events_processed();
        while a.next_event().is_some() {}
        while b.next_event().is_some() {}
        assert_eq!(a.events_processed(), 5);
        assert_eq!(b.events_processed(), 1);
        // The process-wide sum is derived: it advanced by at least the
        // two per-simulator counts (other tests may also be running).
        assert!(events_processed() - global_before >= 6);
        // Cloning carries the count with the clock it describes.
        assert_eq!(a.clone().events_processed(), 5);
    }

    #[test]
    #[should_panic(expected = "scheduling at")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.advance(SimDuration::from_millis(5));
        sim.schedule_at(SimTime(1), ());
    }
}
