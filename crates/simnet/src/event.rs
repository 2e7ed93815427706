//! A time-ordered event queue, FIFO among equal timestamps.
//!
//! A comparison heap alone pops equal keys in arbitrary order, so each
//! entry carries a sequence number minted at push. `(at, seq)` is a total
//! order: pop order is a pure function of the push/pop history, which is
//! what makes whole simulations replayable.
//!
//! No control path runs on it: both resolve each op at submit
//! (`switchsim::chan`). Its users are the benchmark's event-queue layer
//! metric and the event-driven testbed that `switchsim`'s tests keep as
//! the timing oracle.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// `((at, seq), event)`, key reversed: `BinaryHeap` is a max-heap.
#[derive(Clone)]
struct Entry<E>(Reverse<(SimTime, u64)>, E);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// A min-queue of `(SimTime, E)` pairs, FIFO among equal times.
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.heap.push(Entry(Reverse((at, self.next_seq)), event));
        self.next_seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry(Reverse((at, _)), event) = self.heap.pop()?;
        Some((at, event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO + SimDuration::from_millis(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_ties_and_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 1);
        q.push(SimTime(3), 2);
        q.push(SimTime(5), 3);
        q.push(SimTime(3), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime(1), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clone_of_half_drained_queue_pops_identically() {
        // A copy taken mid-run carries the pending set, the tie order
        // and the seq counter with it.
        let mut q = EventQueue::new();
        for i in 0..40u64 {
            q.push(SimTime((i * 37) % 11), i);
        }
        for _ in 0..20 {
            q.pop();
        }
        let mut c = q.clone();
        for i in 40..60u64 {
            q.push(SimTime(5 + i % 3), i);
            c.push(SimTime(5 + i % 3), i);
        }
        loop {
            let (a, b) = (q.pop(), c.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
