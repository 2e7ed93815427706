//! Property test: the event queue agrees with a naive sorted-`Vec`
//! model on random interleavings of push/pop.
//!
//! The model is deliberately the dumbest thing that is obviously right:
//! insert after the last element whose time is not later, pop from the
//! front — FIFO among ties by construction, no sequence numbers. The
//! heap gets its FIFO from the `seq` tie-break in `Ord`; drop that and
//! this test fails. Timestamps are drawn from a tie-heavy, mixed-scale
//! pool (dense exact ties, medium spread, far-future outliers), because
//! ties are exactly where a comparison heap is free to diverge.

use proptest::prelude::*;
use simnet::event::EventQueue;
use simnet::time::SimTime;

/// Reference queue: a `Vec` kept sorted by time, stable among ties.
#[derive(Default)]
struct Model {
    items: Vec<(SimTime, u64)>,
}

impl Model {
    fn push(&mut self, at: SimTime, event: u64) {
        let i = self.items.partition_point(|&(t, _)| t <= at);
        self.items.insert(i, (at, event));
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items.remove(0))
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Push at a timestamp picked from the tie-heavy pool.
    Push { at_pick: u8 },
    /// Pop one event; queue and model must yield the same (time, payload).
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Pushes dominate (repeated arms stand in for weights — the
    // vendored proptest shim's `prop_oneof!` is unweighted).
    prop_oneof![
        any::<u8>().prop_map(|at_pick| Op::Push { at_pick }),
        any::<u8>().prop_map(|at_pick| Op::Push { at_pick }),
        any::<u8>().prop_map(|at_pick| Op::Push { at_pick }),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// Maps a byte to a timestamp: mostly a tiny dense cluster (heavy
/// exact ties), some medium spread, a few far-future outliers.
fn at_for(pick: u8, salt: u64) -> SimTime {
    match pick % 8 {
        0..=3 => SimTime(u64::from(pick % 4) * 1_000),
        4 | 5 => SimTime(u64::from(pick) * 7_919 + salt % 13),
        6 => SimTime(u64::from(pick) * 1_000_000),
        _ => SimTime(3_600_000_000_000 + u64::from(pick) * 1_000_000_000),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_queue_matches_sorted_vec_model(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut model = Model::default();
        let mut payload = 0u64;

        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Push { at_pick } => {
                    let at = at_for(at_pick, i as u64);
                    queue.push(at, payload);
                    model.push(at, payload);
                    payload += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(queue.pop(), model.pop(), "pop diverged at op {}", i);
                }
            }
            prop_assert_eq!(queue.len(), model.items.len(), "len diverged at op {}", i);
            prop_assert_eq!(queue.is_empty(), model.items.is_empty());
        }

        // Drain both to exhaustion: full pop sequences must be identical.
        loop {
            let (a, b) = (queue.pop(), model.pop());
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
}
