//! Property-based pinning of the incremental data-path indexes against
//! recompute-from-scratch oracles.
//!
//! The pipeline maintains three pieces of derived state that the hot
//! paths rely on instead of scanning: per-level `used_units`, a Fenwick
//! count over installed priorities (TCAM shift costs), and a lazy
//! eviction index (victim/backfill selection). Random
//! add/remove/touch/expire sequences must keep every one of them in
//! exact agreement with the linear recomputation at every step.

use ofwire::flow_match::FlowMatch;
use ofwire::types::PortNo;
use proptest::prelude::*;
use simnet::time::{SimDuration, SimTime};
use switchsim::cache::{Attribute, CachePolicy, Direction, SortKey};
use switchsim::entry::{EntryId, FlowEntry};
use switchsim::pipeline::{CacheLevel, Pipeline};
use switchsim::tcam::{shift_count, TcamGeometry};

fn arb_policy() -> impl Strategy<Value = CachePolicy> {
    let key = (0usize..4, prop::bool::ANY).prop_map(|(a, high)| SortKey {
        attribute: Attribute::ALL[a],
        direction: if high {
            Direction::KeepHigh
        } else {
            Direction::KeepLow
        },
    });
    proptest::collection::vec(key, 1..4).prop_map(|mut keys| {
        // LEX orders do not repeat attributes.
        let mut seen = Vec::new();
        keys.retain(|k| {
            if seen.contains(&k.attribute) {
                false
            } else {
                seen.push(k.attribute);
                true
            }
        });
        CachePolicy::new(keys)
    })
}

#[derive(Debug, Clone)]
enum Op {
    Add {
        fid: u32,
        prio: u16,
        idle: u16,
        hard: u16,
        l2l3: bool,
    },
    Touch {
        which: usize,
    },
    Delete {
        which: usize,
    },
    Expire {
        advance_secs: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Adds and touches are listed twice to weight the mix toward them.
    prop_oneof![
        (0u32..64, 0u16..8, 0u16..4, 0u16..4, prop::bool::ANY).prop_map(
            |(fid, prio, idle, hard, l2l3)| Op::Add {
                fid,
                prio,
                idle,
                hard,
                l2l3
            }
        ),
        (64u32..128, 0u16..8, 0u16..4, 0u16..4, prop::bool::ANY).prop_map(
            |(fid, prio, idle, hard, l2l3)| Op::Add {
                fid,
                prio,
                idle,
                hard,
                l2l3
            }
        ),
        (0usize..64).prop_map(|which| Op::Touch { which }),
        (1usize..63).prop_map(|which| Op::Touch { which }),
        (0usize..64).prop_map(|which| Op::Delete { which }),
        (0u64..5).prop_map(|advance_secs| Op::Expire { advance_secs }),
    ]
}

/// The probe-path mix: rules without timeouts, three probes for every
/// add, the occasional delete.
fn arb_probe_op() -> impl Strategy<Value = Op> {
    (0u8..9, 0u32..96, 0u16..8, prop::bool::ANY, 0usize..64).prop_map(
        |(kind, fid, prio, l2l3, which)| match kind {
            0 | 1 => Op::Add {
                fid,
                prio,
                idle: 0,
                hard: 0,
                l2l3,
            },
            2..=7 => Op::Touch { which },
            _ => Op::Delete { which },
        },
    )
}

/// Recomputes every incrementally maintained quantity of `level` from
/// its entry slice and asserts agreement.
fn check_level(level: &mut CacheLevel, policy: &CachePolicy) {
    let entries: Vec<FlowEntry> = level.table.snapshot();

    // used_units: recompute as the sum of per-entry geometry costs.
    if let Some(g) = level.geometry {
        let expect: u64 = entries.iter().map(|e| g.cost(e.kind())).sum();
        prop_assert_eq!(level.used_units(), expect, "used_units diverged");
        prop_assert!(level.used_units() <= g.capacity_units, "over capacity");
    }

    // Fenwick priority counts: probe around every resident priority and
    // the domain edges.
    let prios: Vec<u16> = entries.iter().map(|e| e.priority).collect();
    let mut probes: Vec<u16> = vec![0, u16::MAX];
    for &p in &prios {
        probes.extend([p.saturating_sub(1), p, p.saturating_add(1)]);
    }
    for probe in probes {
        prop_assert_eq!(
            level.table.count_above(probe),
            shift_count(prios.iter(), probe),
            "count_above({}) diverged",
            probe
        );
    }

    // Eviction index vs the linear victim/backfill scans: the handle
    // locates the entry the scan picks (ids are unique).
    let worst = level.worst_pos(policy);
    prop_assert_eq!(
        worst.map(|h| level.table.get(h)),
        policy.worst_index(&entries).map(|i| &entries[i]),
        "worst_pos diverged"
    );
    let best = level.best_pos(policy);
    prop_assert_eq!(
        best.map(|h| level.table.get(h)),
        policy.best_index(&entries).map(|i| &entries[i]),
        "best_pos diverged"
    );

    // Timeout population, and each id's handle in install order.
    let timeouts = entries
        .iter()
        .filter(|e| e.idle_timeout > 0 || e.hard_timeout > 0)
        .count();
    prop_assert_eq!(level.table.timeout_count(), timeouts, "timeout_count");
    let handles: Vec<usize> = level.table.handles().collect();
    prop_assert_eq!(handles.len(), entries.len(), "handles");
    for (&h, e) in handles.iter().zip(&entries) {
        prop_assert_eq!(level.table.handle_of(e.id), Some(h), "handle_of");
        prop_assert_eq!(level.table.get(h), e, "handle locates its entry");
    }
}

fn run_sequence(mut pipe: Pipeline, ops: &[Op]) {
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut fids: Vec<u32> = Vec::new();
    for op in ops {
        now += SimDuration::from_secs(1);
        match *op {
            Op::Add {
                fid,
                prio,
                idle,
                hard,
                l2l3,
            } => {
                let m = if l2l3 {
                    FlowMatch::l2l3_for_id(fid)
                } else {
                    FlowMatch::l3_for_id(fid)
                };
                let mut e = FlowEntry::new(EntryId(next_id), m, prio, vec![], now);
                next_id += 1;
                e.idle_timeout = idle;
                e.hard_timeout = hard;
                let _ = pipe.add(e);
                fids.push(fid);
            }
            Op::Touch { which } => {
                if !fids.is_empty() {
                    let fid = fids[which % fids.len()];
                    let key = FlowMatch::key_for_id(fid);
                    pipe.lookup_touch(&key, now, 64);
                }
            }
            Op::Delete { which } => {
                if !fids.is_empty() {
                    let fid = fids[which % fids.len()];
                    // Loose delete: removes every entry for this flow id
                    // regardless of priority.
                    pipe.delete(&FlowMatch::l3_for_id(fid), 0, false, PortNo::NONE);
                }
            }
            Op::Expire { advance_secs } => {
                now += SimDuration::from_secs(advance_secs);
                pipe.expire(now);
            }
        }
        if let Pipeline::PolicyCached { levels, policy } = &mut pipe {
            let policy = policy.clone();
            for level in levels.iter_mut() {
                check_level(level, &policy);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn two_level_indexes_agree_with_oracles(
        policy in arb_policy(),
        ops in proptest::collection::vec(arb_op(), 1..100),
    ) {
        // A tight TCAM over unbounded software: adds overflow and swap
        // constantly, exercising eviction, demotion, and backfill.
        let pipe = Pipeline::cached(TcamGeometry::single_wide(12), policy);
        run_sequence(pipe, &ops);
    }

    #[test]
    fn three_level_indexes_agree_with_oracles(
        policy in arb_policy(),
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        // Two bounded levels cascade into software; the middle level is
        // double-wide so L2+L3 entries cost the same as narrow ones.
        let pipe = Pipeline::PolicyCached {
            levels: vec![
                CacheLevel::hardware("tcam0", TcamGeometry::single_wide(6)),
                CacheLevel::hardware("tcam1", TcamGeometry::double_wide(10)),
                CacheLevel::software("userspace"),
            ],
            policy,
        };
        run_sequence(pipe, &ops);
    }

    /// A probe hit re-notes the eviction index only under a policy that
    /// reads what the hit wrote. Whether it did or not, the index must
    /// still name the linear oracles' victim and backfill candidate
    /// after every step — under each named policy (two of which read no
    /// traffic attribute, so every hit skips the write) and a random LEX
    /// order.
    #[test]
    fn probe_hits_keep_the_eviction_index_exact(
        random in arb_policy(),
        ops in proptest::collection::vec(arb_probe_op(), 1..120),
    ) {
        for policy in [
            CachePolicy::fifo(),
            CachePolicy::lru(),
            CachePolicy::lfu(),
            CachePolicy::priority(),
            CachePolicy::priority_then_lru(),
            CachePolicy::lfu_then_fifo(),
            random,
        ] {
            let pipe = Pipeline::cached(TcamGeometry::single_wide(12), policy);
            run_sequence(pipe, &ops);
        }
    }
}
