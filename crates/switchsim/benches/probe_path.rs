//! Criterion benches for the probe path — the op inference sends most:
//! one `packet_out` through [`Testbed`]'s `submit` → `next_completion`
//! (probe-frame encode, event queue, borrowed-frame decode, pipeline
//! lookup, completion), one probe in flight at a time.
//!
//! Cases: hits and misses, against 1 000 rules in a TCAM with room to
//! spare and against a rule set driven past TCAM capacity (the state the
//! size probes leave a switch in), under FIFO (a hit writes nothing to
//! the eviction index) and LRU (every hit re-notes it, and a hit in the
//! software table promotes). Each case checks what its probes found.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ofwire::flow_match::FlowMatch;
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use switchsim::cache::CachePolicy;
use switchsim::control::{ControlOp, ControlPath, OpOutcome};
use switchsim::harness::Testbed;
use switchsim::pipeline::Hit;
use switchsim::profiles::SwitchProfile;

const DPID: Dpid = Dpid(1);
const TCAM: u32 = 1_024;
/// Probes per timed sweep.
const SWEEP: u32 = 1_000;

/// A testbed switch with a `TCAM`-entry cache under `policy`, holding
/// rules for ids `0..rules`.
fn testbed(policy: CachePolicy, rules: u32) -> Testbed {
    let mut tb = Testbed::new(7);
    tb.attach_default(DPID, SwitchProfile::generic_cached(u64::from(TCAM), policy));
    let fms = (0..rules)
        .map(|id| FlowMod::add(FlowMatch::l3_for_id(id), 10))
        .collect();
    let (installed, rejected, _) = tb.batch(DPID, fms);
    assert_eq!((installed, rejected), (rules as usize, 0));
    tb
}

/// Probes ids `first..first + SWEEP` one at a time; returns how many hit
/// the TCAM and how many the software table (the rest missed).
fn sweep(tb: &mut Testbed, first: u32) -> (u32, u32) {
    let (mut fast, mut slow) = (0, 0);
    for id in first..first + SWEEP {
        let now = tb.now();
        tb.submit(DPID, ControlOp::Probe(FlowMatch::key_for_id(id)), now);
        let done = tb.next_completion().expect("the probe completes");
        match done.outcome {
            OpOutcome::Probe(Hit::Table { level: 0, .. }) => fast += 1,
            OpOutcome::Probe(Hit::Table { .. }) => slow += 1,
            OpOutcome::Probe(Hit::Miss) => {}
            other => panic!("a probe completes as a probe, not {other:?}"),
        }
    }
    (fast, slow)
}

fn bench_probe_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("probe_path");
    g.sample_size(20);
    for (policy_name, policy) in [("fifo", CachePolicy::fifo()), ("lru", CachePolicy::lru())] {
        // 1 000 rules, all TCAM-resident.
        let mut tb = testbed(policy.clone(), SWEEP);
        g.bench_function(format!("{policy_name}_hit_1k"), |b| {
            b.iter(|| {
                let found = sweep(&mut tb, 0);
                assert_eq!(found, (SWEEP, 0), "every probe hits the TCAM");
                black_box(found)
            })
        });
        g.bench_function(format!("{policy_name}_miss_1k"), |b| {
            b.iter(|| {
                let found = sweep(&mut tb, SWEEP);
                assert_eq!(found, (0, 0), "every probe misses");
                black_box(found)
            })
        });
        assert_eq!(tb.switch(DPID).rule_count(), SWEEP as usize);

        // Twice the TCAM's capacity: full TCAM over a software spill.
        let mut tb = testbed(policy.clone(), 2 * TCAM);
        g.bench_function(format!("{policy_name}_hit_at_capacity"), |b| {
            b.iter(|| {
                // Straddle the TCAM/software boundary of the install
                // order.
                let (fast, slow) = sweep(&mut tb, TCAM - SWEEP / 2);
                assert_eq!(fast + slow, SWEEP, "every probe hits");
                if !policy.reads_traffic() {
                    // Membership is traffic independent: the oldest
                    // `TCAM` installs hold the TCAM, sweep after sweep.
                    assert_eq!((fast, slow), (SWEEP / 2, SWEEP / 2));
                }
                black_box((fast, slow))
            })
        });
        g.bench_function(format!("{policy_name}_miss_at_capacity"), |b| {
            b.iter(|| {
                let found = sweep(&mut tb, 2 * TCAM);
                assert_eq!(found, (0, 0), "every probe misses");
                black_box(found)
            })
        });
        let sw = tb.switch(DPID);
        assert_eq!(sw.rule_count(), 2 * TCAM as usize);
        assert_eq!(sw.level_occupancy(0), TCAM as usize, "the TCAM stays full");
    }
    g.finish();
}

criterion_group!(benches, bench_probe_path);
criterion_main!(benches);
