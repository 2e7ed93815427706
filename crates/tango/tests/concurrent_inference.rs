//! Concurrent multi-switch inference interleaves in one simulator and
//! measures exactly what sequential probing measures.
//!
//! Two switches are attached to one testbed. Running their patterns
//! concurrently (one `FleetJob::pattern` each through
//! `fleet::run_inference`) must (a) produce bit-identical `PatternResult`s to
//! running the same patterns one switch after the other, because every
//! switch's latency jitter comes from its own RNG stream, and (b) finish
//! in close to the slower switch's time, not the sum — the point of the
//! event-driven control path.

use ofwire::types::Dpid;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::driver::run_driver;
use tango::fleet::{run_inference, FleetJob};
use tango::pattern::{PriorityOrder, RuleKind, TangoPattern};
use tango::probe::{PatternDriver, PatternResult};

fn testbed() -> Testbed {
    let mut tb = Testbed::new(0xfeed);
    tb.attach_default(Dpid(1), SwitchProfile::vendor1());
    tb.attach_default(Dpid(2), SwitchProfile::vendor2());
    tb
}

/// Runs `p1` on switch 1, then `p2` on switch 2.
fn run_sequentially(tb: &mut Testbed, p1: &TangoPattern, p2: &TangoPattern) -> Vec<PatternResult> {
    [(Dpid(1), p1), (Dpid(2), p2)]
        .into_iter()
        .map(|(d, p)| run_driver(tb, d, PatternDriver::for_pattern(p)).expect("sequential run"))
        .collect()
}

/// Runs `p1` on switch 1 and `p2` on switch 2, interleaved in the same
/// virtual time.
fn run_concurrently(tb: &mut Testbed, p1: &TangoPattern, p2: &TangoPattern) -> Vec<PatternResult> {
    let jobs = [
        FleetJob::pattern(Dpid(1), p1.clone()),
        FleetJob::pattern(Dpid(2), p2.clone()),
    ];
    run_inference(tb, &jobs)
        .expect("concurrent run")
        .iter()
        .map(|o| o.as_pattern().expect("pattern job").clone())
        .collect()
}

fn patterns() -> (TangoPattern, TangoPattern) {
    (
        TangoPattern::priority_insertion(200, PriorityOrder::Ascending, RuleKind::L3),
        TangoPattern::priority_insertion(200, PriorityOrder::Descending, RuleKind::L3),
    )
}

#[test]
fn concurrent_matches_sequential_and_overlaps() {
    let (p1, p2) = patterns();

    // Sequential: one switch fully probed, then the other.
    let mut seq_tb = testbed();
    let seq_start = seq_tb.now();
    let seq = run_sequentially(&mut seq_tb, &p1, &p2);
    let seq_elapsed = seq_tb.now().since(seq_start);

    // Concurrent: both programs interleaved in the same virtual time.
    let mut con_tb = testbed();
    let con_start = con_tb.now();
    let results = run_concurrently(&mut con_tb, &p1, &p2);
    let con_elapsed = con_tb.all_quiet_at().since(con_start);

    // (a) Measurements are bit-identical: each switch saw the exact same
    // op stream, timed by its own RNG stream.
    assert_eq!(results, seq);
    assert_eq!(con_tb.switch(Dpid(1)).rule_count(), 200);
    assert_eq!(con_tb.switch(Dpid(2)).rule_count(), 200);

    // (b) The runs overlap: concurrent time is well under the sum.
    assert!(
        con_elapsed.as_millis_f64() < 0.9 * seq_elapsed.as_millis_f64(),
        "concurrent {con_elapsed} should overlap, sequential total {seq_elapsed}"
    );
}

#[test]
fn concurrent_inference_feeds_identical_install_times() {
    // The quantity inference actually consumes — per-segment install
    // time — is identical between the two drivers, switch by switch.
    let (p1, p2) = patterns();
    let mut seq_tb = testbed();
    let seq = run_sequentially(&mut seq_tb, &p1, &p2);
    let mut con_tb = testbed();
    let con = run_concurrently(&mut con_tb, &p1, &p2);
    for (s, c) in seq.iter().zip(&con) {
        assert_eq!(s.install_time(), c.install_time());
        assert_eq!(s.rtts_ms(), c.rtts_ms());
    }
}
