//! The cache-policy identification experiment (§5.3): Algorithm 2 runs
//! against switches with known policies and the report is compared
//! against ground truth (up to black-box behavioural equivalence).

use crate::par::par_map;
use crate::report::format_table;
use ofwire::types::Dpid;
use switchsim::cache::{Attribute, CachePolicy, Direction, SortKey};
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::driver::run_driver;
use tango::infer_policy::{policy_probe, PolicyProbeConfig};
use tango::pattern::RuleKind;

/// One grid cell: ground truth vs inferred.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Ground-truth policy description.
    pub actual: String,
    /// Inferred policy description.
    pub inferred: String,
    /// Whether the inferred report matches the expected one.
    pub correct: bool,
}

/// The expected report for each ground-truth policy, accounting for the
/// two documented equivalences: id tie-breaks read as FIFO, and
/// traffic-count tie-breaks are unobservable.
fn expected_report(policy: &CachePolicy) -> Vec<SortKey> {
    let mut out = Vec::new();
    for k in &policy.keys {
        out.push(*k);
        if k.attribute.is_serial() || k.attribute == Attribute::TrafficCount {
            return out;
        }
    }
    // Policy ends on a non-serial key (or is priority-only): the switch's
    // id tie-break surfaces as FIFO.
    if out
        .last()
        .is_none_or(|k| k.attribute == Attribute::Priority)
    {
        out.push(SortKey {
            attribute: Attribute::InsertionTime,
            direction: Direction::KeepLow,
        });
    }
    out
}

/// Runs Algorithm 2 across the policy family at the given cache size.
#[must_use]
pub fn run(cache_size: u64) -> Vec<PolicyRow> {
    let policies = [
        CachePolicy::fifo(),
        CachePolicy::lru(),
        CachePolicy::lfu(),
        CachePolicy::priority(),
        CachePolicy::priority_then_lru(),
        CachePolicy::lfu_then_fifo(),
    ];
    // Six independent fixed-seed testbeds — one per policy — fan out.
    par_map(policies.to_vec(), |policy| {
        let mut tb = Testbed::new(0xb0);
        let dpid = Dpid(1);
        tb.attach_default(
            dpid,
            SwitchProfile::generic_cached(cache_size, policy.clone()),
        );
        let config = PolicyProbeConfig::default();
        let probe = |p| policy_probe(p, RuleKind::L3, cache_size as usize, config);
        let inferred = run_driver(&mut tb, dpid, probe).expect("policy probe completes");
        let expected = expected_report(&policy);
        PolicyRow {
            actual: policy.describe(),
            inferred: inferred.as_policy().describe(),
            correct: inferred.keys == expected,
        }
    })
}

/// Renders the comparison table.
#[must_use]
pub fn render(rows: &[PolicyRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.actual.clone(),
                r.inferred.clone(),
                if r.correct { "yes" } else { "NO" }.into(),
            ]
        })
        .collect();
    format_table(&["actual policy", "inferred", "correct"], &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_identified() {
        let rows = run(100);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.correct, "{} inferred as {}", r.actual, r.inferred);
        }
    }

    #[test]
    fn expected_reports_follow_equivalences() {
        // LFU: traffic tie-breaks are unobservable → single key.
        assert_eq!(expected_report(&CachePolicy::lfu()).len(), 1);
        // Priority-only: the id tie-break reads as FIFO.
        let p = expected_report(&CachePolicy::priority());
        assert_eq!(p.len(), 2);
        assert_eq!(p[1].attribute, Attribute::InsertionTime);
        // LRU is serial: one key, done.
        assert_eq!(expected_report(&CachePolicy::lru()).len(), 1);
    }
}
