//! The size-inference accuracy experiment — the paper's headline result:
//! "Tango can infer flow table sizes … within less than 5 % of actual
//! values, despite diverse switch caching algorithms."
//!
//! Algorithm 1 runs against a grid of switches: the three calibrated
//! vendor profiles and generic policy-cached switches across
//! FIFO/LRU/LFU/priority policies and several TCAM sizes.

use crate::par::par_map;
use crate::report::format_table;
use ofwire::types::Dpid;
use switchsim::cache::CachePolicy;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::driver::run_driver;
use tango::infer_size::{size_probe, SizeProbeConfig};
use tango::pattern::RuleKind;
use tango::stats::relative_error;

/// One grid cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeAccuracyRow {
    /// Switch label.
    pub switch: String,
    /// Ground-truth fast-layer capacity.
    pub actual: usize,
    /// Algorithm 1's estimate.
    pub estimated: f64,
    /// Relative error.
    pub error: f64,
    /// Probe packets spent.
    pub packets: usize,
    /// Rules installed.
    pub rules: usize,
}

fn probe(profile: SwitchProfile, actual: usize, max_flows: usize, seed: u64) -> SizeAccuracyRow {
    let mut tb = Testbed::new(seed);
    let dpid = Dpid(1);
    let name = profile.name.clone();
    tb.attach_default(dpid, profile);
    let cfg = SizeProbeConfig {
        max_flows,
        seed,
        ..SizeProbeConfig::default()
    };
    let est = run_driver(&mut tb, dpid, |p| size_probe(p, RuleKind::L3, cfg))
        .expect("size probe completes");
    let estimated = est.fast_layer_size().unwrap_or(0.0);
    SizeAccuracyRow {
        switch: name,
        actual,
        estimated,
        error: relative_error(estimated, actual as f64),
        packets: est.packets_sent,
        rules: est.m,
    }
}

/// Probes the three calibrated vendor profiles (full paper scale —
/// Switch #1 needs 8 192 rules installed, so this arm is release-bench
/// territory). Each probe owns its testbed and seed, so the three run
/// concurrently.
#[must_use]
pub fn run_vendors() -> Vec<SizeAccuracyRow> {
    par_map(
        vec![
            (SwitchProfile::vendor2(), 2560, 4096, 1),
            (SwitchProfile::vendor3(), 767, 2048, 2),
            (SwitchProfile::vendor1(), 4095, 8192, 5),
        ],
        |(profile, actual, max_flows, seed)| probe(profile, actual, max_flows, seed),
    )
}

/// Runs the generic policy-cached grid. `tcam_sizes` are the capacities
/// to sweep (paper-scale default: `[256, 512, 1024]`).
///
/// The grid (sizes × policies) materializes first, then every cell runs
/// on the [`par_map`] pool with its own testbed and cell-derived seed.
#[must_use]
pub fn run(tcam_sizes: &[u64]) -> Vec<SizeAccuracyRow> {
    // Generic policy-cached switches: the diverse-caching-algorithms
    // claim.
    let mut cells = Vec::new();
    for &size in tcam_sizes {
        for (tag, policy) in [
            ("fifo", CachePolicy::fifo()),
            ("lru", CachePolicy::lru()),
            ("lfu", CachePolicy::lfu()),
            ("priority", CachePolicy::priority()),
            ("priority+lru", CachePolicy::priority_then_lru()),
        ] {
            cells.push((size, tag, policy));
        }
    }
    par_map(cells, |(size, tag, policy)| {
        let profile = SwitchProfile::generic_cached(size, policy);
        let max_flows = (size as usize) * 2;
        probe(
            profile,
            size as usize,
            max_flows,
            (100 + size).wrapping_mul(43) ^ tag.len() as u64,
        )
    })
}

/// Renders rows plus the aggregate max error.
#[must_use]
pub fn render(rows: &[SizeAccuracyRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.switch.clone(),
                r.actual.to_string(),
                format!("{:.1}", r.estimated),
                format!("{:.2}%", r.error * 100.0),
                r.rules.to_string(),
                r.packets.to_string(),
            ]
        })
        .collect();
    let mut out = format_table(
        &["switch", "actual", "estimated", "error", "rules", "packets"],
        &body,
    );
    let max_err = rows.iter().map(|r| r.error).fold(0.0, f64::max);
    out.push_str(&format!(
        "\nmax relative error: {:.2}% (paper headline: < 5%)\n",
        max_err * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_accuracy_within_five_percent() {
        let mut rows = run(&[256]);
        // One (small) vendor profile in the unit test; the full vendor
        // arm runs in the experiments binary.
        rows.push(probe(SwitchProfile::vendor3(), 767, 2048, 2));
        for r in &rows {
            assert!(
                r.error < 0.05,
                "{}: estimated {:.1} vs actual {} (err {:.2}%)",
                r.switch,
                r.estimated,
                r.actual,
                r.error * 100.0
            );
        }
    }

    #[test]
    fn probing_overhead_is_linear() {
        let rows = run(&[200]);
        for r in &rows {
            assert!(
                r.packets < 12 * r.rules.max(600),
                "{}: {} packets for {} rules",
                r.switch,
                r.packets,
                r.rules
            );
        }
    }
}
