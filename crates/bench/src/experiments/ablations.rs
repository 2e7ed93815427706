//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. clustering method (gap-based vs k-means) in Algorithm 1;
//! 2. trials-per-level `k` sweep — accuracy vs probe overhead (the
//!    asymptotic-optimality trade-off);
//! 3. greedy vs non-greedy (prefix-lookahead) scheduler batching;
//! 4. guard-time concurrent dispatch on/off for dependent requests.

use crate::lower::{lower_scenario, triangle_testbed};
use crate::par::par_map;
use crate::report::format_table;
use ofwire::types::Dpid;
use simnet::time::SimDuration;
use switchsim::cache::CachePolicy;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::db::TangoDb;
use tango::driver::run_driver;
use tango::infer_size::{size_probe, ClusterMethod, SizeProbeConfig};
use tango::pattern::RuleKind;
use tango::stats::relative_error;
use tango_sched::executor::{execute_rounds, execute_with, Batching, Release};
use tango_sched::schedulers::TangoScheduler;
use workloads::scenarios::link_failure;
use workloads::topology::Topology;

fn size_probe_error(tcam: u64, method: ClusterMethod, trials: usize, seed: u64) -> (f64, usize) {
    let mut tb = Testbed::new(seed);
    let dpid = Dpid(1);
    tb.attach_default(
        dpid,
        SwitchProfile::generic_cached(tcam, CachePolicy::fifo()),
    );
    let cfg = SizeProbeConfig {
        max_flows: (tcam * 2) as usize,
        trials_per_level: trials,
        cluster_method: method,
        seed,
        ..SizeProbeConfig::default()
    };
    let est = run_driver(&mut tb, dpid, |p| size_probe(p, RuleKind::L3, cfg))
        .expect("size probe completes");
    (
        relative_error(est.fast_layer_size().unwrap_or(0.0), tcam as f64),
        est.packets_sent,
    )
}

/// Ablation 1: gap-based vs k-means clustering at fixed trials.
#[must_use]
pub fn clustering_ablation(tcam: u64) -> String {
    let rows = par_map(
        vec![
            ("gaps", ClusterMethod::Gaps),
            ("kmeans", ClusterMethod::KMeans),
        ],
        |(name, method)| {
            let (err, packets) = size_probe_error(tcam, method, 600, 0xab1);
            vec![
                name.to_string(),
                format!("{:.2}%", err * 100.0),
                packets.to_string(),
            ]
        },
    );
    format_table(&["clustering", "error", "packets"], &rows)
}

/// Ablation 2: trials-per-level sweep (accuracy vs probe overhead).
///
/// The trials × seeds grid fans out cell-by-cell; per-trial averages
/// reassemble from the index-ordered results.
#[must_use]
pub fn trials_sweep(tcam: u64, trials: &[usize]) -> String {
    // Average over a few seeds so the trend is visible.
    let seeds = [1u64, 2, 3, 4, 5];
    let cells: Vec<(usize, u64)> = trials
        .iter()
        .flat_map(|&k| seeds.iter().map(move |&s| (k, s)))
        .collect();
    let probed = par_map(cells, |(k, s)| {
        size_probe_error(tcam, ClusterMethod::Gaps, k, s)
    });
    let rows: Vec<Vec<String>> = trials
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let chunk = &probed[i * seeds.len()..(i + 1) * seeds.len()];
            let errs: f64 = chunk.iter().map(|&(e, _)| e).sum();
            let packets: usize = chunk.iter().map(|&(_, p)| p).sum();
            vec![
                k.to_string(),
                format!("{:.2}%", errs / seeds.len() as f64 * 100.0),
                (packets / seeds.len()).to_string(),
            ]
        })
        .collect();
    format_table(&["trials/level", "mean error", "mean packets"], &rows)
}

/// Ablation 3: greedy vs lookahead batching on an LF-style DAG.
/// Returns `(greedy_s, lookahead_s)`.
#[must_use]
pub fn batching_ablation(lf_flows: usize) -> (f64, f64) {
    let scen = link_failure(&Topology::triangle(), (0, 1), lf_flows, 0xab3);
    let arms = par_map(vec![Batching::Greedy, Batching::Lookahead], |batching| {
        let (mut tb, dpids) = triangle_testbed(1);
        let mut dag = lower_scenario(&mut tb, &dpids, &scen);
        let report = execute_rounds(&mut tb, &mut dag, &TangoDb::new(), batching);
        report
            .expect("generated scenarios are acyclic")
            .makespan
            .as_secs_f64()
    });
    (arms[0], arms[1])
}

/// Ablation 4: ack-waiting vs guard-time dispatch on the same DAG.
/// Returns `(ack_s, guard_s)`.
#[must_use]
pub fn guard_ablation(lf_flows: usize, guard_us: u64) -> (f64, f64) {
    let scen = link_failure(&Topology::triangle(), (0, 1), lf_flows, 0xab4);
    let arms = par_map(vec![true, false], |ack| {
        let (mut tb, dpids) = triangle_testbed(2);
        let mut dag = lower_scenario(&mut tb, &dpids, &scen);
        let release = if ack {
            Release::Ack
        } else {
            Release::Guard(SimDuration::from_micros(guard_us))
        };
        let mut sched = TangoScheduler::type_and_priority();
        execute_with(&mut tb, &mut dag, &TangoDb::new(), &mut sched, release)
            .expect("generated scenarios are acyclic")
            .makespan
            .as_secs_f64()
    });
    (arms[0], arms[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_methods_both_accurate() {
        for method in [ClusterMethod::Gaps, ClusterMethod::KMeans] {
            let (err, _) = size_probe_error(256, method, 600, 11);
            assert!(err < 0.06, "{method:?}: {err}");
        }
    }

    #[test]
    fn more_trials_cost_more_packets() {
        let (_, p_small) = size_probe_error(200, ClusterMethod::Gaps, 50, 1);
        let (_, p_large) = size_probe_error(200, ClusterMethod::Gaps, 800, 1);
        assert!(p_large > p_small);
    }

    #[test]
    fn guard_dispatch_wins() {
        let (ack, guard) = guard_ablation(40, 50);
        assert!(guard < ack, "guard {guard} vs ack {ack}");
    }

    #[test]
    fn lookahead_is_competitive() {
        let (greedy, lookahead) = batching_ablation(30);
        assert!(
            lookahead <= greedy * 1.25,
            "lookahead {lookahead} vs greedy {greedy}"
        );
    }
}
