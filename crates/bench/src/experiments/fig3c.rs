//! Figure 3(c) — flow-installation time under four priority orderings
//! (descending / ascending / same / random) on Switch #1 and OVS.
//!
//! The paper's headline asymmetries: descending is up to 46× slower than
//! constant priority (2 000 rules), random 12× slower than ascending;
//! the four OVS curves coincide.

use crate::par::par_map;
use ofwire::types::Dpid;
use simnet::trace::Figure;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::driver::run_driver;
use tango::pattern::{PriorityOrder, RuleKind, TangoPattern};
use tango::probe::PatternDriver;

fn install_time_s(profile: SwitchProfile, n: usize, order: PriorityOrder) -> f64 {
    let mut tb = Testbed::new(0x3c);
    let dpid = Dpid(1);
    tb.attach_default(dpid, profile);
    let pat = TangoPattern::priority_insertion(n, order, RuleKind::L3);
    run_driver(&mut tb, dpid, PatternDriver::for_pattern(&pat))
        .expect("pattern runs")
        .install_time()
        .as_secs_f64()
}

/// The four orderings, in the paper's legend order.
#[must_use]
pub fn orders() -> [PriorityOrder; 4] {
    [
        PriorityOrder::Descending,
        PriorityOrder::Ascending,
        PriorityOrder::Same,
        PriorityOrder::Random(0x3c),
    ]
}

/// Runs the sweep for both switches.
#[must_use]
pub fn run(sizes: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "fig3c: Flow Installation Time by priority pattern",
        "number of flow_mod",
        "installation time (s)",
    );
    // Grid: 2 profiles × 4 orders × sizes, each cell a fresh fixed-seed
    // testbed — fan out and fill the series in legend order after.
    let arms = [
        (SwitchProfile::vendor1(), "HW switch #1"),
        (SwitchProfile::ovs(), "OVS"),
    ];
    let cells: Vec<(SwitchProfile, PriorityOrder, usize)> = arms
        .iter()
        .flat_map(|(profile, _)| {
            orders()
                .into_iter()
                .flat_map(move |order| sizes.iter().map(move |&n| (profile.clone(), order, n)))
        })
        .collect();
    let times = par_map(cells, |(profile, order, n)| {
        install_time_s(profile, n, order)
    });
    let mut at = times.into_iter();
    for (_, tag) in &arms {
        for order in orders() {
            let label = format!("{} ({tag})", order.label());
            let series = fig.series_mut(label);
            for &n in sizes {
                series.push(n as f64, at.next().expect("cell count"));
            }
        }
    }
    fig
}

/// Paper sweep sizes.
#[must_use]
pub fn paper_sizes() -> Vec<usize> {
    vec![20, 100, 500, 1000, 2000, 3500, 5000]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(fig: &Figure, label_frag: &str, idx: usize) -> f64 {
        fig.series
            .iter()
            .find(|s| s.label.contains(label_frag) && s.label.contains("HW"))
            .unwrap()
            .points[idx]
            .1
    }

    #[test]
    fn hardware_ordering_asymmetry() {
        let fig = run(&[1000]);
        let desc = total(&fig, "desc", 0);
        let asc = total(&fig, "asc", 0);
        let same = total(&fig, "same", 0);
        let rand = total(&fig, "random", 0);
        // desc ≈ base + s·n²/2 vs rand ≈ base + s·n²/4: ratio → 2 from
        // below as n grows; at 1000 rules it is ~1.8.
        assert!(desc > 1.5 * rand, "desc {desc} vs rand {rand}");
        assert!(rand > 2.0 * asc, "rand {rand} vs asc {asc}");
        assert!(
            (asc - same).abs() < 0.5 * same.max(asc),
            "asc {asc} same {same}"
        );
        // The descending/constant ratio is large (tens of ×) — the
        // paper's 46× observation at 2000 rules.
        assert!(desc / same > 5.0, "ratio {}", desc / same);
    }

    #[test]
    fn ovs_curves_overlap() {
        let fig = run(&[800]);
        let ovs: Vec<f64> = fig
            .series
            .iter()
            .filter(|s| s.label.contains("OVS"))
            .map(|s| s.points[0].1)
            .collect();
        assert_eq!(ovs.len(), 4);
        let max = ovs.iter().cloned().fold(f64::MIN, f64::max);
        let min = ovs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.2, "OVS spread {min}..{max}");
    }
}
