//! Figure 3(b) — add vs modify cost as the batch size grows, on
//! Switch #1 and OVS.
//!
//! Adds insert into a priority-sorted TCAM in the worst-case
//! (descending-priority) order, so every insertion shifts the resident
//! entries — superlinear totals; modifies rewrite entries in place
//! (linear in count, with a mild table-walk term). The paper observes
//! "modifying 5000 entries could be six times faster than adding new
//! flows"; OVS is linear and fast in both cases.

use crate::par::par_map;
use ofwire::types::Dpid;
use simnet::trace::Figure;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::driver::run_driver;
use tango::pattern::{PriorityOrder, RuleKind, TangoPattern};
use tango::probe::{pattern_probe, PatternResult};

fn run_pattern(tb: &mut Testbed, pat: &TangoPattern) -> PatternResult {
    run_driver(tb, Dpid(1), |p| pattern_probe(p, pat)).expect("pattern runs")
}

fn measure(profile: SwitchProfile, n: usize, seed: u64) -> (f64, f64) {
    // Add arm: fresh switch, worst-case descending-priority insertion.
    let add_s = {
        let mut tb = Testbed::new(seed);
        tb.attach_default(Dpid(1), profile.clone());
        let pat = TangoPattern::priority_insertion(n, PriorityOrder::Descending, RuleKind::L3);
        run_pattern(&mut tb, &pat).install_time().as_secs_f64()
    };
    // Mod arm: preinstall n (constant priority), then modify all n.
    let mod_s = {
        let mut tb = Testbed::new(seed ^ 1);
        tb.attach_default(Dpid(1), profile);
        run_pattern(
            &mut tb,
            &TangoPattern::priority_insertion(n, PriorityOrder::Same, RuleKind::L3),
        );
        run_pattern(&mut tb, &TangoPattern::modify_batch(n, 1000, RuleKind::L3))
            .install_time()
            .as_secs_f64()
    };
    (add_s, mod_s)
}

/// Runs the experiment over the given batch sizes.
#[must_use]
pub fn run(sizes: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "fig3b: Add vs Modify Flow Delay",
        "number of flows",
        "installation time (s)",
    );
    fig.series_mut("add flow (HW switch #1)");
    fig.series_mut("mod flow (HW switch #1)");
    fig.series_mut("add flow (OVS)");
    fig.series_mut("mod flow (OVS)");
    // Each (size, profile) cell builds its own pair of testbeds with a
    // fixed seed — fan the grid out, then fill the series in size order.
    let cells: Vec<(usize, bool)> = sizes
        .iter()
        .flat_map(|&n| [(n, true), (n, false)])
        .collect();
    let measured = par_map(cells, |(n, hw)| {
        let profile = if hw {
            SwitchProfile::vendor1()
        } else {
            SwitchProfile::ovs()
        };
        measure(profile, n, 0x3b)
    });
    for (i, &n) in sizes.iter().enumerate() {
        let (hw_add, hw_mod) = measured[i * 2];
        let (sw_add, sw_mod) = measured[i * 2 + 1];
        fig.series[0].push(n as f64, hw_add);
        fig.series[1].push(n as f64, hw_mod);
        fig.series[2].push(n as f64, sw_add);
        fig.series[3].push(n as f64, sw_mod);
    }
    fig
}

/// The batch sizes the paper sweeps (20…5000).
#[must_use]
pub fn paper_sizes() -> Vec<usize> {
    vec![20, 100, 500, 1000, 2000, 3500, 5000]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_add_outgrows_mod() {
        let fig = run(&[50, 400]);
        let at = |label: &str, idx: usize| {
            fig.series
                .iter()
                .find(|s| s.label.contains(label))
                .unwrap()
                .points[idx]
                .1
        };
        // At 400 rules the random-priority adds are already well above
        // the mods… on hardware.
        let hw_add = at("add flow (HW", 1);
        let hw_mod = at("mod flow (HW", 1);
        // Superlinearity: add total grows faster than 8× between 50 → 400.
        let hw_add_small = at("add flow (HW", 0);
        assert!(
            hw_add / hw_add_small > 8.0,
            "superlinear adds: {hw_add_small} → {hw_add}"
        );
        assert!(hw_add > hw_mod, "add {hw_add} vs mod {hw_mod} at n=400");
        // OVS stays linear and cheap for both.
        let sw_add = at("add flow (OVS", 1);
        let sw_mod = at("mod flow (OVS", 1);
        assert!(sw_add < 0.1 && sw_mod < 0.1, "ovs {sw_add}/{sw_mod}");
    }

    #[test]
    fn crossover_at_scale() {
        // By ~2000 rules the hardware add curve exceeds the mod curve
        // (the Fig 3b gap).
        let fig = run(&[2000]);
        let hw_add = fig.series[0].points[0].1;
        let hw_mod = fig.series[1].points[0].1;
        assert!(
            hw_add > hw_mod,
            "adds ({hw_add}) should out-cost mods ({hw_mod}) at n=2000"
        );
    }
}
