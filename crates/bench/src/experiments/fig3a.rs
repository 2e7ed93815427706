//! Figure 3(a) — total flow-installation time for the six permutations
//! of 200 adds / 200 mods / 200 dels on Switch #1.
//!
//! Methodology per the paper: 1 000 rules are preinstalled (random
//! priorities, except that the mod/del targets carry a known priority so
//! strict operations can name them); each permutation is run on a fresh
//! switch; the experiment repeats `reps` times and reports the average.

use crate::par::par_map;
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use simnet::rng::DetRng;
use simnet::trace::Figure;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::driver::run_driver;
use tango::pattern::{OpPhase, RuleKind, TangoPattern};
use tango::probe::pattern_probe;

const BASE_PRIORITY: u16 = 500;

fn fresh_switch(preinstalled: usize, per_phase: usize, seed: u64) -> (Testbed, Dpid) {
    let mut tb = Testbed::new(seed);
    let dpid = Dpid(1);
    tb.attach_default(dpid, SwitchProfile::vendor1());
    let mut rng = DetRng::new(seed ^ 0xabc);
    let fms: Vec<FlowMod> = (0..preinstalled)
        .map(|i| {
            // Targets of the mod phase (ids 0..per_phase) sit at
            // BASE_PRIORITY and del-phase targets (per_phase..2·per_phase)
            // at BASE + 2·per_phase, matching the pattern's strict ops;
            // the rest are random as in the paper.
            let prio = if i < per_phase {
                BASE_PRIORITY
            } else if i < 2 * per_phase {
                BASE_PRIORITY + 2 * per_phase as u16
            } else {
                1000 + rng.index(2000) as u16
            };
            FlowMod::add(RuleKind::L3.flow_match(i as u32), prio)
        })
        .collect();
    let (_ok, failed, _) = tb.batch(dpid, fms);
    assert_eq!(failed, 0);
    (tb, dpid)
}

/// Runs the experiment: `per_phase` ops per phase, `preinstalled` rules,
/// `reps` repetitions. Returns a bar figure: x = permutation index,
/// y = average installation time (s), labelled like the paper's x-axis.
#[must_use]
pub fn run(preinstalled: usize, per_phase: usize, reps: usize) -> Figure {
    let mut fig = Figure::new(
        "fig3a: HW Switch #1 Rule Installation Sequences",
        "scenario",
        "installation time (s)",
    );
    // Grid: 6 permutations × reps, every rep on a fresh seeded switch —
    // fan the whole grid out and average per permutation afterwards.
    let perms = OpPhase::permutations();
    let cells: Vec<(usize, usize)> = (0..perms.len())
        .flat_map(|x| (0..reps).map(move |rep| (x, rep)))
        .collect();
    let times = par_map(cells, |(x, rep)| {
        let pattern = TangoPattern::op_permutation(
            perms[x],
            per_phase,
            preinstalled as u32,
            BASE_PRIORITY,
            RuleKind::L3,
        );
        let (mut tb, dpid) = fresh_switch(preinstalled, per_phase, rep as u64);
        let res = run_driver(&mut tb, dpid, |p| pattern_probe(p, &pattern)).expect("pattern runs");
        assert_eq!(res.rejected(), 0, "{}", pattern.name);
        res.install_time().as_secs_f64()
    });
    for (x, perm) in perms.into_iter().enumerate() {
        let pattern = TangoPattern::op_permutation(
            perm,
            per_phase,
            preinstalled as u32,
            BASE_PRIORITY,
            RuleKind::L3,
        );
        let total: f64 = times[x * reps..(x + 1) * reps].iter().sum();
        let series = fig.series_mut(pattern.name.clone());
        series.push(x as f64, total / reps as f64);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_permutations_measured() {
        let fig = run(100, 20, 2);
        assert_eq!(fig.series.len(), 6);
        for s in &fig.series {
            assert_eq!(s.len(), 1);
            assert!(s.points[0].1 > 0.0, "{}", s.label);
        }
        // Deleting before adding is cheaper than adding before deleting
        // (fewer resident entries to shift against).
        let time_of = |name: &str| fig.series.iter().find(|s| s.label == name).unwrap().points[0].1;
        assert!(
            time_of("del_add_mod") < time_of("add_del_mod"),
            "del-first {} vs add-first {}",
            time_of("del_add_mod"),
            time_of("add_del_mod")
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(60, 10, 1);
        let b = run(60, 10, 1);
        assert_eq!(a, b);
    }
}
