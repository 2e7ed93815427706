//! Figure 10 — network-wide optimization on the hardware testbed:
//! link-failure and two traffic-engineering scenarios, comparing
//! Dionysus against Tango with rule-type patterns only and Tango with
//! rule-type + priority patterns.

use crate::lower::{lower_scenario, triangle_testbed};
use crate::par::par_map;
use simnet::trace::Figure;
use tango::db::TangoDb;
use tango_sched::schedulers::resolve;
use workloads::scenarios::{link_failure, traffic_engineering, Scenario};
use workloads::topology::Topology;

/// The three scheduler arms of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Critical-path baseline.
    Dionysus,
    /// Tango with rule-type ordering only.
    TangoType,
    /// Tango with rule-type + priority ordering.
    TangoTypePriority,
}

impl Arm {
    /// Legend label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Arm::Dionysus => "Dionysus",
            Arm::TangoType => "Tango (Type)",
            Arm::TangoTypePriority => "Tango (Type+Priority)",
        }
    }

    /// All arms in figure order.
    #[must_use]
    pub fn all() -> [Arm; 3] {
        [Arm::Dionysus, Arm::TangoType, Arm::TangoTypePriority]
    }
}

/// Executes one scenario under one arm, returning the makespan in
/// seconds.
#[must_use]
pub fn makespan_s(scen: &Scenario, arm: Arm, seed: u64) -> f64 {
    let (mut tb, dpids) = triangle_testbed(seed);
    let mut dag = lower_scenario(&mut tb, &dpids, scen);
    let scheduler = match arm {
        Arm::Dionysus => "dionysus",
        Arm::TangoType => "tango-type",
        Arm::TangoTypePriority => "tango",
    };
    let report = resolve(scheduler)
        .expect("registered scheduler")
        .run(&mut tb, &mut dag, &TangoDb::new())
        .expect("generated scenarios are acyclic");
    assert_eq!(report.failed, 0, "{} {}", scen.name, arm.label());
    report.makespan.as_secs_f64()
}

/// The paper's three scenarios at the given scale (paper scale:
/// `lf_flows = 400`, `te_requests = 800`).
#[must_use]
pub fn scenarios(lf_flows: usize, te_requests: usize) -> Vec<Scenario> {
    let topo = Topology::triangle();
    vec![
        link_failure(&topo, (0, 1), lf_flows, 0x10),
        traffic_engineering(&topo, "TE 1", te_requests, (2, 1, 1), 1, false, 0x11),
        traffic_engineering(&topo, "TE 2", te_requests, (1, 1, 1), 1, false, 0x12),
    ]
}

/// Runs the whole figure.
#[must_use]
pub fn run(lf_flows: usize, te_requests: usize) -> Figure {
    let mut fig = Figure::new(
        "fig10: Hardware Testbed Network-Wide Optimization",
        "scenario (0=LF, 1=TE 1, 2=TE 2)",
        "installation time (s)",
    );
    for arm in Arm::all() {
        fig.series_mut(arm.label());
    }
    // 3 scenarios × 3 arms, each on its own seeded testbed — fan out.
    let scens = scenarios(lf_flows, te_requests);
    let cells: Vec<(usize, Arm)> = (0..scens.len())
        .flat_map(|x| Arm::all().into_iter().map(move |arm| (x, arm)))
        .collect();
    let times = par_map(cells, |(x, arm)| {
        makespan_s(&scens[x], arm, 0x10aa + x as u64)
    });
    for x in 0..scens.len() {
        for si in 0..Arm::all().len() {
            fig.series[si].push(x as f64, times[x * Arm::all().len() + si]);
        }
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tango_beats_dionysus_on_te() {
        let fig = run(200, 300);
        let at = |label: &str, x: usize| {
            fig.series.iter().find(|s| s.label == label).unwrap().points[x].1
        };
        for scen in [1usize, 2] {
            let dio = at("Dionysus", scen);
            let t_type = at("Tango (Type)", scen);
            let t_full = at("Tango (Type+Priority)", scen);
            assert!(
                t_full <= t_type,
                "scenario {scen}: full {t_full} vs type {t_type}"
            );
            assert!(
                t_full < dio,
                "scenario {scen}: tango {t_full} vs dionysus {dio}"
            );
        }
        // LF: only adds on s3 and mods on s1 — no room for type
        // reordering (the paper reports 0 % for Tango-Type), but
        // priority sorting still helps.
        let lf_dio = at("Dionysus", 0);
        let lf_full = at("Tango (Type+Priority)", 0);
        assert!(lf_full < lf_dio, "LF: {lf_full} vs {lf_dio}");
    }
}
