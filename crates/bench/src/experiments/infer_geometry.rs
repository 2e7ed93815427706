//! TCAM geometry (width-mode) inference — the paper's §9 future-work
//! pattern, exercised across all four switch profiles.

use crate::par::par_map;
use crate::report::format_table;
use ofwire::types::Dpid;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::driver::run_driver;
use tango::infer_geometry::{GeometryClass, GeometryDriver, GeometryEstimate};

/// One row: profile name, probe result.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryRow {
    /// Switch label.
    pub switch: String,
    /// The probe result.
    pub estimate: GeometryEstimate,
}

/// Probes every profile. `cap` bounds each sub-probe.
///
/// Each profile probes an independent testbed (fixed per-cell seed), so
/// the four probes fan out across cores via [`par_map`].
#[must_use]
pub fn run(cap: usize) -> Vec<GeometryRow> {
    par_map(
        vec![
            SwitchProfile::ovs(),
            SwitchProfile::vendor1(),
            SwitchProfile::vendor2(),
            SwitchProfile::vendor3(),
        ],
        |profile| {
            let mut tb = Testbed::new(0x9e02);
            let dpid = Dpid(1);
            let name = profile.name.clone();
            tb.attach_default(dpid, profile);
            let estimate = run_driver(&mut tb, dpid, GeometryDriver::new(cap, 400))
                .expect("geometry probe completes");
            GeometryRow {
                switch: name,
                estimate,
            }
        },
    )
}

/// Renders the classification table.
#[must_use]
pub fn render(rows: &[GeometryRow]) -> String {
    let fmt = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.0}"));
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let class = match r.estimate.class {
                GeometryClass::Unbounded => "software (unbounded)".to_string(),
                GeometryClass::FixedWidth { entries } => {
                    format!("fixed width ({entries:.0})")
                }
                GeometryClass::WidthSensitive { narrow, wide } => {
                    format!("width-sensitive ({narrow:.0}/{wide:.0})")
                }
            };
            vec![
                r.switch.clone(),
                fmt(r.estimate.l2_only),
                fmt(r.estimate.l3_only),
                fmt(r.estimate.l2l3),
                class,
            ]
        })
        .collect();
    format_table(&["switch", "L2-only", "L3-only", "L2+L3", "class"], &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_mentions_every_profile() {
        // Small cap keeps the test quick; classifications at this cap
        // are exercised more thoroughly in `tango::infer_geometry`.
        let rows = run(1024);
        let text = render(&rows);
        for name in ["OVS", "Switch #1", "Switch #2", "Switch #3"] {
            assert!(text.contains(name), "{text}");
        }
        // Switch #3 is fully classified even at this cap.
        let s3 = rows.iter().find(|r| r.switch == "Switch #3").unwrap();
        assert!(matches!(
            s3.estimate.class,
            GeometryClass::WidthSensitive { .. }
        ));
    }
}
