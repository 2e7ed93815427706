//! TCAM width-mode inference — one of the paper's future-work items
//! ("expand the set of Tango patterns to infer other switch
//! capabilities", §9), implemented here as an additional Tango pattern.
//!
//! The probe runs Algorithm 1 three times with L2-only, L3-only, and
//! combined L2+L3 rules, then classifies the TCAM's slot geometry from
//! the three fast-layer capacities (cf. Table 1):
//!
//! * equal everywhere → **fixed-width** slots (Switch #2);
//! * combined entries fit markedly fewer → **width-sensitive** (Switch
//!   #1's single-wide mode and Switch #3's adaptive mode both land
//!   here; they are distinguished by the capacity pair);
//! * no bounded layer at all → software switch.

use crate::driver::{Probe, ProbeError};
use crate::infer_size::{size_probe, SizeProbeConfig};
use crate::pattern::RuleKind;
use ofwire::flow_mod::FlowMod;
use switchsim::control::ControlOp;

/// The classified TCAM geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeometryClass {
    /// No bounded hardware layer observed up to the probe cap.
    Unbounded,
    /// Every entry kind fits the same count (e.g. fixed double-wide
    /// slots: Switch #2's 2560/2560).
    FixedWidth {
        /// Entries of any kind.
        entries: f64,
    },
    /// Combined L2+L3 entries consume roughly double the slots of
    /// single-layer entries (Switch #1's 4K/2K, Switch #3's 767/369).
    WidthSensitive {
        /// Single-layer (L2-only / L3-only) capacity.
        narrow: f64,
        /// Combined (L2+L3) capacity.
        wide: f64,
    },
}

/// The full geometry probe result.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryEstimate {
    /// Fast-layer capacity observed with L2-only rules.
    pub l2_only: Option<f64>,
    /// Fast-layer capacity observed with L3-only rules.
    pub l3_only: Option<f64>,
    /// Fast-layer capacity observed with combined rules.
    pub l2l3: Option<f64>,
    /// The classification.
    pub class: GeometryClass,
}

/// The three sub-probes, in issue order, with their legacy seeds.
const PHASES: [(RuleKind, u64); 3] = [(RuleKind::L2, 1), (RuleKind::L3, 2), (RuleKind::L2L3, 3)];

/// The geometry probe as a probe program on `probe`'s switch (see
/// [`driver`](crate::driver)): three [`size_probe`] runs (L2-only,
/// L3-only, combined), each bracketed by `delete_all` cleanups,
/// classified at the end. `cap` bounds the rules each run inserts and
/// should comfortably exceed the largest plausible single-layer capacity
/// so spill tiers become visible; `trials` is each run's sampling trials
/// per layer.
///
/// # Errors
/// [`ProbeError::CompletionMismatch`] if a completion is not the op
/// issued.
pub async fn geometry_probe(
    probe: Probe,
    cap: usize,
    trials: usize,
) -> Result<GeometryEstimate, ProbeError> {
    let mut fast = [None; 3];
    for (fast, (kind, seed)) in fast.iter_mut().zip(PHASES) {
        probe.issue(ControlOp::FlowMod(FlowMod::delete_all()));
        probe.flow_mod("pre-probe delete_all").await?;
        let config = SizeProbeConfig {
            max_flows: cap,
            trials_per_level: trials,
            seed,
            ..SizeProbeConfig::default()
        };
        let est = size_probe(probe.clone(), kind, config).await?;
        // A bounded layer shows as a rejection, or as a spill tier behind
        // the fast one.
        if est.hit_rejection || est.levels.len() >= 2 {
            *fast = est.fast_layer_size();
        }
        probe.issue(ControlOp::FlowMod(FlowMod::delete_all()));
        probe.flow_mod("post-probe delete_all").await?;
    }
    Ok(classify(fast))
}

/// Classification from the three capacities (cf. Table 1).
fn classify([l2_only, l3_only, l2l3]: [Option<f64>; 3]) -> GeometryEstimate {
    let class = match (l2_only.or(l3_only), l2l3) {
        (None, None) => GeometryClass::Unbounded,
        (Some(narrow), Some(wide)) => {
            // Within 10 %, the two capacities are one capacity measured
            // twice: each estimate may err by ~5 % (the paper's headline),
            // so two may differ by twice that. Width-sensitive TCAMs
            // differ by ~2× (Table 1), far outside the tolerance.
            if (narrow - wide).abs() / narrow.max(wide) < 0.10 {
                GeometryClass::FixedWidth {
                    entries: (narrow + wide) / 2.0,
                }
            } else {
                GeometryClass::WidthSensitive { narrow, wide }
            }
        }
        // A bounded layer for only one kind: treat the bounded figure as
        // both (the other probe was capped too low).
        (Some(narrow), None) => GeometryClass::WidthSensitive {
            narrow,
            wide: f64::NAN,
        },
        (None, Some(wide)) => GeometryClass::WidthSensitive {
            narrow: f64::NAN,
            wide,
        },
    };
    GeometryEstimate {
        l2_only,
        l3_only,
        l2l3,
        class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofwire::types::Dpid;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    fn probe(profile: SwitchProfile, cap: usize) -> GeometryEstimate {
        let mut tb = Testbed::new(0x9e0);
        let dpid = Dpid(1);
        tb.attach_default(dpid, profile);
        crate::driver::run_driver(&mut tb, dpid, |p| geometry_probe(p, cap, 64))
            .expect("geometry probe completes")
    }

    #[test]
    fn switch2_is_fixed_width() {
        let g = probe(SwitchProfile::vendor2(), 4096);
        match g.class {
            GeometryClass::FixedWidth { entries } => {
                assert_eq!(entries, 2560.0);
            }
            other => panic!("expected fixed width, got {other:?}"),
        }
    }

    #[test]
    fn switch3_is_width_sensitive() {
        let g = probe(SwitchProfile::vendor3(), 2048);
        match g.class {
            GeometryClass::WidthSensitive { narrow, wide } => {
                assert_eq!(narrow, 767.0);
                assert_eq!(wide, 369.0);
            }
            other => panic!("expected width sensitive, got {other:?}"),
        }
    }

    #[test]
    fn switch1_is_width_sensitive_behind_software() {
        // No rejection ever (software spill), but the fast layer is
        // bounded — the spill tier makes it observable.
        let g = probe(SwitchProfile::vendor1(), 6000);
        match g.class {
            GeometryClass::WidthSensitive { narrow, wide } => {
                // 64 sampling trials keep the test fast; tolerance is
                // relaxed accordingly (the classification only needs the
                // ~2× separation, not the 5 % headline).
                assert!((narrow - 4095.0).abs() / 4095.0 < 0.10, "narrow {narrow}");
                assert!((wide - 2047.0).abs() / 2047.0 < 0.10, "wide {wide}");
            }
            other => panic!("expected width sensitive, got {other:?}"),
        }
    }

    #[test]
    fn ovs_is_unbounded() {
        let g = probe(SwitchProfile::ovs(), 1024);
        assert_eq!(g.class, GeometryClass::Unbounded);
        assert_eq!(g.l2_only, None);
        assert_eq!(g.l2l3, None);
    }
}
