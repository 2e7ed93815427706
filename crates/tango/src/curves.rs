//! Latency-curve measurement: the per-operation cost profiles the Tango
//! scheduler's pattern oracle is driven by (§3 Figs 3a–3c, §6).
//!
//! A [`LatencyProfile`] summarizes, for one switch, the measured
//! per-operation costs of adds under each priority ordering, of
//! modifies, and of deletes — plus a fitted per-shift cost that lets the
//! scheduler extrapolate add costs to other batch sizes (the "Tango
//! latency curves" used for guard-time estimation).

use crate::driver::{run_driver, Probe, ProbeError};
use crate::pattern::{PriorityOrder, RuleKind, TangoPattern};
use crate::probe::{pattern_probe, PatternResult};
use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use switchsim::control::{ControlOp, ControlPath};

/// Measured per-op latency profile of one switch (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Batch size the profile was calibrated at.
    pub calibrated_n: usize,
    /// Per-add cost, ascending-priority insertion.
    pub add_asc_ms: f64,
    /// Per-add cost, descending-priority insertion.
    pub add_desc_ms: f64,
    /// Per-add cost, constant-priority insertion.
    pub add_same_ms: f64,
    /// Per-add cost, random-priority insertion.
    pub add_rand_ms: f64,
    /// Per-modify cost.
    pub mod_ms: f64,
    /// Per-delete cost.
    pub del_ms: f64,
    /// Fitted cost of shifting one TCAM entry (µs), derived from the
    /// descending-vs-ascending gap: `desc_total − asc_total ≈
    /// shift_us · n²/2`.
    pub shift_us: f64,
}

impl LatencyProfile {
    /// Whether installation order measurably matters on this switch
    /// (OVS: no; hardware: yes — Fig 3c).
    #[must_use]
    pub fn priority_sensitive(&self) -> bool {
        self.add_desc_ms > 1.5 * self.add_asc_ms
    }

    /// Predicted total time (ms) to add `n` rules under an ordering.
    #[must_use]
    pub fn predict_add_total_ms(&self, n: usize, order: PriorityOrder) -> f64 {
        let base = self.add_asc_ms * n as f64;
        let shifts = match order {
            PriorityOrder::Ascending | PriorityOrder::Same => 0.0,
            PriorityOrder::Descending => (n as f64).powi(2) / 2.0,
            PriorityOrder::Random(_) => (n as f64).powi(2) / 4.0,
        };
        base + self.shift_us / 1000.0 * shifts
    }

    /// Predicted total time (ms) for a mixed batch issued in the
    /// scheduler's canonical (del, mod, ascending-add) order.
    #[must_use]
    pub fn predict_batch_ms(&self, adds: usize, mods: usize, dels: usize) -> f64 {
        self.del_ms * dels as f64
            + self.mod_ms * mods as f64
            + self.predict_add_total_ms(adds, PriorityOrder::Ascending)
    }
}

/// Measures a latency profile of switch `dpid` by running
/// [`latency_probe`] on it.
///
/// # Errors
/// Propagates any [`ProbeError`] from the probe.
pub fn measure_latency_profile(
    cp: &mut impl ControlPath,
    dpid: Dpid,
    kind: RuleKind,
    n: usize,
) -> Result<LatencyProfile, ProbeError> {
    run_driver(cp, dpid, |p| latency_probe(p, kind, n))
}

/// The latency curves as a probe program on `probe`'s switch (see
/// [`driver`](crate::driver)): priority-insertion, modify, and delete
/// patterns of `n` rules of `kind`, the switch's rules cleared before
/// each add arm and at the end.
///
/// # Errors
/// Propagates any [`ProbeError`] from the pattern runs.
pub async fn latency_probe(
    probe: Probe,
    kind: RuleKind,
    n: usize,
) -> Result<LatencyProfile, ProbeError> {
    let clear = || async {
        probe.issue(ControlOp::FlowMod(FlowMod::delete_all()));
        probe.flow_mod("rule-clearing delete_all").await
    };
    let per_op = |res: PatternResult| res.install_time().as_millis_f64() / n as f64;
    let mut add = [0.0; 4];
    let orders = [
        PriorityOrder::Ascending,
        PriorityOrder::Descending,
        PriorityOrder::Same,
        PriorityOrder::Random(7),
    ];
    for (add, order) in add.iter_mut().zip(orders) {
        clear().await?;
        let pattern = TangoPattern::priority_insertion(n, order, kind);
        *add = per_op(pattern_probe(probe.clone(), &pattern).await?);
    }
    let [add_asc, add_desc, add_same, add_rand] = add;

    // Mods and deletes operate on a pre-installed constant-priority set.
    clear().await?;
    let same = TangoPattern::priority_insertion(n, PriorityOrder::Same, kind);
    pattern_probe(probe.clone(), &same).await?;
    let mods = TangoPattern::modify_batch(n, 1000, kind);
    let mod_ms = per_op(pattern_probe(probe.clone(), &mods).await?);
    let dels = TangoPattern::delete_batch(n, 1000, kind);
    let del_ms = per_op(pattern_probe(probe.clone(), &dels).await?);
    clear().await?;

    // desc_total − asc_total ≈ shift_us · n²/2  (in µs).
    let shift_us = ((add_desc - add_asc) * n as f64 * 1000.0 / ((n as f64).powi(2) / 2.0)).max(0.0);

    Ok(LatencyProfile {
        calibrated_n: n,
        add_asc_ms: add_asc,
        add_desc_ms: add_desc,
        add_same_ms: add_same,
        add_rand_ms: add_rand,
        mod_ms,
        del_ms,
        shift_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    fn profile_for(p: SwitchProfile, n: usize) -> LatencyProfile {
        let mut tb = Testbed::new(17);
        let dpid = Dpid(1);
        tb.attach_default(dpid, p);
        measure_latency_profile(&mut tb, dpid, RuleKind::L3, n).expect("latency profile completes")
    }

    #[test]
    fn hardware_profile_shows_fig3_asymmetries() {
        let lp = profile_for(SwitchProfile::vendor1(), 400);
        assert!(lp.priority_sensitive());
        // Descending ≫ random ≫ ascending ≈ same (Fig 3c shape).
        assert!(lp.add_desc_ms > lp.add_rand_ms);
        assert!(lp.add_rand_ms > 1.5 * lp.add_asc_ms);
        assert!((lp.add_asc_ms - lp.add_same_ms).abs() < 0.5 * lp.add_asc_ms);
        // Fig 3b's asymmetry: at large batch sizes, shift-heavy adds
        // overtake in-place mods by a wide margin (the paper reports
        // "modifying 5000 entries could be six times faster than adding
        // new flows").
        let add_5000 = lp.predict_add_total_ms(5000, PriorityOrder::Descending) / 5000.0;
        assert!(
            add_5000 > 2.0 * lp.mod_ms,
            "per-op add at n=5000 ({add_5000} ms) vs mod ({} ms)",
            lp.mod_ms
        );
        // The fitted shift cost is near the profile's true 9 µs.
        assert!(
            (lp.shift_us - 9.0).abs() < 2.0,
            "fitted shift {} µs",
            lp.shift_us
        );
    }

    #[test]
    fn ovs_profile_is_priority_insensitive() {
        let lp = profile_for(SwitchProfile::ovs(), 400);
        assert!(!lp.priority_sensitive());
        assert!(lp.shift_us < 0.5, "shift {} µs", lp.shift_us);
        // All four orderings cost about the same.
        let worst = lp
            .add_desc_ms
            .max(lp.add_asc_ms)
            .max(lp.add_same_ms)
            .max(lp.add_rand_ms);
        let best = lp
            .add_desc_ms
            .min(lp.add_asc_ms)
            .min(lp.add_same_ms)
            .min(lp.add_rand_ms);
        assert!(worst / best < 1.25, "worst {worst} best {best}");
    }

    #[test]
    fn prediction_matches_measurement_shape() {
        let lp = profile_for(SwitchProfile::vendor1(), 300);
        let asc = lp.predict_add_total_ms(300, PriorityOrder::Ascending);
        let desc = lp.predict_add_total_ms(300, PriorityOrder::Descending);
        let rand = lp.predict_add_total_ms(300, PriorityOrder::Random(1));
        assert!(desc > rand && rand > asc);
        // Prediction at the calibration point reproduces the measurement
        // within 25 %.
        let measured_desc = lp.add_desc_ms * 300.0;
        assert!(
            (desc - measured_desc).abs() / measured_desc < 0.25,
            "predicted {desc}, measured {measured_desc}"
        );
    }

    #[test]
    fn batch_prediction_combines_ops() {
        let lp = profile_for(SwitchProfile::vendor1(), 200);
        let t = lp.predict_batch_ms(10, 20, 30);
        let expect = lp.del_ms * 30.0 + lp.mod_ms * 20.0 + lp.add_asc_ms * 10.0;
        assert!((t - expect).abs() < 1e-9);
    }
}
