//! Application API hints (§1, §4).
//!
//! Applications tell Tango what a flow needs — e.g. "low-bandwidth but
//! latency-critical setup" — and Tango combines the hint with the score
//! database to pick where rules should go. The intro's motivating
//! example: "when Tango needs to install a low-bandwidth flow where
//! start up latency is more important, Tango will put the flow at the
//! software switch, instead of the hardware switch" (software switches
//! install rules far faster; hardware switches forward far faster).

use crate::db::TangoDb;
use ofwire::types::Dpid;

/// What the application cares about for a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowGoal {
    /// Rule must be usable as soon as possible (e.g. connection setup
    /// for a short, low-bandwidth flow).
    FastSetup,
    /// Packets must be forwarded at line rate (long, high-bandwidth
    /// flow); setup latency is secondary.
    FastForwarding,
}

/// An application's per-flow hint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppHint {
    /// The optimization goal.
    pub goal: FlowGoal,
    /// Optional deadline for rule installation, in milliseconds
    /// (`install_by` of the switch-request format, §6).
    pub install_by_ms: Option<f64>,
}

impl AppHint {
    /// Hint for a latency-sensitive, low-bandwidth flow.
    #[must_use]
    pub fn fast_setup() -> AppHint {
        AppHint {
            goal: FlowGoal::FastSetup,
            install_by_ms: None,
        }
    }

    /// Hint for a throughput-sensitive flow.
    #[must_use]
    pub fn fast_forwarding() -> AppHint {
        AppHint {
            goal: FlowGoal::FastForwarding,
            install_by_ms: None,
        }
    }
}

/// Scores a candidate switch for a hint; lower is better.
fn placement_cost(db: &TangoDb, dpid: Dpid, hint: &AppHint) -> f64 {
    let knowledge = db.switch(dpid);
    let add_ms = db.latency_or_default(dpid).add_asc_ms;
    let fwd_ms = knowledge
        .map(|k| k.layer_rtts_ms().first().copied().unwrap_or(5.0))
        .unwrap_or(5.0);
    match hint.goal {
        FlowGoal::FastSetup => add_ms,
        FlowGoal::FastForwarding => fwd_ms,
    }
}

/// Picks the best switch among `candidates` for the hinted flow.
/// Returns `None` for an empty candidate list.
#[must_use]
pub fn advise_placement(db: &TangoDb, candidates: &[Dpid], hint: &AppHint) -> Option<Dpid> {
    candidates.iter().copied().min_by(|a, b| {
        placement_cost(db, *a, hint)
            .partial_cmp(&placement_cost(db, *b, hint))
            .expect("finite costs")
    })
}

/// Checks whether a switch can meet an installation deadline for a batch
/// of `adds` rules (uses the measured latency curve).
#[must_use]
pub fn can_meet_deadline(db: &TangoDb, dpid: Dpid, adds: usize, deadline_ms: f64) -> bool {
    db.latency_or_default(dpid).predict_batch_ms(adds, 0, 0) <= deadline_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clustering;
    use crate::curves::LatencyProfile;
    use crate::infer_size::{LevelEstimate, SizeEstimate};

    /// Builds a db with a "hardware" switch (slow installs, fast
    /// forwarding) and a "software" switch (fast installs, slow
    /// forwarding) — the intro's scenario.
    fn hw_sw_db() -> TangoDb {
        let mut db = TangoDb::new();
        let hw = db.switch_mut(Dpid(1));
        hw.label = "hardware".into();
        hw.latency = Some(LatencyProfile {
            calibrated_n: 100,
            add_asc_ms: 2.0,
            add_desc_ms: 30.0,
            add_same_ms: 2.0,
            add_rand_ms: 12.0,
            mod_ms: 6.0,
            del_ms: 1.5,
            shift_us: 9.0,
        });
        hw.size = Some(SizeEstimate {
            m: 100,
            hit_rejection: true,
            levels: vec![LevelEstimate {
                rtt_ms: 0.5,
                estimated_size: 100.0,
                swept_count: 100,
                saturated: true,
            }],
            clustering: Clustering {
                centers: vec![0.5],
                boundaries: vec![],
                sizes: vec![100],
            },
            rules_attempted: 100,
            packets_sent: 300,
            batches: 7,
        });
        let sw = db.switch_mut(Dpid(2));
        sw.label = "software".into();
        sw.latency = Some(LatencyProfile {
            calibrated_n: 100,
            add_asc_ms: 0.055,
            add_desc_ms: 0.055,
            add_same_ms: 0.055,
            add_rand_ms: 0.055,
            mod_ms: 0.055,
            del_ms: 0.045,
            shift_us: 0.0,
        });
        sw.size = Some(SizeEstimate {
            m: 100,
            hit_rejection: false,
            levels: vec![LevelEstimate {
                rtt_ms: 3.0,
                estimated_size: 100.0,
                swept_count: 100,
                saturated: true,
            }],
            clustering: Clustering {
                centers: vec![3.0],
                boundaries: vec![],
                sizes: vec![100],
            },
            rules_attempted: 100,
            packets_sent: 300,
            batches: 7,
        });
        db
    }

    #[test]
    fn fast_setup_prefers_software_switch() {
        let db = hw_sw_db();
        let pick = advise_placement(&db, &[Dpid(1), Dpid(2)], &AppHint::fast_setup());
        assert_eq!(pick, Some(Dpid(2)), "software switch installs faster");
    }

    #[test]
    fn fast_forwarding_prefers_hardware_switch() {
        let db = hw_sw_db();
        let pick = advise_placement(&db, &[Dpid(1), Dpid(2)], &AppHint::fast_forwarding());
        assert_eq!(pick, Some(Dpid(1)), "hardware forwards faster");
    }

    #[test]
    fn empty_candidates_yield_none() {
        let db = hw_sw_db();
        assert_eq!(advise_placement(&db, &[], &AppHint::fast_setup()), None);
    }

    #[test]
    fn deadline_check_uses_curves() {
        let db = hw_sw_db();
        // 100 adds on hardware at 2 ms each = 200 ms.
        assert!(can_meet_deadline(&db, Dpid(1), 100, 250.0));
        assert!(!can_meet_deadline(&db, Dpid(1), 100, 150.0));
        // Software is ~36× faster.
        assert!(can_meet_deadline(&db, Dpid(2), 100, 10.0));
    }
}
