//! Fleet-scale inference: full adaptive probing of many switches,
//! interleaved over one control path.
//!
//! [`run_inference`] takes one [`FleetJob`] per switch — size inference,
//! policy inference, geometry, headroom, or a plain pattern — and drives
//! all of them concurrently through [`run_drivers`]. Each switch's
//! driver
//! advances the moment its own completion arrives, so characterizing N
//! switches costs the wall-clock time of the slowest, not the sum, while
//! every per-switch result stays bit-identical to a sequential run (see
//! the [`driver`](crate::driver "the driver module") docs for why).
//!
//! Outcomes come back as [`FleetOutcome`], in job order; feed them to
//! [`TangoDb::ingest_fleet`](crate::db::TangoDb::ingest_fleet) to fold a
//! whole network's worth of knowledge into the database at once.

use crate::driver::{run_drivers, InferenceDriver, ProbeError, Step};
use crate::infer_geometry::{GeometryDriver, GeometryEstimate};
use crate::infer_policy::{InferredPolicy, PolicyDriver, PolicyProbeConfig};
use crate::infer_size::{SizeDriver, SizeEstimate, SizeProbeConfig};
use crate::online::{Headroom, HeadroomDriver};
use crate::pattern::{RuleKind, TangoPattern};
use crate::probe::{PatternDriver, PatternResult};
use ofwire::types::Dpid;
use switchsim::control::ControlPath;

/// What to infer about one switch.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetTask {
    /// Full Algorithm 1 size inference.
    Size(SizeProbeConfig),
    /// Full Algorithm 2 policy inference against a cache of the given
    /// size.
    Policy {
        /// Believed fast-layer capacity (rules) to probe against.
        cache_size: usize,
        /// Probe parameters.
        config: PolicyProbeConfig,
    },
    /// TCAM geometry classification.
    Geometry {
        /// Upper bound on rules inserted per sub-probe.
        cap: usize,
        /// Negative-binomial trials per occupancy level.
        trials: usize,
    },
    /// Online headroom measurement.
    Headroom {
        /// Priority for the probe rules (keep it low).
        priority: u16,
        /// Upper bound on probe rules installed.
        cap: usize,
    },
    /// A compiled pattern program, run verbatim.
    Pattern(TangoPattern),
}

/// One unit of fleet work: a switch, the rule kind to probe with, and
/// the inference task to run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJob {
    /// The switch to characterize.
    pub dpid: Dpid,
    /// Rule kind the probe rules use (ignored by `Geometry`, which
    /// sweeps kinds itself, and by `Pattern`, which carries its own).
    pub kind: RuleKind,
    /// What to infer.
    pub task: FleetTask,
}

impl FleetJob {
    /// A size-inference job.
    #[must_use]
    pub fn size(dpid: Dpid, kind: RuleKind, config: SizeProbeConfig) -> FleetJob {
        FleetJob {
            dpid,
            kind,
            task: FleetTask::Size(config),
        }
    }

    /// A policy-inference job.
    #[must_use]
    pub fn policy(
        dpid: Dpid,
        kind: RuleKind,
        cache_size: usize,
        config: PolicyProbeConfig,
    ) -> FleetJob {
        FleetJob {
            dpid,
            kind,
            task: FleetTask::Policy { cache_size, config },
        }
    }

    /// A geometry-classification job.
    #[must_use]
    pub fn geometry(dpid: Dpid, cap: usize, trials: usize) -> FleetJob {
        FleetJob {
            dpid,
            kind: RuleKind::L3,
            task: FleetTask::Geometry { cap, trials },
        }
    }

    /// An online headroom job.
    #[must_use]
    pub fn headroom(dpid: Dpid, kind: RuleKind, priority: u16, cap: usize) -> FleetJob {
        FleetJob {
            dpid,
            kind,
            task: FleetTask::Headroom { priority, cap },
        }
    }

    /// A pattern-execution job.
    #[must_use]
    pub fn pattern(dpid: Dpid, pattern: TangoPattern) -> FleetJob {
        FleetJob {
            dpid,
            kind: pattern.kind,
            task: FleetTask::Pattern(pattern),
        }
    }
}

/// The result of one fleet job, in the same position as its job.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOutcome {
    /// From a [`FleetTask::Size`] job.
    Size(SizeEstimate),
    /// From a [`FleetTask::Policy`] job.
    Policy(InferredPolicy),
    /// From a [`FleetTask::Geometry`] job.
    Geometry(GeometryEstimate),
    /// From a [`FleetTask::Headroom`] job.
    Headroom(Headroom),
    /// From a [`FleetTask::Pattern`] job.
    Pattern(PatternResult),
}

impl FleetOutcome {
    /// The size estimate, if this outcome is one.
    #[must_use]
    pub fn as_size(&self) -> Option<&SizeEstimate> {
        match self {
            FleetOutcome::Size(e) => Some(e),
            _ => None,
        }
    }

    /// The inferred policy, if this outcome is one.
    #[must_use]
    pub fn as_policy(&self) -> Option<&InferredPolicy> {
        match self {
            FleetOutcome::Policy(p) => Some(p),
            _ => None,
        }
    }

    /// The geometry estimate, if this outcome is one.
    #[must_use]
    pub fn as_geometry(&self) -> Option<&GeometryEstimate> {
        match self {
            FleetOutcome::Geometry(g) => Some(g),
            _ => None,
        }
    }

    /// The headroom measurement, if this outcome is one.
    #[must_use]
    pub fn as_headroom(&self) -> Option<&Headroom> {
        match self {
            FleetOutcome::Headroom(h) => Some(h),
            _ => None,
        }
    }

    /// The pattern result, if this outcome is one.
    #[must_use]
    pub fn as_pattern(&self) -> Option<&PatternResult> {
        match self {
            FleetOutcome::Pattern(r) => Some(r),
            _ => None,
        }
    }
}

/// Dispatch wrapper so heterogeneous tasks can share one `run_drivers`
/// call.
enum FleetDriver {
    Size(SizeDriver),
    Policy(PolicyDriver),
    Geometry(GeometryDriver),
    Headroom(HeadroomDriver),
    Pattern(PatternDriver),
}

impl FleetDriver {
    fn for_job(job: &FleetJob) -> FleetDriver {
        match &job.task {
            FleetTask::Size(config) => FleetDriver::Size(SizeDriver::new(job.kind, *config)),
            FleetTask::Policy { cache_size, config } => {
                FleetDriver::Policy(PolicyDriver::new(job.kind, *cache_size, *config))
            }
            FleetTask::Geometry { cap, trials } => {
                FleetDriver::Geometry(GeometryDriver::new(*cap, *trials))
            }
            FleetTask::Headroom { priority, cap } => {
                FleetDriver::Headroom(HeadroomDriver::new(job.kind, *priority, *cap))
            }
            FleetTask::Pattern(pattern) => {
                FleetDriver::Pattern(PatternDriver::for_pattern(pattern))
            }
        }
    }
}

impl InferenceDriver for FleetDriver {
    type Outcome = FleetOutcome;

    fn start(&mut self) -> Step<FleetOutcome> {
        match self {
            FleetDriver::Size(d) => d.start().map(FleetOutcome::Size),
            FleetDriver::Policy(d) => d.start().map(FleetOutcome::Policy),
            FleetDriver::Geometry(d) => d.start().map(FleetOutcome::Geometry),
            FleetDriver::Headroom(d) => d.start().map(FleetOutcome::Headroom),
            FleetDriver::Pattern(d) => d.start().map(FleetOutcome::Pattern),
        }
    }

    fn on_completion(
        &mut self,
        c: &crate::driver::Completion,
    ) -> Result<Step<FleetOutcome>, ProbeError> {
        Ok(match self {
            FleetDriver::Size(d) => d.on_completion(c)?.map(FleetOutcome::Size),
            FleetDriver::Policy(d) => d.on_completion(c)?.map(FleetOutcome::Policy),
            FleetDriver::Geometry(d) => d.on_completion(c)?.map(FleetOutcome::Geometry),
            FleetDriver::Headroom(d) => d.on_completion(c)?.map(FleetOutcome::Headroom),
            FleetDriver::Pattern(d) => d.on_completion(c)?.map(FleetOutcome::Pattern),
        })
    }
}

/// Runs full adaptive inference of many switches concurrently over one
/// control path. Returns one [`FleetOutcome`] per job, in job order.
///
/// Per-switch results are bit-identical to running each job's driver
/// alone through [`run_driver`](crate::driver::run_driver), one switch
/// after another, on the same testbed state — the
/// fleet only compresses wall-clock time, never perturbs measurements.
///
/// # Errors
/// [`ProbeError::DuplicateSwitch`] if two jobs name the same switch;
/// otherwise whatever the underlying drivers surface
/// ([`ProbeError::LeakedRules`], [`ProbeError::CompletionMismatch`], …).
pub fn run_inference<C: ControlPath>(
    cp: &mut C,
    jobs: &[FleetJob],
) -> Result<Vec<FleetOutcome>, ProbeError> {
    let drivers: Vec<(Dpid, FleetDriver)> = jobs
        .iter()
        .map(|job| (job.dpid, FleetDriver::for_job(job)))
        .collect();
    // One controller-track span brackets the whole fleet run; the
    // per-switch driver/op spans nest on their own tracks.
    let start = cp.now();
    let span = cp.telemetry_mut().and_then(|t| {
        t.count("fleet/jobs", jobs.len() as u64);
        t.span_begin(simnet::telemetry::TRACK_CONTROLLER, "fleet", start)
    });
    let result = run_drivers(cp, drivers);
    let end = cp.now();
    if let Some(t) = cp.telemetry_mut() {
        match &result {
            Ok(_) => t.span_end(span, end),
            Err(_) => t.span_cancel(span),
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PriorityOrder;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    #[test]
    fn mixed_fleet_finishes_in_job_order() {
        let mut tb = Testbed::new(11);
        tb.attach_default(Dpid(1), SwitchProfile::vendor2());
        tb.attach_default(Dpid(2), SwitchProfile::ovs());
        tb.attach_default(Dpid(3), SwitchProfile::vendor1());
        let jobs = vec![
            FleetJob::size(
                Dpid(1),
                RuleKind::L3,
                SizeProbeConfig {
                    max_flows: 4096,
                    seed: 9,
                    ..SizeProbeConfig::default()
                },
            ),
            FleetJob::headroom(Dpid(2), RuleKind::L3, 1, 128),
            FleetJob::pattern(
                Dpid(3),
                TangoPattern::priority_insertion(20, PriorityOrder::Ascending, RuleKind::L3),
            ),
        ];
        let outcomes = run_inference(&mut tb, &jobs).expect("fleet completes");
        assert_eq!(outcomes.len(), 3);
        let size = outcomes[0].as_size().expect("job 0 is a size job");
        assert!(size.hit_rejection);
        let head = outcomes[1].as_headroom().expect("job 1 is a headroom job");
        assert_eq!(head.accepted, 128);
        assert_eq!(head.cleaned, 128);
        let pat = outcomes[2].as_pattern().expect("job 2 is a pattern job");
        assert_eq!(pat.rejected(), 0);
        assert_eq!(tb.switch(Dpid(3)).rule_count(), 20);
    }

    #[test]
    fn duplicate_dpids_surface_as_typed_error() {
        let mut tb = Testbed::new(11);
        tb.attach_default(Dpid(1), SwitchProfile::ovs());
        let jobs = vec![
            FleetJob::headroom(Dpid(1), RuleKind::L3, 1, 8),
            FleetJob::headroom(Dpid(1), RuleKind::L3, 1, 8),
        ];
        let err = run_inference(&mut tb, &jobs).expect_err("duplicate dpid");
        assert_eq!(err, ProbeError::DuplicateSwitch(Dpid(1)));
    }
}
