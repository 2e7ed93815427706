//! # tango — automatic switch property inference, abstraction, and
//! optimization
//!
//! The paper's primary contribution: instead of trusting what switches
//! *report*, Tango *measures* them, using **Tango patterns** — sequences
//! of standard OpenFlow flow-mods plus matching data traffic — and infers
//! the switch implementation properties that matter for control-plane
//! performance:
//!
//! * [`infer_size`] — **Algorithm 1**: flow-table layer sizes from RTT
//!   clustering plus negative-binomial sampling (within 5 % of actual).
//! * [`infer_policy`] — **Algorithm 2**: the cache-replacement policy as
//!   a lexicographic attribute ordering, via pairwise-balanced attribute
//!   initialization and correlation.
//! * [`curves`] — per-operation latency curves (add under each priority
//!   ordering, modify, delete) feeding the scheduler's pattern oracle.
//!
//! Every probe — each algorithm above, the TCAM geometry probe, the
//! online headroom probe and plain pattern execution — is a resumable
//! state machine over any control path (see [`driver`]):
//! [`driver::run_driver`] runs one on a single switch, and
//! [`fleet::run_inference`] interleaves full inference of many switches
//! with bit-identical per-switch results.
//!
//! Results land in the central [`db::TangoDb`] (score + pattern
//! databases), from which the network scheduler (`tango-sched` crate) and
//! application [`hints`] draw.
//!
//! ```no_run
//! use ofwire::types::Dpid;
//! use switchsim::{harness::Testbed, profiles::SwitchProfile};
//! use tango::prelude::*;
//!
//! let mut tb = Testbed::new(1);
//! tb.attach_default(Dpid(1), SwitchProfile::vendor1());
//! let driver = SizeDriver::new(RuleKind::L3, SizeProbeConfig::default());
//! let sizes = run_driver(&mut tb, Dpid(1), driver).expect("probe");
//! println!("layers: {:?}", sizes.levels);
//! ```

pub mod cluster;
pub mod curves;
pub mod db;
pub mod driver;
pub mod fleet;
pub mod hints;
pub mod infer_geometry;
pub mod infer_policy;
pub mod infer_size;
pub mod json;
pub mod online;
pub mod pattern;
pub mod probe;
pub mod stats;

/// Glob-import of the commonly used types.
pub mod prelude {
    pub use crate::cluster::{cluster_rtts, kmeans_auto, Clustering};
    pub use crate::curves::{measure_latency_profile, LatencyProfile};
    pub use crate::db::{SwitchKnowledge, TangoDb};
    pub use crate::driver::{
        run_driver, run_drivers, Completion as DriverCompletion, InferenceDriver, ProbeError, Step,
    };
    pub use crate::fleet::{run_inference, FleetJob, FleetOutcome, FleetTask};
    pub use crate::hints::{advise_placement, AppHint, FlowGoal};
    pub use crate::infer_geometry::{GeometryClass, GeometryDriver, GeometryEstimate};
    pub use crate::infer_policy::{InferredPolicy, PolicyDriver, PolicyProbeConfig};
    pub use crate::infer_size::{SizeDriver, SizeEstimate, SizeProbeConfig};
    pub use crate::online::{Headroom, HeadroomDriver, ONLINE_PROBE_ID_BASE};
    pub use crate::pattern::{OpPhase, PatternStep, PriorityOrder, RuleKind, TangoPattern};
    pub use crate::probe::{PatternDriver, PatternResult, ProbeSample};
}
