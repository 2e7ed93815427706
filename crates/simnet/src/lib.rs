//! # simnet — deterministic discrete-event simulation substrate
//!
//! Everything in the Tango reproduction that involves *time* runs on this
//! crate: a virtual nanosecond clock, seeded random number generation,
//! parametric latency distributions, a latency/jitter link model,
//! telemetry, and series recording for regenerating the paper's figures.
//! The control paths resolve each operation's instants directly
//! (`switchsim::chan`), so no event loop drives them; [`event::EventQueue`]
//! remains for the benchmark's queue measurement and the test oracle that
//! replays the event-driven model, and [`sim`] counts the two modelled
//! events per operation.
//!
//! Determinism is the design goal (per the smoltcp-style guides:
//! simplicity and robustness over cleverness). Every source of randomness
//! is an explicit [`rng::DetRng`] seeded by the experiment, so any run can
//! be reproduced bit-for-bit — which is what makes the statistical
//! inference experiments testable at all.
//!
//! ```
//! use simnet::prelude::*;
//!
//! // Two runs from one seed draw the same link latencies.
//! let link = Link::control_channel(0.1);
//! let draw = |seed| link.latency(64, &mut DetRng::new(seed));
//! assert_eq!(draw(7), draw(7));
//! let at = SimTime::ZERO + draw(7);
//! assert!(at.as_millis_f64() > 0.09);
//! ```

pub mod dist;
pub mod event;
pub mod link;
pub mod rng;
pub mod sim;
pub mod telemetry;
pub mod time;
pub mod trace;

/// Glob-import of the commonly used types.
pub mod prelude {
    pub use crate::dist::Dist;
    pub use crate::event::EventQueue;
    pub use crate::link::Link;
    pub use crate::rng::DetRng;
    pub use crate::telemetry::Telemetry;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{Figure, Series, Summary};
}
