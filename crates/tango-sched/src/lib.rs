//! # tango-sched — the Tango network scheduler and its baselines
//!
//! Implements §6 of the paper: switch requests ([`request`]), the
//! switch-request DAG ([`dag`]), the pattern-scoring ordering oracle
//! ([`patterns`]), the non-greedy batching extension ([`extensions`]),
//! priority assignment per Maple ([`priority`]), consistent-update
//! ordering ([`consistency`]), the pluggable scheduler portfolio and its
//! by-name registry ([`schedulers`]), and the execution harness
//! measuring makespans over simulated testbeds ([`executor`]): the
//! Basic Tango Scheduler (Algorithm 3) is [`executor::execute_rounds`],
//! and the online arms of Figs 10–12 are registry entries run through
//! [`executor::execute_with`].
//!
//! The Dionysus baseline (critical-path scheduling, oblivious to switch
//! diversity) is the `"dionysus"` entry of [`schedulers::registry`];
//! Tango's arms are `"tango"` and `"tango-type"`.

pub mod consistency;
pub mod controller;
pub mod dag;
pub mod executor;
pub mod extensions;
pub mod patterns;
pub mod priority;
pub mod request;
pub mod schedulers;

/// Glob-import of the commonly used types.
pub mod prelude {
    pub use crate::consistency::add_reverse_path_deps;
    pub use crate::controller::{TangoController, UnderstandOptions};
    pub use crate::dag::{NodeId, RequestDag};
    pub use crate::executor::{execute_rounds, execute_with, ExecError, ExecReport, Release};
    pub use crate::extensions::lookahead_prefix;
    pub use crate::patterns::{ordering_tango_oracle, pattern_score, AddOrder, SchedPattern};
    pub use crate::priority::{
        ascending_install_order, r_priorities, satisfies, topological_priorities, CyclicDag,
        PriorityAssignment,
    };
    pub use crate::request::{Deadline, ReqElem, ReqOp};
    pub use crate::schedulers::{registry, resolve, SchedKey, Scheduler, SchedulerEntry};
}
