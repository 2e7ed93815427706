//! # tango-sched — the Tango network scheduler and its baselines
//!
//! Implements §6 of the paper: switch requests ([`request`]), the
//! switch-request DAG ([`dag`]), the pattern-scoring ordering oracle
//! ([`patterns`]), the non-greedy batching extension ([`extensions`]),
//! priority assignment per Maple ([`priority`]), the pluggable scheduler
//! portfolio and its by-name registry ([`schedulers`]), and the execution
//! harness measuring makespans over simulated testbeds ([`executor`]):
//! the Basic Tango Scheduler (Algorithm 3) is
//! [`executor::execute_rounds`], and the online arms of Figs 10–12 are
//! registry entries run through [`executor::execute_with`].
//!
//! The Dionysus baseline (critical-path scheduling, oblivious to switch
//! diversity) is the `"dionysus"` entry of [`schedulers::registry`];
//! Tango's arms are `"tango"` and `"tango-type"`.
//!
//! What the probing engine learned reaches the scheduler only through
//! the Tango Score Database, [`tango::db::TangoDb`] (Fig 4): every
//! scheduler and the executor take one, and nothing here runs a probe.

pub mod dag;
pub mod executor;
pub mod extensions;
pub mod patterns;
pub mod priority;
pub mod request;
pub mod schedulers;
