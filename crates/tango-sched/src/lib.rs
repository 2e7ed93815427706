//! # tango-sched — the Tango network scheduler and its baselines
//!
//! Implements §6 of the paper: switch requests ([`request`]), the
//! switch-request DAG ([`dag`]), scheduling patterns with their one
//! rank, the pattern-scoring oracle and its non-greedy batching
//! extension ([`patterns`]), priority assignment per Maple
//! ([`priority`]), the pluggable scheduler portfolio and its by-name
//! registry ([`schedulers`]), and the execution harness measuring
//! makespans over simulated testbeds ([`executor`]): the Basic Tango
//! Scheduler (Algorithm 3) is [`executor::execute_rounds`], and the
//! online arms of Figs 10–12 are registry entries run through
//! [`executor::execute_with`].
//!
//! There is one Tango: the rounds sort each independent set by the
//! rank of the pattern the oracle picks for it, and the online
//! `"tango"` and `"tango-type"` entries key each request by the rank of
//! the pattern the same scoring picks for its switch.
//!
//! The Dionysus baseline (critical-path scheduling, oblivious to switch
//! diversity) is the `"dionysus"` entry of [`schedulers::registry`].
//!
//! What the probing engine learned reaches the scheduler only through
//! the Tango Score Database, [`tango::db::TangoDb`] (Fig 4): every
//! scheduler and the executor take one, and nothing here runs a probe.

pub mod dag;
pub mod executor;
pub mod patterns;
pub mod priority;
pub mod request;
pub mod schedulers;
