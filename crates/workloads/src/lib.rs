//! # workloads — workload and topology substrates for the Tango
//! reproduction
//!
//! Everything the evaluation needs that is not a switch or a scheduler:
//!
//! * [`classbench`] — ClassBench-like ACL generation calibrated to
//!   Table 2 (829/989/972 rules at 64/38/33 dependency levels).
//! * [`dependency`] — overlap-derived rule-dependency extraction.
//! * [`topology`] — the 3-switch hardware triangle and Google's B4
//!   backbone (12 sites, 19 links).
//! * [`routing`] — hop-count shortest paths and simple-path enumeration.
//! * [`maxmin`] — B4's max-min fair allocation (progressive filling).
//! * [`scenarios`] — link-failure and traffic-engineering request
//!   generators (the Fig 10–12 workloads).
//! * [`update_dag`] — ClassBench-style scaled update DAGs (100k+ ops)
//!   for the scheduler-portfolio sweep.

pub mod classbench;
pub mod dependency;
pub mod maxmin;
pub mod routing;
pub mod scenarios;
pub mod topology;
pub mod update_dag;
