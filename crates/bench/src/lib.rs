//! # bench — the experiment harness
//!
//! One module per table/figure of the paper (see `DESIGN.md` §6 for the
//! index). Every experiment is a pure deterministic function returning
//! either a [`simnet::trace::Figure`] (for plots) or a formatted text
//! table; the `experiments` binary runs them and writes CSV/text under
//! `results/`.

pub mod experiments;
pub mod lower;
pub mod par;
pub mod report;
pub mod tracecheck;

pub use lower::{
    attach_triangle, b4_testbed, enforce_dag_priorities, lower_scenario, triangle_testbed,
};
pub use report::{format_table, write_figure, write_text};
