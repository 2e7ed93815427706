//! # bench — the experiment harness
//!
//! One module per table/figure of the paper (see `DESIGN.md` §6 for the
//! index). Every experiment is a pure deterministic function returning
//! either a [`simnet::trace::Figure`] (for plots) or rows for a text
//! table; `fig11`, `fleet` and `sched_sweep` also return their traced
//! cells when asked. The `experiments` binary holds one table row per
//! experiment, which packs those results into a [`report::Output`], and
//! is the one place that writes files: `results/`, the `--trace`
//! exports and `BENCH_experiments.json`.

pub mod experiments;
pub mod lower;
pub mod par;
pub mod report;
pub mod tracecheck;
