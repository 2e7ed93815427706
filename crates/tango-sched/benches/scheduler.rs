//! Criterion benches for the scheduler portfolio: full dispatch of
//! 1k/10k/100k-op update DAGs per registered scheduler.
//!
//! This is the regression guard for the incremental critical-path /
//! per-switch-queue claim: dispatch must scale sub-quadratically, so
//! 100k ops should cost roughly 10× the 10k run, not 100×.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tango::db::TangoDb;
use tango_sched::executor::execute_with;
use tango_sched::schedulers::registry;

#[path = "../tests/support/mod.rs"]
mod support;
use support::{build_dag, testbed};

fn bench_schedulers(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler_dispatch");
    g.sample_size(3);
    for ops in [1_000usize, 10_000, 100_000] {
        let dag = build_dag(ops);
        for entry in registry() {
            g.bench_function(format!("{}_{ops}", entry.name), |b| {
                b.iter(|| {
                    let mut tb = testbed();
                    let mut d = dag.clone();
                    let mut sched = entry.build();
                    let report = execute_with(
                        &mut tb,
                        &mut d,
                        &TangoDb::new(),
                        sched.as_mut(),
                        entry.release,
                    )
                    .expect("bench DAGs are acyclic");
                    assert_eq!(report.failed, 0);
                    black_box(report.makespan)
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
