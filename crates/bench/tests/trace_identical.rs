//! Determinism gate for the telemetry exporters: the Chrome traces and
//! metrics the traced experiments emit must be byte-identical across
//! worker-thread counts and repeated runs, and turning tracing on must
//! not change the experiment results themselves.
//!
//! Everything lives in one `#[test]` because `bench::par::set_threads`
//! is process-global — parallel test functions would race on it.

use bench::experiments::{fig11, sched_sweep};
use bench::par::set_threads;
use bench::report::render_traced;
use bench::tracecheck::check;

#[test]
fn traces_are_byte_identical_across_thread_counts() {
    // fig11 at test scale: 4 scenarios × 3 arms.
    set_threads(1);
    let (fig_t1, cells_t1) = fig11::run(120, true);
    set_threads(4);
    let (fig_t4, cells_t4) = fig11::run(120, true);
    let (untraced, _) = fig11::run(120, false);
    set_threads(0);
    let (trace_t1, metrics_t1) = render_traced(&cells_t1);
    let (trace_t4, metrics_t4) = render_traced(&cells_t4);

    assert_eq!(
        trace_t1, trace_t4,
        "fig11 trace differs between 1 and 4 worker threads"
    );
    assert_eq!(metrics_t1, metrics_t4, "fig11 metrics differ");
    assert_eq!(fig_t1.to_csv(), fig_t4.to_csv(), "fig11 figure differs");
    assert_eq!(
        fig_t1.to_csv(),
        untraced.to_csv(),
        "tracing must not change the figure"
    );

    // The emitted trace is Perfetto-loadable: one process per cell,
    // spans on the scheduler track and on per-switch tracks.
    let stats = check(&trace_t1).expect("fig11 trace is structurally valid");
    assert_eq!(stats.processes, 12, "one pid per fig11 cell");
    assert!(
        stats.complete_events > 0 && stats.span_tracks > stats.processes,
        "expected spans on more than one track per cell: {stats:?}"
    );
    assert!(trace_t1.contains("\"name\":\"scheduler\""));
    assert!(trace_t1.contains("switch 0 (dpid 1)"));
    assert!(trace_t1.contains("\"name\":\"execute\""));
    assert!(trace_t1.contains("\"name\":\"flow_mod\""));

    // The metrics report renders deterministically and carries the
    // cross-layer counters the wiring promises.
    let text = metrics_t1.render_text();
    for key in [
        "sched/issued",
        "switch/ops_done",
        "op/flow_mod",
        "pipeline/adds_hw",
        "sim/events",
        "switch/queue_depth",
    ] {
        assert!(text.contains(key), "metrics report lacks {key}:\n{text}");
    }

    // Repeat for the scheduler sweep (clone-per-cell path).
    set_threads(1);
    let (rows_t1, cells_t1) = sched_sweep::run(200, true);
    set_threads(4);
    let (rows_t4, cells_t4) = sched_sweep::run(200, true);
    set_threads(0);
    let (sweep_t1, sweep_m1) = render_traced(&cells_t1);
    let (sweep_t4, sweep_m4) = render_traced(&cells_t4);
    assert_eq!(
        sweep_t1, sweep_t4,
        "sched_sweep trace differs between 1 and 4 worker threads"
    );
    assert_eq!(sweep_m1, sweep_m4, "sched_sweep metrics differ");
    assert_eq!(
        sched_sweep::render(&rows_t1),
        sched_sweep::render(&rows_t4),
        "sched_sweep rows differ"
    );
    assert_eq!(
        sched_sweep::render(&rows_t1),
        sched_sweep::render(&sched_sweep::run(200, false).0),
        "tracing must not change the sweep rows"
    );
    let stats = check(&sweep_t1).expect("sched_sweep trace is structurally valid");
    assert!(stats.processes >= 4, "one pid per registered scheduler");
    assert!(sweep_t1.contains("sched_sweep dionysus"));
}
