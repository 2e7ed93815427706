//! The experiments runner: regenerates every table and figure of the
//! paper, writing CSV/text under `results/`.
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- all
//! cargo run --release -p bench --bin experiments -- fig3c infer_size
//! cargo run --release -p bench --bin experiments -- --quick all
//! cargo run --release -p bench --bin experiments -- --threads 4 all
//! ```
//!
//! `--quick` shrinks workload sizes ~10× for smoke runs. `--threads N`
//! sets the worker count of the deterministic `bench::par` pool
//! (default = available cores); results are bit-identical for every N.
//! Wall-clock per experiment is recorded to `BENCH_experiments.json`
//! next to `results/` — outside it, so timing noise never pollutes the
//! determinism-diffed artifacts.
//!
//! `--trace <dir>` enables virtual-time telemetry on the experiments
//! that support it (fig11, fleet, sched_sweep) and writes, per
//! experiment, a Perfetto-loadable Chrome trace (`TRACE_<name>.json`)
//! and a plain-text metrics report (`METRICS_<name>.txt`) into `<dir>` —
//! never inside `results/`, whose artifacts stay byte-identical with and
//! without the flag. Traces are stamped in virtual time, so they too diff
//! byte-identical across thread counts; metric counters additionally
//! land in `BENCH_experiments.json` per experiment.

use bench::experiments::*;
use bench::report::{results_dir, write_figure, write_text};
use simnet::telemetry::MetricsSnapshot;
use std::path::{Path, PathBuf};
use tango::json::Value;

/// One timing record destined for `BENCH_experiments.json`: wall-clock
/// always, simulator event counts when attributable (top-level
/// experiments run serially in this loop, so the process-wide
/// [`simnet::sim::events_processed`] delta is theirs; per-scheduler
/// sub-timings of a parallel sweep carry no event split), telemetry
/// metrics when the experiment ran traced.
struct Timing {
    name: String,
    secs: f64,
    events: Option<u64>,
    metrics: Option<MetricsSnapshot>,
}

/// Writes one experiment's trace + metrics pair under the `--trace`
/// directory and echoes the paths.
fn write_trace(dir: &Path, name: &str, trace_json: &str, metrics_text: &str) {
    std::fs::create_dir_all(dir).expect("create trace dir");
    let trace_path = dir.join(format!("TRACE_{name}.json"));
    std::fs::write(&trace_path, trace_json).expect("write trace json");
    let metrics_path = dir.join(format!("METRICS_{name}.txt"));
    std::fs::write(&metrics_path, metrics_text).expect("write metrics text");
    println!("trace -> {}", trace_path.display());
    println!("metrics -> {}", metrics_path.display());
}

struct Scale {
    quick: bool,
}

impl Scale {
    fn n(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(20)
        } else {
            full
        }
    }
}

fn run_one(
    name: &str,
    scale: &Scale,
    trace_dir: Option<&Path>,
    extra_timings: &mut Vec<(String, f64)>,
    metrics_out: &mut Option<MetricsSnapshot>,
) -> bool {
    let q = scale;
    match name {
        "table1" => {
            let rows = table1::run(q.n(8192));
            let text = table1::render(&rows);
            println!("== Table 1 ==\n{text}");
            write_text("table1", &text);
        }
        "fig2" => {
            // Each sub-figure drives one long-lived testbed, so the
            // fan-out happens here, across the three sub-figures.
            let figs = bench::par::par_map_idx(3, |i| match i {
                0 => fig2::fig2a(q.n(80).min(80), q.n(160).min(160)),
                1 => fig2::fig2b(q.n(3500), q.n(5500)),
                _ => fig2::fig2c(q.n(500), q.n(5500)),
            });
            for (n, f) in ["fig2a", "fig2b", "fig2c"].iter().zip(&figs) {
                println!("{n}: {} series written", f.series.len());
                write_figure(n, f);
            }
        }
        "fig3a" => {
            let fig = fig3a::run(q.n(1000), q.n(200), if q.quick { 3 } else { 10 });
            println!("== Fig 3a ==");
            for s in &fig.series {
                println!("  {:<12} {:.2} s", s.label, s.points[0].1);
            }
            write_figure("fig3a", &fig);
        }
        "fig3b" => {
            let sizes: Vec<usize> = fig3b::paper_sizes().into_iter().map(|n| q.n(n)).collect();
            let fig = fig3b::run(&sizes);
            println!("fig3b: {} series written", fig.series.len());
            write_figure("fig3b", &fig);
        }
        "fig3c" => {
            let sizes: Vec<usize> = fig3c::paper_sizes().into_iter().map(|n| q.n(n)).collect();
            let fig = fig3c::run(&sizes);
            println!("fig3c: {} series written", fig.series.len());
            write_figure("fig3c", &fig);
        }
        "fig5" => {
            let fig = fig5::run(q.n(100) as u64, q.n(400) as u64, q.n(2500));
            println!(
                "fig5: layer populations {:?}",
                fig.series.iter().map(|s| s.len()).collect::<Vec<_>>()
            );
            write_figure("fig5", &fig);
        }
        "fig6" => {
            let fig = fig6::run(100);
            println!("fig6: {} series written", fig.series.len());
            write_figure("fig6", &fig);
        }
        "table2" => {
            let rows = table2::run();
            let text = table2::render(&rows);
            println!("== Table 2 ==\n{text}");
            write_text("table2", &text);
        }
        "fig8" | "fig9" => {
            let target = if name == "fig8" {
                fig89::Target::Ovs
            } else {
                fig89::Target::Switch1
            };
            let reps = if q.quick { 3 } else { 10 };
            for (file, cfg) in workloads::classbench::ClassBenchConfig::presets() {
                let fig = fig89::run(target, file, &cfg, reps);
                let out = format!("{name}_{}", file.to_lowercase());
                println!("== {out} ==");
                for s in &fig.series {
                    println!("  {:<10} mean {:.3} s", s.label, s.summary().mean);
                }
                write_figure(&out, &fig);
            }
        }
        "fig10" => {
            let fig = fig10::run(q.n(400), q.n(800));
            println!("== Fig 10 ==");
            for s in &fig.series {
                let ys: Vec<String> = s.points.iter().map(|p| format!("{:.2}", p.1)).collect();
                println!("  {:<22} LF/TE1/TE2 = {}", s.label, ys.join(" / "));
            }
            write_figure("fig10", &fig);
        }
        "fig11" => {
            // Traced or not, the figure bytes are identical — telemetry
            // observes virtual time, it never advances it.
            let fig = if let Some(dir) = trace_dir {
                let (fig, trace_json, metrics) = fig11::run_traced(q.n(2400));
                write_trace(dir, "fig11", &trace_json, &metrics.render_text());
                *metrics_out = Some(metrics);
                fig
            } else {
                fig11::run(q.n(2400))
            };
            println!("== Fig 11 ==");
            for s in &fig.series {
                let ys: Vec<String> = s.points.iter().map(|p| format!("{:.2}", p.1)).collect();
                println!("  {:<28} {}", s.label, ys.join(" / "));
            }
            write_figure("fig11", &fig);
        }
        "fig12" => {
            let fig = fig12::run(q.n(2200));
            println!("== Fig 12 ==");
            for s in &fig.series {
                println!("  {:<10} {:.4} s", s.label, s.points[0].1);
            }
            write_figure("fig12", &fig);
        }
        "infer_size" => {
            let mut rows = infer_size::run(&[256, 512, 1024].map(|n| q.n(n) as u64));
            if !q.quick {
                rows.extend(infer_size::run_vendors());
            }
            let text = infer_size::render(&rows);
            println!("== Size inference accuracy ==\n{text}");
            write_text("infer_size", &text);
        }
        "infer_geometry" => {
            let rows = infer_geometry::run(q.n(6000));
            let text = infer_geometry::render(&rows);
            println!("== TCAM geometry inference ==\n{text}");
            write_text("infer_geometry", &text);
        }
        "infer_policy" => {
            let rows = infer_policy::run(q.n(100) as u64);
            let text = infer_policy::render(&rows);
            println!("== Policy inference ==\n{text}");
            write_text("infer_policy", &text);
        }
        "fleet" => {
            // At --quick the TCAM floor keeps a size probe's sweeps
            // (up to 2 × tcam rules) at least as wide as the drivers'
            // 128-op window, so a traced quick run reaches it.
            let (widths, tcam) = ([1, 2, 4, 8], q.n(256).max(64) as u64);
            let rows = if let Some(dir) = trace_dir {
                let (rows, trace_json, metrics) = fleet::run_traced(&widths, tcam);
                write_trace(dir, "fleet", &trace_json, &metrics.render_text());
                *metrics_out = Some(metrics);
                rows
            } else {
                fleet::run(&widths, tcam)
            };
            let text = fleet::render(&rows);
            println!("== Fleet inference scaling ==\n{text}");
            write_text("fleet", &text);
            let db = fleet::knowledge_db(tcam);
            let path = results_dir().join("fleet_db.json");
            db.save_json(&path).expect("save fleet knowledge db");
            println!("fleet knowledge db -> {}", path.display());
        }
        "ablations" => {
            let mut text = String::new();
            text.push_str("== clustering method ==\n");
            text.push_str(&ablations::clustering_ablation(q.n(512) as u64));
            text.push_str("\n== trials-per-level sweep ==\n");
            text.push_str(&ablations::trials_sweep(
                q.n(512) as u64,
                &[50, 150, 400, 800],
            ));
            let (g, l) = ablations::batching_ablation(q.n(200));
            text.push_str(&format!(
                "\n== batching ==\ngreedy: {g:.3} s, lookahead: {l:.3} s\n"
            ));
            let (a, gu) = ablations::guard_ablation(q.n(200), 50);
            text.push_str(&format!(
                "\n== guard time ==\nack-wait: {a:.3} s, guarded: {gu:.3} s\n"
            ));
            println!("{text}");
            write_text("ablations", &text);
        }
        "sched_sweep" => {
            // The 100k-op scheduler-portfolio sweep. Makespans (the
            // ordering-quality signal) land in `results/sched_sweep.txt`
            // — deterministic, thread-count independent — while each
            // scheduler's host wall-clock rides along into
            // `BENCH_experiments.json` via `extra_timings`.
            let rows = if let Some(dir) = trace_dir {
                let (rows, trace_json, metrics) = sched_sweep::run_traced(q.n(100_000));
                write_trace(dir, "sched_sweep", &trace_json, &metrics.render_text());
                *metrics_out = Some(metrics);
                rows
            } else {
                sched_sweep::run(q.n(100_000))
            };
            let text = sched_sweep::render(&rows);
            println!("== Scheduler sweep ==\n{text}");
            write_text("sched_sweep", &text);
            for r in &rows {
                extra_timings.push((format!("sched_sweep/{}", r.scheduler), r.wall_secs));
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            return false;
        }
    }
    true
}

const ALL: &[&str] = &[
    "table1",
    "fig2",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig5",
    "fig6",
    "table2",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "infer_size",
    "infer_geometry",
    "infer_policy",
    "fleet",
    "ablations",
    "sched_sweep",
];

/// Writes per-experiment wall-clock timings — and, where attributable,
/// simulator event counts with derived events/sec — as machine-readable
/// JSON.
///
/// The file lands *next to* `results/`, not inside it: timings vary run
/// to run, while everything under `results/` must diff byte-identical
/// across thread counts.
fn write_bench_json(timings: &[Timing], threads: usize, quick: bool, total_s: f64) {
    let experiments: Vec<Value> = timings
        .iter()
        .map(|t| {
            let mut fields = vec![
                ("name".into(), Value::Str(t.name.clone())),
                ("secs".into(), Value::num(t.secs)),
            ];
            if let Some(events) = t.events {
                fields.push(("events".into(), Value::num(events as f64)));
                let rate = if t.secs > 0.0 {
                    events as f64 / t.secs
                } else {
                    0.0
                };
                fields.push(("events_per_sec".into(), Value::num(rate)));
            }
            if let Some(m) = &t.metrics {
                fields.push(("metrics".into(), metrics_value(m)));
            }
            Value::Obj(fields)
        })
        .collect();
    let doc = Value::Obj(vec![
        ("threads".into(), Value::num(threads as f64)),
        ("quick".into(), Value::Bool(quick)),
        ("total_secs".into(), Value::num(total_s)),
        ("experiments".into(), Value::Arr(experiments)),
    ]);
    let dir = results_dir();
    let path = dir
        .parent()
        .map_or_else(|| dir.clone(), std::path::Path::to_path_buf)
        .join("BENCH_experiments.json");
    std::fs::write(&path, doc.render()).expect("write BENCH_experiments.json");
    println!("\nperf baseline -> {}", path.display());
}

/// The telemetry metrics block of one traced experiment, as JSON:
/// counters and gauges as name → integer objects, histograms summarized.
fn metrics_value(m: &MetricsSnapshot) -> Value {
    let ints = |pairs: &[(String, u64)]| {
        Value::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), Value::num(*v as f64)))
                .collect(),
        )
    };
    let hists = Value::Obj(
        m.hists
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Value::Obj(vec![
                        ("n".into(), Value::num(s.n as f64)),
                        ("mean".into(), Value::num(s.mean)),
                        ("p50".into(), Value::num(s.p50)),
                        ("p90".into(), Value::num(s.p90)),
                        ("p99".into(), Value::num(s.p99)),
                        ("max".into(), Value::num(s.max)),
                    ]),
                )
            })
            .collect(),
    );
    Value::Obj(vec![
        ("counters".into(), ints(&m.counters)),
        ("gauges".into(), ints(&m.gauges)),
        ("histograms".into(), hists),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = Scale { quick };
    // `--threads N` (or `--threads=N`) pins the worker pool, and
    // `--trace DIR` (or `--trace=DIR`) turns on telemetry export; both
    // value tokens must not be mistaken for an experiment.
    let mut wanted: Vec<&str> = Vec::new();
    let mut trace_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--threads" {
            let n = args
                .get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .expect("--threads needs a positive integer");
            bench::par::set_threads(n);
            i += 2;
            continue;
        }
        if a == "--trace" {
            let dir = args.get(i + 1).expect("--trace needs a directory");
            trace_dir = Some(PathBuf::from(dir));
            i += 2;
            continue;
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            let n = v
                .parse::<usize>()
                .expect("--threads needs a positive integer");
            bench::par::set_threads(n);
        } else if let Some(v) = a.strip_prefix("--trace=") {
            trace_dir = Some(PathBuf::from(v));
        } else if !a.starts_with("--") {
            wanted.push(a);
        }
        i += 1;
    }
    let list: Vec<&str> = if wanted.is_empty() || wanted.contains(&"all") {
        ALL.to_vec()
    } else {
        wanted
    };
    println!("worker threads: {}", bench::par::threads());
    let suite_t0 = std::time::Instant::now();
    let suite_ev0 = simnet::sim::events_processed();
    let mut timings: Vec<Timing> = Vec::new();
    let mut failed = false;
    for name in list {
        let t0 = std::time::Instant::now();
        let ev0 = simnet::sim::events_processed();
        println!("\n──── running {name} ────");
        let mut extra_timings = Vec::new();
        let mut metrics = None;
        if !run_one(
            name,
            &scale,
            trace_dir.as_deref(),
            &mut extra_timings,
            &mut metrics,
        ) {
            failed = true;
        }
        let secs = t0.elapsed().as_secs_f64();
        let events = simnet::sim::events_processed() - ev0;
        println!("({name} took {secs:.1}s, {events} events)");
        timings.push(Timing {
            name: name.to_string(),
            secs,
            events: Some(events),
            metrics,
        });
        timings.extend(extra_timings.into_iter().map(|(name, secs)| Timing {
            name,
            secs,
            events: None,
            metrics: None,
        }));
    }
    let total_s = suite_t0.elapsed().as_secs_f64();
    print_summary(simnet::sim::events_processed() - suite_ev0, total_s);
    write_bench_json(&timings, bench::par::threads(), quick, total_s);
    if failed {
        std::process::exit(1);
    }
}

/// Prints the end-of-suite summary (captured into `full_run.log`):
/// the suite's event total and events/sec, and the process's peak
/// resident set where the kernel reports one (`VmHWM`, Linux).
fn print_summary(suite_events: u64, total_s: f64) {
    let rate = if total_s > 0.0 {
        suite_events as f64 / total_s
    } else {
        0.0
    };
    println!("\n──── suite summary ────");
    println!("suite: {suite_events} events in {total_s:.1}s ({rate:.0} events/sec)");
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    if let Some(kib) = hwm.and_then(|v| v.trim().strip_suffix(" kB")?.parse::<f64>().ok()) {
        println!("peak RSS: {:.1} MiB (VmHWM)", kib / 1024.0);
    }
}
