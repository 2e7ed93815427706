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
//! Each experiment is one row of [`EXPERIMENTS`]: its name and a function
//! from the run's [`Scale`] and the trace flag to a [`bench::report::Output`].
//! The runner alone writes files, all through [`write()`]: the artifacts
//! under `results/`, the `--trace` pair, and `BENCH_experiments.json`
//! next to `results/`, which holds the run's `quick` flag and each
//! experiment's simulator event count in run order — exact values only,
//! so a full `--threads 1 all` run rewrites the committed file byte for
//! byte.
//!
//! `--quick` shrinks workload sizes ~10× for smoke runs. `--threads N`
//! sets the worker count of the deterministic `bench::par` pool
//! (default = available cores); every file a run writes is
//! byte-identical for every N. Run time and peak memory go to the
//! console only: one progress line per experiment and the process's
//! `VmHWM` at the end. Performance numbers come from `benchmark/`.
//!
//! `--trace <dir>` enables virtual-time telemetry on the experiments
//! that support it (fig11, fleet, sched_sweep) and writes, per
//! experiment, a Perfetto-loadable Chrome trace (`TRACE_<name>.json`)
//! and a plain-text metrics report (`METRICS_<name>.txt`) into `<dir>` —
//! never inside `results/`, whose artifacts stay byte-identical with and
//! without the flag. Traces are stamped in virtual time, so they too diff
//! byte-identical across thread counts.

use bench::experiments::*;
use bench::report::{render_traced, Output};
use std::path::{Path, PathBuf};
use tango::json::Value;
use workloads::classbench::ClassBenchConfig;

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

    /// Repetitions per cell of the repeated-trial figures.
    fn reps(&self) -> usize {
        if self.quick {
            3
        } else {
            10
        }
    }
}

/// How one experiment runs: at a scale, traced or not.
type Run = fn(&Scale, bool) -> Output;

/// Every experiment, in `all` order.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("table1", |q, _| {
        Output::default().text("table1", table1::render(&table1::run(q.n(8192))))
    }),
    ("fig2", |q, _| {
        // Each sub-figure drives one long-lived testbed, so the fan-out
        // happens here, across the three sub-figures.
        let figs = bench::par::par_map_idx(3, |i| match i {
            0 => fig2::fig2a(q.n(80).min(80), q.n(160).min(160)),
            1 => fig2::fig2b(q.n(3500), q.n(5500)),
            _ => fig2::fig2c(q.n(500), q.n(5500)),
        });
        ["fig2a", "fig2b", "fig2c"]
            .iter()
            .zip(&figs)
            .fold(Output::default(), |out, (name, fig)| out.figure(name, fig))
    }),
    ("fig3a", |q, _| {
        Output::default().figure("fig3a", &fig3a::run(q.n(1000), q.n(200), q.reps()))
    }),
    ("fig3b", |q, _| {
        let sizes: Vec<usize> = fig3b::paper_sizes().into_iter().map(|n| q.n(n)).collect();
        Output::default().figure("fig3b", &fig3b::run(&sizes))
    }),
    ("fig3c", |q, _| {
        let sizes: Vec<usize> = fig3c::paper_sizes().into_iter().map(|n| q.n(n)).collect();
        Output::default().figure("fig3c", &fig3c::run(&sizes))
    }),
    ("fig5", |q, _| {
        let fig = fig5::run(q.n(100) as u64, q.n(400) as u64, q.n(2500));
        Output::default().figure("fig5", &fig)
    }),
    ("fig6", |_, _| {
        Output::default().figure("fig6", &fig6::run(100))
    }),
    ("table2", |_, _| {
        Output::default().text("table2", table2::render(&table2::run()))
    }),
    ("fig8", |q, _| {
        classbench_figures("fig8", fig89::Target::Ovs, q)
    }),
    ("fig9", |q, _| {
        classbench_figures("fig9", fig89::Target::Switch1, q)
    }),
    ("fig10", |q, _| {
        Output::default().figure("fig10", &fig10::run(q.n(400), q.n(800)))
    }),
    ("fig11", |q, traced| {
        let (fig, cells) = fig11::run(q.n(2400), traced);
        Output::default().figure("fig11", &fig).traced(cells)
    }),
    ("fig12", |q, _| {
        Output::default().figure("fig12", &fig12::run(q.n(2200)))
    }),
    ("infer_size", |q, _| {
        let mut rows = infer_size::run(&[256, 512, 1024].map(|n| q.n(n) as u64));
        if !q.quick {
            rows.extend(infer_size::run_vendors());
        }
        Output::default().text("infer_size", infer_size::render(&rows))
    }),
    ("infer_geometry", |q, _| {
        let rows = infer_geometry::run(q.n(6000));
        Output::default().text("infer_geometry", infer_geometry::render(&rows))
    }),
    ("infer_policy", |q, _| {
        let rows = infer_policy::run(q.n(100) as u64);
        Output::default().text("infer_policy", infer_policy::render(&rows))
    }),
    ("fleet", |q, traced| {
        // At --quick the TCAM floor keeps a size probe's sweeps
        // (up to 2 × tcam rules) at least as wide as the drivers'
        // 128-op window, so a traced quick run reaches it.
        let (widths, tcam) = ([1, 2, 4, 8], q.n(256).max(64) as u64);
        let (rows, cells) = fleet::run(&widths, tcam, traced);
        Output::default()
            .text("fleet", fleet::render(&rows))
            .file("fleet_db.json".into(), fleet::knowledge_db(tcam).to_json())
            .traced(cells)
    }),
    ("ablations", |q, _| {
        let tcam = q.n(512) as u64;
        let clustering = ablations::clustering_ablation(tcam);
        let trials = ablations::trials_sweep(tcam, &[50, 150, 400, 800]);
        let (g, l) = ablations::batching_ablation(q.n(200));
        let (a, gu) = ablations::guard_ablation(q.n(200), 50);
        let text = format!(
            "== clustering method ==\n{clustering}\n== trials-per-level sweep ==\n{trials}\n\
             == batching ==\ngreedy: {g:.3} s, lookahead: {l:.3} s\n\n\
             == guard time ==\nack-wait: {a:.3} s, guarded: {gu:.3} s\n"
        );
        Output::default().text("ablations", text)
    }),
    ("sched_sweep", |q, traced| {
        let (rows, cells) = sched_sweep::run(q.n(100_000), traced);
        Output::default()
            .text("sched_sweep", sched_sweep::render(&rows))
            .traced(cells)
    }),
];

/// Fig 8 or 9: one figure per ClassBench preset, as `<name>_<preset>.csv`.
fn classbench_figures(name: &str, target: fig89::Target, q: &Scale) -> Output {
    ClassBenchConfig::presets()
        .into_iter()
        .fold(Output::default(), |out, (file, cfg)| {
            let fig = fig89::run(target, file, &cfg, q.reps());
            out.figure(&format!("{name}_{}", file.to_lowercase()), &fig)
        })
}

/// The repository `results/` directory.
///
/// Overridable with `TANGO_RESULTS_DIR`, so determinism checks can run
/// the same experiments into two separate directories and diff them.
fn results_dir() -> PathBuf {
    match std::env::var_os("TANGO_RESULTS_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("results"),
    }
}

/// Writes `bytes` as `<dir>/<file>` (creating `dir`) and returns the path.
fn write(dir: &Path, file: &str, bytes: &str) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(file);
    std::fs::write(&path, bytes).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Writes one experiment's output: each artifact under `results`
/// (echoing text tables, naming the path of every other file) and, when
/// the run is traced and the experiment recorded cells, its Chrome trace
/// and metrics report under the trace directory.
fn emit(name: &str, out: &Output, results: &Path, trace_dir: Option<&Path>) {
    for (file, bytes) in &out.artifacts {
        let path = write(results, file, bytes);
        if file.ends_with(".txt") {
            println!("{bytes}");
        } else {
            println!("{file} -> {}", path.display());
        }
    }
    let Some(dir) = trace_dir.filter(|_| !out.cells.is_empty()) else {
        return;
    };
    let (trace, metrics) = render_traced(&out.cells);
    for (file, bytes) in [
        (format!("TRACE_{name}.json"), trace),
        (format!("METRICS_{name}.txt"), metrics.render_text()),
    ] {
        println!("{file} -> {}", write(dir, &file, &bytes).display());
    }
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
    let mut failed = false;
    let list: Vec<(&str, Run)> = if wanted.is_empty() || wanted.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        wanted
            .iter()
            .filter_map(|w| {
                let row = EXPERIMENTS.iter().find(|(name, _)| name == w);
                if row.is_none() {
                    eprintln!("unknown experiment: {w}");
                    failed = true;
                }
                row.copied()
            })
            .collect()
    };
    println!("worker threads: {}", bench::par::threads());
    let results = results_dir();
    let mut counts = Vec::new();
    for (name, run) in list {
        println!("\n──── running {name} ────");
        let t0 = std::time::Instant::now();
        let ev0 = simnet::sim::events_processed();
        let out = run(&scale, trace_dir.is_some());
        emit(name, &out, &results, trace_dir.as_deref());
        let secs = t0.elapsed().as_secs_f64();
        let events = simnet::sim::events_processed() - ev0;
        println!("({name} took {secs:.1}s, {events} events)");
        counts.push(Value::Obj(vec![
            ("name".into(), Value::Str(name.into())),
            ("events".into(), Value::num(events as f64)),
        ]));
    }
    let doc = Value::Obj(vec![
        ("quick".into(), Value::Bool(quick)),
        ("experiments".into(), Value::Arr(counts)),
    ]);
    let parent = results.parent().unwrap_or(&results);
    let path = write(parent, "BENCH_experiments.json", &doc.render());
    println!("\nBENCH_experiments.json -> {}", path.display());
    // Peak resident set where the kernel reports one (Linux).
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    if let Some(kib) = hwm.and_then(|v| v.trim().strip_suffix(" kB")?.parse::<f64>().ok()) {
        println!("peak RSS: {:.1} MiB (VmHWM)", kib / 1024.0);
    }
    if failed {
        std::process::exit(1);
    }
}
