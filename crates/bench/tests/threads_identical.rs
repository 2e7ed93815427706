//! Determinism gate: `experiments --quick all` must produce
//! byte-identical `results/` artifacts at `--threads 4` and
//! `--threads 1`. This is the contract that makes the `bench::par`
//! fan-out safe to use everywhere — parallelism may change wall-clock,
//! never output — nor the simulator event count of any experiment, nor
//! the bytes of `BENCH_experiments.json`, which CI diffs whole against
//! the committed file.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use tango::json::Value;

/// Runs the quick suite into `out_dir` and returns the `(name, events)`
/// column of the `BENCH_experiments.json` it wrote next to it, and the
/// file's bytes.
fn run_suite(out_dir: &Path, threads: usize) -> (Vec<(String, Option<usize>)>, String) {
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--threads", &threads.to_string(), "all"])
        .env("TANGO_RESULTS_DIR", out_dir)
        .status()
        .expect("spawn experiments binary");
    assert!(
        status.success(),
        "experiments run failed at --threads {threads}"
    );
    let bench_json = out_dir.parent().unwrap().join("BENCH_experiments.json");
    let text = std::fs::read_to_string(bench_json).expect("read BENCH_experiments.json");
    let doc = Value::parse(&text).expect("BENCH_experiments.json parses");
    let experiments = doc.get("experiments").and_then(Value::as_arr);
    let events = experiments
        .expect("experiments array")
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Value::as_str).expect("name");
            (name.to_string(), e.get("events").and_then(Value::as_usize))
        })
        .collect();
    (events, text)
}

/// Every artifact in `dir`, name → bytes.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read results dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).expect("read artifact");
            (name, bytes)
        })
        .collect()
}

#[test]
fn quick_all_is_byte_identical_across_thread_counts() {
    let base = std::env::temp_dir().join(format!("tango_det_{}", std::process::id()));
    let seq_dir = base.join("threads1");
    let par_dir = base.join("threads4");
    std::fs::create_dir_all(&seq_dir).expect("mkdir");
    std::fs::create_dir_all(&par_dir).expect("mkdir");

    // Both runs write the same `<base>/BENCH_experiments.json`, so
    // each run's bytes are read before the next run overwrites them.
    let (seq_events, seq_json) = run_suite(&seq_dir, 1);
    let (par_events, par_json) = run_suite(&par_dir, 4);
    assert!(seq_events.iter().any(|(_, events)| events.is_some()));
    assert_eq!(
        seq_events, par_events,
        "event counts differ between --threads 1 and --threads 4"
    );
    assert_eq!(
        seq_json, par_json,
        "BENCH_experiments.json differs between --threads 1 and --threads 4"
    );

    let seq = artifacts(&seq_dir);
    let par = artifacts(&par_dir);
    assert!(!seq.is_empty(), "sequential run wrote no artifacts");
    assert_eq!(
        seq.keys().collect::<Vec<_>>(),
        par.keys().collect::<Vec<_>>(),
        "artifact sets differ"
    );
    for (name, seq_bytes) in &seq {
        assert_eq!(
            seq_bytes, &par[name],
            "{name} differs between --threads 1 and --threads 4"
        );
    }

    assert!(!seq.contains_key("BENCH_experiments.json"));

    let _ = std::fs::remove_dir_all(&base);
}
