//! The whole suite from one command: every workload, untraced then
//! traced, each in a child process of its own (so `peak_rss_mib` is the
//! workload's and nothing leaks between them), printed as one table.
//!
//! `--selfcheck` runs every workload twice back to back and fails if any
//! end-to-end metric moved between the two by more than the bound
//! `BENCHMARK.json` gives it, or if any simulated result moved at all.

use crate::common::{RunArgs, END_TO_END, PER_LAYER};
use crate::{host, WORKLOADS};
use std::process::{Command, ExitCode};
use tango::json::Value;

/// Simulated results and deterministic counts: equal or wrong.
const EXACT: &[&str] = &[
    "makespan_sim_s",
    "infer_sim_s",
    "size_err_pct_max",
    "probe_ops",
    "simnet.events_per_op",
    "tango-net.vt_bytes_per_op",
];

/// One child run's result line, parsed.
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

impl Run {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

fn child(workload: &str, args: &RunArgs, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("# ")) {
        // The children's own load warnings would only report the suite's
        // previous child; the suite warned once, before it started any.
        if line.contains("CHECK FAILED") || line.contains("could not place") {
            println!("  {workload}: {}", &line[2..]);
        }
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Value::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line (exit {:?}): {e:?}\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let num = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    Ok(Run {
        correct: doc.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics: doc
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                )
            })
            .collect(),
    })
}

/// One workload, untraced then traced.
fn both(workload: &str, args: &RunArgs) -> Result<(Run, Run), String> {
    Ok((child(workload, args, false)?, child(workload, args, true)?))
}

fn print_table(title: &str, table: &[(&str, &str)], runs: &[&Run]) {
    println!("\n{title}");
    print!("{:<36}{:<7}", "metric", "unit");
    for w in WORKLOADS {
        print!("{w:>15}");
    }
    println!();
    for (name, unit) in table {
        print!("{name:<36}{unit:<7}");
        for run in runs {
            let v = run.get(name);
            if v == 0.0 {
                print!("{:>15}", "-");
            } else {
                print!("{v:>15.4}");
            }
        }
        println!();
    }
}

fn print_pass(results: &[(Run, Run)]) -> bool {
    let untraced: Vec<&Run> = results.iter().map(|(u, _)| u).collect();
    let traced: Vec<&Run> = results.iter().map(|(_, t)| t).collect();
    print_table(
        "end to end (tracing off; median repetition)",
        END_TO_END,
        &untraced,
    );
    print!("{:<43}", "fail_share");
    let mut ok = true;
    for (u, t) in results {
        print!(
            "{:>15.6}",
            (u.failed + t.failed) / (u.attempted + t.attempted)
        );
        ok &= u.correct && t.correct && u.failed == 0.0 && t.failed == 0.0;
    }
    println!();
    print_table(
        "per layer (traced run; - = not exercised)",
        PER_LAYER,
        &traced,
    );
    ok
}

/// The bound `BENCHMARK.json` sets on each end-to-end metric.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    Ok(doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Compares two passes; prints the table; true when every end-to-end
/// metric stayed within its bound and every exact metric is equal.
fn selfcheck(first: &[(Run, Run)], second: &[(Run, Run)]) -> Result<bool, String> {
    let mut ok = true;
    let bounds = bounds()?;
    println!("\nselfcheck: the two passes against each other");
    println!(
        "{:<14}{:<28}{:>16}{:>16}{:>10}{:>8}  verdict",
        "workload", "metric", "first", "second", "apart %", "bound %"
    );
    for ((w, a), b) in WORKLOADS.iter().zip(first).zip(second) {
        for (name, bound) in &bounds {
            let (x, y) = (a.0.get(name), b.0.get(name));
            // Whichever pass is taken as the parent, the other must be
            // within the bound of it.
            let apart = (x - y).abs() / x.min(y);
            let pass = apart <= *bound;
            ok &= pass;
            println!(
                "{w:<14}{name:<28}{x:>16.6}{y:>16.6}{:>10.2}{:>8.1}  {}",
                apart * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "MISSED" }
            );
        }
        for name in EXACT {
            let values = [a.1.get(name), b.1.get(name)];
            let pass = values[0] == values[1];
            ok &= pass;
            if values[0] != 0.0 || !pass {
                println!(
                    "{w:<14}{name:<28}{:>16.9}{:>16.9}{:>10}{:>8}  {}",
                    values[0],
                    values[1],
                    "",
                    "exact",
                    if pass { "ok" } else { "MOVED" }
                );
            }
        }
    }
    Ok(ok)
}

fn tool_version(tool: &str, args: &[&str]) -> String {
    Command::new(tool)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Runs the suite (twice with `selfcheck`) and prints every metric.
pub fn run(args: &RunArgs, check: bool) -> ExitCode {
    let load = host::loadavg1();
    println!(
        "host: nproc {}, available_parallelism {}, loadavg1 {load:.2}, loopback only",
        host::nproc(),
        host::available_parallelism(),
    );
    if let Some(warning) = host::load_warning(load) {
        println!("{warning}");
    }
    println!(
        "build: git {}, {}",
        tool_version("git", &["rev-parse", "--short", "HEAD"]),
        tool_version("rustc", &["--version"])
    );
    println!(
        "run: seed {}, {} s of repetitions per run{}",
        args.seed,
        args.seconds,
        if args.quick {
            ", QUICK (smoke only, never for claims)"
        } else {
            ""
        }
    );
    let outcome = (|| -> Result<bool, String> {
        // With `check`, a workload's second pass follows its first at
        // once: this box drifts by a quarter within five minutes, and the
        // question is whether the benchmark repeats, not whether the box
        // does.
        let mut first = Vec::new();
        let mut second = Vec::new();
        for w in WORKLOADS {
            first.push(both(w, args)?);
            if check {
                second.push(both(w, args)?);
            }
        }
        let mut ok = print_pass(&first);
        if check {
            ok &= print_pass(&second);
            ok &= selfcheck(&first, &second)?;
        }
        println!("loadavg1 after: {:.2}", host::loadavg1());
        Ok(ok)
    })();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            println!("FAILED: see the checks above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
