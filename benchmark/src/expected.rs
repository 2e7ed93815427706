//! Pinned outputs at the default seed (`expected/default_seed.json`).
//!
//! Simulated results are deterministic: at one seed they repeat bit for
//! bit on any host, traced or not. A change that means only to make the
//! host faster and moves one of them is wrong by construction, and this
//! is where it is caught. Other seeds (and `--quick`) get the
//! self-consistency checks of the workloads only. Regenerate the file
//! with the ignored test `print_expected` after a change that is *meant* to move a
//! simulated result, in a change of its own.

use crate::common::{RunArgs, DEFAULT_SEED};
use crate::fleet::Pass;
use crate::report::Outcome;
use crate::sched::Rep;
use tango::json::Value;

const PINNED: &str = include_str!("../expected/default_seed.json");

/// FNV-1a of a knowledge base's JSON, as hex (a u64 does not fit a JSON
/// number).
fn fingerprint(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn pinned(args: &RunArgs, workload: &str) -> Option<Value> {
    if !args.is_default_seed() || args.quick {
        return None;
    }
    let doc = Value::parse(PINNED).expect("expected/default_seed.json parses");
    assert_eq!(
        doc.get("seed").and_then(Value::as_f64),
        Some(DEFAULT_SEED as f64),
        "expected/default_seed.json is for another seed"
    );
    doc.get(workload).cloned()
}

fn expect_num(out: &mut Outcome, pin: &Value, key: &str, got: f64) {
    let want = pin.get(key).and_then(Value::as_f64);
    out.check(want == Some(got), || {
        format!("pinned {key}: expected {want:?}, got {got}")
    });
}

/// Checks a fleet workload's reference pass against the pinned values.
pub fn check_fleet(out: &mut Outcome, args: &RunArgs, workload: &str, pass: &Pass) {
    let Some(pin) = pinned(args, workload) else {
        return;
    };
    expect_num(out, &pin, "probe_ops", pass.ops as f64);
    expect_num(out, &pin, "infer_sim_s", pass.sim_s);
    expect_num(out, &pin, "size_err_pct_max", pass.size_err_pct_max);
    let want = pin.get("db_json_fnv1a").and_then(Value::as_str);
    let got = fingerprint(&pass.db_json);
    out.check(want == Some(got.as_str()), || {
        format!("pinned db_json_fnv1a: expected {want:?}, got {got}")
    });
}

/// Checks `sched_dag`'s first repetition against the pinned values
/// (which agree with `results/sched_sweep.txt`).
pub fn check_sched(out: &mut Outcome, args: &RunArgs, rep: &Rep) {
    let Some(pin) = pinned(args, "sched_dag") else {
        return;
    };
    expect_num(out, &pin, "events_per_rep", rep.events as f64);
    for run in &rep.runs {
        let Some(p) = pin.get("schedulers").and_then(|s| s.get(run.name)) else {
            out.check(false, || {
                format!("no pinned values for scheduler {}", run.name)
            });
            continue;
        };
        expect_num(out, p, "makespan_s", run.makespan_s);
        expect_num(out, p, "mean_completion_s", run.mean_completion_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decor::shared;
    use crate::span::Recorder;
    use crate::{fleet, sched};
    use std::fmt::Write as _;

    /// Renders the pinned file from fresh reference runs.
    fn render(sched: &Rep, infer: &Pass, tcp: &Pass) -> String {
        let fleet = |p: &Pass| {
            format!(
                "{{\"probe_ops\": {}, \"infer_sim_s\": {}, \"size_err_pct_max\": {}, \"db_json_fnv1a\": \"{}\"}}",
                p.ops,
                p.sim_s,
                p.size_err_pct_max,
                fingerprint(&p.db_json)
            )
        };
        let mut out = format!("{{\n  \"seed\": {DEFAULT_SEED},\n  \"sched_dag\": {{\n");
        let _ = writeln!(out, "    \"events_per_rep\": {},", sched.events);
        out.push_str("    \"schedulers\": {\n");
        for (i, run) in sched.runs.iter().enumerate() {
            let comma = if i + 1 == sched.runs.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "      \"{}\": {{\"makespan_s\": {}, \"mean_completion_s\": {}}}{comma}",
                run.name, run.makespan_s, run.mean_completion_s
            );
        }
        out.push_str("    }\n  },\n");
        let _ = writeln!(out, "  \"fleet_infer\": {},", fleet(infer));
        let _ = writeln!(out, "  \"fleet_tcp\": {}", fleet(tcp));
        out.push_str("}\n");
        out
    }

    /// Regenerates the pinned file:
    /// `cargo test --release --offline --manifest-path benchmark/Cargo.toml -- --ignored --nocapture print_expected`
    /// and copy the block between the markers.
    #[test]
    #[ignore = "prints expected/default_seed.json from fresh reference runs; not a check"]
    fn print_expected() {
        let args = RunArgs {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            quick: false,
        };
        let off = shared(Recorder::off());
        let world = sched::World::build(&args);
        let sched = sched::rep(&world, &off);
        let infer = fleet::pass_in_memory(&fleet::Plan::infer(&args), &off);
        let tcp = fleet::pass_in_memory(&fleet::Plan::tcp(&args), &off);
        println!("---8<--- expected/default_seed.json");
        print!("{}", render(&sched, &infer, &tcp));
        println!("--->8---");
    }

    #[test]
    fn pinned_file_parses_and_covers_the_three_simulated_workloads() {
        let doc = Value::parse(PINNED).unwrap();
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(DEFAULT_SEED as f64));
        let sched = doc.get("sched_dag").unwrap();
        // Dispatch alone is two simulator events per op (arrival and
        // completion): 6 schedulers x 100 000 ops x 2. (The sweep's
        // 1 200 016 counts the 16 preinstall events of lowering too.)
        assert_eq!(
            sched.get("events_per_rep").unwrap().as_f64(),
            Some(1_200_000.0)
        );
        // results/sched_sweep.txt: makespan 1.9500 for five schedulers,
        // 1.9501 for lookahead.
        let sweep = include_str!("../../results/sched_sweep.txt");
        for (name, run) in sched.get("schedulers").unwrap().as_obj().unwrap() {
            let row = sweep
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("{name} in results/sched_sweep.txt"));
            let cols: Vec<&str> = row.split_whitespace().collect();
            let makespan = run.get("makespan_s").unwrap().as_f64().unwrap();
            let mean = run.get("mean_completion_s").unwrap().as_f64().unwrap();
            assert_eq!(format!("{makespan:.4}"), cols[2], "{name}");
            assert_eq!(format!("{mean:.6}"), cols[3], "{name}");
        }
        for w in ["fleet_infer", "fleet_tcp"] {
            let f = doc.get(w).unwrap();
            assert!(f.get("probe_ops").unwrap().as_f64().unwrap() > 1000.0);
            assert!(f.get("size_err_pct_max").unwrap().as_f64().unwrap() <= 5.0);
            assert_eq!(f.get("db_json_fnv1a").unwrap().as_str().unwrap().len(), 16);
        }
    }

    #[test]
    fn fingerprint_is_fnv1a() {
        assert_eq!(fingerprint(""), "cbf29ce484222325");
        assert_eq!(fingerprint("a"), "af63dc4c8601ec8c");
    }
}
