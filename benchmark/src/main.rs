//! The repo's benchmark. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! tango-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result
//!     object the driver reads
//! tango-benchmark [--seed <n>] [--seconds <s>] [--quick] [--selfcheck]
//!     every workload, untraced then traced, each in a child process;
//!     prints every metric by name with its unit
//! ```

mod common;
mod decor;
mod expected;
mod fleet;
mod gen;
mod hist;
mod host;
mod layers;
mod report;
mod sched;
mod span;
mod suite;
mod wire;

use common::{RunArgs, DEFAULT_SEED};
use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// The contract allows a run 180 s; past this something hangs.
const RUN_WATCHDOG: Duration = Duration::from_secs(170);

pub const WORKLOADS: &[&str] = &[
    "wire_bulk",
    "wire_shallow",
    "sched_dag",
    "fleet_infer",
    "fleet_tcp",
];

fn host_block(args: &RunArgs, workload: &str, cpus: usize, load_before: f64) -> Vec<String> {
    let mut lines = vec![format!(
        "host: nproc {}, available_parallelism {cpus}, loadavg1 {load_before:.2} before / {:.2} after, loopback only",
        host::nproc(),
        host::loadavg1()
    )];
    lines.push(format!(
        "run: workload {workload}, seed {}, seconds {}, trace {}, quick {}",
        args.seed, args.seconds, args.trace, args.quick
    ));
    lines.extend(host::load_warning(load_before));
    lines
}

fn run_workload(name: &str, args: &RunArgs) -> std::io::Result<Outcome> {
    match name {
        "wire_bulk" => wire::run(args, &wire::BULK),
        "wire_shallow" => wire::run(args, &wire::SHALLOW),
        "sched_dag" => sched::run(args),
        "fleet_infer" => fleet::run_infer(args),
        "fleet_tcp" => fleet::run_tcp(args),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown workload {other:?}; one of {WORKLOADS:?}"),
        )),
    }
}

/// Runs one workload in this process and prints the result line last.
fn single(name: &str, args: &RunArgs) -> ExitCode {
    std::thread::Builder::new()
        .name("bench-watchdog".into())
        .spawn(|| {
            std::thread::sleep(RUN_WATCHDOG);
            eprintln!("benchmark: run exceeded {RUN_WATCHDOG:?}, giving up");
            std::process::exit(3);
        })
        .expect("spawn watchdog");
    let load_before = host::loadavg1();
    let cpus = host::available_parallelism();
    // Before any thread is pinned, so the full list of CPUs is read.
    let placement = host::Placement::get();
    let placed = host::Placement::enter();
    match run_workload(name, args) {
        Ok(out) => {
            let pin_note = match placement {
                Some(p) if placed => format!(
                    "placement: every thread on cpu {} (single-core time-slice regime)",
                    p.cpu
                ),
                _ => "WARNING: could not place threads; wire timings will be multi-modal".into(),
            };
            let host = host_block(args, name, cpus, load_before);
            for line in host.iter().chain([&pin_note]).chain(&out.notes) {
                println!("# {line}");
            }
            println!("{}", out.result_line());
            if out.correct && out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                // The contract reads `correct`/`failed` from the line; a
                // human or CI reads the exit code.
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            ExitCode::from(2)
        }
    }
}

struct Cli {
    workload: Option<String>,
    args: RunArgs,
    seconds_given: bool,
    selfcheck: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: RunArgs {
            seed: DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            quick: false,
        },
        seconds_given: false,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => {
                cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                cli.seconds_given = true;
            }
            "--trace" => {
                cli.args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => cli.args.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.args.seconds >= 0.0 && cli.args.seconds <= 120.0) {
        return Err("--seconds must be between 0 and 120".into());
    }
    if cli.args.quick && !cli.seconds_given {
        cli.args.seconds = 1.5;
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(name) => single(name, &cli.args),
        None => suite::run(&cli.args, cli.selfcheck),
    }
}
