//! What every workload shares: run arguments, seed derivation, the
//! metric tables (`BENCHMARK.json` lists exactly these names), and the
//! repetition loop.

use crate::host;
use crate::report::{median, spread_note, Metric, Outcome};
use crate::span::Recorder;
use std::time::Instant;

/// The seed the pinned expectations in `expected/default_seed.json`
/// belong to. Any other seed gets the self-consistency checks only.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// How long the timed repetitions run in total.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke mode: about ten times fewer operations. Never for claims.
    pub quick: bool,
}

impl RunArgs {
    /// A seed for one input stream: `base` itself at [`DEFAULT_SEED`]
    /// (so the pinned artefacts of `results/` are reproduced there), a
    /// well-mixed function of `--seed` otherwise.
    #[must_use]
    pub fn derive(&self, base: u64) -> u64 {
        let delta = self.seed ^ DEFAULT_SEED;
        if delta == 0 {
            return base;
        }
        // splitmix64 finaliser
        let mut z = delta.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        base ^ z ^ (z >> 31)
    }

    /// An operation count, cut tenfold in quick mode.
    #[must_use]
    pub fn scale(&self, n: u64) -> u64 {
        if self.quick {
            (n / 10).max(1)
        } else {
            n
        }
    }

    #[must_use]
    pub fn is_default_seed(&self) -> bool {
        self.seed == DEFAULT_SEED
    }
}

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Results in simulated time and deterministic counts: must repeat
    // bit for bit at one seed, on any host, traced or not.
    ("makespan_sim_s", "s"),
    ("infer_sim_s", "s"),
    ("size_err_pct_max", "%"),
    ("probe_ops", "count"),
    ("simnet.events_per_op", "count"),
    ("tango-net.vt_bytes_per_op", "B"),
    // Wire plane, seen from the generator.
    ("ack_p50_us", "us"),
    ("ack_p99_us", "us"),
    ("tango-net.ack_p999_us", "us"),
    ("gen.client_cpu_us_per_op", "us"),
    ("gen.client_syscalls_per_op", "count"),
    // Single-layer replays of the wire stream.
    ("ofwire.encode_ns_per_frame", "ns"),
    ("ofwire.bytes_per_flow_mod", "B"),
    ("ofwire.decode_ns_per_frame", "ns"),
    ("switchsim.agent_ns_per_frame", "ns"),
    ("switchsim.table_ns_per_op_1k", "ns"),
    ("switchsim.table_ns_per_op_16k", "ns"),
    // Server threads, from /proc and ShardStats.
    ("tango-net.shard_cpu_us_per_op", "us"),
    ("tango-net.accept_cpu_ms", "ms"),
    ("tango-net.residual_us_per_op", "us"),
    ("tango-net.bytes_per_wakeup", "B"),
    ("tango-net.wakeups_per_kop", "count"),
    ("tango-net.would_block_per_kop", "count"),
    ("tango-net.watermark_stalls", "count"),
    ("tango-net.ctx_switches_per_kop", "count"),
    ("tango-net.connect_ms_per_conn", "ms"),
    ("tango-net.two_core_ops_per_s", "1/s"),
    // Simulation path.
    ("switchsim.testbed_ns_per_op", "ns"),
    ("switchsim.testbed_share", "%"),
    ("simnet.events_per_s", "1/s"),
    ("simnet.queue_ns_per_event_deep", "ns"),
    ("simnet.queue_ns_per_event_shallow", "ns"),
    ("tango-sched.scheduler_ns_per_op", "ns"),
    ("tango-sched.prepare_ms", "ms"),
    ("tango-sched.executor_ns_per_op", "ns"),
    ("tango.driver_ns_per_op", "ns"),
    ("tango.db_json_us", "us"),
    ("workloads.dag_gen_ms", "ms"),
    ("bench.lower_ms", "ms"),
    // Fleet inference over TCP (virtual-time server).
    ("tango-net.vt_rtt_p50_us", "us"),
    ("tango-net.vt_rtt_p99_us", "us"),
    ("tango-net.vt_ops_per_s", "1/s"),
    ("tango-net.vt_pump_share", "%"),
    ("tango-net.vt_peak_rss_mib", "MiB"),
    // The cost of looking.
    ("trace.overhead_pct", "%"),
];

/// Measured values by metric name; absent names read as 0.
#[derive(Debug, Default)]
pub struct Measured(Vec<(&'static str, f64)>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The values in `table` order, so every run prints every name.
    #[must_use]
    pub fn into_metrics(self, table: &'static [(&'static str, &'static str)]) -> Vec<Metric> {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table this run prints"
            );
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .0
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                Metric::new(name, value, unit)
            })
            .collect()
    }
}

/// Times `f`: wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// What one timed repetition took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Took {
    pub wall_s: f64,
    /// Of `wall_s`, what the hypervisor gave to another guest
    /// ([`host::Placement::stolen_s`]).
    pub stolen_s: f64,
}

impl Took {
    /// Seconds the run's CPU was ours: what rates are taken over. On a
    /// box of one's own it is the wall time. On this one the neighbours
    /// took 1 % of the CPU in one hour and 12 % in the next, in bursts of
    /// a second or two, and a rate per wall second moved by as much.
    #[must_use]
    pub fn ours_s(&self) -> f64 {
        self.wall_s - self.stolen_s
    }
}

impl std::ops::AddAssign for Took {
    fn add_assign(&mut self, other: Took) {
        self.wall_s += other.wall_s;
        self.stolen_s += other.stolen_s;
    }
}

/// Times one repetition (or a part of one a tenth of a second long or
/// more: stolen time is counted in hundredths).
pub fn timed_rep<T>(f: impl FnOnce() -> T) -> (T, Took) {
    let stolen0 = host::Placement::stolen_s();
    let (out, wall_s) = timed(f);
    let stolen_s = (host::Placement::stolen_s() - stolen0).clamp(0.0, wall_s / 2.0);
    (out, Took { wall_s, stolen_s })
}

/// A run sets up again and again until this many seconds of set-ups
/// have been timed, [`MIN_SETUPS`] times at least and [`MAX_SETUPS`] at
/// most; `setup_s` is the median. A later change is held to `setup_s`,
/// and one set-up alone is a coin toss: a wire set-up is a millisecond
/// once warm and two the first time or two, the others are 50 to 150 ms
/// and drift by a third within a second.
const SETUP_SECONDS: f64 = 1.0;
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 41;

/// Sets up several times (see [`SETUP_SECONDS`]), timing each set-up
/// alone and dropping the previous one, untimed, before the next.
/// Returns the last set-up and every set-up's wall time.
pub fn set_up_several<T>(
    mut set_up: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<(T, Vec<f64>)> {
    let mut walls = Vec::new();
    let mut last = None;
    while walls.len() < MIN_SETUPS
        || (walls.len() < MAX_SETUPS && walls.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(last.take());
        let (made, wall_s) = timed(&mut set_up);
        walls.push(wall_s);
        last = Some(made?);
    }
    Ok((last.expect("MIN_SETUPS is at least one"), walls))
}

/// Runs `rep` until `seconds` of repetitions have been measured (at
/// least `min_reps`), returning each repetition's result; stops at the
/// first error.
pub fn try_repeat_for<T, E>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        out.push(rep(out.len())?);
    }
    Ok(out)
}

/// [`try_repeat_for`] for repetitions that cannot fail.
pub fn repeat_for<T>(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    match try_repeat_for(seconds, min_reps, |i| {
        Ok::<T, std::convert::Infallible>(rep(i))
    }) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Fills the end-to-end metrics. `ops_per_s` is the median repetition's
/// rate over the seconds the CPU was ours; its spread, the same per wall
/// second and the stolen share go to the notes. `peak_rss_mib` is
/// `warm_rss_mib`, the peak the caller read once set-up and the warm-up
/// repetition had run and before the first timed one: what the workload
/// needs to run once. The peak over the whole run is noted beside it, but
/// not reported, because it depends on how many repetitions `--seconds`
/// allowed.
pub fn end_to_end(
    out: &mut Outcome,
    ops_per_rep: f64,
    reps: &[Took],
    setups_s: &[f64],
    warm_rss_mib: f64,
) {
    let rate: Vec<f64> = reps.iter().map(|t| ops_per_rep / t.ours_s()).collect();
    let per_wall_s: Vec<f64> = reps.iter().map(|t| ops_per_rep / t.wall_s).collect();
    let (wall_s, stolen_s) = reps
        .iter()
        .fold((0.0, 0.0), |(w, s), t| (w + t.wall_s, s + t.stolen_s));
    out.notes.push(spread_note("ops_per_s", "1/s", &rate));
    out.notes
        .push(spread_note("ops per wall second", "1/s", &per_wall_s));
    out.notes.push(format!(
        "stolen: {stolen_s:.2} s of the repetitions' {wall_s:.2} s ({:.2} %) went to other guests",
        100.0 * stolen_s / wall_s
    ));
    out.notes.push(spread_note("setup_s", "s", setups_s));
    out.notes.push(format!(
        "peak_rss_mib: {warm_rss_mib:.3} MiB before the timed repetitions, {:.3} MiB after all {}",
        host::peak_rss_mib(),
        rate.len()
    ));
    let mut m = Measured::default();
    m.set("ops_per_s", median(&rate));
    m.set("peak_rss_mib", warm_rss_mib);
    m.set("setup_s", median(setups_s));
    out.metrics = m.into_metrics(END_TO_END);
}

/// Individual spans a traced run stores (totals cover every span).
pub const TRACE_KEEP: usize = 20_000;

/// Closes a traced run: states the cost of looking (median decorated
/// repetition against median plain one), fills the per-layer metrics,
/// notes every span name's totals, and writes the stored spans as
/// `trace_out/TRACE_<workload>.json` beside this crate.
pub fn finish_traced(
    out: &mut Outcome,
    workload: &str,
    mut m: Measured,
    rec: &Recorder,
    traced_wall_s: &[f64],
    plain_wall_s: &[f64],
) {
    m.set(
        "trace.overhead_pct",
        100.0 * (median(traced_wall_s) / median(plain_wall_s) - 1.0),
    );
    out.metrics = m.into_metrics(PER_LAYER);
    for (name, t) in rec.all_totals() {
        out.notes.push(format!(
            "span {name}: {} spans, total {:.3} ms, self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns() as f64 / 1e6
        ));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace_out");
    let path = dir.join(format!("TRACE_{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.chrome_trace(workload)));
    match written {
        Ok(()) => out
            .notes
            .push(format!("trace written to {}", path.display())),
        Err(e) => out.notes.push(format!("trace not written ({e})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_derives_the_base_and_other_seeds_differ() {
        let args = |seed| RunArgs {
            seed,
            seconds: 1.0,
            trace: false,
            quick: false,
        };
        assert_eq!(args(DEFAULT_SEED).derive(0xf1ee7), 0xf1ee7);
        let a = args(1).derive(0xf1ee7);
        let b = args(2).derive(0xf1ee7);
        assert_ne!(a, 0xf1ee7);
        assert_ne!(a, b);
        assert_eq!(a, args(1).derive(0xf1ee7));
        assert_eq!(args(1).scale(1000), 1000);
        let mut quick = args(1);
        quick.quick = true;
        assert_eq!(quick.scale(1000), 100);
    }

    #[test]
    fn every_table_name_is_printed_once_and_unknown_names_panic() {
        let mut m = Measured::default();
        m.set("probe_ops", 1.0);
        m.set("probe_ops", 2.0);
        let metrics = m.into_metrics(PER_LAYER);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let probe = metrics.iter().find(|m| m.name == "probe_ops").unwrap();
        assert_eq!(probe.value, 2.0);
        assert_eq!(metrics.iter().filter(|m| m.value != 0.0).count(), 1);
        let mut names: Vec<_> = PER_LAYER
            .iter()
            .chain(END_TO_END)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len() + END_TO_END.len());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_names_the_code_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = tango::json::Value::parse(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|v| v.as_str()).unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
