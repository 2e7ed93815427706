//! `fleet_infer` and `fleet_tcp`: Algorithm 1 (and friends) over a
//! heterogeneous switch fleet — once through the in-memory `Testbed`,
//! once through `TcpFleet` against a virtual-time `AgentServer`.
//!
//! One op is in flight per switch, so the event queue stays shallow,
//! while the probes drive every table to capacity: TCAM shifting, cache
//! policy, latency draws and the `tango` drivers do the work; the
//! executor and schedulers do none.

use crate::common::{
    end_to_end, finish_traced, repeat_for, set_up_several, timed, timed_rep, try_repeat_for,
    Measured, RunArgs, Took, TRACE_KEEP,
};
use crate::decor::{shared, SharedRecorder, TimedPath, SPAN_COMPLETION, SPAN_SUBMIT, SPAN_WARP};
use crate::hist::Histogram;
use crate::host;
use crate::layers;
use crate::report::{median, Outcome};
use crate::span::Recorder;
use ofwire::types::Dpid;
use simnet::link::Link;
use switchsim::cache::CachePolicy;
use switchsim::control::ControlPath;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::db::TangoDb;
use tango::fleet::{run_inference, FleetJob, FleetOutcome};
use tango::infer_policy::PolicyProbeConfig;
use tango::infer_size::SizeProbeConfig;
use tango::pattern::RuleKind;
use tango_net::control::TcpFleet;
use tango_net::server::{AgentServer, ServerConfig, ServerMode};

const SPAN_INFER: &str = "fleet.run_inference";
const SPAN_DB: &str = "tango.db_json";
/// The paper's headline: table sizes within 5 % of the truth.
const MAX_SIZE_ERR_PCT: f64 = 5.0;

/// A fleet and the jobs to run against it.
pub struct Plan {
    testbed_seed: u64,
    roster: Vec<(Dpid, SwitchProfile)>,
    jobs: Vec<FleetJob>,
    /// Fast-layer capacity each size job should find, by job index
    /// (`None` for jobs with no bounded truth).
    truth: Vec<Option<f64>>,
}

/// A size job as the shipped callers configure one (`bench`'s
/// `infer_size` experiment, `tango-sched`'s controller): the default
/// probe — 600 sampling trials per layer — with only the rule cap and
/// the seed set (the default seed, made distinct per switch).
fn size_job(args: &RunArgs, dpid: Dpid, max_flows: usize) -> FleetJob {
    FleetJob::size(
        dpid,
        RuleKind::L3,
        SizeProbeConfig {
            max_flows,
            seed: args.derive(SizeProbeConfig::default().seed ^ dpid.0),
            ..SizeProbeConfig::default()
        },
    )
}

impl Plan {
    /// The four-vendor roster under size inference, plus one
    /// policy-cached member under policy inference and one TCAM member
    /// under geometry classification.
    #[must_use]
    pub fn infer(args: &RunArgs) -> Plan {
        let cache = 256;
        let roster = vec![
            (Dpid(1), SwitchProfile::ovs()),
            (Dpid(2), SwitchProfile::vendor1()),
            (Dpid(3), SwitchProfile::vendor2()),
            (Dpid(4), SwitchProfile::vendor3()),
            (
                Dpid(5),
                SwitchProfile::generic_cached(cache, CachePolicy::lru()),
            ),
            (Dpid(6), SwitchProfile::vendor3()),
        ];
        // Rule caps as `infer_size::run_vendors` sets them: twice the
        // TCAM rounded up to a power of two (vendor #1 holds 4095 L3
        // rules, one slot going to its default route, so its cap must
        // clear that for the probe to see the spill into software); the
        // default cap for OVS, which never rejects.
        let cap = |full: usize| if args.quick { full.min(3000) } else { full };
        let jobs = vec![
            size_job(args, Dpid(1), cap(8192)),
            size_job(args, Dpid(2), cap(8192)),
            size_job(args, Dpid(3), cap(4096)),
            size_job(args, Dpid(4), cap(2048)),
            FleetJob::policy(
                Dpid(5),
                RuleKind::L3,
                cache as usize,
                PolicyProbeConfig::default(),
            ),
            FleetJob::geometry(Dpid(6), 1024, 400),
        ];
        let truth = vec![
            None,
            (!args.quick).then_some(4095.0),
            Some(2560.0),
            Some(767.0),
            None,
            None,
        ];
        Plan {
            testbed_seed: args.derive(0xf1ee7),
            roster,
            jobs,
            truth,
        }
    }

    /// The two-switch roster `fleet_tcp` carries over sockets.
    #[must_use]
    pub fn tcp(args: &RunArgs) -> Plan {
        let cap = if args.quick { 1500 } else { 6000 };
        Plan {
            testbed_seed: args.derive(0xf1ee7),
            roster: vec![
                (Dpid(1), SwitchProfile::ovs()),
                (Dpid(2), SwitchProfile::vendor1()),
            ],
            jobs: vec![size_job(args, Dpid(1), cap), size_job(args, Dpid(2), cap)],
            truth: vec![None, (!args.quick).then_some(4095.0)],
        }
    }

    fn link() -> Link {
        Link::control_channel(0.1)
    }

    fn testbed(&self) -> Testbed {
        let mut tb = Testbed::new(self.testbed_seed);
        for (dpid, profile) in &self.roster {
            tb.attach(*dpid, profile.clone(), Plan::link());
        }
        tb
    }
}

/// What one inference pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Operations submitted.
    pub ops: u64,
    /// How many of them were data-plane probe packets.
    pub probes: u64,
    /// Flow-mods the ops carried (a batch is one op).
    pub flow_mods: u64,
    /// Virtual seconds to characterise the fleet.
    pub sim_s: f64,
    /// `TangoDb::to_json` of the ingested outcomes.
    pub db_json: String,
    /// Largest |estimate − truth| over the size jobs with a truth, %.
    pub size_err_pct_max: f64,
    /// Whether `run_inference` returned an error.
    pub probe_error: Option<String>,
}

/// Runs the plan's jobs over `path` and folds the outcomes into a
/// knowledge base, with spans around the two calls into `tango`.
fn infer_over<C: ControlPath>(plan: &Plan, path: C, rec: &SharedRecorder) -> (Pass, TimedPath<C>) {
    let mut path = TimedPath::new(path, rec.clone());
    let start = path.now();
    rec.borrow_mut().enter(SPAN_INFER, 0);
    let result = run_inference(&mut path, &plan.jobs);
    rec.borrow_mut().exit();
    let sim_s = path.now().since(start).as_secs_f64();
    let mut pass = Pass {
        ops: path.ops,
        probes: path.probes,
        flow_mods: path.flow_mods,
        sim_s,
        db_json: String::new(),
        size_err_pct_max: 0.0,
        probe_error: None,
    };
    match result {
        Ok(outcomes) => {
            rec.borrow_mut().enter(SPAN_DB, 0);
            let mut db = TangoDb::new();
            db.ingest_fleet(&plan.jobs, &outcomes);
            pass.db_json = db.to_json();
            rec.borrow_mut().exit();
            pass.size_err_pct_max = size_err_pct_max(plan, &outcomes);
        }
        Err(e) => pass.probe_error = Some(e.to_string()),
    }
    (pass, path)
}

fn size_err_pct_max(plan: &Plan, outcomes: &[FleetOutcome]) -> f64 {
    plan.truth
        .iter()
        .zip(outcomes)
        .filter_map(|(truth, outcome)| {
            let truth = (*truth)?;
            let est = outcome.as_size()?.fast_layer_size().unwrap_or(0.0);
            Some((est - truth).abs() / truth * 100.0)
        })
        .fold(0.0, f64::max)
}

/// One in-memory pass on a fresh testbed.
#[must_use]
pub fn pass_in_memory(plan: &Plan, rec: &SharedRecorder) -> Pass {
    infer_over(plan, plan.testbed(), rec).0
}

/// Checks one pass against the reference pass of the same plan: the
/// knowledge base, the virtual clock and the op count must be the
/// reference's exactly.
fn check_pass(out: &mut Outcome, what: &str, pass: &Pass, reference: &Pass) {
    out.check(pass.probe_error.is_none(), || {
        format!("{what}: run_inference failed: {:?}", pass.probe_error)
    });
    out.check(pass.db_json == reference.db_json, || {
        format!("{what}: TangoDb JSON differs from the reference pass")
    });
    out.check(pass.sim_s == reference.sim_s, || {
        format!(
            "{what}: virtual time {} != reference {}",
            pass.sim_s, reference.sim_s
        )
    });
    out.check(pass.ops == reference.ops, || {
        format!(
            "{what}: {} probe ops != reference {}",
            pass.ops, reference.ops
        )
    });
}

/// Checks the reference pass itself. The paper's 5 % is a hard check at
/// the default seed, whose estimates are pinned; Algorithm 1 samples, so
/// at 600 trials a half-full layer is outside 5 % at about one seed in
/// twelve, and any other seed states its error without failing on it.
fn check_reference(out: &mut Outcome, args: &RunArgs, workload: &str, reference: &Pass) {
    out.check(reference.probe_error.is_none(), || {
        format!(
            "reference: run_inference failed: {:?}",
            reference.probe_error
        )
    });
    let err = reference.size_err_pct_max;
    if args.is_default_seed() {
        out.check(err <= MAX_SIZE_ERR_PCT, || {
            format!("reference: size estimate off by {err:.2} %")
        });
    } else if err > MAX_SIZE_ERR_PCT {
        out.notes.push(format!(
            "size estimate off by {err:.2} % at this seed (the 5 % check is pinned to the default seed)"
        ));
    }
    out.notes.push(format!(
        "op mix: {} control ops = {} probe packets + {} others carrying {} flow-mods; per packet or flow-mod, {:.1} % are table writes",
        reference.ops,
        reference.probes,
        reference.ops - reference.probes,
        reference.flow_mods,
        100.0 * reference.flow_mods as f64 / (reference.flow_mods + reference.probes) as f64
    ));
    crate::expected::check_fleet(out, args, workload, reference);
}

fn failed_ops(pass: &Pass, reference: &Pass) -> u64 {
    if pass.probe_error.is_some() || pass.db_json != reference.db_json {
        pass.ops.max(1)
    } else {
        0
    }
}

/// Time spent inside the decorated `ControlPath`, over every span.
fn control_path_ns(rec: &Recorder) -> u64 {
    [SPAN_SUBMIT, SPAN_COMPLETION, SPAN_WARP]
        .iter()
        .map(|name| rec.totals(name).total_ns)
        .sum()
}

fn exact_metrics(m: &mut Measured, reference: &Pass) {
    m.set("infer_sim_s", reference.sim_s);
    m.set("size_err_pct_max", reference.size_err_pct_max);
    m.set("probe_ops", reference.ops as f64);
}

/// The `fleet_infer` workload.
pub fn run_infer(args: &RunArgs) -> std::io::Result<Outcome> {
    let mut out = Outcome::new();
    let off = shared(Recorder::off());
    // Set-up: build the plan and take the reference pass every later
    // repetition must reproduce byte for byte.
    let ((plan, reference, events), setups) = set_up_several(|| {
        let plan = Plan::infer(args);
        let events0 = simnet::sim::events_processed();
        let reference = pass_in_memory(&plan, &off);
        Ok((plan, reference, simnet::sim::events_processed() - events0))
    })?;
    check_reference(&mut out, args, "fleet_infer", &reference);
    let ops = reference.ops as f64;
    let warm_rss_mib = host::peak_rss_mib();

    if !args.trace {
        let reps: Vec<(Pass, Took)> = repeat_for(args.seconds, 3, |_| {
            timed_rep(|| pass_in_memory(&plan, &off))
        });
        for (i, (pass, _)) in reps.iter().enumerate() {
            check_pass(&mut out, &format!("rep {i}"), pass, &reference);
            out.attempted += pass.ops;
            out.failed += failed_ops(pass, &reference);
        }
        let took: Vec<Took> = reps.iter().map(|(_, t)| *t).collect();
        end_to_end(&mut out, ops, &took, &setups, warm_rss_mib);
        return Ok(out);
    }

    // Traced: alternate plain and decorated passes; the difference is
    // the cost of looking.
    let rec = shared(Recorder::on(TRACE_KEEP));
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    repeat_for(args.seconds, 2, |i| {
        let which = if i % 2 == 0 { &off } else { &rec };
        let (pass, wall_s) = timed(|| pass_in_memory(&plan, which));
        check_pass(&mut out, &format!("traced rep {i}"), &pass, &reference);
        out.attempted += pass.ops;
        out.failed += failed_ops(&pass, &reference);
        if i % 2 == 0 { &mut plain } else { &mut traced }.push(wall_s);
    });
    let rec = rec.borrow();
    let passes = traced.len() as f64;
    let per_op = |ns: u64| ns as f64 / (passes * ops);
    let path_ns = control_path_ns(&rec);
    let infer = rec.totals(SPAN_INFER);
    let mut m = Measured::default();
    exact_metrics(&mut m, &reference);
    m.set("simnet.events_per_op", events as f64 / ops);
    m.set("simnet.events_per_s", events as f64 / median(&plain));
    m.set("switchsim.testbed_ns_per_op", per_op(path_ns));
    m.set(
        "switchsim.testbed_share",
        100.0 * path_ns as f64 / infer.total_ns as f64,
    );
    // Self time of run_inference: everything outside the ControlPath.
    m.set("tango.driver_ns_per_op", per_op(infer.self_ns()));
    m.set(
        "tango.db_json_us",
        rec.totals(SPAN_DB).total_ns as f64 / passes / 1e3,
    );
    m.set(
        "simnet.queue_ns_per_event_shallow",
        layers::queue_ns_per_event(8, args.derive(0x9e0e)),
    );
    finish_traced(&mut out, "fleet_infer", m, &rec, &traced, &plain);
    Ok(out)
}

/// What one pass over TCP adds to [`Pass`]: the decorator's round-trip
/// times and the server's closing counters.
struct TcpPass {
    pass: Pass,
    rtt: Histogram,
    /// Bytes the shard moved in both directions.
    wire_bytes: u64,
    /// From spawn to last completion.
    took: Took,
}

/// One pass over loopback TCP: a fresh virtual-time server (an
/// `AgentServer` exits once its connections have closed, and a
/// reconnect can race the old session's release of its roster slot),
/// one connection per switch, the plan's jobs, shutdown. The server's
/// own counters are checked against the controller's.
fn pass_over_tcp(plan: &Plan, rec: &SharedRecorder, out: &mut Outcome) -> std::io::Result<TcpPass> {
    let (connected, took) = timed_rep(|| {
        let server = AgentServer::spawn_with(
            plan.testbed_seed,
            plan.roster.clone(),
            ServerMode::Virtual { link: Plan::link() },
            ServerConfig {
                shards: 1,
                telemetry: false,
            },
        )?;
        let dpids: Vec<Dpid> = plan.jobs.iter().map(|j| j.dpid).collect();
        let fleet = TcpFleet::connect(server.addr(), &dpids)?;
        let (pass, path) = infer_over(plan, fleet, rec);
        // Dropping the path closes the connections.
        std::io::Result::Ok((server, pass, path.rtt.clone()))
    });
    let (server, pass, rtt) = connected?;
    let stats = server.shutdown()?;
    out.check(stats.errors == 0, || {
        format!("server saw {} protocol errors", stats.errors)
    });
    out.check(stats.ops == pass.ops, || {
        format!(
            "server completed {} ops, controller submitted {}",
            stats.ops, pass.ops
        )
    });
    let wire_bytes = stats.shards.iter().map(|s| s.bytes_in + s.bytes_out).sum();
    Ok(TcpPass {
        pass,
        rtt,
        wire_bytes,
        took,
    })
}

/// The `fleet_tcp` workload.
pub fn run_tcp(args: &RunArgs) -> std::io::Result<Outcome> {
    let mut out = Outcome::new();
    let off = shared(Recorder::off());
    // Set-up: the in-memory reference pass. Then, untimed, one pass over
    // TCP so the allocator and the loopback path have been through a
    // cycle.
    let ((plan, reference), setups) = set_up_several(|| {
        let plan = Plan::tcp(args);
        let reference = pass_in_memory(&plan, &off);
        Ok((plan, reference))
    })?;
    // The gated `peak_rss_mib` is read here, before any server thread
    // exists. With the server's threads in, the peak lands on one of
    // several levels between 20 and 29 MiB: steady at one seed in one
    // build, but another seed, or an unrelated line added to the build,
    // moves it a level (glibc gives each thread an arena and raises its
    // mmap threshold as large buffers are freed, so the level follows
    // the order of frees). No bound over seeds holds that; it is the
    // per-layer `tango-net.vt_peak_rss_mib`.
    let controller_rss_mib = host::peak_rss_mib();
    let warm = pass_over_tcp(&plan, &off, &mut out)?;
    check_reference(&mut out, args, "fleet_tcp", &reference);
    check_pass(&mut out, "warm-up over TCP", &warm.pass, &reference);
    let ops = reference.ops as f64;
    let with_server_rss_mib = host::peak_rss_mib();
    out.notes.push(format!(
        "peak_rss_mib is the controller and the in-memory reference pass; {with_server_rss_mib:.3} MiB once one pass over TCP had run"
    ));

    let rec = shared(if args.trace {
        Recorder::on(TRACE_KEEP)
    } else {
        Recorder::off()
    });
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut rtt = Histogram::new();
    try_repeat_for(args.seconds, 3, |i| {
        let tracing = args.trace && i % 2 == 1;
        let which = if tracing { &rec } else { &off };
        let tcp = pass_over_tcp(&plan, which, &mut out)?;
        check_pass(&mut out, &format!("rep {i}"), &tcp.pass, &reference);
        out.check(tcp.wire_bytes == warm.wire_bytes, || {
            format!(
                "rep {i}: {} B on the wire, warm-up had {}",
                tcp.wire_bytes, warm.wire_bytes
            )
        });
        out.attempted += tcp.pass.ops;
        out.failed += failed_ops(&tcp.pass, &reference);
        if tracing {
            rtt = tcp.rtt;
            traced.push(tcp.took.wall_s);
        } else {
            plain.push(tcp.took);
        }
        std::io::Result::Ok(())
    })?;

    if !args.trace {
        end_to_end(&mut out, ops, &plain, &setups, controller_rss_mib);
        return Ok(out);
    }
    let rec = rec.borrow();
    let plain: Vec<f64> = plain.iter().map(|t| t.wall_s).collect();
    let n_traced = traced.len() as f64;
    let mut m = Measured::default();
    exact_metrics(&mut m, &reference);
    m.set("tango-net.vt_bytes_per_op", warm.wire_bytes as f64 / ops);
    m.set("tango-net.vt_rtt_p50_us", rtt.quantile(0.5) as f64 / 1e3);
    m.set("tango-net.vt_rtt_p99_us", rtt.quantile(0.99) as f64 / 1e3);
    m.set("tango-net.vt_ops_per_s", ops / median(&plain));
    m.set("tango-net.vt_peak_rss_mib", with_server_rss_mib);
    // Share of the inference wall spent inside TcpFleet (submit + pump).
    let path_ns = control_path_ns(&rec);
    let infer = rec.totals(SPAN_INFER);
    m.set(
        "tango-net.vt_pump_share",
        100.0 * path_ns as f64 / infer.total_ns as f64,
    );
    m.set(
        "tango.driver_ns_per_op",
        infer.self_ns() as f64 / (n_traced * ops),
    );
    m.set(
        "tango.db_json_us",
        rec.totals(SPAN_DB).total_ns as f64 / n_traced / 1e3,
    );
    finish_traced(&mut out, "fleet_tcp", m, &rec, &traced, &plain);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> RunArgs {
        RunArgs {
            seed,
            seconds: 0.0,
            trace: false,
            quick: true,
        }
    }

    #[test]
    fn control_path_decorator_is_observation_only() {
        let args = quick(7);
        let plan = Plan::infer(&args);
        // Undecorated: straight onto the testbed.
        let mut tb = plan.testbed();
        let start = tb.now();
        let outcomes = run_inference(&mut tb, &plan.jobs).unwrap();
        let mut db = TangoDb::new();
        db.ingest_fleet(&plan.jobs, &outcomes);
        let bare_json = db.to_json();
        let bare_sim_s = tb.now().since(start).as_secs_f64();

        let off = pass_in_memory(&plan, &shared(Recorder::off()));
        let rec = shared(Recorder::on(1024));
        let on = pass_in_memory(&plan, &rec);
        assert_eq!(off.db_json, bare_json);
        assert_eq!(on.db_json, bare_json);
        assert_eq!(off.sim_s, bare_sim_s);
        assert_eq!(on, off);
        assert!(on.ops > 1000);
        let rec = rec.borrow();
        assert_eq!(rec.totals(SPAN_SUBMIT).count, on.ops);
        // The driver's self time plus the path's time is the whole call.
        let infer = rec.totals(SPAN_INFER);
        assert_eq!(
            infer.self_ns() + infer.child_ns,
            infer.total_ns,
            "self time is the remainder"
        );
    }

    #[test]
    fn tcp_pass_reproduces_the_in_memory_reference() {
        let args = quick(11);
        let plan = Plan::tcp(&args);
        let reference = pass_in_memory(&plan, &shared(Recorder::off()));
        let mut out = Outcome::new();
        let tcp = pass_over_tcp(&plan, &shared(Recorder::on(64)), &mut out).unwrap();
        assert!(out.correct, "{:?}", out.notes);
        assert_eq!(tcp.pass, reference);
        assert_eq!(tcp.rtt.len(), tcp.pass.ops);
        assert!(tcp.wire_bytes > tcp.pass.ops * 100);
    }
}
