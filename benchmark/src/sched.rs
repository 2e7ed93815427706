//! `sched_dag`: a 100 k-operation update DAG dispatched under every
//! scheduler of the registry, on the simulation path.
//!
//! Deep queues everywhere: the executor's ready frontier, the
//! scheduler's keys, the calendar queue's pending set, and flow tables
//! at ten thousand entries and more per switch. No sockets.

use crate::common::{
    end_to_end, finish_traced, repeat_for, set_up_several, timed_rep, Measured, RunArgs, Took,
    TRACE_KEEP,
};
use crate::decor::{
    shared, SharedRecorder, TimedScheduler, SPAN_KEY, SPAN_ON_COMPLETION, SPAN_PREPARE,
};
use crate::layers;
use crate::report::{median, Outcome};
use crate::span::Recorder;
use bench::lower::lower_scenario;
use ofwire::types::Dpid;
use std::time::Instant;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::db::TangoDb;
use tango_sched::dag::RequestDag;
use tango_sched::executor::execute_with;
use tango_sched::schedulers::{registry, Scheduler};
use workloads::update_dag::{scaled_update_dag, UpdateDagConfig};

const SPAN_EXECUTE: &str = "sched.execute_with";
const DAG_OPS: u64 = 100_000;

/// The lowered world every scheduler run starts from.
pub struct World {
    tb: Testbed,
    dag: RequestDag,
    ops: u64,
    dag_gen_ms: f64,
    lower_ms: f64,
}

impl World {
    /// Generates the DAG and lowers it onto an OVS testbed. At the
    /// default seed this is `results/sched_sweep.txt`'s world exactly.
    #[must_use]
    pub fn build(args: &RunArgs) -> World {
        let ops = args.scale(DAG_OPS);
        let mut cfg = UpdateDagConfig::sweep(ops as usize);
        cfg.seed = args.derive(cfg.seed);
        let t0 = Instant::now();
        let scen = scaled_update_dag(&cfg);
        let dag_gen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut tb = Testbed::new(args.derive(0x5EED));
        let dpids: Vec<Dpid> = (1..=cfg.switches as u64).map(Dpid).collect();
        for &dpid in &dpids {
            tb.attach_default(dpid, SwitchProfile::ovs());
        }
        let t0 = Instant::now();
        let dag = lower_scenario(&mut tb, &dpids, &scen);
        let lower_ms = t0.elapsed().as_secs_f64() * 1e3;
        World {
            tb,
            dag,
            ops,
            dag_gen_ms,
            lower_ms,
        }
    }
}

/// One scheduler's run over the DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedRun {
    pub name: &'static str,
    pub makespan_s: f64,
    pub mean_completion_s: f64,
    pub completed: u64,
    pub failed: u64,
}

/// One repetition: every registry entry, serially, each on its own
/// clone of the world. Only the dispatch (`execute_with`) is timed.
pub struct Rep {
    pub runs: Vec<SchedRun>,
    pub events: u64,
    /// Time inside `execute_with`, summed over the schedulers.
    pub dispatch: Took,
}

/// Runs one repetition; with a live recorder every scheduler is
/// decorated and every dispatch is a span.
#[must_use]
pub fn rep(world: &World, rec: &SharedRecorder) -> Rep {
    let tracing = rec.borrow().is_on();
    let mut runs = Vec::new();
    let mut dispatch = Took::default();
    let events0 = simnet::sim::events_processed();
    for (i, entry) in registry().into_iter().enumerate() {
        let mut tb = world.tb.clone();
        let mut dag = world.dag.clone();
        let mut sched: Box<dyn Scheduler> = entry.build();
        if tracing {
            sched = Box::new(TimedScheduler::new(sched, rec.clone(), i as u64));
        }
        let db = TangoDb::new();
        let (report, took) = timed_rep(|| {
            rec.borrow_mut().enter(SPAN_EXECUTE, i as u64);
            let report = execute_with(&mut tb, &mut dag, &db, sched.as_mut(), entry.release);
            rec.borrow_mut().exit();
            report
        });
        dispatch += took;
        let report = report.expect("sweep DAGs are acyclic");
        runs.push(SchedRun {
            name: entry.name,
            makespan_s: report.makespan.as_secs_f64(),
            mean_completion_s: report.mean_completion_s(),
            completed: report.completed as u64,
            failed: report.failed as u64,
        });
    }
    Rep {
        runs,
        events: simnet::sim::events_processed() - events0,
        dispatch,
    }
}

fn check_rep(out: &mut Outcome, what: &str, world: &World, rep: &Rep, first: &Rep) {
    for run in &rep.runs {
        out.check(run.completed == world.ops && run.failed == 0, || {
            format!(
                "{what}: {} completed {} of {} ops, {} failed",
                run.name, run.completed, world.ops, run.failed
            )
        });
    }
    out.check(rep.runs == first.runs, || {
        format!("{what}: makespans differ from the first repetition")
    });
    out.check(rep.events == first.events, || {
        format!(
            "{what}: {} events, first repetition had {}",
            rep.events, first.events
        )
    });
}

fn count_ops(out: &mut Outcome, world: &World, rep: &Rep) {
    for run in &rep.runs {
        out.attempted += world.ops;
        out.failed += world.ops - run.completed.min(world.ops);
    }
}

/// The `sched_dag` workload.
pub fn run(args: &RunArgs) -> std::io::Result<Outcome> {
    let mut out = Outcome::new();
    let off = shared(Recorder::off());
    // Set-up is generating the DAG and lowering it; then one untimed
    // repetition warms the allocator and gives the reference results.
    let (world, setups) = set_up_several(|| Ok(World::build(args)))?;
    let first = rep(&world, &off);
    let ops_per_rep = (world.ops * first.runs.len() as u64) as f64;
    check_rep(&mut out, "warm-up", &world, &first, &first);
    crate::expected::check_sched(&mut out, args, &first);
    let warm_rss_mib = crate::host::peak_rss_mib();

    if !args.trace {
        let reps = repeat_for(args.seconds, 3, |_| rep(&world, &off));
        for (i, r) in reps.iter().enumerate() {
            check_rep(&mut out, &format!("rep {i}"), &world, r, &first);
            count_ops(&mut out, &world, r);
        }
        let took: Vec<Took> = reps.iter().map(|r| r.dispatch).collect();
        end_to_end(&mut out, ops_per_rep, &took, &setups, warm_rss_mib);
        return Ok(out);
    }

    let rec = shared(Recorder::on(TRACE_KEEP));
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    repeat_for(args.seconds, 2, |i| {
        let tracing = i % 2 == 1;
        let r = rep(&world, if tracing { &rec } else { &off });
        check_rep(&mut out, &format!("traced rep {i}"), &world, &r, &first);
        count_ops(&mut out, &world, &r);
        if tracing { &mut traced } else { &mut plain }.push(r.dispatch.wall_s);
    });
    let testbed_ns = layers::testbed_flat_replay(&mut world.tb.clone(), &world.dag);
    let rec = rec.borrow();
    let traced_ops = traced.len() as f64 * ops_per_rep;
    let sched_ns = rec.totals(SPAN_PREPARE).total_ns
        + rec.totals(SPAN_KEY).total_ns
        + rec.totals(SPAN_ON_COMPLETION).total_ns;
    let execute = rec.totals(SPAN_EXECUTE);
    let tango = first.runs.iter().find(|r| r.name == "tango");
    let mut m = Measured::default();
    m.set("makespan_sim_s", tango.map_or(0.0, |r| r.makespan_s));
    m.set("simnet.events_per_op", first.events as f64 / ops_per_rep);
    m.set("simnet.events_per_s", first.events as f64 / median(&plain));
    m.set(
        "tango-sched.scheduler_ns_per_op",
        sched_ns as f64 / traced_ops,
    );
    m.set(
        "tango-sched.prepare_ms",
        rec.totals(SPAN_PREPARE).total_ns as f64 / execute.count as f64 / 1e6,
    );
    m.set("switchsim.testbed_ns_per_op", testbed_ns);
    m.set(
        "switchsim.testbed_share",
        100.0 * testbed_ns / (execute.total_ns as f64 / traced_ops),
    );
    // A residual, not a measurement: dispatch wall − scheduler − the
    // Testbed's cost for the same ops without an executor above it.
    m.set(
        "tango-sched.executor_ns_per_op",
        execute.self_ns() as f64 / traced_ops - testbed_ns,
    );
    m.set(
        "switchsim.table_ns_per_op_16k",
        layers::table_ns_per_op_for_seed(args.derive(0x7ab1e), 15 * 1024),
    );
    m.set(
        "simnet.queue_ns_per_event_deep",
        layers::queue_ns_per_event(10_000, args.derive(0x9e0e)),
    );
    m.set("workloads.dag_gen_ms", world.dag_gen_ms);
    m.set("bench.lower_ms", world.lower_ms);
    finish_traced(&mut out, "sched_dag", m, &rec, &traced, &plain);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_decorator_is_observation_only() {
        let args = RunArgs {
            seed: 3,
            seconds: 0.0,
            trace: false,
            quick: true,
        };
        let world = World::build(&args);
        assert_eq!(world.ops, 10_000);
        let bare = rep(&world, &shared(Recorder::off()));
        let rec = shared(Recorder::on(256));
        let decorated = rep(&world, &rec);
        assert_eq!(bare.runs, decorated.runs);
        assert_eq!(bare.runs.len(), registry().len());
        for run in &bare.runs {
            assert_eq!(run.completed, world.ops, "{}", run.name);
            assert_eq!(run.failed, 0);
        }
        let rec = rec.borrow();
        // One key per request per scheduler run, one prepare per run.
        assert_eq!(
            rec.totals(SPAN_KEY).count,
            world.ops * bare.runs.len() as u64
        );
        assert_eq!(rec.totals(SPAN_PREPARE).count, bare.runs.len() as u64);
        let execute = rec.totals(SPAN_EXECUTE);
        assert_eq!(execute.count, bare.runs.len() as u64);
        // Scheduler spans are the only children of a dispatch span, so
        // scheduler + (executor + testbed) is the dispatch wall exactly.
        let sched_ns = rec.totals(SPAN_PREPARE).total_ns
            + rec.totals(SPAN_KEY).total_ns
            + rec.totals(SPAN_ON_COMPLETION).total_ns;
        assert_eq!(execute.child_ns, sched_ns);
        assert_eq!(execute.self_ns() + sched_ns, execute.total_ns);
    }
}
