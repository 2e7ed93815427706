//! `wire_bulk` and `wire_shallow`: flow-mods over loopback TCP against a
//! realtime `AgentServer`.
//!
//! Same server, same stream, two load shapes. A deep window
//! (`wire_bulk`) makes per-frame CPU and bytes-per-syscall batching do
//! the work; a shallow one (`wire_shallow`) makes per-wakeup cost, the
//! pacer's yield/sleep policy and syscalls per op do it. A change that
//! buys bulk throughput by delaying flushes shows on the shallow
//! workload as fewer ops per second (closed loop: window ÷ latency).
//!
//! Loopback only, one process: one generator thread (this one), two
//! connections, one reactor shard, one acceptor thread.

use crate::common::{
    end_to_end, finish_traced, set_up_several, timed_rep, try_repeat_for, Measured, RunArgs, Took,
    TRACE_KEEP,
};
use crate::gen::{drive, flow_mod_cycle, Conn, DriveEnd, LoadShape};
use crate::hist::Histogram;
use crate::host;
use crate::layers;
use crate::report::Outcome;
use crate::span::Recorder;
use ofwire::types::{Dpid, Xid};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use switchsim::profiles::SwitchProfile;
use tango_net::server::{AgentServer, ServerConfig, ServerHandle, ServerMode};
use tango_net::vt::VtMsg;

const CONNS: u64 = 2;
/// A hang becomes failed ops, not a stuck run.
const WATCHDOG: Duration = Duration::from_secs(60);
const SPAN_REP: &str = "wire.rep";

/// One wire workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct WireParams {
    pub name: &'static str,
    pub shape: LoadShape,
    /// Flow-mods per connection per timed repetition.
    pub rep_ops_per_conn: u64,
    /// Flow-mods per connection in the untimed warm-up.
    pub warm_ops_per_conn: u64,
    /// Flow-mods per connection in the traced run's one repetition with
    /// the server on a CPU of its own (slower there, so fewer).
    pub two_core_ops_per_conn: u64,
}

pub const BULK: WireParams = WireParams {
    name: "wire_bulk",
    shape: LoadShape {
        window: 128,
        fence_every: 32,
    },
    rep_ops_per_conn: 5_000_000,
    warm_ops_per_conn: 250_000,
    two_core_ops_per_conn: 2_000_000,
};

pub const SHALLOW: WireParams = WireParams {
    name: "wire_shallow",
    shape: LoadShape {
        window: 8,
        fence_every: 8,
    },
    rep_ops_per_conn: 2_000_000,
    warm_ops_per_conn: 100_000,
    two_core_ops_per_conn: 600_000,
};

/// A running server with its generator connections bound to it.
struct Rig {
    // Dropped first, so a discarded rig's server sees its connections
    // close before it is told to stop.
    conns: Vec<Conn>,
    server: ServerHandle,
    connect_ms_per_conn: f64,
    /// Whether every connection's first flow-mod was acknowledged.
    answering: bool,
}

impl Rig {
    /// Spawns the server — on the second CPU with `two_core`, beside the
    /// generator otherwise — pre-encodes each connection's stream, and
    /// connects (hello, shard hand-off, first reply). `None` when
    /// `two_core` is asked of a process allowed one CPU.
    fn set_up(args: &RunArgs, p: &WireParams, two_core: bool) -> io::Result<Option<Rig>> {
        let roster = (1..=CONNS)
            .map(|d| (Dpid(d), SwitchProfile::ovs()))
            .collect();
        let spawn = || {
            AgentServer::spawn_with(
                args.derive(0x5e7e),
                roster,
                ServerMode::Realtime,
                ServerConfig {
                    shards: 1,
                    telemetry: false,
                },
            )
        };
        let server = if two_core {
            match host::Placement::spawn_on_other_cpu(spawn) {
                Some(server) => server?,
                None => return Ok(None),
            }
        } else {
            spawn()?
        };
        let t0 = Instant::now();
        let mut conns = Vec::new();
        for dpid in 1..=CONNS {
            let hello = VtMsg::Hello { dpid }.to_message().to_bytes(Xid(0));
            let cycle = flow_mod_cycle(args.derive(0xc1c1e ^ dpid));
            let sock = TcpStream::connect(server.addr())?;
            conns.push(Conn::new(dpid, sock, cycle, &hello)?);
        }
        // One flow-mod and its fence per connection: bound and answering.
        let first = drive(
            &mut conns,
            p.shape,
            1,
            WATCHDOG,
            &mut Histogram::new(),
            &mut Recorder::off(),
        )?;
        Ok(Some(Rig {
            conns,
            server,
            connect_ms_per_conn: t0.elapsed().as_secs_f64() * 1e3 / CONNS as f64,
            answering: first == DriveEnd::Done,
        }))
    }

    /// The untimed warm-up repetition: tables, buffers and the loopback
    /// path have been through a few rotations before anything is timed.
    fn warm_up(&mut self, args: &RunArgs, p: &WireParams, out: &mut Outcome) -> io::Result<()> {
        let warm = drive(
            &mut self.conns,
            p.shape,
            args.scale(p.warm_ops_per_conn),
            WATCHDOG,
            &mut Histogram::new(),
            &mut Recorder::off(),
        )?;
        out.check(self.answering && warm == DriveEnd::Done, || {
            "connect or warm-up hit the watchdog".into()
        });
        Ok(())
    }

    /// Closes the connections, stops the server, and checks that both
    /// ends agree on what crossed the wire.
    fn tear_down(self, out: &mut Outcome) -> io::Result<tango_net::server::ServerStats> {
        let sent: u64 = self.conns.iter().map(|c| c.n.sent + c.n.fences_sent).sum();
        let bytes_out: u64 = self.conns.iter().map(|c| c.n.bytes_out).sum();
        for c in &self.conns {
            out.check(c.n.error_replies == 0, || {
                format!("conn {}: {} Error replies", c.id, c.n.error_replies)
            });
            out.check(c.n.out_of_order == 0, || {
                format!(
                    "conn {}: {} fences answered out of order",
                    c.id, c.n.out_of_order
                )
            });
            out.check(c.n.acked == c.n.sent && !c.in_flight(), || {
                format!("conn {}: {} sent, {} acked", c.id, c.n.sent, c.n.acked)
            });
        }
        drop(self.conns);
        let stats = self.server.shutdown()?;
        out.check(stats.errors == 0, || {
            format!("server saw {} protocol errors", stats.errors)
        });
        out.check(stats.ops == sent, || {
            format!(
                "server dispatched {} messages, generator sent {sent}",
                stats.ops
            )
        });
        // The connection's counters travel with it from the acceptor to
        // its shard, so every byte we wrote is a byte the server read.
        let server_in: u64 = stats.shards.iter().map(|s| s.bytes_in).sum();
        out.check(server_in == bytes_out, || {
            format!("server read {server_in} B, generator wrote {bytes_out} B")
        });
        Ok(stats)
    }
}

struct Rep {
    took: Took,
    end: DriveEnd,
}

fn one_rep(
    rig: &mut Rig,
    p: &WireParams,
    ops_per_conn: u64,
    lat: &mut Histogram,
    rec: &mut Recorder,
) -> io::Result<Rep> {
    let (end, took) = timed_rep(|| {
        rec.enter(SPAN_REP, 0);
        let end = drive(&mut rig.conns, p.shape, ops_per_conn, WATCHDOG, lat, rec);
        rec.exit();
        end
    });
    Ok(Rep { took, end: end? })
}

/// Runs a wire workload.
pub fn run(args: &RunArgs, p: &WireParams) -> io::Result<Outcome> {
    let mut out = Outcome::new();
    out.notes.push(format!(
        "transport: loopback TCP, {CONNS} connections x window {} x fence every {}, 1 generator thread, 1 shard",
        p.shape.window, p.shape.fence_every
    ));
    let (rig, setups) = set_up_several(|| Rig::set_up(args, p, false))?;
    let mut rig = rig.expect("one CPU is enough for the shared placement");
    let ops_per_conn = args.scale(p.rep_ops_per_conn);
    let ops_per_rep = (ops_per_conn * CONNS) as f64;
    let mut lat = Histogram::new();
    let mut off = Recorder::off();
    rig.warm_up(args, p, &mut out)?;
    let acked_before: u64 = rig.conns.iter().map(|c| c.n.acked).sum();
    let warm_rss_mib = host::peak_rss_mib();

    if !args.trace {
        let reps = try_repeat_for(args.seconds, 3, |_| {
            one_rep(&mut rig, p, ops_per_conn, &mut lat, &mut off)
        })?;
        account(&mut out, &rig, &reps, ops_per_rep, acked_before);
        note_latency(&mut out, &lat);
        rig.tear_down(&mut out)?;
        let took: Vec<Took> = reps.iter().map(|r| r.took).collect();
        end_to_end(&mut out, ops_per_rep, &took, &setups, warm_rss_mib);
        return Ok(out);
    }

    // Traced: the layer ladder first, then plain and traced repetitions
    // alternate while /proc is sampled around the lot.
    let ladder = layers::wire_ladder(args.derive(0xc1c1e ^ 1), p.shape.fence_every);
    let mut rec = Recorder::on(TRACE_KEEP);
    let threads0 = host::threads();
    let calls0 = syscalls(&rig);
    // Latency is reported from the plain repetitions only.
    let mut lat_traced = Histogram::new();
    let reps = try_repeat_for(args.seconds, 2, |i| {
        if i % 2 == 1 {
            one_rep(&mut rig, p, ops_per_conn, &mut lat_traced, &mut rec)
        } else {
            one_rep(&mut rig, p, ops_per_conn, &mut lat, &mut off)
        }
    })?;
    let threads1 = host::threads();
    let calls = syscalls(&rig) - calls0;
    account(&mut out, &rig, &reps, ops_per_rep, acked_before);
    note_latency(&mut out, &lat);
    let connect_ms_per_conn = rig.connect_ms_per_conn;
    let lifetime_ops: u64 = rig.conns.iter().map(|c| c.n.sent).sum();
    let stats = rig.tear_down(&mut out)?;
    let two_core_ops_per_s = two_core_rate(args, p, &mut out)?;

    let ops = reps.len() as f64 * ops_per_rep;
    let delta = |prefix: &str| {
        let (c1, s1) = host::sum_named(&threads1, prefix);
        let (c0, s0) = host::sum_named(&threads0, prefix);
        ((c1 - c0) as f64, (s1 - s0) as f64)
    };
    // `comm` holds 15 bytes: "tango-net-shard0" and "tango-net-accept"
    // both arrive truncated.
    let (shard_cpu, shard_ctx) = delta("tango-net-shard");
    let (accept_cpu, accept_ctx) = delta("tango-net-acc");
    let (all_cpu, _) = delta("");
    let shard_cpu_us_per_op = shard_cpu / 1e3 / ops;
    let wall = |traced: bool| -> Vec<f64> {
        reps.iter()
            .enumerate()
            .filter(|(i, _)| (i % 2 == 1) == traced)
            .map(|(_, r)| r.took.wall_s)
            .collect()
    };
    let shard = stats.shards.first().copied().unwrap_or_default();
    let kops = lifetime_ops as f64 / 1e3;
    for t in &threads1 {
        let (c0, _) = host::sum_named(&threads0, &t.name);
        out.notes.push(format!(
            "thread {}: {:.1} % of process CPU over the repetitions",
            t.name,
            100.0 * t.cpu_ns.saturating_sub(c0) as f64 / all_cpu
        ));
    }

    let mut m = Measured::default();
    m.set("ack_p50_us", lat.quantile(0.5) as f64 / 1e3);
    m.set("ack_p99_us", lat.quantile(0.99) as f64 / 1e3);
    m.set("tango-net.ack_p999_us", lat.quantile(0.999) as f64 / 1e3);
    m.set(
        "gen.client_cpu_us_per_op",
        (all_cpu - shard_cpu - accept_cpu) / 1e3 / ops,
    );
    m.set("gen.client_syscalls_per_op", calls as f64 / ops);
    m.set("ofwire.encode_ns_per_frame", ladder.encode_ns_per_frame);
    m.set("ofwire.bytes_per_flow_mod", ladder.bytes_per_flow_mod);
    m.set("ofwire.decode_ns_per_frame", ladder.decode_ns_per_frame);
    m.set("switchsim.agent_ns_per_frame", ladder.agent_ns_per_frame);
    m.set("switchsim.table_ns_per_op_1k", ladder.table_ns_per_op_1k);
    m.set("tango-net.shard_cpu_us_per_op", shard_cpu_us_per_op);
    m.set("tango-net.accept_cpu_ms", accept_cpu / 1e6);
    // What the shard spends per flow-mod beyond the agent's own work:
    // sockets and the reactor loop. (A fence rides along per
    // `fence_every` flow-mods; the agent figure is per frame.)
    let frames_per_op = 1.0 + 1.0 / p.shape.fence_every as f64;
    m.set(
        "tango-net.residual_us_per_op",
        shard_cpu_us_per_op - ladder.agent_ns_per_frame * frames_per_op / 1e3,
    );
    m.set(
        "tango-net.bytes_per_wakeup",
        (shard.bytes_in + shard.bytes_out) as f64 / shard.wakeups.max(1) as f64,
    );
    m.set("tango-net.wakeups_per_kop", shard.wakeups as f64 / kops);
    m.set(
        "tango-net.would_block_per_kop",
        shard.would_block as f64 / kops,
    );
    m.set("tango-net.watermark_stalls", shard.watermark_stalls as f64);
    m.set(
        "tango-net.ctx_switches_per_kop",
        (shard_ctx + accept_ctx) / (ops / 1e3),
    );
    m.set("tango-net.connect_ms_per_conn", connect_ms_per_conn);
    m.set("tango-net.two_core_ops_per_s", two_core_ops_per_s);
    finish_traced(&mut out, p.name, m, &rec, &wall(true), &wall(false));
    Ok(out)
}

/// Flow-mods per second over one warmed-up repetition with the server's
/// threads on the second CPU and the generator on the first: what a
/// controller and an agent with a core each would see, and where the
/// acceptor-to-shard hand-off and the pacer meet real parallelism.
/// Informational (it repeats within about a tenth here); 0 when the
/// process is allowed one CPU.
fn two_core_rate(args: &RunArgs, p: &WireParams, out: &mut Outcome) -> io::Result<f64> {
    let Some(mut rig) = Rig::set_up(args, p, true)? else {
        return Ok(0.0);
    };
    rig.warm_up(args, p, out)?;
    let ops_per_conn = args.scale(p.two_core_ops_per_conn);
    let rep = one_rep(
        &mut rig,
        p,
        ops_per_conn,
        &mut Histogram::new(),
        &mut Recorder::off(),
    )?;
    out.check(rep.end == DriveEnd::Done, || {
        "the two-core repetition hit the 60 s watchdog".into()
    });
    rig.tear_down(out)?;
    Ok((ops_per_conn * CONNS) as f64 / rep.took.wall_s)
}

fn syscalls(rig: &Rig) -> u64 {
    rig.conns
        .iter()
        .map(|c| c.n.write_calls + c.n.read_calls)
        .sum()
}

/// Counts attempted and failed ops over the timed repetitions.
fn account(out: &mut Outcome, rig: &Rig, reps: &[Rep], ops_per_rep: f64, acked_before: u64) {
    out.attempted = (reps.len() as f64 * ops_per_rep) as u64;
    let acked: u64 = rig.conns.iter().map(|c| c.n.acked).sum::<u64>() - acked_before;
    let errors: u64 = rig.conns.iter().map(|c| c.n.error_replies).sum();
    out.failed = out.attempted.saturating_sub(acked) + errors;
    out.check(reps.iter().all(|r| r.end == DriveEnd::Done), || {
        "a repetition hit the 60 s watchdog".into()
    });
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(failed == 0, || {
        format!("{failed} of {attempted} flow-mods failed or were never acked")
    });
}

fn note_latency(out: &mut Outcome, lat: &Histogram) {
    out.notes.push(format!(
        "ack latency over {} flow-mods: p50 {:.1} us, p99 {:.1} us ({} samples beyond), p99.9 {:.1} us, max {:.1} us",
        lat.len(),
        lat.quantile(0.5) as f64 / 1e3,
        lat.quantile(0.99) as f64 / 1e3,
        lat.samples_beyond(0.99),
        lat.quantile(0.999) as f64 / 1e3,
        lat.max() as f64 / 1e3,
    ));
}
