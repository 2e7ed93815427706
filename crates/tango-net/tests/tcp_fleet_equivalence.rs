//! End-to-end equivalence over the wire: Tango inference through an
//! [`AgentServer`] — one reactor shard or several — produces a
//! [`TangoDb`] that is byte-identical to the one the in-memory testbed
//! produces.
//!
//! This is the strongest correctness claim the transport can make. The
//! whole virtual-time side channel exists so that moving the control
//! plane onto real sockets changes *nothing* observable: same probe
//! decisions, same virtual timestamps, same inferred properties, same
//! serialized knowledge base. Sharding the server must preserve that —
//! the partition moves connections across reactor threads, but every
//! per-switch stream (datapath seed, link-latency RNG, timeline) is
//! keyed by roster slot, not by which thread serves it.

use ofwire::types::Dpid;
use simnet::link::Link;
use switchsim::control::ControlPath;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::curves::{measure_latency_profile, LatencyProfile};
use tango::db::TangoDb;
use tango::fleet::{run_inference, FleetJob};
use tango::infer_size::SizeProbeConfig;
use tango::pattern::RuleKind;
use tango_net::control::TcpFleet;
use tango_net::server::{shard_of, AgentServer, ServerConfig, ServerHandle, ServerMode};

const SEED: u64 = 0x7a60;

/// One switch of every kind: software tables, a TCAM behind a software
/// table, and two TCAM-only switches that reject when full.
fn roster() -> Vec<(Dpid, SwitchProfile)> {
    vec![
        (Dpid(1), SwitchProfile::ovs()),
        (Dpid(2), SwitchProfile::vendor1()),
        (Dpid(3), SwitchProfile::vendor2()),
        (Dpid(4), SwitchProfile::vendor3()),
    ]
}

fn size_config(dpid: Dpid) -> SizeProbeConfig {
    SizeProbeConfig {
        // Above every hardware table here (vendor2's 2560-entry TCAM is
        // the largest, so each TCAM-only switch rejects on the wire; OVS
        // never rejects and stops at the cap); few trials keep the
        // debug-profile runtime modest.
        max_flows: 3000,
        trials_per_level: 24,
        seed: 0x5eed ^ dpid.0,
        ..SizeProbeConfig::default()
    }
}

fn jobs() -> Vec<FleetJob> {
    roster()
        .iter()
        .map(|(d, _)| FleetJob::size(*d, RuleKind::L3, size_config(*d)))
        .collect()
}

/// Runs fleet inference over any control path and serializes what it
/// learned.
fn inferred_db_json<C: ControlPath>(cp: &mut C) -> String {
    let jobs = jobs();
    let outcomes = run_inference(cp, &jobs).expect("fleet inference completes");
    let mut db = TangoDb::new();
    db.ingest_fleet(&jobs, &outcomes);
    db.to_json()
}

/// The in-memory baseline: the testbed attaches the same roster in the
/// same order as the server, so per-switch streams derive identically.
fn testbed(link: Link) -> Testbed {
    let mut tb = Testbed::new(SEED);
    for (dpid, profile) in roster() {
        tb.attach(dpid, profile, link);
    }
    tb
}

fn roster_dpids() -> Vec<Dpid> {
    roster().iter().map(|(d, _)| *d).collect()
}

/// The roster served over loopback TCP in virtual-time mode.
fn serve(link: Link, shards: usize) -> ServerHandle {
    let mode = ServerMode::Virtual { link };
    let config = ServerConfig {
        shards,
        telemetry: false,
    };
    AgentServer::spawn_with(SEED, roster(), mode, config).expect("server spawns")
}

#[test]
fn tcp_fleet_equivalence() {
    let link = Link::control_channel(0.1);
    let expected = inferred_db_json(&mut testbed(link));
    let dpids = roster_dpids();

    // The same inference over loopback TCP, against the single-loop
    // server and against a sharded one: dpids 1..=4 land on shards 0, 3,
    // 2 and 1 of 4, so that run genuinely crosses shard threads.
    for shards in [1, 4] {
        let server = serve(link, shards);
        let mut fleet = TcpFleet::connect(server.addr(), &dpids).expect("fleet connects");
        let actual = inferred_db_json(&mut fleet);
        drop(fleet);
        let stats = server.shutdown().expect("server exits cleanly");

        assert_eq!(
            actual, expected,
            "TangoDb bytes diverge between in-memory and {shards}-shard wire inference"
        );
        assert_eq!(stats.accepted, dpids.len());
        assert_eq!(stats.errors, 0, "no protocol violations");

        // Each shard served exactly the connections the pure partition
        // function assigns it.
        let mut expected_conns = vec![0usize; shards];
        for d in &dpids {
            expected_conns[shard_of(d.0, shards)] += 1;
        }
        let served: Vec<usize> = stats.shards.iter().map(|s| s.conns).collect();
        assert_eq!(served, expected_conns, "{shards} shards");
        assert!(
            shards == 1 || expected_conns.iter().filter(|&&c| c > 0).count() >= 2,
            "roster must span multiple shards for the sharded run to mean anything"
        );
    }
}

/// Latency curves of OVS and Switch #1, measured one switch after the
/// other over any control path.
fn latency_profiles<C: ControlPath>(cp: &mut C) -> Vec<LatencyProfile> {
    [Dpid(1), Dpid(2)]
        .into_iter()
        .map(|d| measure_latency_profile(cp, d, RuleKind::L3, 200).expect("latency profile"))
        .collect()
}

/// Each latency arm clears the switch with a flow-mod it waits for, so
/// `TcpFleet::wait_for` and its lazy `warp_to` set every arm's start
/// instant; the curves must equal the testbed's, field for field.
#[test]
fn latency_profiles_over_tcp_match_testbed() {
    let link = Link::control_channel(0.1);
    let expected = latency_profiles(&mut testbed(link));

    let server = serve(link, 1);
    let mut fleet = TcpFleet::connect(server.addr(), &roster_dpids()).expect("fleet connects");
    let actual = latency_profiles(&mut fleet);
    drop(fleet);
    let stats = server.shutdown().expect("server exits cleanly");

    assert_eq!(actual, expected);
    assert!(actual[1].priority_sensitive() && !actual[0].priority_sensitive());
    assert_eq!(stats.errors, 0, "no protocol violations");
}
