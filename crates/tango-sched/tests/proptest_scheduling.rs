//! Property-based invariants of the scheduling layer.
//!
//! * Any random acyclic request DAG drains completely under every
//!   scheduler, with every request issued exactly once.
//! * Every registry scheduler's dispatch order respects the DAG's
//!   dependency edges, with [`satisfies`] as the oracle.
//! * Batched and online execution reach identical final switch states.
//! * The online dispatcher produces exactly the report of a queue-free
//!   reference dispatcher, from fresh and from partly completed DAGs.
//! * Sorting by a pattern's rank is always a permutation of the
//!   independent set.
//! * There is one Tango: the online `tango` keys order one switch's
//!   requests of one critical-path rank exactly as Algorithm 3's oracle.
//! * Priority assignments always satisfy their constraint sets.

use ofwire::flow_match::FlowMatch;
use ofwire::types::Dpid;
use proptest::prelude::*;
use simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use switchsim::control::{ControlOp, ControlPath, OpResult};
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::db::TangoDb;
use tango_sched::dag::{NodeId, RequestDag};
use tango_sched::executor::{
    execute_rounds, execute_with, Batching, ExecError, ExecReport, Release,
};
use tango_sched::patterns::{ordering_tango_oracle, SchedPattern};
use tango_sched::priority::{r_priorities, satisfies, topological_priorities};
use tango_sched::request::{Deadline, ReqElem, ReqOp};
use tango_sched::schedulers::{
    registry, CriticalPathScheduler, SchedKey, Scheduler, TangoScheduler,
};

/// A random DAG: `n` requests over up to 3 switches; forward edges only
/// (guaranteed acyclic). Mods/deletes are avoided so any execution
/// order succeeds without preinstalled state.
fn arb_dag() -> impl Strategy<Value = RequestDag> {
    (
        2usize..40,
        proptest::collection::vec((any::<u16>(), 0u8..3), 2..40),
        any::<u64>(),
    )
        .prop_map(|(_n, specs, seed)| {
            let mut dag = RequestDag::new();
            let ids: Vec<NodeId> = specs
                .iter()
                .enumerate()
                .map(|(i, &(prio, sw))| {
                    dag.add_node(ReqElem::add(
                        Dpid(u64::from(sw) + 1),
                        FlowMatch::l3_for_id(i as u32),
                        prio,
                        1,
                    ))
                })
                .collect();
            let mut rng = simnet::rng::DetRng::new(seed);
            for j in 1..ids.len() {
                if rng.chance(0.4) {
                    let i = rng.index(j);
                    dag.add_dep(ids[i], ids[j]);
                }
            }
            dag
        })
}

/// A random DAG like [`arb_dag`]'s, of adds, mods and deletes. Only
/// keyed and ordered, never executed.
fn arb_mixed_dag() -> impl Strategy<Value = RequestDag> {
    (
        proptest::collection::vec((any::<u16>(), 0u8..3, 0u8..3), 2..40),
        any::<u64>(),
    )
        .prop_map(|(specs, seed)| {
            let mut dag = RequestDag::new();
            for (i, &(prio, sw, op)) in specs.iter().enumerate() {
                let (dpid, m) = (Dpid(u64::from(sw) + 1), FlowMatch::l3_for_id(i as u32));
                dag.add_node(match op {
                    0 => ReqElem::add(dpid, m, prio, 1),
                    1 => ReqElem::modify(dpid, m, prio, 2),
                    _ => ReqElem::delete(dpid, m, prio),
                });
            }
            let mut rng = simnet::rng::DetRng::new(seed);
            for j in 1..specs.len() {
                if rng.chance(0.4) {
                    dag.add_dep(NodeId(rng.index(j)), NodeId(j));
                }
            }
            dag
        })
}

/// A boxed execution closure (keeps the proptest body readable).
type RunFn = Box<dyn FnMut(&mut Testbed, &mut RequestDag)>;

/// Online dispatch under an explicit scheduler × release pair.
fn online(
    tb: &mut Testbed,
    dag: &mut RequestDag,
    sched: &mut dyn Scheduler,
    release: Release,
) -> ExecReport {
    execute_with(tb, dag, &TangoDb::new(), sched, release).unwrap()
}

/// The specification [`execute_with`] is checked against: the same
/// dispatch rule with no queues and no plan. At every decision it scans
/// every keyed, unissued request; an idle switch can start at `now` if
/// one of its requests is released, else at its earliest release; the
/// earliest start wins (ties by dpid), and on that switch everything
/// released by the start instant competes on `(key, id)`.
fn reference_dispatch(
    tb: &mut Testbed,
    dag: &mut RequestDag,
    sched: &mut dyn Scheduler,
    release: Release,
) -> Result<ExecReport, ExecError> {
    let start = tb.now();
    sched.prepare(dag, &TangoDb::new());
    let ids: Vec<NodeId> = dag.node_ids().collect();
    let mut pending: Vec<usize> = ids.iter().map(|&u| dag.pending_pred_count(u)).collect();
    let mut rel = vec![start; ids.len()];
    let todo = ids.iter().filter(|&&u| !dag.is_done(u)).count();
    let mut waiting: Vec<(SimTime, SchedKey, NodeId)> = dag
        .independent_set()
        .into_iter()
        .map(|id| (start, sched.key(dag, id, start), id))
        .collect();
    let mut busy = BTreeSet::new();
    let mut inflight = BTreeMap::new();
    let mut report = ExecReport {
        makespan: SimDuration::ZERO,
        completed: 0,
        failed: 0,
        deadline_misses: 0,
        rounds: Vec::new(),
        issued: Vec::new(),
        flowtime: SimDuration::ZERO,
    };
    let mut last_done = start;
    let outcome = loop {
        if report.issued.len() == todo && inflight.is_empty() {
            break Ok(());
        }
        let now = tb.now();
        while let Some((t, dpid)) = waiting
            .iter()
            .map(|w| (w.0.max(now), dag.node(w.2).location))
            .filter(|(_, dpid)| !busy.contains(dpid))
            .min()
        {
            let (at, _) = waiting
                .iter()
                .enumerate()
                .filter(|(_, w)| dag.node(w.2).location == dpid && w.0 <= t)
                .min_by_key(|(_, w)| (w.1, w.2))
                .expect("the switch was picked for a request of its own");
            let id = waiting.swap_remove(at).2;
            let op = ControlOp::FlowMod(dag.node(id).to_flow_mod());
            inflight.insert(tb.submit(dpid, op, t), id);
            busy.insert(dpid);
            report.issued.push(id);
        }
        let Some(c) = tb.next_completion() else {
            break Err(ExecError::StuckDag);
        };
        let id = inflight.remove(&c.token).expect("an op issued above");
        busy.remove(&c.dpid);
        match c.result() {
            OpResult::Ok => report.completed += 1,
            OpResult::TableFull => report.failed += 1,
        }
        let elapsed = c.done_at.since(start);
        if matches!(dag.node(id).install_by, Deadline::WithinMs(ms) if elapsed.as_millis_f64() > ms)
        {
            report.deadline_misses += 1;
        }
        report.flowtime += elapsed;
        last_done = last_done.max(c.done_at);
        let released = match release {
            Release::Ack => c.acked_at,
            Release::Guard(g) => c.done_at + g,
        };
        dag.mark_done(id);
        sched.on_completion(dag, id);
        for &s in dag.successors(id) {
            pending[s.0] -= 1;
            rel[s.0] = rel[s.0].max(released);
            if pending[s.0] == 0 {
                waiting.push((rel[s.0], sched.key(dag, s, rel[s.0]), s));
            }
        }
    };
    outcome?;
    tb.warp_to(last_done.max(tb.now()));
    report.makespan = last_done.since(start);
    Ok(report)
}

fn testbed(seed: u64) -> Testbed {
    let mut tb = Testbed::new(seed);
    tb.attach_default(Dpid(1), SwitchProfile::vendor1());
    tb.attach_default(Dpid(2), SwitchProfile::vendor2());
    tb.attach_default(Dpid(3), SwitchProfile::ovs());
    tb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_discipline_drains_random_dags(dag in arb_dag()) {
        let disciplines: [Box<dyn Scheduler>; 3] = [
            Box::new(CriticalPathScheduler::new()),
            Box::new(TangoScheduler::type_only()),
            Box::new(TangoScheduler::type_and_priority()),
        ];
        for mut discipline in disciplines {
            let mut tb = testbed(1);
            let mut d = dag.clone();
            let n = d.len();
            let report = online(&mut tb, &mut d, discipline.as_mut(), Release::Ack);
            prop_assert!(d.all_done());
            prop_assert_eq!(report.completed + report.failed, n);
            prop_assert_eq!(report.failed, 0);
        }
    }

    #[test]
    fn registered_schedulers_respect_dependencies(dag in arb_dag()) {
        // Every portfolio entry must emit a dependency-respecting
        // dispatch order. Reuse the priority checker as the oracle: give
        // earlier-issued requests higher "priority" and demand every DAG
        // edge (pred, succ) is satisfied — i.e. pred issued first.
        let deps: Vec<(usize, usize)> = dag.edges().map(|(a, b)| (a.0, b.0)).collect();
        for entry in registry() {
            let mut tb = testbed(4);
            let mut d = dag.clone();
            let n = d.len();
            let report = entry.run(&mut tb, &mut d, &TangoDb::new()).unwrap();
            prop_assert!(d.all_done(), "{}", entry.name);
            prop_assert_eq!(report.issued.len(), n, "{}", entry.name);
            let mut prio = vec![0u16; n];
            for (pos, id) in report.issued.iter().enumerate() {
                prop_assert!(prio[id.0] == 0, "{} issued {:?} twice", entry.name, id);
                prio[id.0] = (n - pos) as u16;
            }
            prop_assert!(
                satisfies(&prio, &deps),
                "{} violated a dependency edge in {:?}",
                entry.name,
                report.issued
            );
        }
    }

    #[test]
    fn online_dispatch_matches_the_reference_dispatcher(
        dag in arb_dag(),
        done_seed in any::<u64>(),
        done_permille in prop_oneof![Just(0u32), 0u32..600],
    ) {
        // Complete a random predecessor-closed part of the DAG first
        // (edges run forward, so index order may finish whole chains).
        let mut dag = dag;
        let mut rng = simnet::rng::DetRng::new(done_seed);
        for id in dag.node_ids().collect::<Vec<_>>() {
            if dag.pending_pred_count(id) == 0 && rng.chance(f64::from(done_permille) / 1e3) {
                dag.mark_done(id);
            }
        }
        let guard = Release::Guard(Release::default_guard());
        for entry in registry() {
            for release in [Release::Ack, guard] {
                let (mut tb, mut d) = (testbed(6), dag.clone());
                let got = execute_with(&mut tb, &mut d, &TangoDb::new(), entry.build().as_mut(), release);
                let (mut ref_tb, mut ref_d) = (testbed(6), dag.clone());
                let want = reference_dispatch(&mut ref_tb, &mut ref_d, entry.build().as_mut(), release);
                prop_assert_eq!(&got, &want, "{} under {:?}", entry.name, release);
                prop_assert!(got.is_ok(), "forward-edge DAGs are acyclic");
                prop_assert_eq!(tb.now(), ref_tb.now(), "{}", entry.name);
                // A finished dispatch leaves the DAG finished.
                prop_assert!(d.all_done(), "{}", entry.name);
                prop_assert!(d.independent_set().is_empty(), "{}", entry.name);
            }
        }
    }

    #[test]
    fn batched_and_online_agree_on_final_state(dag in arb_dag()) {
        let count_after = |mut run: RunFn| {
            let mut tb = testbed(2);
            let mut d = dag.clone();
            run(&mut tb, &mut d);
            tb.dpids()
                .iter()
                .map(|&dp| tb.switch(dp).rule_count())
                .collect::<Vec<_>>()
        };
        let batched = count_after(Box::new(|tb, d| {
            execute_rounds(tb, d, &TangoDb::new(), Batching::Greedy).unwrap();
        }));
        let per_edge = count_after(Box::new(|tb, d| {
            online(tb, d, &mut TangoScheduler::type_and_priority(), Release::Ack);
        }));
        prop_assert_eq!(batched, per_edge);
    }

    #[test]
    fn patterns_permute_the_set(dag in arb_dag()) {
        let set = dag.independent_set();
        for p in SchedPattern::standard_set() {
            let mut ordered = set.clone();
            ordered.sort_by_key(|&id| (p.rank(dag.node(id)), id));
            prop_assert_eq!(ordered.len(), set.len(), "{}", p.name);
            ordered.sort_unstable();
            let mut expect = set.clone();
            expect.sort_unstable();
            prop_assert_eq!(&ordered, &expect, "{}", p.name);
        }
        let db = TangoDb::new();
        let (oracle_order, _) = ordering_tango_oracle(&db, &dag, &set);
        prop_assert_eq!(oracle_order.len(), set.len());
    }

    #[test]
    fn online_tango_orders_like_the_round_oracle(dag in arb_mixed_dag()) {
        // One Tango: among one switch's requests of one critical-path
        // rank, the online keys order exactly as Algorithm 3's oracle.
        let mut dag = dag;
        let db = TangoDb::new();
        let mut sched = TangoScheduler::type_and_priority();
        sched.prepare(&mut dag, &db);
        let mut groups: BTreeMap<(Dpid, usize), Vec<NodeId>> = BTreeMap::new();
        for id in dag.node_ids() {
            let group = (dag.node(id).location, dag.ranks()[id.0]);
            groups.entry(group).or_default().push(id);
        }
        for (group, ids) in groups {
            let (oracle, p) = ordering_tango_oracle(&db, &dag, &ids);
            let mut online = ids;
            online.sort_by_key(|&id| (sched.key(&dag, id, SimTime(0)), id));
            prop_assert_eq!(online, oracle, "{:?} under {}", group, p.name);
        }
    }

    #[test]
    fn priority_assignments_satisfy_random_constraints(
        n in 2usize..60,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
    ) {
        // Forward-orient random pairs to guarantee acyclicity.
        let deps: Vec<(usize, usize)> = edges
            .into_iter()
            .map(|(a, b)| ((a as usize) % n, (b as usize) % n))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        let topo = topological_priorities(n, &deps).unwrap();
        let r = r_priorities(n, &deps).unwrap();
        prop_assert!(satisfies(&topo.priorities, &deps));
        prop_assert!(satisfies(&r.priorities, &deps));
        prop_assert!(topo.distinct <= r.distinct);
        prop_assert_eq!(r.distinct, n);
    }

    #[test]
    fn tango_type_phases_are_ordered_per_switch(
        specs in proptest::collection::vec((0u8..3, any::<u16>()), 1..30),
    ) {
        // Build a flat DAG of mixed ops (mods/dels target preinstalled
        // rules so nothing fails), execute with TangoTypeOnly, and check
        // the per-switch completion order never has an add before a del.
        let mut tb = testbed(3);
        // Preinstall targets.
        let mut fms = Vec::new();
        for (i, &(op, _)) in specs.iter().enumerate() {
            if op != 0 {
                fms.push(ofwire::flow_mod::FlowMod::add(
                    FlowMatch::l3_for_id(i as u32),
                    500,
                ));
            }
        }
        if !fms.is_empty() {
            tb.batch(Dpid(1), fms);
        }
        let mut dag = RequestDag::new();
        for (i, &(op, prio)) in specs.iter().enumerate() {
            let m = FlowMatch::l3_for_id(i as u32);
            let req = match op {
                0 => ReqElem::add(Dpid(1), m, prio, 1),
                1 => ReqElem::modify(Dpid(1), m, 500, 2),
                _ => ReqElem::delete(Dpid(1), m, 500),
            };
            dag.add_node(req);
        }
        let report = online(&mut tb, &mut dag, &mut TangoScheduler::type_only(), Release::Ack);
        prop_assert_eq!(report.failed, 0);
        // Final state: preinstalled mods stay, dels gone, adds present.
        let adds = specs.iter().filter(|&&(op, _)| op == 0).count();
        let mods = specs.iter().filter(|&&(op, _)| op == 1).count();
        prop_assert_eq!(tb.switch(Dpid(1)).rule_count(), adds + mods);
        let _ = ReqOp::Add;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn execution_is_deterministic(dag in arb_dag(), seed in any::<u64>()) {
        let run = || {
            let mut tb = testbed(seed);
            let mut d = dag.clone();
            let report = online(
                &mut tb,
                &mut d,
                &mut TangoScheduler::type_and_priority(),
                Release::Guard(simnet::time::SimDuration::from_micros(50)),
            );
            (report.makespan, report.completed, tb.now())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn guard_release_never_slower_than_ack(dag in arb_dag()) {
        let makespan = |release| {
            let mut tb = testbed(9);
            let mut d = dag.clone();
            online(&mut tb, &mut d, &mut TangoScheduler::type_and_priority(), release).makespan
        };
        let ack = makespan(Release::Ack);
        let guard = makespan(Release::Guard(simnet::time::SimDuration::from_micros(50)));
        // Guarded release strictly dominates ack-waiting (same order,
        // earlier releases); allow a whisker for link-jitter stream
        // divergence between the two runs.
        prop_assert!(
            guard.as_millis_f64() <= ack.as_millis_f64() * 1.05,
            "guard {} vs ack {}",
            guard,
            ack
        );
    }
}
