//! Network-wide update scenarios (§7.2): link failure (LF) and traffic
//! engineering (TE), expressed as scheduler-neutral request lists plus
//! dependency edges and the rules that must be preinstalled for mods and
//! deletes to have targets.
//!
//! The bench/example layer lowers a [`Scenario`] onto concrete switches
//! and a `tango-sched` request DAG.

use crate::maxmin::{max_min_fair, Demand};
use crate::routing::shortest_path;
use crate::topology::{NodeIdx, Topology};
use simnet::rng::DetRng;

/// Operation class of one scenario request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenOp {
    /// Install a new rule.
    Add,
    /// Change an existing rule's action.
    Mod,
    /// Remove an existing rule.
    Del,
}

/// One per-switch request of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioRequest {
    /// Topology node (switch) the request targets.
    pub node: NodeIdx,
    /// Operation.
    pub op: ScenOp,
    /// Flow identity; maps 1:1 to a concrete match at lowering time.
    pub flow_id: u32,
    /// Rule priority; `None` = let Tango enforce one.
    pub priority: Option<u16>,
}

/// A complete scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario label (e.g. `"LF"`, `"TE 1"`).
    pub name: String,
    /// Requests, in submission order.
    pub requests: Vec<ScenarioRequest>,
    /// Dependency edges `(before, after)` into `requests`.
    pub deps: Vec<(usize, usize)>,
    /// Rules that must exist before the scenario starts:
    /// `(node, flow_id, priority)`.
    pub preinstall: Vec<(NodeIdx, u32, u16)>,
}

impl Scenario {
    /// Counts of (adds, mods, dels).
    #[must_use]
    pub fn op_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.requests {
            match r.op {
                ScenOp::Add => c.0 += 1,
                ScenOp::Mod => c.1 += 1,
                ScenOp::Del => c.2 += 1,
            }
        }
        c
    }
}

/// The paper's LF scenario: the `(a, b)` link fails; `n_flows` existing
/// flows from `a` to `b` are rerouted over the detour. Per the paper's
/// footnote 3, the reroute produces **only rule additions on s1** (new
/// next-hop rules at the source, which must out-rank the dead route) and
/// **rule modifications on s2** (ingress adjustment at the far end) —
/// which is exactly why rule-type reordering has no room to help in this
/// scenario. Update consistency orders each flow destination-first:
/// `mod(s2)` before `add(s1)`.
#[must_use]
pub fn link_failure(
    topo: &Topology,
    failed: (NodeIdx, NodeIdx),
    n_flows: usize,
    seed: u64,
) -> Scenario {
    let mut rng = DetRng::new(seed);
    let broken = topo.without_link(failed.0, failed.1);
    let detour = shortest_path(&broken, failed.0, failed.1)
        .expect("topology must survive single link failure");
    assert!(detour.len() >= 3, "detour must use at least one transit");

    let mut requests = Vec::new();
    let mut deps = Vec::new();
    let mut preinstall = Vec::new();
    for f in 0..n_flows as u32 {
        let priority = 1000 + rng.index(2000) as u16;
        // The far end's existing ingress rule is modified in place.
        preinstall.push((failed.1, f, priority));
        requests.push(ScenarioRequest {
            node: failed.1,
            op: ScenOp::Mod,
            flow_id: f,
            priority: Some(priority),
        });
        let mod_idx = requests.len() - 1;
        // The source installs the new (detour) route above the old one.
        requests.push(ScenarioRequest {
            node: failed.0,
            op: ScenOp::Add,
            flow_id: f,
            priority: Some(priority),
        });
        let add_idx = requests.len() - 1;
        deps.push((mod_idx, add_idx));
    }
    Scenario {
        name: "LF".into(),
        requests,
        deps,
        preinstall,
    }
}

/// A traffic-engineering scenario on an arbitrary topology: `n_requests`
/// single-switch operations with the given `add:del:mod` weights,
/// `dag_levels` dependency depth (1 = flat, 2 = pairwise chains, …), and
/// random rule priorities (or `None` if `enforce_priorities`).
#[must_use]
pub fn traffic_engineering(
    topo: &Topology,
    name: &str,
    n_requests: usize,
    weights: (u32, u32, u32),
    dag_levels: usize,
    enforce_priorities: bool,
    seed: u64,
) -> Scenario {
    assert!(dag_levels >= 1);
    let mut rng = DetRng::new(seed);
    let (wa, wd, wm) = weights;
    let total_w = wa + wd + wm;
    assert!(total_w > 0);
    let mut requests = Vec::new();
    let mut preinstall = Vec::new();
    for i in 0..n_requests as u32 {
        let node = rng.index(topo.len());
        let roll = rng.range_u64(0, u64::from(total_w)) as u32;
        let op = if roll < wa {
            ScenOp::Add
        } else if roll < wa + wd {
            ScenOp::Del
        } else {
            ScenOp::Mod
        };
        let priority = 1000 + rng.index(2000) as u16;
        if matches!(op, ScenOp::Del | ScenOp::Mod) {
            preinstall.push((node, i, priority));
        }
        requests.push(ScenarioRequest {
            node,
            op,
            flow_id: i,
            priority: if enforce_priorities {
                None
            } else {
                Some(priority)
            },
        });
    }
    // Dependency chains of length `dag_levels`: request k depends on
    // request k - n/levels (same stripe), forming `levels` tiers.
    let mut deps = Vec::new();
    if dag_levels > 1 {
        let stripe = n_requests / dag_levels;
        if stripe > 0 {
            for k in stripe..n_requests {
                deps.push((k - stripe, k));
            }
        }
    }
    Scenario {
        name: name.into(),
        requests,
        deps,
        preinstall,
    }
}

/// The Fig 12 workload: a traffic-matrix change on B4. `n_flows`
/// end-to-end flows run over shortest paths with max-min fair rates; a
/// seeded perturbation rescales demands, and every flow whose allocation
/// changes produces `Mod`s along its path (new flows produce `Add`s,
/// drained flows `Del`s), destination-first per flow.
#[must_use]
pub fn b4_traffic_engineering(n_flows: usize, seed: u64) -> Scenario {
    let topo = Topology::b4();
    let mut rng = DetRng::new(seed);
    // End-to-end flows between distinct random sites.
    let mut demands = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..n_flows {
        let a = rng.index(topo.len());
        let mut b = rng.index(topo.len());
        while b == a {
            b = rng.index(topo.len());
        }
        pairs.push((a, b));
        demands.push(Demand {
            path: shortest_path(&topo, a, b).expect("connected"),
            demand: 1.0 + rng.f64() * 9.0,
        });
    }
    let before = max_min_fair(&topo, &demands);
    // Traffic-matrix change: rescale a third of the demands, drop a
    // tenth, add a tenth new.
    let mut after_demands = demands.clone();
    let mut dropped = vec![false; n_flows];
    for (i, d) in after_demands.iter_mut().enumerate() {
        let roll = rng.f64();
        if roll < 0.10 {
            dropped[i] = true;
            d.demand = 0.0;
        } else if roll < 0.43 {
            d.demand *= 0.3 + rng.f64() * 2.0;
        }
    }
    let after = max_min_fair(&topo, &after_demands);

    let mut requests = Vec::new();
    let mut deps = Vec::new();
    let mut preinstall = Vec::new();
    let emit_path_ops = |flow: u32,
                         path: &[NodeIdx],
                         op: ScenOp,
                         priority: u16,
                         requests: &mut Vec<ScenarioRequest>,
                         deps: &mut Vec<(usize, usize)>| {
        // Ops at every switch except the destination, destination-side
        // first.
        let hops = &path[..path.len() - 1];
        let mut prev: Option<usize> = None;
        for &node in hops.iter().rev() {
            requests.push(ScenarioRequest {
                node,
                op,
                flow_id: flow,
                priority: Some(priority),
            });
            let idx = requests.len() - 1;
            if let Some(p) = prev {
                deps.push((p, idx));
            }
            prev = Some(idx);
        }
    };

    for (i, d) in demands.iter().enumerate() {
        let flow = i as u32;
        let priority = 1000 + rng.index(2000) as u16;
        let changed = (before[i] - after[i]).abs() > 1e-9;
        if dropped[i] {
            for &node in &d.path[..d.path.len() - 1] {
                preinstall.push((node, flow, priority));
            }
            emit_path_ops(
                flow,
                &d.path,
                ScenOp::Del,
                priority,
                &mut requests,
                &mut deps,
            );
        } else if changed {
            for &node in &d.path[..d.path.len() - 1] {
                preinstall.push((node, flow, priority));
            }
            emit_path_ops(
                flow,
                &d.path,
                ScenOp::Mod,
                priority,
                &mut requests,
                &mut deps,
            );
        }
    }
    // New flows: a tenth more, with fresh ids.
    let n_new = n_flows / 10;
    for k in 0..n_new {
        let a = rng.index(topo.len());
        let mut b = rng.index(topo.len());
        while b == a {
            b = rng.index(topo.len());
        }
        let path = shortest_path(&topo, a, b).expect("connected");
        let flow = (n_flows + k) as u32;
        let priority = 1000 + rng.index(2000) as u16;
        emit_path_ops(flow, &path, ScenOp::Add, priority, &mut requests, &mut deps);
    }
    let _ = pairs;
    Scenario {
        name: "B4 TE".into(),
        requests,
        deps,
        preinstall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lf_shape_matches_paper_footnote() {
        // s1–s2 fails; 400 flows reroute: 400 adds on s1, 400 mods on
        // s2 (footnote 3: "only rule additions on s1 and rule
        // modifications on s2"), destination-first deps.
        let topo = Topology::triangle();
        let s = link_failure(&topo, (0, 1), 400, 1);
        let (adds, mods, dels) = s.op_counts();
        assert_eq!(adds, 400);
        assert_eq!(mods, 400);
        assert_eq!(dels, 0);
        assert_eq!(s.deps.len(), 400);
        // Every dep points mod(s2) → add(s1).
        for &(before, after) in &s.deps {
            assert_eq!(s.requests[before].node, 1);
            assert_eq!(s.requests[before].op, ScenOp::Mod);
            assert_eq!(s.requests[after].node, 0);
            assert_eq!(s.requests[after].op, ScenOp::Add);
        }
        assert_eq!(s.preinstall.len(), 400);
    }

    #[test]
    fn te1_mix_is_roughly_two_to_one() {
        // TE1: twice as many additions as deletions or modifications.
        let topo = Topology::triangle();
        let s = traffic_engineering(&topo, "TE 1", 800, (2, 1, 1), 1, false, 7);
        let (adds, mods, dels) = s.op_counts();
        assert_eq!(adds + mods + dels, 800);
        assert!((adds as f64 - 400.0).abs() < 60.0, "adds {adds}");
        assert!((mods as f64 - 200.0).abs() < 50.0, "mods {mods}");
        assert!((dels as f64 - 200.0).abs() < 50.0, "dels {dels}");
        assert!(s.deps.is_empty());
        // Every del/mod has its target preinstalled.
        assert_eq!(s.preinstall.len(), mods + dels);
    }

    #[test]
    fn te_dag_levels_create_chains() {
        let topo = Topology::triangle();
        let s = traffic_engineering(&topo, "TE", 100, (1, 1, 1), 2, false, 3);
        assert_eq!(s.deps.len(), 50);
        for &(b, a) in &s.deps {
            assert_eq!(a - b, 50);
        }
    }

    #[test]
    fn priority_enforcement_leaves_priorities_unset() {
        let topo = Topology::triangle();
        let s = traffic_engineering(&topo, "TE", 50, (1, 0, 0), 1, true, 3);
        assert!(s.requests.iter().all(|r| r.priority.is_none()));
    }

    #[test]
    fn b4_te_produces_path_consistent_requests() {
        let s = b4_traffic_engineering(300, 5);
        assert!(!s.requests.is_empty());
        // Dependencies respect the destination-first rule: the `before`
        // request of each dep was emitted earlier for the same flow.
        for &(b, a) in &s.deps {
            assert_eq!(s.requests[b].flow_id, s.requests[a].flow_id);
            assert!(b < a);
        }
        // Mods and dels have preinstalled targets.
        for r in &s.requests {
            if matches!(r.op, ScenOp::Mod | ScenOp::Del) {
                assert!(
                    s.preinstall
                        .iter()
                        .any(|&(n, f, _)| n == r.node && f == r.flow_id),
                    "missing preinstall for {r:?}"
                );
            }
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        let topo = Topology::triangle();
        let a = traffic_engineering(&topo, "TE", 200, (1, 1, 1), 1, false, 9);
        let b = traffic_engineering(&topo, "TE", 200, (1, 1, 1), 1, false, 9);
        assert_eq!(a, b);
        assert_eq!(
            b4_traffic_engineering(100, 2),
            b4_traffic_engineering(100, 2)
        );
    }
}
