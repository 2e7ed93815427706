//! Property test: the compact [`RequestDag`] (successors two inline then
//! spilled, a `u32` in-degree, no predecessor lists) against a naive
//! reference that keeps both directions as `Vec<Vec<NodeId>>` and
//! answers every query by scanning them.
//!
//! Random DAGs give nodes a fan-out of up to seven, duplicate edges
//! included, so the spill path the sweep workload rarely takes is taken
//! on many nodes, and on at least one in every graph. Edges always run up a random hidden order, so every
//! graph is acyclic whatever order its nodes were added in. Structure
//! grows in two phases with a rank query in between, which exercises
//! the rank memo's invalidation.
//!
//! The built DAG is then cloned, so both sides share one shape and one
//! rank memo. One side takes a random structural edit program (new
//! nodes, edges up its hidden order, new priorities, rank queries in
//! between); the other must not see any of it. Both are then drained
//! along different random orders, a step of either side at a time.
//!
//! Compared, per side against its own reference: `successors` (order
//! included), `in_degree`, priorities, `topo_order`, `ranks()` and
//! `longest_path_lengths()` before and after the drain, and
//! `independent_set`, `pending_pred_count` and `is_done` at every step
//! of it.

use ofwire::flow_match::FlowMatch;
use ofwire::types::Dpid;
use proptest::prelude::*;
use simnet::rng::DetRng;
use tango_sched::dag::{NodeId, RequestDag};
use tango_sched::request::ReqElem;

/// Both adjacency directions, spelled out, and each node's priority.
#[derive(Clone, Default)]
struct NaiveDag {
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    done: Vec<bool>,
    prios: Vec<Option<u16>>,
}

impl NaiveDag {
    fn add_node(&mut self, prio: u16) {
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.done.push(false);
        self.prios.push(Some(prio));
    }

    fn add_dep(&mut self, before: NodeId, after: NodeId) {
        self.succs[before.0].push(after);
        self.preds[after.0].push(before);
    }

    fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.succs.len()).map(NodeId)
    }

    fn pending(&self, id: NodeId) -> usize {
        self.preds[id.0].iter().filter(|p| !self.done[p.0]).count()
    }

    fn ready(&self) -> Vec<NodeId> {
        self.ids()
            .filter(|&id| !self.done[id.0] && self.pending(id) == 0)
            .collect()
    }

    /// Longest path in edges to any sink, by memoized recursion.
    fn longest_paths(&self) -> Vec<usize> {
        fn lp(dag: &NaiveDag, i: usize, memo: &mut [Option<usize>]) -> usize {
            if let Some(v) = memo[i] {
                return v;
            }
            let v = dag.succs[i]
                .iter()
                .map(|s| lp(dag, s.0, memo) + 1)
                .max()
                .unwrap_or(0);
            memo[i] = Some(v);
            v
        }
        let mut memo = vec![None; self.succs.len()];
        (0..self.succs.len())
            .map(|i| lp(self, i, &mut memo))
            .collect()
    }

    /// The documented visit order: depth first; the roots, and the
    /// nodes each visit releases, are taken smallest index first.
    fn topo_order(&self) -> Vec<NodeId> {
        let mut visited = vec![false; self.succs.len()];
        let released = |visited: &[bool], from: &mut dyn Iterator<Item = NodeId>| {
            let mut group: Vec<NodeId> = from
                .filter(|s| self.preds[s.0].iter().all(|p| visited[p.0]))
                .collect();
            group.sort_unstable();
            group.dedup();
            group.reverse(); // smallest at the back, for pop()
            group
        };
        let mut groups = vec![released(&visited, &mut self.ids())];
        let mut order = Vec::new();
        while let Some(top) = groups.last_mut() {
            let Some(id) = top.pop() else {
                groups.pop();
                continue;
            };
            visited[id.0] = true;
            order.push(id);
            let next = released(&visited, &mut self.succs[id.0].iter().copied());
            groups.push(next);
        }
        order
    }
}

/// Grows both graphs by `nodes` nodes, then gives each node of the
/// whole graph up to seven edges up the hidden order `key`, and the
/// lowest node in that order five more, so at least one list spills.
fn grow(
    dag: &mut RequestDag,
    naive: &mut NaiveDag,
    key: &mut Vec<u64>,
    nodes: usize,
    rng: &mut DetRng,
) {
    for _ in 0..nodes {
        add_node(dag, naive, key, 10, rng);
    }
    let n = dag.len();
    let below = |a: usize, b: usize| (key[a], a) < (key[b], b);
    let mut edges = Vec::new();
    for from in 0..n {
        for _ in 0..rng.index(8) {
            edges.push((from, rng.index(n)));
        }
    }
    let hub = (0..n)
        .min_by_key(|&i| (key[i], i))
        .expect("at least one node");
    if n > 1 {
        // Any node but the hub itself.
        edges.extend((0..5).map(|_| (hub, (hub + 1 + rng.index(n - 1)) % n)));
    }
    for (from, to) in edges {
        if below(from, to) {
            dag.add_dep(NodeId(from), NodeId(to));
            naive.add_dep(NodeId(from), NodeId(to));
        }
    }
}

/// Adds one node to both graphs, with a random place in the hidden
/// order.
fn add_node(
    dag: &mut RequestDag,
    naive: &mut NaiveDag,
    key: &mut Vec<u64>,
    prio: u16,
    rng: &mut DetRng,
) {
    let i = dag.len() as u32;
    dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(i), prio, 1));
    naive.add_node(prio);
    key.push(rng.range_u64(0, 1 << 20));
}

/// A random structural edit program of `steps` edits on both graphs:
/// a node, an edge up the hidden order, a new priority, or a rank query.
fn edit(
    dag: &mut RequestDag,
    naive: &mut NaiveDag,
    key: &mut Vec<u64>,
    steps: usize,
    rng: &mut DetRng,
) {
    for _ in 0..steps {
        let n = dag.len();
        let prio = rng.range_u64(0, 1000) as u16;
        match rng.index(4) {
            0 => add_node(dag, naive, key, prio, rng),
            1 => {
                let (a, b) = (rng.index(n), rng.index(n));
                if (key[a], a) < (key[b], b) {
                    dag.add_dep(NodeId(a), NodeId(b));
                    naive.add_dep(NodeId(a), NodeId(b));
                }
            }
            2 => {
                let id = rng.index(n);
                dag.node_mut(NodeId(id)).priority = Some(prio);
                naive.prios[id] = Some(prio);
            }
            _ => assert_eq!(dag.ranks(), &naive.longest_paths()[..]),
        }
    }
}

/// Every structural query agrees.
fn assert_same_structure(dag: &RequestDag, naive: &NaiveDag) {
    assert_eq!(dag.len(), naive.succs.len());
    for id in naive.ids() {
        assert_eq!(
            dag.node(id).priority,
            naive.prios[id.0],
            "priority of {id:?}"
        );
        assert_eq!(
            dag.successors(id),
            &naive.succs[id.0][..],
            "successors of {id:?}"
        );
        assert_eq!(
            dag.in_degree(id),
            naive.preds[id.0].len(),
            "in-degree of {id:?}"
        );
    }
    let edges: Vec<(NodeId, NodeId)> = naive
        .ids()
        .flat_map(|a| naive.succs[a.0].iter().map(move |&b| (a, b)))
        .collect();
    assert_eq!(dag.edges().collect::<Vec<_>>(), edges);
    assert_eq!(dag.topo_order(), Some(naive.topo_order()));
    let lp = naive.longest_paths();
    assert_eq!(dag.longest_path_lengths(), lp);
    assert_eq!(dag.ranks(), &lp[..]);
}

/// Checks the frontier and the pending counts against the reference,
/// then completes a random ready node. False once `dag` is drained.
fn drain_step(dag: &mut RequestDag, naive: &mut NaiveDag, rng: &mut DetRng) -> bool {
    let ready = naive.ready();
    assert_eq!(dag.independent_set(), ready);
    for id in naive.ids() {
        assert_eq!(
            dag.pending_pred_count(id),
            naive.pending(id),
            "pending of {id:?}"
        );
        assert_eq!(dag.is_done(id), naive.done[id.0]);
    }
    assert_eq!(dag.all_done(), ready.is_empty());
    if ready.is_empty() {
        assert!(naive.done.iter().all(|&d| d));
        return false;
    }
    let id = ready[rng.index(ready.len())];
    dag.mark_done(id);
    naive.done[id.0] = true;
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compact_dag_matches_the_naive_reference(
        first in 1usize..40,
        second in 0usize..24,
        steps in 0usize..24,
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::new(seed);
        let (mut dag, mut naive, mut key) = (RequestDag::new(), NaiveDag::default(), Vec::new());
        grow(&mut dag, &mut naive, &mut key, first, &mut rng);
        assert_same_structure(&dag, &naive);
        // Structure added after a rank query drops the memo.
        grow(&mut dag, &mut naive, &mut key, second, &mut rng);
        assert_same_structure(&dag, &naive);
        prop_assert!(
            naive.succs.iter().any(|s| s.len() > 2) || dag.len() < 2,
            "no fan-out past the inline capacity"
        );
        // The clone shares the shape and its computed ranks; editing
        // either side must leave the other as it was.
        let frontier = dag.independent_set();
        let mut sides = [(dag.clone(), naive.clone(), key.clone()), (dag, naive, key)];
        let edited = rng.index(2);
        let (d, n, k) = &mut sides[edited];
        edit(d, n, k, steps, &mut rng);
        for (d, n, _) in &sides {
            assert_same_structure(d, n);
        }
        prop_assert_eq!(sides[1 - edited].0.independent_set(), frontier);
        // Drain both along different random orders, interleaved.
        let mut live = [true, true];
        while live.iter().any(|&l| l) {
            let i = rng.index(2);
            if live[i] {
                let (d, n, _) = &mut sides[i];
                live[i] = drain_step(d, n, &mut rng);
            }
        }
        // Completion never moves the ranks.
        for (d, n, _) in &sides {
            assert_same_structure(d, n);
        }
    }
}
