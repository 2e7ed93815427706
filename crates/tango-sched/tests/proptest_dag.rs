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
//! the rank cache's invalidation. Compared: `successors` (order
//! included), `in_degree`, `pending_pred_count`, `independent_set`
//! at every step of a random drain, `topo_order`, `ranks()` and
//! `longest_path_lengths()`, on the DAG and on a clone of it.

use ofwire::flow_match::FlowMatch;
use ofwire::types::Dpid;
use proptest::prelude::*;
use simnet::rng::DetRng;
use tango_sched::dag::{NodeId, RequestDag};
use tango_sched::request::ReqElem;

/// Both adjacency directions, spelled out.
#[derive(Default)]
struct NaiveDag {
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    done: Vec<bool>,
}

impl NaiveDag {
    fn add_node(&mut self) {
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.done.push(false);
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
        let i = dag.len() as u32;
        dag.add_node(ReqElem::add(Dpid(1), FlowMatch::l3_for_id(i), 10, 1));
        naive.add_node();
        key.push(rng.range_u64(0, 1 << 20));
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

/// Every structural query agrees.
fn assert_same_structure(dag: &mut RequestDag, naive: &NaiveDag) {
    assert_eq!(dag.len(), naive.succs.len());
    for id in naive.ids() {
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

/// Drains `dag` in a random order, checking the frontier and the
/// pending counts against the reference before every completion.
fn drain(dag: &mut RequestDag, naive: &mut NaiveDag, rng: &mut DetRng) {
    while !dag.all_done() {
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
        let id = ready[rng.index(ready.len())];
        dag.mark_done(id);
        naive.done[id.0] = true;
    }
    assert!(dag.independent_set().is_empty());
    assert!(naive.done.iter().all(|&d| d));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compact_dag_matches_the_naive_reference(
        first in 1usize..40,
        second in 0usize..24,
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::new(seed);
        let (mut dag, mut naive, mut key) = (RequestDag::new(), NaiveDag::default(), Vec::new());
        grow(&mut dag, &mut naive, &mut key, first, &mut rng);
        assert_same_structure(&mut dag, &naive);
        // Structure added after a rank query re-dirties the cache.
        grow(&mut dag, &mut naive, &mut key, second, &mut rng);
        assert_same_structure(&mut dag, &naive);
        prop_assert!(
            naive.succs.iter().any(|s| s.len() > 2) || dag.len() < 2,
            "no fan-out past the inline capacity"
        );
        // A clone answers the same, and draining it leaves the original
        // untouched.
        let mut copy = dag.clone();
        assert_same_structure(&mut copy, &naive);
        let frontier = dag.independent_set();
        drain(&mut copy, &mut naive, &mut rng);
        prop_assert_eq!(dag.independent_set(), frontier);
        // Completion never moves the ranks.
        prop_assert_eq!(copy.ranks(), dag.ranks());
    }
}
