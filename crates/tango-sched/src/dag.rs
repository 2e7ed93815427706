//! The switch-request DAG (§6, Fig 7).
//!
//! Nodes are [`ReqElem`]s; a directed edge `a → b` means request `a`
//! must complete before `b` may be issued (consistent-update ordering,
//! priority-barrier ordering, etc.). The scheduler repeatedly extracts
//! the *independent set* — requests with no unfinished predecessors —
//! and uses longest-path lengths for critical-path decisions.
//!
//! The **shape** — requests, per node a successor list (two ids inline,
//! spilling to the heap beyond that) and a `u32` in-degree, and the
//! longest-path rank memo — sits behind one [`Arc`] that clones share.
//! Every structural edit first copies a shape another clone still holds,
//! so sharing is never observable; an empty DAG allocates nothing. The
//! **progress** — pending-predecessor counts, done flags and the ready
//! frontier, ~5 bytes per request — is each clone's own, and is all a
//! dispatch writes.
//!
//! * The ready frontier (one bit per node) is updated in `O(out-degree)`
//!   by [`RequestDag::mark_done`], so [`RequestDag::independent_set`]
//!   reads `n / 64` words instead of scanning every node.
//! * The first [`RequestDag::ranks`] call on any clone computes the ranks
//!   for all; only an edit that adds a node or an edge drops them. No
//!   completion does: ranks ignore completion state and the done set is
//!   predecessor-closed (`mark_done` rejects blocked nodes), so no
//!   completion changes the rank of a still-unfinished node.
//!   [`RequestDag::longest_path_lengths`] is the oracle tests check the
//!   memo against.

use crate::request::ReqElem;
use std::sync::{Arc, OnceLock};

/// Index of a request within its DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A node's successors in insertion order: up to two inline, on the
/// heap beyond that. The same 24 bytes as a `Vec`, so a node with at
/// most two successors costs no allocation.
#[derive(Debug, Clone)]
enum Succs {
    Zero,
    One([NodeId; 1]),
    Two([NodeId; 2]),
    Spill(Vec<NodeId>),
}

impl Succs {
    fn push(&mut self, s: NodeId) {
        *self = match self {
            Succs::Zero => Succs::One([s]),
            Succs::One([a]) => Succs::Two([*a, s]),
            Succs::Two([a, b]) => Succs::Spill(vec![*a, *b, s]),
            Succs::Spill(v) => return v.push(s),
        };
    }
}

/// What a dispatch only reads: the requests, their edges and the ranks
/// derived from them.
#[derive(Debug, Clone, Default)]
struct Shape {
    nodes: Vec<ReqElem>,
    /// Adjacency: successors of each node.
    succs: Vec<Succs>,
    /// Number of dependency edges into each node.
    in_degree: Vec<u32>,
    /// Longest-path ranks, computed on first use; an edit that adds a
    /// node or an edge empties it.
    ranks: OnceLock<Vec<usize>>,
}

/// The shape of a DAG before its first edit.
static EMPTY: Shape = Shape {
    nodes: Vec::new(),
    succs: Vec::new(),
    in_degree: Vec::new(),
    ranks: OnceLock::new(),
};

impl Shape {
    /// The shape in `slot` for writing: built on the first edit, and
    /// copied first while another clone shares it.
    fn make_mut(slot: &mut Option<Arc<Shape>>) -> &mut Shape {
        Arc::make_mut(slot.get_or_insert_with(Arc::default))
    }
}

/// A directed acyclic graph of switch requests.
#[derive(Debug, Clone, Default)]
pub struct RequestDag {
    /// Shared with clones; `None` until the first structural edit.
    shape: Option<Arc<Shape>>,
    /// Number of unfinished predecessors per node.
    pending_preds: Vec<u32>,
    /// Completion flags.
    done: Vec<bool>,
    /// Count of completed requests (`all_done` in O(1)).
    n_done: usize,
    /// The ready frontier: bit `i` is set while node `i` is unfinished
    /// with no unfinished predecessors.
    ready: Vec<u64>,
}

impl RequestDag {
    /// An empty DAG.
    #[must_use]
    pub fn new() -> RequestDag {
        RequestDag::default()
    }

    fn shape(&self) -> &Shape {
        self.shape.as_deref().unwrap_or(&EMPTY)
    }

    /// Reserves room for `additional` more requests.
    pub fn reserve(&mut self, additional: usize) {
        let shape = Shape::make_mut(&mut self.shape);
        shape.nodes.reserve(additional);
        shape.succs.reserve(additional);
        shape.in_degree.reserve(additional);
        self.pending_preds.reserve(additional);
        self.done.reserve(additional);
        let words = (self.len() + additional).div_ceil(64);
        self.ready.reserve(words - self.ready.len());
    }

    /// Adds a request, returning its id.
    pub fn add_node(&mut self, req: ReqElem) -> NodeId {
        let id = NodeId(self.len());
        self.add_nodes([req]);
        id
    }

    /// Adds requests in order, with one write to the shape; the first
    /// gets id `len()`.
    pub fn add_nodes(&mut self, reqs: impl IntoIterator<Item = ReqElem>) {
        let shape = Shape::make_mut(&mut self.shape);
        shape.ranks.take();
        shape.nodes.extend(reqs);
        let n = shape.nodes.len();
        shape.succs.resize_with(n, || Succs::Zero);
        shape.in_degree.resize(n, 0);
        let from = self.len();
        self.pending_preds.resize(n, 0);
        self.done.resize(n, false);
        self.ready.resize(n.div_ceil(64), 0);
        for i in from..n {
            self.ready[i / 64] |= 1 << (i % 64);
        }
    }

    /// Adds the dependency `before → after`. Panics on self-loops; cycle
    /// detection is via [`RequestDag::validate_acyclic`].
    pub fn add_dep(&mut self, before: NodeId, after: NodeId) {
        self.add_deps([(before, after)]);
    }

    /// Adds dependencies `(before, after)` in order, with one write to
    /// the shape; each as [`RequestDag::add_dep`] would.
    pub fn add_deps(&mut self, deps: impl IntoIterator<Item = (NodeId, NodeId)>) {
        let shape = Shape::make_mut(&mut self.shape);
        shape.ranks.take();
        for (before, after) in deps {
            assert_ne!(before, after, "self-dependency");
            shape.succs[before.0].push(after);
            shape.in_degree[after.0] += 1;
            self.pending_preds[after.0] += 1;
            self.ready[after.0 / 64] &= !(1 << (after.0 % 64));
        }
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// True if the DAG has no requests at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// The request behind a node id.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &ReqElem {
        &self.shape().nodes[id.0]
    }

    /// Mutable access (used by priority enforcement).
    pub fn node_mut(&mut self, id: NodeId) -> &mut ReqElem {
        &mut Shape::make_mut(&mut self.shape).nodes[id.0]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId)
    }

    /// Successors of a node.
    #[must_use]
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        match &self.shape().succs[id.0] {
            Succs::Zero => &[],
            Succs::One(a) => a,
            Succs::Two(a) => a,
            Succs::Spill(v) => v,
        }
    }

    /// Number of dependency edges into a node, completed or not.
    #[must_use]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.shape().in_degree[id.0] as usize
    }

    /// Every dependency edge `(before, after)`, in `before` index order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(move |a| self.successors(a).iter().map(move |&s| (a, s)))
    }

    /// True once this request has completed.
    #[must_use]
    pub fn is_done(&self, id: NodeId) -> bool {
        self.done[id.0]
    }

    /// Number of unfinished predecessors of a node.
    #[must_use]
    pub fn pending_pred_count(&self, id: NodeId) -> usize {
        self.pending_preds[id.0] as usize
    }

    /// True once every request has completed.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.n_done == self.len()
    }

    /// The current independent set: unfinished requests with no
    /// unfinished predecessors, in ascending index order. Served from
    /// the incrementally maintained frontier bitset.
    #[must_use]
    pub fn independent_set(&self) -> Vec<NodeId> {
        let mut set = Vec::new();
        for (w, &word) in self.ready.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                set.push(NodeId(w * 64 + bits.trailing_zeros() as usize));
                bits &= bits - 1;
            }
        }
        set
    }

    /// Marks a request complete, unblocking its successors. Panics if
    /// the node was still blocked or already done (a scheduling bug).
    pub fn mark_done(&mut self, id: NodeId) {
        assert!(!self.done[id.0], "request completed twice");
        assert_eq!(
            self.pending_preds[id.0], 0,
            "request completed while still blocked"
        );
        self.done[id.0] = true;
        self.n_done += 1;
        self.ready[id.0 / 64] &= !(1 << (id.0 % 64));
        for k in 0..self.successors(id).len() {
            let s = self.successors(id)[k].0;
            self.pending_preds[s] -= 1;
            if self.pending_preds[s] == 0 && !self.done[s] {
                self.ready[s / 64] |= 1 << (s % 64);
            }
        }
    }

    /// Longest path (in edges) from each node to any sink, over the
    /// whole DAG (ignores completion state). This is the critical-path
    /// metric both schedulers use — and the recompute-from-scratch
    /// oracle for the memoized [`RequestDag::ranks`].
    #[must_use]
    pub fn longest_path_lengths(&self) -> Vec<usize> {
        let order = self.topo_order().expect("DAG must be acyclic");
        let mut lp = vec![0usize; self.len()];
        for &NodeId(i) in order.iter().rev() {
            for &NodeId(s) in self.successors(NodeId(i)) {
                lp[i] = lp[i].max(lp[s] + 1);
            }
        }
        lp
    }

    /// Longest-path ranks, memoized in the shape: computed once by the
    /// first call on any clone sharing it, even concurrent ones; dropped
    /// by an edit that adds a node or an edge, and *never* by completion
    /// (see the module docs). `ranks() == longest_path_lengths()` is
    /// pinned by tests.
    pub fn ranks(&self) -> &[usize] {
        self.shape()
            .ranks
            .get_or_init(|| self.longest_path_lengths())
    }

    /// A topological order, or `None` if the graph has a cycle.
    #[must_use]
    pub fn topo_order(&self) -> Option<Vec<NodeId>> {
        let mut indeg = self.shape().in_degree.clone();
        let mut stack: Vec<usize> = (0..self.len()).filter(|&i| indeg[i] == 0).collect();
        // Reverse so pop() yields the smallest index first: deterministic.
        stack.sort_unstable_by(|a, b| b.cmp(a));
        let mut order = Vec::with_capacity(self.len());
        while let Some(i) = stack.pop() {
            order.push(NodeId(i));
            // Newly released successors go on top, smallest index last.
            let from = stack.len();
            for &NodeId(s) in self.successors(NodeId(i)) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    stack.push(s);
                }
            }
            stack[from..].sort_unstable_by(|a, b| b.cmp(a));
        }
        if order.len() == self.len() {
            Some(order)
        } else {
            None
        }
    }

    /// Validates acyclicity ("If the dependency forms a loop, the upper
    /// layer must break the loop to make G a DAG").
    #[must_use]
    pub fn validate_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// The paper's Fig 7 example DAG, verbatim: nine requests A–J across
    /// four switches with the dependencies drawn in the figure. Returns
    /// the DAG plus the node ids in label order
    /// `[A, B, C, E, F, G, H, I, J]`.
    #[cfg(test)]
    #[must_use]
    pub fn fig7_example() -> (RequestDag, Vec<NodeId>) {
        use crate::request::ReqOp;
        use ofwire::flow_match::FlowMatch;
        use ofwire::types::Dpid;
        let mut dag = RequestDag::new();
        // (label, switch, op, priority) per the figure.
        let specs: [(&str, u64, ReqOp, u16); 9] = [
            ("A", 1, ReqOp::Add, 1334),
            ("B", 1, ReqOp::Add, 1244),
            ("C", 1, ReqOp::Del, 2001),
            ("E", 1, ReqOp::Mod, 2000),
            ("F", 2, ReqOp::Mod, 2334),
            ("G", 4, ReqOp::Mod, 2330),
            ("H", 1, ReqOp::Del, 1070),
            ("I", 1, ReqOp::Add, 2350),
            ("J", 1, ReqOp::Add, 2345),
        ];
        let ids: Vec<NodeId> = specs
            .iter()
            .enumerate()
            .map(|(i, &(_, sw, op, prio))| {
                let m = FlowMatch::l3_for_id(i as u32);
                let base = ReqElem::add(Dpid(sw), m, prio, 1);
                dag.add_node(ReqElem { op, ..base })
            })
            .collect();
        let [a, b, c, e, f, g, h, i, j] = [
            ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6], ids[7], ids[8],
        ];
        // Edges per the figure: A→B→C, E→F→G, H→F, I→G, I→J.
        dag.add_dep(a, b);
        dag.add_dep(b, c);
        dag.add_dep(e, f);
        dag.add_dep(f, g);
        dag.add_dep(h, f);
        dag.add_dep(i, g);
        dag.add_dep(i, j);
        let _ = (c, g, j);
        (dag, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ReqElem, ReqOp};
    use ofwire::flow_match::FlowMatch;
    use ofwire::types::Dpid;

    fn req(op: ReqOp, id: u32) -> ReqElem {
        let base = ReqElem::add(Dpid(1), FlowMatch::l3_for_id(id), 10, 1);
        ReqElem { op, ..base }
    }

    /// The example DAG of Fig 7 (nine requests; A,E,H,I independent).
    fn fig7() -> (RequestDag, Vec<NodeId>) {
        let mut dag = RequestDag::new();
        // A B C E F G H I J, in that insertion order.
        let ids: Vec<NodeId> = (0..9).map(|i| dag.add_node(req(ReqOp::Add, i))).collect();
        let (a, b, c, e, f, g, h, i, j) = (
            ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6], ids[7], ids[8],
        );
        dag.add_dep(a, b);
        dag.add_dep(b, c);
        dag.add_dep(e, f);
        dag.add_dep(f, g);
        dag.add_dep(h, f);
        dag.add_dep(i, g);
        dag.add_dep(i, j);
        (dag, vec![a, e, h, i])
    }

    #[test]
    fn independent_set_matches_fig7() {
        let (dag, expect) = fig7();
        assert_eq!(dag.independent_set(), expect);
        assert!(dag.validate_acyclic());
    }

    #[test]
    fn mark_done_unblocks_successors() {
        let (mut dag, indep) = fig7();
        for id in indep {
            dag.mark_done(id);
        }
        // B (A done), F (E and H done), J (I done) become independent.
        let next = dag.independent_set();
        assert_eq!(next, vec![NodeId(1), NodeId(4), NodeId(8)]);
        assert!(!dag.all_done());
    }

    #[test]
    #[should_panic(expected = "still blocked")]
    fn completing_blocked_node_panics() {
        let (mut dag, _) = fig7();
        dag.mark_done(NodeId(1)); // B depends on A
    }

    #[test]
    fn longest_paths() {
        let (dag, _) = fig7();
        let lp = dag.longest_path_lengths();
        // A→B→C: A has lp 2. E→F→G: 2. I→G and I→J: 1. C, G, J: 0.
        assert_eq!(lp[0], 2);
        assert_eq!(lp[3], 2);
        assert_eq!(lp[7], 1);
        assert_eq!(lp[2], 0);
    }

    #[test]
    fn cycle_detection() {
        let mut dag = RequestDag::new();
        let a = dag.add_node(req(ReqOp::Add, 1));
        let b = dag.add_node(req(ReqOp::Add, 2));
        dag.add_dep(a, b);
        dag.add_dep(b, a);
        assert!(!dag.validate_acyclic());
        assert!(dag.topo_order().is_none());
    }

    #[test]
    fn topo_order_is_deterministic_and_valid() {
        let (dag, _) = fig7();
        let order = dag.topo_order().unwrap();
        assert_eq!(order.len(), dag.len());
        // Every edge respects the order.
        let pos: Vec<usize> = {
            let mut p = vec![0; dag.len()];
            for (idx, &NodeId(n)) in order.iter().enumerate() {
                p[n] = idx;
            }
            p
        };
        for id in dag.node_ids() {
            for &NodeId(s) in dag.successors(id) {
                assert!(pos[id.0] < pos[s]);
            }
        }
        assert_eq!(order, fig7().0.topo_order().unwrap());
    }

    /// The order is depth first, smallest index first among the nodes a
    /// visit releases, whatever order their edges were added in.
    #[test]
    fn topo_order_visits_released_successors_smallest_first() {
        let mut dag = RequestDag::new();
        let n: Vec<NodeId> = (0..6).map(|i| dag.add_node(req(ReqOp::Add, i))).collect();
        dag.add_dep(n[0], n[4]);
        dag.add_dep(n[0], n[2]);
        dag.add_dep(n[2], n[5]);
        dag.add_dep(n[1], n[3]);
        let order: Vec<usize> = dag.topo_order().unwrap().iter().map(|id| id.0).collect();
        assert_eq!(order, [0, 2, 5, 4, 1, 3]);
    }

    #[test]
    fn rank_cache_matches_recompute_oracle() {
        // Interleave structural mutation, rank queries, and completions:
        // the memoized ranks must always equal the from-scratch oracle.
        let mut dag = RequestDag::new();
        let a = dag.add_node(req(ReqOp::Add, 0));
        let b = dag.add_node(req(ReqOp::Add, 1));
        assert_eq!(dag.ranks().to_vec(), dag.longest_path_lengths());
        dag.add_dep(a, b);
        assert_eq!(dag.ranks().to_vec(), dag.longest_path_lengths());
        let c = dag.add_node(req(ReqOp::Add, 2));
        dag.add_dep(b, c);
        assert_eq!(dag.ranks(), &[2, 1, 0]);
        // Completions never invalidate the memo.
        dag.mark_done(a);
        assert_eq!(dag.ranks().to_vec(), dag.longest_path_lengths());
        dag.add_dep(a, c); // structural change re-dirties it
        assert_eq!(dag.ranks().to_vec(), dag.longest_path_lengths());
    }

    /// Clones of one DAG share its rank memo: two threads asking at once
    /// get the same slice, computed once, equal to the oracle.
    #[test]
    fn clones_share_one_rank_memo_across_threads() {
        let mut dag = RequestDag::new();
        dag.add_nodes((0..5_000).map(|i| req(ReqOp::Add, i)));
        dag.add_deps((1..5_000).map(|i| (NodeId(i / 3), NodeId(i))));
        let oracle = dag.longest_path_lengths();
        let (a, b) = (dag.clone(), dag.clone());
        let (ra, rb) = std::thread::scope(|s| {
            let ta = s.spawn(|| a.ranks());
            let tb = s.spawn(|| b.ranks());
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert!(std::ptr::eq(ra, rb));
        assert!(std::ptr::eq(ra, dag.ranks()));
        assert_eq!(ra, &oracle[..]);
    }

    #[test]
    fn reserve_covers_the_progress_columns() {
        let mut dag = RequestDag::new();
        dag.reserve(130);
        let caps = |d: &RequestDag| {
            (
                d.pending_preds.capacity(),
                d.done.capacity(),
                d.ready.capacity(),
            )
        };
        let reserved = caps(&dag);
        assert!(reserved.2 >= 3);
        dag.add_nodes((0..130).map(|i| req(ReqOp::Add, i)));
        assert_eq!(caps(&dag), reserved);
    }

    #[test]
    fn frontier_matches_scan_oracle_while_draining() {
        let (mut dag, _) = fig7();
        let mut rng = simnet::rng::DetRng::new(0x0f20);
        while !dag.all_done() {
            let frontier = dag.independent_set();
            let scan: Vec<NodeId> = dag
                .node_ids()
                .filter(|&id| !dag.is_done(id) && dag.pending_pred_count(id) == 0)
                .collect();
            assert_eq!(frontier, scan);
            assert!(!frontier.is_empty());
            dag.mark_done(frontier[rng.index(frontier.len())]);
        }
        assert!(dag.independent_set().is_empty());
    }

    #[test]
    fn in_degree_counts_incoming_edges() {
        let (mut dag, indep) = fig7();
        let mut incoming = vec![0; dag.len()];
        for (_, s) in dag.edges() {
            incoming[s.0] += 1;
        }
        for id in dag.node_ids() {
            assert_eq!(dag.in_degree(id), incoming[id.0]);
            assert_eq!(dag.in_degree(id), dag.pending_pred_count(id));
        }
        assert_eq!(dag.edges().count(), 7);
        // Completion lowers the pending count, never the in-degree.
        for id in indep {
            dag.mark_done(id);
        }
        assert_eq!(
            (dag.in_degree(NodeId(4)), dag.pending_pred_count(NodeId(4))),
            (2, 0)
        );
    }

    #[test]
    fn successors_spill_past_two_in_insertion_order() {
        let mut dag = RequestDag::new();
        let n: Vec<NodeId> = (0..6).map(|i| dag.add_node(req(ReqOp::Add, i))).collect();
        for &s in &[n[3], n[1], n[5], n[2], n[4]] {
            dag.add_dep(n[0], s);
            assert_eq!(dag.successors(n[0]).last(), Some(&s));
        }
        assert_eq!(dag.successors(n[0]), &[n[3], n[1], n[5], n[2], n[4]]);
        let copy = dag.clone();
        assert_eq!(copy.successors(n[0]), dag.successors(n[0]));
        // The inline forms fit beside the spilled one's niche.
        assert_eq!(
            std::mem::size_of::<Succs>(),
            std::mem::size_of::<Vec<NodeId>>()
        );
        dag.mark_done(n[0]);
        assert_eq!(dag.independent_set(), &n[1..]);
    }

    #[test]
    fn drain_entire_dag() {
        let (mut dag, _) = fig7();
        let mut drained = 0;
        while !dag.all_done() {
            let batch = dag.independent_set();
            assert!(!batch.is_empty(), "acyclic DAG always has a frontier");
            for id in batch {
                dag.mark_done(id);
                drained += 1;
            }
        }
        assert_eq!(drained, 9);
    }
}
