//! Priority assignment from rule-dependency graphs (§7.1, Table 2).
//!
//! ACL rule sets induce dependencies: if two rules overlap, the one
//! earlier in the list must take precedence, i.e. get the *higher*
//! priority. Given those constraints (edges `(hi, lo)`: rule `hi` must
//! out-rank rule `lo`), the paper derives two assignments with the
//! algorithm from Maple \[23\]:
//!
//! * **Topological priorities** — the minimum number of distinct
//!   priority levels: rules with no mutual constraints share a level
//!   (Table 2's "Topological Priorities" column);
//! * **R priorities** — a 1-to-1 assignment (every rule gets a unique
//!   priority) that still satisfies every constraint.

use std::fmt;

/// A priority assignment for `n` rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityAssignment {
    /// Priority per rule index.
    pub priorities: Vec<u16>,
    /// Number of distinct priority values used.
    pub distinct: usize,
}

/// The rule-dependency constraints form a cycle: no priority assignment
/// can satisfy them ("the upper layer must break the loop"). Mirrors the
/// executor's typed [`crate::executor::ExecError`] discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclicDag;

impl fmt::Display for CyclicDag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dependency cycle in rule set: no priority assignment can satisfy the constraints"
        )
    }
}

impl std::error::Error for CyclicDag {}

/// Computes the minimal-level (topological) assignment.
///
/// `deps` edges `(hi, lo)` require `priorities[hi] > priorities[lo]`.
/// Each rule's level is the longest constraint chain below it; the
/// number of distinct values is the DAG's height — the "minimum set of
/// priorities needed to install the rules while satisfying the
/// dependency constraints".
///
/// Errors with [`CyclicDag`] if the constraint graph has a cycle (an
/// ill-formed ACL).
pub fn topological_priorities(
    n: usize,
    deps: &[(usize, usize)],
) -> Result<PriorityAssignment, CyclicDag> {
    let order = topo_order(n, deps).ok_or(CyclicDag)?;
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(hi, lo) in deps {
        succs[hi].push(lo);
    }
    let mut level = vec![0u32; n];
    for &i in order.iter().rev() {
        for &s in &succs[i] {
            level[i] = level[i].max(level[s] + 1);
        }
    }
    let max_level = level.iter().copied().max().unwrap_or(0);
    let priorities: Vec<u16> = level.iter().map(|&l| 1 + l as u16).collect();
    Ok(PriorityAssignment {
        priorities,
        distinct: (max_level + 1) as usize,
    })
}

/// Computes a 1-to-1 ("R") assignment: unique priorities consistent with
/// every constraint, assigned by reverse topological order so the lowest
/// value goes to a constraint sink. Errors with [`CyclicDag`] on cyclic
/// constraints.
pub fn r_priorities(n: usize, deps: &[(usize, usize)]) -> Result<PriorityAssignment, CyclicDag> {
    let order = topo_order(n, deps).ok_or(CyclicDag)?;
    let mut priorities = vec![0u16; n];
    // First in topological order = most constrained from above = highest.
    for (rank, &node) in order.iter().enumerate() {
        priorities[node] = (n - rank) as u16;
    }
    Ok(PriorityAssignment {
        priorities,
        distinct: n,
    })
}

/// Kahn topological order over `(hi, lo)` edges, `None` on cycles.
fn topo_order(n: usize, deps: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut indeg = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(hi, lo) in deps {
        succs[hi].push(lo);
        indeg[lo] += 1;
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    stack.sort_unstable_by(|a, b| b.cmp(a));
    let mut order = Vec::with_capacity(n);
    while let Some(i) = stack.pop() {
        order.push(i);
        let mut newly = Vec::new();
        for &s in &succs[i] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                newly.push(s);
            }
        }
        newly.sort_unstable_by(|a, b| b.cmp(a));
        stack.extend(newly);
    }
    (order.len() == n).then_some(order)
}

/// Verifies that an assignment satisfies every constraint.
#[must_use]
pub fn satisfies(priorities: &[u16], deps: &[(usize, usize)]) -> bool {
    deps.iter().all(|&(hi, lo)| priorities[hi] > priorities[lo])
}

/// An installation order for the rules: ascending by assigned priority
/// (the probed-optimal order for shift-sensitive hardware). Ties keep
/// index order.
#[must_use]
pub fn ascending_install_order(priorities: &[u16]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..priorities.len()).collect();
    idx.sort_by_key(|&i| (priorities[i], i));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::rng::DetRng;

    /// A small chain + diamond: 0 > 1 > 3, 0 > 2 > 3.
    fn diamond() -> (usize, Vec<(usize, usize)>) {
        (4, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn topological_minimizes_levels() {
        let (n, deps) = diamond();
        let t = topological_priorities(n, &deps).unwrap();
        assert!(satisfies(&t.priorities, &deps));
        assert_eq!(t.distinct, 3); // three levels: {0}, {1,2}, {3}
        assert_eq!(t.priorities[1], t.priorities[2]);
    }

    #[test]
    fn r_assignment_is_unique_and_valid() {
        let (n, deps) = diamond();
        let r = r_priorities(n, &deps).unwrap();
        assert!(satisfies(&r.priorities, &deps));
        assert_eq!(r.distinct, 4);
        let mut sorted = r.priorities.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "priorities must be 1-to-1");
    }

    #[test]
    fn no_deps_single_level() {
        let t = topological_priorities(5, &[]).unwrap();
        assert_eq!(t.distinct, 1);
        assert!(t.priorities.iter().all(|&p| p == 1));
        let r = r_priorities(5, &[]).unwrap();
        assert_eq!(r.distinct, 5);
    }

    #[test]
    fn cycle_is_a_typed_error() {
        let cycle = [(0, 1), (1, 0)];
        assert_eq!(topological_priorities(2, &cycle).unwrap_err(), CyclicDag);
        assert_eq!(r_priorities(2, &cycle).unwrap_err(), CyclicDag);
        let msg = CyclicDag.to_string();
        assert!(msg.contains("dependency cycle"), "{msg}");
    }

    #[test]
    fn random_dags_always_satisfied() {
        let mut rng = DetRng::new(14);
        for trial in 0..20 {
            let n = 30 + trial;
            // Random forward edges i -> j with i < j guarantee acyclicity.
            let mut deps = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    if rng.chance(0.08) {
                        deps.push((i, j));
                    }
                }
            }
            let t = topological_priorities(n, &deps).unwrap();
            let r = r_priorities(n, &deps).unwrap();
            assert!(satisfies(&t.priorities, &deps), "topo trial {trial}");
            assert!(satisfies(&r.priorities, &deps), "r trial {trial}");
            assert!(t.distinct <= r.distinct);
        }
    }

    #[test]
    fn ascending_order_is_a_permutation_sorted_by_priority() {
        let prios = vec![5u16, 1, 3, 1, 9];
        let order = ascending_install_order(&prios);
        assert_eq!(order, vec![1, 3, 2, 0, 4]);
    }
}
