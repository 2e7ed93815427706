//! Tango patterns.
//!
//! Per the paper: "a Tango pattern consists of a sequence of standard
//! OpenFlow flow modification commands and a corresponding data traffic
//! pattern". A [`TangoPattern`] is exactly that — a named step list of
//! flow-mods, probe packets, and barriers over a numbered family of
//! probe flows — executed verbatim by
//! [`pattern_probe`](crate::probe::pattern_probe).

use ofwire::flow_match::{FlowKey, FlowMatch};
use simnet::rng::DetRng;

/// Which header layers the pattern's probe rules match (determines TCAM
/// slot width on width-sensitive switches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// Ethernet-only rules.
    L2,
    /// IP-only rules.
    L3,
    /// Combined rules (double-wide on some TCAMs).
    L2L3,
}

impl RuleKind {
    /// The match for probe flow `id` under this kind.
    #[must_use]
    pub fn flow_match(self, id: u32) -> FlowMatch {
        match self {
            RuleKind::L2 => FlowMatch::l2_for_id(id),
            RuleKind::L3 => FlowMatch::l3_for_id(id),
            RuleKind::L2L3 => FlowMatch::l2l3_for_id(id),
        }
    }

    /// A packet key hitting probe flow `id`'s rule.
    #[must_use]
    pub fn key(self, id: u32) -> FlowKey {
        FlowMatch::key_for_id(id)
    }
}

/// One step of a pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternStep {
    /// Install probe flow `id` at `priority`.
    Add {
        /// Probe-flow id.
        id: u32,
        /// Rule priority.
        priority: u16,
    },
    /// Rewrite probe flow `id`'s action to output on `out_port`.
    Modify {
        /// Probe-flow id.
        id: u32,
        /// Rule priority (strict modify).
        priority: u16,
        /// New output port.
        out_port: u16,
    },
    /// Remove probe flow `id` (strict).
    Delete {
        /// Probe-flow id.
        id: u32,
        /// Rule priority (strict delete).
        priority: u16,
    },
    /// Send one data packet matching probe flow `id` and record its RTT.
    Probe {
        /// Probe-flow id.
        id: u32,
    },
    /// Fence: wait until all earlier commands complete, and close the
    /// current timing segment.
    Barrier,
}

/// The order in which a batch of adds assigns priorities (Fig 3c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityOrder {
    /// Priorities increase with insertion order (never shifts).
    Ascending,
    /// Priorities decrease with insertion order (always shifts).
    Descending,
    /// All rules share one priority.
    Same,
    /// A random permutation of the ascending priorities (seeded).
    Random(u64),
}

impl PriorityOrder {
    /// The priority assigned to the `i`-th of `n` insertions. Priorities
    /// stay in `[base, base+n)` so patterns are comparable.
    #[must_use]
    pub fn priorities(self, n: usize, base: u16) -> Vec<u16> {
        match self {
            PriorityOrder::Ascending => (0..n).map(|i| base + i as u16).collect(),
            PriorityOrder::Descending => (0..n).map(|i| base + (n - 1 - i) as u16).collect(),
            PriorityOrder::Same => vec![base; n],
            PriorityOrder::Random(seed) => {
                let mut v: Vec<u16> = (0..n).map(|i| base + i as u16).collect();
                DetRng::new(seed).shuffle(&mut v);
                v
            }
        }
    }

    /// Display label used in figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PriorityOrder::Ascending => "asc. priority",
            PriorityOrder::Descending => "desc. priority",
            PriorityOrder::Same => "same priority",
            PriorityOrder::Random(_) => "random priority",
        }
    }
}

/// A named probe pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TangoPattern {
    /// Identifier in the pattern database.
    pub name: String,
    /// Match kind of the probe rules.
    pub kind: RuleKind,
    /// The steps.
    pub steps: Vec<PatternStep>,
}

impl TangoPattern {
    /// Install `n` rules with the given priority order, barriered at the
    /// end — the Fig 3c priority pattern.
    #[must_use]
    pub fn priority_insertion(n: usize, order: PriorityOrder, kind: RuleKind) -> TangoPattern {
        let prios = order.priorities(n, 1000);
        let mut steps: Vec<PatternStep> = prios
            .iter()
            .enumerate()
            .map(|(i, &priority)| PatternStep::Add {
                id: i as u32,
                priority,
            })
            .collect();
        steps.push(PatternStep::Barrier);
        TangoPattern {
            name: format!("priority_insertion({n}, {})", order.label()),
            kind,
            steps,
        }
    }

    /// Modify `n` pre-installed rules (ids `0..n` at `base_priority`),
    /// barriered — the "mod" arm of Fig 3b.
    #[must_use]
    pub fn modify_batch(n: usize, base_priority: u16, kind: RuleKind) -> TangoPattern {
        let mut steps: Vec<PatternStep> = (0..n)
            .map(|i| PatternStep::Modify {
                id: i as u32,
                priority: base_priority,
                out_port: 2,
            })
            .collect();
        steps.push(PatternStep::Barrier);
        TangoPattern {
            name: format!("modify_batch({n})"),
            kind,
            steps,
        }
    }

    /// Delete `n` pre-installed rules, barriered.
    #[must_use]
    pub fn delete_batch(n: usize, base_priority: u16, kind: RuleKind) -> TangoPattern {
        let mut steps: Vec<PatternStep> = (0..n)
            .map(|i| PatternStep::Delete {
                id: i as u32,
                priority: base_priority,
            })
            .collect();
        steps.push(PatternStep::Barrier);
        TangoPattern {
            name: format!("delete_batch({n})"),
            kind,
            steps,
        }
    }

    /// Probe rules `0..n` once each, in order.
    #[must_use]
    pub fn probe_each(n: usize, kind: RuleKind) -> TangoPattern {
        TangoPattern {
            name: format!("probe_each({n})"),
            kind,
            steps: (0..n)
                .map(|i| PatternStep::Probe { id: i as u32 })
                .collect(),
        }
    }

    /// The six add/mod/del permutations of Fig 3a: phases of `per_phase`
    /// operations each, in the order given by `perm` (a permutation of
    /// `[Add, Modify, Delete]` encoded as phase labels).
    ///
    /// Adds create ids `base_new..` at priorities `base..base+per_phase`;
    /// mods touch pre-installed ids `0..per_phase` at `base`; deletes
    /// touch pre-installed ids `per_phase..2·per_phase` at
    /// `base + 2·per_phase` (above every add, so delete-before-add
    /// genuinely reduces TCAM shifting — the effect Fig 3a measures).
    #[must_use]
    pub fn op_permutation(
        perm: [OpPhase; 3],
        per_phase: usize,
        base_new: u32,
        base_priority: u16,
        kind: RuleKind,
    ) -> TangoPattern {
        let mut steps = Vec::new();
        for phase in perm {
            match phase {
                OpPhase::Add => {
                    for i in 0..per_phase {
                        steps.push(PatternStep::Add {
                            id: base_new + i as u32,
                            priority: base_priority + i as u16,
                        });
                    }
                }
                OpPhase::Modify => {
                    for i in 0..per_phase {
                        steps.push(PatternStep::Modify {
                            id: i as u32,
                            priority: base_priority,
                            out_port: 3,
                        });
                    }
                }
                OpPhase::Delete => {
                    let del_priority = base_priority + 2 * per_phase as u16;
                    for i in 0..per_phase {
                        steps.push(PatternStep::Delete {
                            id: (per_phase + i) as u32,
                            priority: del_priority,
                        });
                    }
                }
            }
            steps.push(PatternStep::Barrier);
        }
        let label: Vec<&str> = perm.iter().map(|p| p.label()).collect();
        TangoPattern {
            name: label.join("_"),
            kind,
            steps,
        }
    }

    /// Number of steps of each class: (adds, mods, dels, probes).
    #[must_use]
    pub fn op_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for s in &self.steps {
            match s {
                PatternStep::Add { .. } => c.0 += 1,
                PatternStep::Modify { .. } => c.1 += 1,
                PatternStep::Delete { .. } => c.2 += 1,
                PatternStep::Probe { .. } => c.3 += 1,
                PatternStep::Barrier => {}
            }
        }
        c
    }
}

/// A phase label for [`TangoPattern::op_permutation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpPhase {
    /// A batch of additions.
    Add,
    /// A batch of modifications.
    Modify,
    /// A batch of deletions.
    Delete,
}

impl OpPhase {
    /// Short label, as in Fig 3a's x-axis ("add_del_mod", …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpPhase::Add => "add",
            OpPhase::Modify => "mod",
            OpPhase::Delete => "del",
        }
    }

    /// All six orderings of the three phases.
    #[must_use]
    pub fn permutations() -> [[OpPhase; 3]; 6] {
        use OpPhase::{Add, Delete, Modify};
        [
            [Add, Delete, Modify],
            [Add, Modify, Delete],
            [Modify, Delete, Add],
            [Modify, Add, Delete],
            [Delete, Modify, Add],
            [Delete, Add, Modify],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders() {
        assert_eq!(PriorityOrder::Ascending.priorities(3, 10), vec![10, 11, 12]);
        assert_eq!(
            PriorityOrder::Descending.priorities(3, 10),
            vec![12, 11, 10]
        );
        assert_eq!(PriorityOrder::Same.priorities(3, 10), vec![10, 10, 10]);
        let mut r = PriorityOrder::Random(1).priorities(10, 10);
        let r2 = PriorityOrder::Random(1).priorities(10, 10);
        assert_eq!(r, r2, "seeded randomness is deterministic");
        r.sort_unstable();
        assert_eq!(r, PriorityOrder::Ascending.priorities(10, 10));
    }

    #[test]
    fn priority_insertion_shape() {
        let p = TangoPattern::priority_insertion(5, PriorityOrder::Ascending, RuleKind::L3);
        assert_eq!(p.steps.len(), 6); // 5 adds + barrier
        assert_eq!(p.op_counts(), (5, 0, 0, 0));
        assert!(matches!(p.steps[5], PatternStep::Barrier));
    }

    #[test]
    fn op_permutation_counts_and_name() {
        use OpPhase::{Add, Delete, Modify};
        let p = TangoPattern::op_permutation([Add, Delete, Modify], 200, 1000, 50, RuleKind::L3);
        assert_eq!(p.name, "add_del_mod");
        assert_eq!(p.op_counts(), (200, 200, 200, 0));
        // Three barriers, one per phase.
        let barriers = p
            .steps
            .iter()
            .filter(|s| matches!(s, PatternStep::Barrier))
            .count();
        assert_eq!(barriers, 3);
    }

    #[test]
    fn all_six_permutations_distinct() {
        let names: Vec<String> = OpPhase::permutations()
            .iter()
            .map(|perm| TangoPattern::op_permutation(*perm, 1, 100, 10, RuleKind::L3).name)
            .collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 6, "{names:?}");
    }

    #[test]
    fn rule_kind_match_consistency() {
        for kind in [RuleKind::L2, RuleKind::L3, RuleKind::L2L3] {
            let m = kind.flow_match(7);
            assert!(m.covers(&kind.key(7)));
            assert!(!m.covers(&kind.key(8)));
        }
    }
}
