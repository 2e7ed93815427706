//! ClassBench-like ACL generation (§7.1).
//!
//! The paper draws three rule sets from ClassBench \[21\] access-control
//! lists; the scheduler experiments consume only the rules' *counts and
//! dependency structure* (Table 2). This generator synthesizes ACLs with
//! controlled size and dependency depth:
//!
//! * a **main chain** of nested prefixes (each rule strictly inside its
//!   predecessor) sets the number of topological priority levels;
//! * the remaining rules form small nested **clusters** in disjoint
//!   address blocks, giving a realistic overlap-rich body without
//!   deepening the chain.
//!
//! The three presets reproduce Table 2's rows: 829/989/972 rules with
//! 64/38/33 topological priority levels.

use ofwire::action::{Action, ActionList};
use ofwire::flow_match::{FlowMatch, Ipv4Prefix};
use simnet::rng::DetRng;

/// One ACL rule: a match plus an action, in list-precedence order.
#[derive(Debug, Clone, PartialEq)]
pub struct AclRule {
    /// What the rule matches.
    pub flow_match: FlowMatch,
    /// The forwarding action.
    pub actions: ActionList,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassBenchConfig {
    /// Total rules to generate.
    pub rules: usize,
    /// Dependency-chain depth = number of topological priority levels.
    pub levels: usize,
    /// Depth of the filler clusters (must not exceed `levels`).
    pub cluster_depth: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ClassBenchConfig {
    /// Table 2 row 1: 829 rules, 64 priority levels.
    #[must_use]
    pub fn classbench1() -> ClassBenchConfig {
        ClassBenchConfig {
            rules: 829,
            levels: 64,
            cluster_depth: 3,
            seed: 0xc1a5_5001,
        }
    }

    /// Table 2 row 2: 989 rules, 38 priority levels.
    #[must_use]
    pub fn classbench2() -> ClassBenchConfig {
        ClassBenchConfig {
            rules: 989,
            levels: 38,
            cluster_depth: 3,
            seed: 0xc1a5_5002,
        }
    }

    /// Table 2 row 3: 972 rules, 33 priority levels.
    #[must_use]
    pub fn classbench3() -> ClassBenchConfig {
        ClassBenchConfig {
            rules: 972,
            levels: 33,
            cluster_depth: 3,
            seed: 0xc1a5_5003,
        }
    }

    /// All three presets with their paper labels.
    #[must_use]
    pub fn presets() -> Vec<(&'static str, ClassBenchConfig)> {
        vec![
            ("Classbench1", ClassBenchConfig::classbench1()),
            ("Classbench2", ClassBenchConfig::classbench2()),
            ("Classbench3", ClassBenchConfig::classbench3()),
        ]
    }
}

/// A chain of `depth` rules nested inside the `/8` block `block`,
/// emitted most-specific-first (standard ACL ordering): rule `k` is
/// strictly inside rule `k+1`, so each earlier rule overlaps every later
/// rule and must receive a higher priority — a dependency chain of
/// length `depth`.
fn nested_chain(block: u32, depth: usize, rng: &mut DetRng) -> Vec<AclRule> {
    // Split the nesting across src and dst prefixes: total depth can
    // reach 48 + 24 without leaving the block.
    let src_base = block << 24;
    let dst_base = (block ^ 0xff) << 24;
    (0..depth)
        .map(|i| {
            // Most specific first: depth-1 downto 0 extra bits.
            let spec = depth - 1 - i;
            let src_extra = spec.min(24) as u8;
            let dst_extra = spec.saturating_sub(24).min(24) as u8;
            let m = FlowMatch {
                dl_type: Some(0x0800),
                nw_src: Some(Ipv4Prefix::new(src_base, 8 + src_extra)),
                nw_dst: Some(Ipv4Prefix::new(dst_base, 8 + dst_extra)),
                ..FlowMatch::default()
            };
            AclRule {
                flow_match: m,
                actions: Action::output(1 + (rng.index(4) as u16)).into(),
            }
        })
        .collect()
}

/// Generates the ACL.
///
/// Panics if `rules < levels` or `cluster_depth` is zero or exceeds
/// `levels` (the chain must dominate the depth).
#[must_use]
pub fn generate(config: &ClassBenchConfig) -> Vec<AclRule> {
    assert!(config.rules >= config.levels, "rules < levels");
    assert!(
        (1..=config.levels).contains(&config.cluster_depth),
        "cluster_depth out of range"
    );
    let mut rng = DetRng::new(config.seed);
    let mut rules = nested_chain(10, config.levels, &mut rng);

    // Filler clusters in disjoint /16 blocks within 11.0.0.0/8 …
    // 200.x — never the chain's block (10/8) nor its dst mirror.
    let mut next_block: u32 = (11 << 8) + 1; // /16 index: high 16 bits
    let mut remaining = config.rules - config.levels;
    while remaining > 0 {
        let depth = config.cluster_depth.min(remaining).max(1);
        let block16 = next_block;
        next_block += 1;
        let src_base = block16 << 16;
        // Transport fields are drawn once per cluster so the cluster's
        // rules genuinely nest (differing ports would break the overlap).
        let proto = if rng.chance(0.5) { 6u8 } else { 17 };
        let tp_dst = 1000 + rng.index(64) as u16 * 16;
        for j in 0..depth {
            // Most specific first within the cluster: j extra bits fewer.
            let extra = (depth - 1 - j) as u8;
            let m = FlowMatch {
                dl_type: Some(0x0800),
                nw_src: Some(Ipv4Prefix::new(src_base, 16 + extra)),
                nw_dst: None,
                nw_proto: Some(proto),
                tp_dst: Some(tp_dst),
                ..FlowMatch::default()
            };
            rules.push(AclRule {
                flow_match: m,
                actions: Action::output(1 + (rng.index(4) as u16)).into(),
            });
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
    }
    assert_eq!(rules.len(), config.rules);
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::{chain_depth, rule_dependencies};

    #[test]
    fn presets_match_table2_counts() {
        for (name, cfg) in ClassBenchConfig::presets() {
            let rules = generate(&cfg);
            assert_eq!(rules.len(), cfg.rules, "{name} rule count");
            let matches: Vec<FlowMatch> = rules.iter().map(|r| r.flow_match).collect();
            let deps = rule_dependencies(&matches);
            let depth = chain_depth(matches.len(), &deps);
            assert_eq!(depth, cfg.levels, "{name} priority levels");
        }
    }

    #[test]
    fn chain_rules_are_strictly_nested() {
        let mut rng = DetRng::new(1);
        let chain = nested_chain(10, 10, &mut rng);
        for w in chain.windows(2) {
            // Later rule (more general) subsumes the earlier one.
            assert!(w[1].flow_match.subsumes(&w[0].flow_match));
            assert!(!w[0].flow_match.subsumes(&w[1].flow_match));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = ClassBenchConfig::classbench1();
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn clusters_do_not_deepen_the_chain() {
        // A tiny config where fillers dominate: depth still equals the
        // configured levels.
        let cfg = ClassBenchConfig {
            rules: 100,
            levels: 7,
            cluster_depth: 3,
            seed: 9,
        };
        let rules = generate(&cfg);
        let matches: Vec<FlowMatch> = rules.iter().map(|r| r.flow_match).collect();
        let deps = rule_dependencies(&matches);
        assert_eq!(chain_depth(matches.len(), &deps), 7);
    }

    #[test]
    #[should_panic(expected = "rules < levels")]
    fn invalid_config_panics() {
        let _ = generate(&ClassBenchConfig {
            rules: 5,
            levels: 10,
            cluster_depth: 3,
            seed: 0,
        });
    }
}
