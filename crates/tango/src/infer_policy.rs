//! Algorithm 2 — the cache-policy probing algorithm (§5.3).
//!
//! The probe installs `2n` flows (where `n` is the fast-layer size
//! inferred by Algorithm 1) with carefully initialized attributes so
//! that, for **each** candidate attribute, half the flows rank high and
//! half low — and no two attributes agree on which half (pairwise
//! balanced splits, cf. Fig 6). After initialization, the cached set is
//! exactly the policy's top-`n`; probing RTTs in most-recently-used-first
//! order observes membership without disturbing any attribute's relative
//! order. The attribute whose initialized values correlate most strongly
//! (positively or negatively) with membership is the policy's next sort
//! key; the probe recurses — holding identified non-serial attributes
//! constant — until it identifies a *serial* attribute (insertion or use
//! time, whose distinct-per-flow values already induce a total order).
//!
//! Policies whose internal tie-break is "oldest entry wins" are reported
//! with an explicit trailing `insertion_time↓` key — behaviourally
//! equivalent, which is all a black-box probe can promise.

use crate::cluster::cluster_rtts;
use crate::driver::{self, mismatch, InferenceDriver, ProbeError, Step};
use crate::pattern::RuleKind;
use crate::stats::pearson;
use ofwire::flow_mod::FlowMod;
use serde::{Deserialize, Serialize};
use switchsim::cache::{Attribute, CachePolicy, Direction, SortKey};
use switchsim::control::{ControlOp, OpOutcome};

/// Configuration for the policy probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyProbeConfig {
    /// Low traffic-count initialization value.
    pub traffic_low: u32,
    /// High traffic-count initialization value (must exceed `low` by ≥ 2
    /// so the probe's own packets cannot reorder flows — MONOTONE).
    pub traffic_high: u32,
    /// Low rule priority.
    pub prio_low: u16,
    /// High rule priority.
    pub prio_high: u16,
    /// Minimum |correlation| to accept an attribute as a sort key.
    pub min_correlation: f64,
    /// Maximum recursion depth (≤ number of attributes).
    pub max_keys: usize,
}

impl Default for PolicyProbeConfig {
    fn default() -> PolicyProbeConfig {
        PolicyProbeConfig {
            traffic_low: 10,
            traffic_high: 20,
            prio_low: 100,
            prio_high: 200,
            min_correlation: 0.5,
            max_keys: 4,
        }
    }
}

/// Diagnostics from one probe round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRound {
    /// Correlation of each candidate attribute with cache membership.
    pub correlations: Vec<(Attribute, f64)>,
    /// The attribute chosen this round (with direction), if any cleared
    /// the threshold.
    pub chosen: Option<SortKey>,
    /// How many flows the round observed as cached.
    pub cached_count: usize,
}

/// The inferred policy plus per-round diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferredPolicy {
    /// The identified lexicographic sort keys, most significant first.
    pub keys: Vec<SortKey>,
    /// Per-round diagnostics.
    pub rounds: Vec<PolicyRound>,
}

impl InferredPolicy {
    /// As a [`CachePolicy`] for comparison with ground truth.
    #[must_use]
    pub fn as_policy(&self) -> CachePolicy {
        CachePolicy::new(self.keys.clone())
    }
}

/// The attribute-initialization plan for one flow (visualized in Fig 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowInit {
    /// Flow id (also the insertion rank: flow `i` is installed `i`-th).
    pub id: u32,
    /// Rule priority.
    pub priority: u16,
    /// Total packets the flow receives during initialization.
    pub traffic: u32,
    /// Use rank: position in the final use-time order (0 = oldest use).
    pub use_rank: u32,
}

/// Builds the pairwise-balanced initialization plan for `s = 2n` flows.
///
/// * insertion rank = `i` (install order);
/// * priority splits on `i % 2` (unless held constant);
/// * traffic splits on `(i / 2) % 2` (unless held constant);
/// * use rank = `i · K mod s` for an odd multiplier `K` coprime to `s`,
///   decorrelating the use-time order from all the index-based splits.
#[must_use]
pub fn initialization_plan(
    s: usize,
    hold_priority: bool,
    hold_traffic: bool,
    config: &PolicyProbeConfig,
) -> Vec<FlowInit> {
    // An odd multiplier near s·φ, made coprime with s.
    let mut k = ((s as f64 * 0.618) as u32) | 1;
    while gcd(u64::from(k), s as u64) != 1 {
        k += 2;
    }
    (0..s as u32)
        .map(|i| FlowInit {
            id: i,
            priority: if hold_priority {
                config.prio_low
            } else if i % 2 == 0 {
                config.prio_high
            } else {
                config.prio_low
            },
            traffic: if hold_traffic {
                config.traffic_low
            } else if (i / 2) % 2 == 0 {
                config.traffic_high
            } else {
                config.traffic_low
            },
            use_rank: (i.wrapping_mul(k)) % s as u32,
        })
        .collect()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The policy probe as a resumable state machine (see
/// [`driver`]). Each round's full op sequence — clear,
/// install, traffic initialization, use-time pass, measurement pass — is
/// issued up front; only the final `s` probe completions carry
/// measurements, and the round's analysis plus the recursion decision
/// run when the last one arrives.
pub struct PolicyDriver {
    kind: RuleKind,
    cache_size: usize,
    config: PolicyProbeConfig,
    identified: Vec<SortKey>,
    rounds: Vec<PolicyRound>,
    // Current round.
    plan: Vec<FlowInit>,
    /// Ids probed by the measurement pass, in probe order.
    measure_ids: Vec<u32>,
    /// Completions to consume before the measurement pass starts.
    skip: usize,
    measured: Vec<(u32, f64)>,
    finished: bool,
}

impl PolicyDriver {
    /// A driver inferring the policy of a switch whose fast layer holds
    /// `cache_size` rules (from Algorithm 1).
    #[must_use]
    pub fn new(kind: RuleKind, cache_size: usize, config: PolicyProbeConfig) -> PolicyDriver {
        PolicyDriver {
            kind,
            cache_size,
            config,
            identified: Vec::new(),
            rounds: Vec::new(),
            plan: Vec::new(),
            measure_ids: Vec::new(),
            skip: 0,
            measured: Vec::new(),
            finished: false,
        }
    }

    fn hold_priority(&self) -> bool {
        self.identified
            .iter()
            .any(|k| k.attribute == Attribute::Priority)
    }

    fn hold_traffic(&self) -> bool {
        self.identified
            .iter()
            .any(|k| k.attribute == Attribute::TrafficCount)
    }

    /// Builds one round's complete op sequence and resets the round
    /// bookkeeping.
    fn begin_round(&mut self) -> Vec<ControlOp> {
        let s = 2 * self.cache_size;
        self.plan = initialization_plan(s, self.hold_priority(), self.hold_traffic(), &self.config);

        // Fresh table.
        let mut ops = vec![ControlOp::FlowMod(FlowMod::delete_all())];

        // Install in id order (insertion time = rank i).
        for f in &self.plan {
            ops.push(ControlOp::FlowMod(FlowMod::add(
                self.kind.flow_match(f.id),
                f.priority,
            )));
        }

        // Traffic initialization: bring each flow to traffic-1 packets.
        // The final packet comes from the use-time pass so the last-use
        // order is exactly the use-rank permutation.
        for f in &self.plan {
            for _ in 1..f.traffic {
                ops.push(ControlOp::Probe(self.kind.key(f.id)));
            }
        }

        // Use-time initialization: one packet per flow, in use-rank
        // order.
        let mut by_use: Vec<&FlowInit> = self.plan.iter().collect();
        by_use.sort_by_key(|f| f.use_rank);
        for f in &by_use {
            ops.push(ControlOp::Probe(self.kind.key(f.id)));
        }

        // Measurement: probe most-recently-used first. Each probed
        // flow's new use stamp is *older* than the stamps of flows
        // probed before it, so the relative use order is preserved
        // (paper §5.3).
        self.measure_ids = by_use.iter().rev().map(|f| f.id).collect();
        for &id in &self.measure_ids {
            ops.push(ControlOp::Probe(self.kind.key(id)));
        }

        self.skip = ops.len() - self.measure_ids.len();
        self.measured.clear();
        ops
    }

    /// Analysis plus the recursion decision, once the round's last
    /// measurement completes.
    fn finish_round(&mut self) -> Step<InferredPolicy> {
        let round = analyze_round(
            &self.plan,
            &self.measured,
            self.hold_priority(),
            self.hold_traffic(),
            &self.config,
        );
        let chosen = round.chosen;
        self.rounds.push(round);
        let stop = match chosen {
            None => true,
            Some(key) => {
                // An attribute can only appear once in a LEX order.
                if self.identified.iter().any(|k| k.attribute == key.attribute) {
                    true
                } else {
                    let attr = key.attribute;
                    self.identified.push(key);
                    // A serial attribute already induces a total order;
                    // tie-breaks below a traffic-count key are not
                    // black-box observable (every probe packet
                    // increments the held attribute).
                    attr.is_serial() || attr == Attribute::TrafficCount
                }
            }
        };
        if stop || self.identified.len() >= self.config.max_keys {
            self.finished = true;
            Step::Done(InferredPolicy {
                keys: std::mem::take(&mut self.identified),
                rounds: std::mem::take(&mut self.rounds),
            })
        } else {
            Step::Issue(self.begin_round())
        }
    }
}

impl InferenceDriver for PolicyDriver {
    type Outcome = InferredPolicy;

    fn start(&mut self) -> Step<InferredPolicy> {
        if self.identified.len() >= self.config.max_keys {
            self.finished = true;
            return Step::Done(InferredPolicy {
                keys: std::mem::take(&mut self.identified),
                rounds: std::mem::take(&mut self.rounds),
            });
        }
        Step::Issue(self.begin_round())
    }

    fn on_completion(
        &mut self,
        c: &driver::Completion,
    ) -> Result<Step<InferredPolicy>, ProbeError> {
        if self.finished {
            return Err(mismatch(&"no op in flight (driver finished)", c));
        }
        if self.skip > 0 {
            // Initialization traffic: clear, installs, warm-up probes.
            // Only their ordering matters, not their outcomes.
            self.skip -= 1;
            if self.skip == 0 && self.measure_ids.is_empty() {
                // Degenerate round (cache_size == 0): nothing to
                // measure, analyze the empty round immediately.
                return Ok(self.finish_round());
            }
            return Ok(Step::Issue(vec![]));
        }
        let OpOutcome::Probe(_) = c.inner.outcome else {
            return Err(mismatch(&"measurement probe", c));
        };
        let id = self.measure_ids[self.measured.len()];
        self.measured.push((id, c.elapsed_ms()));
        if self.measured.len() == self.measure_ids.len() {
            Ok(self.finish_round())
        } else {
            Ok(Step::Issue(vec![]))
        }
    }
}

/// The pure analysis of one round: classifies cached membership from the
/// measurement RTTs and correlates each candidate attribute's
/// initialized values with membership.
fn analyze_round(
    plan: &[FlowInit],
    rtts: &[(u32, f64)],
    hold_priority: bool,
    hold_traffic: bool,
    config: &PolicyProbeConfig,
) -> PolicyRound {
    let s = plan.len();

    // Classify cached membership from the RTT clusters.
    let values: Vec<f64> = rtts.iter().map(|&(_, r)| r).collect();
    let clustering = cluster_rtts(&values);
    let mut cached = vec![0.0f64; s];
    let mut cached_count = 0;
    for &(id, rtt) in rtts {
        if clustering.k() >= 2 && clustering.within(rtt, 0) {
            cached[id as usize] = 1.0;
            cached_count += 1;
        }
    }
    if clustering.k() < 2 {
        // One cluster: cannot observe membership (cache larger than 2n,
        // or all flows cached). No attribute can be identified.
        return PolicyRound {
            correlations: vec![],
            chosen: None,
            cached_count: if clustering.k() == 1 { s } else { 0 },
        };
    }

    // Correlate each candidate attribute's initialized values with
    // membership.
    let mut correlations = Vec::new();
    let mut best: Option<(Attribute, f64)> = None;
    for attr in Attribute::ALL {
        let skip = match attr {
            Attribute::Priority => hold_priority,
            Attribute::TrafficCount => hold_traffic,
            _ => false,
        };
        if skip {
            continue;
        }
        let xs: Vec<f64> = plan
            .iter()
            .map(|f| match attr {
                Attribute::InsertionTime => f64::from(f.id),
                Attribute::UseTime => f64::from(f.use_rank),
                Attribute::TrafficCount => f64::from(f.traffic),
                Attribute::Priority => f64::from(f.priority),
            })
            .collect();
        if let Some(r) = pearson(&xs, &cached) {
            correlations.push((attr, r));
            if best.is_none_or(|(_, br)| r.abs() > br.abs()) {
                best = Some((attr, r));
            }
        }
    }

    let chosen = best.and_then(|(attr, r)| {
        if r.abs() >= config.min_correlation {
            Some(SortKey {
                attribute: attr,
                direction: if r > 0.0 {
                    Direction::KeepHigh
                } else {
                    Direction::KeepLow
                },
            })
        } else {
            None
        }
    });

    PolicyRound {
        correlations,
        chosen,
        cached_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::RuleKind;
    use ofwire::types::Dpid;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    fn infer_for(policy: CachePolicy, cache_size: u64) -> InferredPolicy {
        let mut tb = Testbed::new(21);
        let dpid = Dpid(1);
        tb.attach_default(dpid, SwitchProfile::generic_cached(cache_size, policy));
        let cfg = PolicyProbeConfig::default();
        driver::run_driver(
            &mut tb,
            dpid,
            PolicyDriver::new(RuleKind::L3, cache_size as usize, cfg),
        )
        .expect("policy probe completes")
    }

    #[test]
    fn initialization_plan_is_pairwise_balanced() {
        let cfg = PolicyProbeConfig::default();
        let plan = initialization_plan(200, false, false, &cfg);
        // Each split is exactly half/half.
        let hi_prio = plan.iter().filter(|f| f.priority == cfg.prio_high).count();
        let hi_traffic = plan
            .iter()
            .filter(|f| f.traffic == cfg.traffic_high)
            .count();
        assert_eq!(hi_prio, 100);
        assert_eq!(hi_traffic, 100);
        // use_rank is a permutation.
        let mut ranks: Vec<u32> = plan.iter().map(|f| f.use_rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..200).collect::<Vec<u32>>());
        // Pairwise correlations between the four attribute vectors are
        // small (the "no subset agrees on more than one attribute"
        // condition).
        let attrs: Vec<Vec<f64>> = vec![
            plan.iter().map(|f| f64::from(f.id)).collect(),
            plan.iter().map(|f| f64::from(f.use_rank)).collect(),
            plan.iter().map(|f| f64::from(f.traffic)).collect(),
            plan.iter().map(|f| f64::from(f.priority)).collect(),
        ];
        for i in 0..attrs.len() {
            for j in i + 1..attrs.len() {
                let r = pearson(&attrs[i], &attrs[j]).unwrap().abs();
                assert!(r < 0.2, "attrs {i} vs {j} correlate at {r}");
            }
        }
    }

    #[test]
    fn infers_fifo() {
        let inferred = infer_for(CachePolicy::fifo(), 100);
        assert_eq!(
            inferred.keys.first(),
            Some(&SortKey {
                attribute: Attribute::InsertionTime,
                direction: Direction::KeepLow
            }),
            "rounds: {:?}",
            inferred.rounds
        );
        // Insertion time is serial: exactly one key.
        assert_eq!(inferred.keys.len(), 1);
    }

    #[test]
    fn infers_lru() {
        let inferred = infer_for(CachePolicy::lru(), 100);
        assert_eq!(
            inferred.keys,
            vec![SortKey {
                attribute: Attribute::UseTime,
                direction: Direction::KeepHigh
            }],
            "rounds: {:?}",
            inferred.rounds
        );
    }

    #[test]
    fn infers_lfu() {
        let inferred = infer_for(CachePolicy::lfu(), 100);
        assert_eq!(
            inferred.keys,
            vec![SortKey {
                attribute: Attribute::TrafficCount,
                direction: Direction::KeepHigh
            }],
            "rounds: {:?}",
            inferred.rounds
        );
        // Traffic tie-breaks are not black-box observable (probing
        // perturbs the held attribute), so the probe stops after the
        // traffic key.
        assert_eq!(inferred.keys.len(), 1);
    }

    #[test]
    fn infers_priority_caching() {
        let inferred = infer_for(CachePolicy::priority(), 100);
        assert_eq!(
            inferred.keys.first(),
            Some(&SortKey {
                attribute: Attribute::Priority,
                direction: Direction::KeepHigh
            }),
            "rounds: {:?}",
            inferred.rounds
        );
    }

    #[test]
    fn infers_composite_priority_then_lru() {
        let inferred = infer_for(CachePolicy::priority_then_lru(), 100);
        assert_eq!(
            inferred.keys,
            vec![
                SortKey {
                    attribute: Attribute::Priority,
                    direction: Direction::KeepHigh
                },
                SortKey {
                    attribute: Attribute::UseTime,
                    direction: Direction::KeepHigh
                },
            ],
            "rounds: {:?}",
            inferred.rounds
        );
    }

    #[test]
    fn lfu_then_fifo_matches_lfu_report() {
        // An explicit traffic-then-FIFO LEX policy must produce the same
        // report as plain LFU (whose id tie-break *is* FIFO) — black-box
        // behavioural equivalence.
        let a = infer_for(CachePolicy::lfu_then_fifo(), 80);
        let b = infer_for(CachePolicy::lfu(), 80);
        assert_eq!(a.keys, b.keys, "a: {:?}\nb: {:?}", a.rounds, b.rounds);
    }

    #[test]
    fn undersized_probe_reports_nothing() {
        // If the caller passes a cache_size at least as large as the
        // actual rule population (so everything fits in the fast layer),
        // the probe sees one RTT cluster and identifies nothing.
        let mut tb = Testbed::new(33);
        let dpid = Dpid(1);
        tb.attach_default(
            dpid,
            SwitchProfile::generic_cached(1000, CachePolicy::lru()),
        );
        let cfg = PolicyProbeConfig::default();
        let inferred = driver::run_driver(&mut tb, dpid, PolicyDriver::new(RuleKind::L3, 50, cfg))
            .expect("policy probe completes");
        assert!(inferred.keys.is_empty(), "rounds: {:?}", inferred.rounds);
    }
}
