//! Algorithm 1 — the size-probing algorithm (§5.2).
//!
//! Three stages, implemented faithfully:
//!
//! 1. **Doubling insertion** — install rules in doubling batches, sending
//!    one probe packet per installed rule (so the cache holds no wasted
//!    slots), until the switch rejects an add (`ALL_TABLES_FULL`) or a
//!    configured cap is hit (switches with unbounded software tables
//!    never reject).
//! 2. **Clustering** — probe every installed rule once and cluster the
//!    RTTs; each cluster is one flow-table layer.
//! 3. **Sampling** — for each layer, repeatedly pick uniformly random
//!    rules and count consecutive probes whose RTT stays in that layer's
//!    cluster. The run lengths are negative-binomial; the MLE
//!    `p̂ = ΣX/(k+ΣX)` gives the layer's fraction of the `m` installed
//!    rules, hence its size `n̂ᵢ = m·p̂`.
//!
//! The total work is `O(n)` rule installations in `O(log n)` batches and
//! `O(n)` probe packets — asymptotically optimal, since any size probe
//! must install and exercise at least `n` rules.

use crate::cluster::{cluster_rtts, kmeans_auto, Clustering};
use crate::driver::{self, mismatch, InferenceDriver, ProbeError, Step};
use crate::pattern::RuleKind;
use crate::stats::nb_hit_probability;
use ofwire::flow_mod::FlowMod;
use serde::{Deserialize, Serialize};
use simnet::rng::DetRng;
use switchsim::control::{ControlOp, OpOutcome};

/// Which clustering method stage 2 uses (the ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterMethod {
    /// Gap-based splitting (default).
    Gaps,
    /// Elbow-selected 1-D k-means.
    KMeans,
}

/// Configuration for the size probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizeProbeConfig {
    /// Trials per layer in stage 3 (the paper's
    /// `NUM_TRIALS_PER_ITERATION`). More trials → tighter estimate: the
    /// estimate's relative standard deviation is `(1-p)/sqrt(k·p)` for a
    /// layer holding fraction `p` of the installed rules, so the default
    /// of 600 keeps a half-full layer within the paper's 5 % headline.
    pub trials_per_level: usize,
    /// Upper bound on rules installed, for switches that never reject
    /// (unbounded software tables).
    pub max_flows: usize,
    /// Priority used for all probe rules (constant, so insertion cost is
    /// minimal and priority plays no role in caching during this probe).
    pub priority: u16,
    /// RNG seed for the random sampling stage.
    pub seed: u64,
    /// Clustering method for stage 2.
    pub cluster_method: ClusterMethod,
}

impl Default for SizeProbeConfig {
    fn default() -> SizeProbeConfig {
        SizeProbeConfig {
            trials_per_level: 600,
            max_flows: 8192,
            priority: 100,
            seed: 0x7a60,
            cluster_method: ClusterMethod::Gaps,
        }
    }
}

/// The estimate for one flow-table layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelEstimate {
    /// RTT cluster center (ms) — identifies the layer.
    pub rtt_ms: f64,
    /// Estimated number of rules resident in the layer.
    pub estimated_size: f64,
    /// Rules of the stage-2 sweep observed in this cluster (a cheap
    /// secondary estimate).
    pub swept_count: usize,
    /// True if a sampling trial ran `m` consecutive hits — the layer
    /// holds (essentially) every installed rule.
    pub saturated: bool,
}

/// The complete result of a size probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizeEstimate {
    /// Rules successfully installed (`m`).
    pub m: usize,
    /// Whether the switch rejected an add (bounded total capacity) or the
    /// cap was reached (unbounded).
    pub hit_rejection: bool,
    /// Per-layer estimates, fastest first.
    pub levels: Vec<LevelEstimate>,
    /// The stage-2 clustering.
    pub clustering: Clustering,
    /// Total rule installations attempted.
    pub rules_attempted: usize,
    /// Total probe packets sent (all stages).
    pub packets_sent: usize,
    /// Number of doubling batches used in stage 1.
    pub batches: usize,
}

impl SizeEstimate {
    /// The estimated size of the fastest (hardware) layer.
    #[must_use]
    pub fn fast_layer_size(&self) -> Option<f64> {
        self.levels.first().map(|l| l.estimated_size)
    }
}

/// Which stage of Algorithm 1 the driver is in.
enum SizeState {
    /// Stage 1: a doubling add-batch is in flight.
    InsertBatch,
    /// Stage 1: per-installed-rule probes of the last batch are in
    /// flight (`left` remaining; the batch accepted `ok` and rejected
    /// `failed` adds).
    InsertProbes {
        left: usize,
        ok: usize,
        failed: usize,
    },
    /// Stage 2: sweep probes are in flight (`left` remaining).
    Sweep { left: usize },
    /// Stage 3: one sampling probe is in flight.
    Sample,
    /// Terminal (outcome already produced).
    Finished,
}

/// Algorithm 1 as a resumable state machine (see
/// [`driver`]). Issues exactly the operations — in
/// exactly the order and with exactly the RNG draws — of the original
/// synchronous implementation, so the estimate is bit-identical whether
/// the driver runs alone through [`run_driver`](driver::run_driver) or
/// interleaved with other switches' drivers in a fleet.
pub struct SizeDriver {
    kind: RuleKind,
    config: SizeProbeConfig,
    rng: DetRng,
    state: SizeState,
    // Stage 1 accounting.
    m: usize,
    x: usize,
    attempted: usize,
    packets: usize,
    batches: usize,
    hit_rejection: bool,
    // Stage 2.
    rtts: Vec<f64>,
    clustering: Clustering,
    // Stage 3.
    levels: Vec<LevelEstimate>,
    level: usize,
    runs: Vec<u64>,
    trial: usize,
    j: u64,
    saturated: bool,
}

impl SizeDriver {
    /// A driver probing with rules of `kind` under `config`.
    #[must_use]
    pub fn new(kind: RuleKind, config: SizeProbeConfig) -> SizeDriver {
        SizeDriver {
            kind,
            config,
            rng: DetRng::new(config.seed),
            state: SizeState::Finished,
            m: 0,
            x: 1,
            attempted: 0,
            packets: 0,
            batches: 0,
            hit_rejection: false,
            rtts: Vec::new(),
            clustering: Clustering::default(),
            levels: Vec::new(),
            level: 0,
            runs: Vec::new(),
            trial: 0,
            j: 0,
            saturated: false,
        }
    }

    /// Stage 1 scheduling: issue the next doubling batch, or fall
    /// through to stage 2 when insertion is over.
    fn next_batch_or_sweep(&mut self) -> Step<SizeEstimate> {
        while !self.hit_rejection && self.m < self.config.max_flows {
            let target = self.x.min(self.config.max_flows);
            if target > self.m {
                let fms: Vec<FlowMod> = (self.m..target)
                    .map(|i| FlowMod::add(self.kind.flow_match(i as u32), self.config.priority))
                    .collect();
                self.attempted += fms.len();
                self.batches += 1;
                self.state = SizeState::InsertBatch;
                return Step::Issue(vec![ControlOp::Batch(fms)]);
            }
            self.x *= 2;
        }
        self.start_sweep()
    }

    /// Stage 2: sweep every installed rule once, in shuffled order.
    fn start_sweep(&mut self) -> Step<SizeEstimate> {
        let mut order: Vec<u32> = (0..self.m as u32).collect();
        self.rng.shuffle(&mut order);
        if order.is_empty() {
            self.finish_sweep();
            return self.enter_level();
        }
        self.packets += order.len();
        self.state = SizeState::Sweep { left: order.len() };
        Step::Issue(
            order
                .into_iter()
                .map(|id| ControlOp::Probe(self.kind.key(id)))
                .collect(),
        )
    }

    /// Clusters the sweep RTTs (possibly empty).
    fn finish_sweep(&mut self) {
        self.clustering = match self.config.cluster_method {
            ClusterMethod::Gaps => cluster_rtts(&self.rtts),
            ClusterMethod::KMeans => kmeans_auto(&self.rtts, 4),
        };
    }

    /// Stage 3 scheduling: begin sampling the current level, record
    /// degenerate levels without probing, or finish.
    fn enter_level(&mut self) -> Step<SizeEstimate> {
        loop {
            if self.level >= self.clustering.k() {
                self.state = SizeState::Finished;
                return Step::Done(self.build());
            }
            self.saturated = false;
            if self.config.trials_per_level == 0 {
                // No trials: the level's estimate degenerates to
                // `m · p̂(∅) = 0`, with no packets spent.
                self.runs.clear();
                self.push_level();
                self.level += 1;
                continue;
            }
            self.runs.clear();
            self.trial = 0;
            self.j = 0;
            self.state = SizeState::Sample;
            return self.issue_sample();
        }
    }

    /// Draws the next sampling target and issues its probe. Sampling
    /// only runs when `m > 0` (otherwise stage 2 produced no clusters).
    fn issue_sample(&mut self) -> Step<SizeEstimate> {
        let id = self.rng.range_u64(0, self.m as u64) as u32;
        self.packets += 1;
        Step::Issue(vec![ControlOp::Probe(self.kind.key(id))])
    }

    /// Records the current level's estimate from its accumulated runs.
    fn push_level(&mut self) {
        let estimated_size = if self.saturated {
            self.m as f64
        } else {
            self.m as f64 * nb_hit_probability(&self.runs)
        };
        self.levels.push(LevelEstimate {
            rtt_ms: self.clustering.centers[self.level],
            estimated_size,
            swept_count: self.clustering.sizes[self.level],
            saturated: self.saturated,
        });
    }

    fn finish_level(&mut self) -> Step<SizeEstimate> {
        self.push_level();
        self.level += 1;
        self.enter_level()
    }

    fn build(&mut self) -> SizeEstimate {
        SizeEstimate {
            m: self.m,
            hit_rejection: self.hit_rejection,
            levels: std::mem::take(&mut self.levels),
            clustering: std::mem::take(&mut self.clustering),
            rules_attempted: self.attempted,
            packets_sent: self.packets,
            batches: self.batches,
        }
    }
}

impl InferenceDriver for SizeDriver {
    type Outcome = SizeEstimate;

    fn start(&mut self) -> Step<SizeEstimate> {
        self.next_batch_or_sweep()
    }

    fn on_completion(&mut self, c: &driver::Completion) -> Result<Step<SizeEstimate>, ProbeError> {
        match self.state {
            SizeState::InsertBatch => {
                let OpOutcome::Batch { ok, failed } = c.inner.outcome else {
                    return Err(mismatch(&"stage-1 add batch", c));
                };
                if ok > 0 {
                    // Sends are processed in order: the first `ok` adds
                    // of this batch succeeded; probe each once so the
                    // cache holds no wasted slots.
                    let ops: Vec<ControlOp> = (self.m..self.m + ok)
                        .map(|i| ControlOp::Probe(self.kind.key(i as u32)))
                        .collect();
                    self.packets += ok;
                    self.state = SizeState::InsertProbes {
                        left: ok,
                        ok,
                        failed,
                    };
                    Ok(Step::Issue(ops))
                } else {
                    Ok(self.finish_insert_round(ok, failed))
                }
            }
            SizeState::InsertProbes { left, ok, failed } => {
                let OpOutcome::Probe(_) = c.inner.outcome else {
                    return Err(mismatch(&"stage-1 warm-up probe", c));
                };
                if left == 1 {
                    Ok(self.finish_insert_round(ok, failed))
                } else {
                    self.state = SizeState::InsertProbes {
                        left: left - 1,
                        ok,
                        failed,
                    };
                    Ok(Step::Issue(vec![]))
                }
            }
            SizeState::Sweep { left } => {
                let OpOutcome::Probe(_) = c.inner.outcome else {
                    return Err(mismatch(&"stage-2 sweep probe", c));
                };
                self.rtts.push(c.elapsed_ms());
                if left == 1 {
                    self.finish_sweep();
                    Ok(self.enter_level())
                } else {
                    self.state = SizeState::Sweep { left: left - 1 };
                    Ok(Step::Issue(vec![]))
                }
            }
            SizeState::Sample => {
                let OpOutcome::Probe(_) = c.inner.outcome else {
                    return Err(mismatch(&"stage-3 sampling probe", c));
                };
                let rtt = c.elapsed_ms();
                if self.clustering.within(rtt, self.level) && (self.j as usize) < self.m {
                    self.j += 1;
                    Ok(self.issue_sample())
                } else if self.j as usize >= self.m {
                    // A full-length run: the layer holds (essentially)
                    // every installed rule.
                    self.saturated = true;
                    Ok(self.finish_level())
                } else {
                    self.runs.push(self.j);
                    self.trial += 1;
                    if self.trial < self.config.trials_per_level {
                        self.j = 0;
                        Ok(self.issue_sample())
                    } else {
                        Ok(self.finish_level())
                    }
                }
            }
            SizeState::Finished => Err(mismatch(&"no op in flight (driver finished)", c)),
        }
    }
}

impl SizeDriver {
    /// Stage-1 post-batch accounting, shared by the `ok == 0` shortcut
    /// and the last warm-up probe.
    fn finish_insert_round(&mut self, ok: usize, failed: usize) -> Step<SizeEstimate> {
        self.m += ok;
        if failed > 0 {
            self.hit_rejection = true;
        }
        self.x *= 2;
        self.next_batch_or_sweep()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::RuleKind;
    use crate::stats::relative_error;
    use ofwire::types::Dpid;
    use switchsim::cache::CachePolicy;
    use switchsim::harness::Testbed;
    use switchsim::profiles::SwitchProfile;

    fn run_probe(profile: SwitchProfile, kind: RuleKind, cfg: &SizeProbeConfig) -> SizeEstimate {
        let mut tb = Testbed::new(5);
        let dpid = Dpid(1);
        tb.attach_default(dpid, profile);
        driver::run_driver(&mut tb, dpid, SizeDriver::new(kind, *cfg))
            .expect("size probe completes")
    }

    #[test]
    fn tcam_only_switch_size_is_exact() {
        // Switch #2: rejection happens at exactly 2560; every rule is in
        // the single (fast) layer, so the estimate saturates at m = 2560.
        let est = run_probe(
            SwitchProfile::vendor2(),
            RuleKind::L3,
            &SizeProbeConfig {
                trials_per_level: 32,
                ..SizeProbeConfig::default()
            },
        );
        assert!(est.hit_rejection);
        assert_eq!(est.m, 2560);
        assert_eq!(est.levels.len(), 1);
        assert_eq!(est.levels[0].estimated_size, 2560.0);
        assert!(est.levels[0].saturated);
    }

    #[test]
    fn fifo_cached_switch_within_five_percent() {
        // A generic FIFO-cached switch with a 512-entry TCAM and
        // unbounded software: Algorithm 1 stops at the cap, clusters two
        // layers, and the fast-layer estimate lands within 5 %.
        let cfg = SizeProbeConfig {
            max_flows: 1024,
            ..SizeProbeConfig::default()
        };
        let est = run_probe(
            SwitchProfile::generic_cached(512, CachePolicy::fifo()),
            RuleKind::L3,
            &cfg,
        );
        assert!(!est.hit_rejection);
        assert_eq!(est.m, 1024);
        assert_eq!(
            est.levels.len(),
            2,
            "clusters: {:?}",
            est.clustering.centers
        );
        let err = relative_error(est.levels[0].estimated_size, 512.0);
        assert!(
            err < 0.05,
            "fast layer {} should be within 5% of 512 (err {err:.3})",
            est.levels[0].estimated_size
        );
        // The stage-2 sweep count is exact in simulation.
        assert_eq!(est.levels[0].swept_count, 512);
    }

    #[test]
    fn lru_cached_switch_within_five_percent() {
        // LRU churns membership during sampling; the estimator is built
        // for exactly that (hits don't change membership, misses end the
        // trial).
        let cfg = SizeProbeConfig {
            max_flows: 600,
            seed: 0x7a63,
            ..SizeProbeConfig::default()
        };
        let est = run_probe(
            SwitchProfile::generic_cached(300, CachePolicy::lru()),
            RuleKind::L3,
            &cfg,
        );
        let err = relative_error(est.levels[0].estimated_size, 300.0);
        assert!(
            err < 0.05,
            "estimate {} err {err:.3}",
            est.levels[0].estimated_size
        );
    }

    #[test]
    fn ovs_reports_single_unbounded_layer() {
        // Every probe during stage 1 clones a kernel microflow, so all
        // sweep probes are fast-path: one cluster, saturated at the cap.
        let cfg = SizeProbeConfig {
            max_flows: 256,
            trials_per_level: 16,
            ..SizeProbeConfig::default()
        };
        let est = run_probe(SwitchProfile::ovs(), RuleKind::L3, &cfg);
        assert!(!est.hit_rejection);
        assert_eq!(est.levels.len(), 1);
        assert!(est.levels[0].saturated);
        assert_eq!(est.levels[0].estimated_size, 256.0);
    }

    #[test]
    fn probing_cost_is_linear_with_log_batches() {
        let cfg = SizeProbeConfig {
            max_flows: 1024,
            trials_per_level: 64,
            ..SizeProbeConfig::default()
        };
        let est = run_probe(
            SwitchProfile::generic_cached(256, CachePolicy::fifo()),
            RuleKind::L3,
            &cfg,
        );
        // Stage 1 installs exactly m rules in ~log2(m) batches.
        assert_eq!(est.rules_attempted, 1024);
        assert!(est.batches <= 12, "batches {}", est.batches);
        // Packets: one per install + one per sweep + sampling runs. The
        // sampling stage is O(k · E[run]) = O(m); assert a generous
        // linear bound.
        assert!(
            est.packets_sent < 8 * est.m + 16 * cfg.trials_per_level,
            "packets {} not linear in m {}",
            est.packets_sent,
            est.m
        );
    }

    #[test]
    fn kmeans_method_agrees_with_gaps() {
        let base = SizeProbeConfig {
            max_flows: 512,
            ..SizeProbeConfig::default()
        };
        let gaps = run_probe(
            SwitchProfile::generic_cached(200, CachePolicy::fifo()),
            RuleKind::L3,
            &base,
        );
        let km = run_probe(
            SwitchProfile::generic_cached(200, CachePolicy::fifo()),
            RuleKind::L3,
            &SizeProbeConfig {
                cluster_method: ClusterMethod::KMeans,
                ..base
            },
        );
        assert_eq!(gaps.levels.len(), km.levels.len());
        let e1 = gaps.levels[0].estimated_size;
        let e2 = km.levels[0].estimated_size;
        assert!(
            relative_error(e1, 200.0) < 0.08 && relative_error(e2, 200.0) < 0.08,
            "gaps {e1}, kmeans {e2}"
        );
    }

    #[test]
    fn width_sensitivity_table1_row() {
        // Probing Switch #3 with L3-only vs combined rules recovers the
        // 767 / 369 Table-1 row from pure black-box measurements.
        let cfg = SizeProbeConfig {
            trials_per_level: 16,
            ..SizeProbeConfig::default()
        };
        let l3 = run_probe(SwitchProfile::vendor3(), RuleKind::L3, &cfg);
        let l2l3 = run_probe(SwitchProfile::vendor3(), RuleKind::L2L3, &cfg);
        assert_eq!(l3.m, 767);
        assert_eq!(l2l3.m, 369);
    }
}
