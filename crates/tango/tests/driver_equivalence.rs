//! The resumable drivers are bit-identical to the original synchronous
//! probing loops.
//!
//! The pre-driver implementations of Algorithm 1 and Algorithm 2 are
//! transcribed below as plain blocking loops over the testbed's
//! synchronous calls (`batch`, `probe`, `flow_mod`) — exactly the op
//! stream the drivers replaced. Property tests then run both paths on
//! identically-seeded testbeds across randomly drawn cache policies,
//! table sizes, and seeds, and require the complete result structures
//! (every float included) to be `==`, not merely close.

use ofwire::flow_mod::FlowMod;
use ofwire::types::Dpid;
use proptest::prelude::*;
use simnet::rng::DetRng;
use switchsim::cache::{Attribute, CachePolicy, Direction, SortKey};
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::cluster::{cluster_rtts, kmeans_auto};
use tango::driver::run_driver;
use tango::infer_policy::{
    initialization_plan, FlowInit, InferredPolicy, PolicyDriver, PolicyProbeConfig, PolicyRound,
};
use tango::infer_size::{ClusterMethod, LevelEstimate, SizeDriver, SizeEstimate, SizeProbeConfig};
use tango::pattern::RuleKind;
use tango::stats::{nb_hit_probability, pearson};

/// The probed switch and the probe-rule kind of every run below.
const DPID: Dpid = Dpid(1);
const KIND: RuleKind = RuleKind::L3;

/// Sends one probe packet for flow `id`, returning its RTT in ms.
fn probe_rtt(tb: &mut Testbed, id: u32) -> f64 {
    tb.probe(DPID, &KIND.key(id)).1.as_millis_f64()
}

/// The pre-driver size probe: stage-1 doubling insertion, stage-2
/// shuffled sweep + clustering, stage-3 negative-binomial sampling — as
/// one blocking loop.
fn legacy_size_probe(tb: &mut Testbed, config: &SizeProbeConfig) -> SizeEstimate {
    let mut rng = DetRng::new(config.seed);

    let mut m: usize = 0;
    let mut attempted = 0;
    let mut packets = 0;
    let mut batches = 0;
    let mut hit_rejection = false;
    let mut x: usize = 1;
    while !hit_rejection && m < config.max_flows {
        let target = x.min(config.max_flows);
        if target > m {
            let fms: Vec<FlowMod> = (m..target)
                .map(|i| FlowMod::add(KIND.flow_match(i as u32), config.priority))
                .collect();
            attempted += fms.len();
            batches += 1;
            let (ok, failed, _elapsed) = tb.batch(DPID, fms);
            for i in m..m + ok {
                probe_rtt(tb, i as u32);
                packets += 1;
            }
            m += ok;
            if failed > 0 {
                hit_rejection = true;
                break;
            }
        }
        x *= 2;
    }

    let mut order: Vec<u32> = (0..m as u32).collect();
    rng.shuffle(&mut order);
    let mut rtts = Vec::with_capacity(m);
    for id in order {
        packets += 1;
        rtts.push(probe_rtt(tb, id));
    }
    let clustering = match config.cluster_method {
        ClusterMethod::Gaps => cluster_rtts(&rtts),
        ClusterMethod::KMeans => kmeans_auto(&rtts, 4),
    };

    let mut levels = Vec::new();
    for level in 0..clustering.k() {
        let mut runs: Vec<u64> = Vec::with_capacity(config.trials_per_level);
        let mut saturated = false;
        for _ in 0..config.trials_per_level {
            let mut j: u64 = 0;
            loop {
                let id = rng.range_u64(0, m as u64) as u32;
                let rtt = probe_rtt(tb, id);
                packets += 1;
                if clustering.within(rtt, level) && (j as usize) < m {
                    j += 1;
                } else {
                    break;
                }
            }
            if j as usize >= m {
                saturated = true;
                break;
            }
            runs.push(j);
        }
        let estimated_size = if saturated {
            m as f64
        } else {
            m as f64 * nb_hit_probability(&runs)
        };
        levels.push(LevelEstimate {
            rtt_ms: clustering.centers[level],
            estimated_size,
            swept_count: clustering.sizes[level],
            saturated,
        });
    }

    SizeEstimate {
        m,
        hit_rejection,
        levels,
        clustering,
        rules_attempted: attempted,
        packets_sent: packets,
        batches,
    }
}

/// The pre-driver policy-probe round: initialize, stimulate, measure
/// most-recently-used-first, classify membership, correlate.
fn legacy_run_round(
    tb: &mut Testbed,
    cache_size: usize,
    hold_priority: bool,
    hold_traffic: bool,
    config: &PolicyProbeConfig,
) -> PolicyRound {
    let s = 2 * cache_size;
    let plan = initialization_plan(s, hold_priority, hold_traffic, config);

    tb.flow_mod(DPID, FlowMod::delete_all());
    for f in &plan {
        tb.flow_mod(DPID, FlowMod::add(KIND.flow_match(f.id), f.priority));
    }
    for f in &plan {
        for _ in 1..f.traffic {
            probe_rtt(tb, f.id);
        }
    }
    let mut by_use: Vec<&FlowInit> = plan.iter().collect();
    by_use.sort_by_key(|f| f.use_rank);
    for f in &by_use {
        probe_rtt(tb, f.id);
    }

    let mut rtts: Vec<(u32, f64)> = Vec::with_capacity(s);
    for f in by_use.iter().rev() {
        rtts.push((f.id, probe_rtt(tb, f.id)));
    }

    let values: Vec<f64> = rtts.iter().map(|&(_, r)| r).collect();
    let clustering = cluster_rtts(&values);
    let mut cached = vec![0.0f64; s];
    let mut cached_count = 0;
    for &(id, rtt) in &rtts {
        if clustering.k() >= 2 && clustering.within(rtt, 0) {
            cached[id as usize] = 1.0;
            cached_count += 1;
        }
    }
    if clustering.k() < 2 {
        return PolicyRound {
            correlations: vec![],
            chosen: None,
            cached_count: if clustering.k() == 1 { s } else { 0 },
        };
    }

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

/// The pre-driver policy-probe outer loop.
fn legacy_policy_probe(
    tb: &mut Testbed,
    cache_size: usize,
    config: &PolicyProbeConfig,
) -> InferredPolicy {
    let mut identified: Vec<SortKey> = Vec::new();
    let mut rounds = Vec::new();

    while identified.len() < config.max_keys {
        let hold_priority = identified
            .iter()
            .any(|k| k.attribute == Attribute::Priority);
        let hold_traffic = identified
            .iter()
            .any(|k| k.attribute == Attribute::TrafficCount);
        let round = legacy_run_round(tb, cache_size, hold_priority, hold_traffic, config);
        let chosen = round.chosen;
        rounds.push(round);
        match chosen {
            None => break,
            Some(key) => {
                if identified.iter().any(|k| k.attribute == key.attribute) {
                    break;
                }
                let attr = key.attribute;
                identified.push(key);
                if attr.is_serial() || attr == Attribute::TrafficCount {
                    break;
                }
            }
        }
    }

    InferredPolicy {
        keys: identified,
        rounds,
    }
}

fn arb_policy() -> impl Strategy<Value = CachePolicy> {
    prop_oneof![
        Just(CachePolicy::fifo()),
        Just(CachePolicy::lru()),
        Just(CachePolicy::lfu()),
        Just(CachePolicy::priority()),
        Just(CachePolicy::priority_then_lru()),
        Just(CachePolicy::lfu_then_fifo()),
    ]
}

fn testbed_with(seed: u64, tcam: u64, policy: CachePolicy) -> Testbed {
    let mut tb = Testbed::new(seed);
    tb.attach_default(DPID, SwitchProfile::generic_cached(tcam, policy));
    tb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn size_driver_is_bit_identical_to_legacy_loop(
        policy in arb_policy(),
        tcam in 40u64..120,
        seed in any::<u64>(),
        method in prop_oneof![Just(ClusterMethod::Gaps), Just(ClusterMethod::KMeans)],
    ) {
        let cfg = SizeProbeConfig {
            max_flows: (tcam * 2) as usize,
            trials_per_level: 48,
            seed,
            cluster_method: method,
            ..SizeProbeConfig::default()
        };
        let mut tb = testbed_with(seed, tcam, policy.clone());
        let legacy = legacy_size_probe(&mut tb, &cfg);
        let mut tb = testbed_with(seed, tcam, policy);
        let driver = run_driver(&mut tb, DPID, SizeDriver::new(KIND, cfg))
            .expect("driver-based probe completes");
        prop_assert_eq!(legacy, driver);
    }

    #[test]
    fn policy_driver_is_bit_identical_to_legacy_loop(
        policy in arb_policy(),
        cache in 30usize..80,
        seed in any::<u64>(),
    ) {
        let cfg = PolicyProbeConfig::default();
        let mut tb = testbed_with(seed, cache as u64, policy.clone());
        let legacy = legacy_policy_probe(&mut tb, cache, &cfg);
        let mut tb = testbed_with(seed, cache as u64, policy);
        let driver = run_driver(&mut tb, DPID, PolicyDriver::new(KIND, cache, cfg))
            .expect("driver-based probe completes");
        prop_assert_eq!(legacy, driver);
    }
}
