//! Property-based invariants of the inference layer.
//!
//! * Algorithm 1's estimates are always within `[0, m]`, layer estimates
//!   sum to ≈ m, and the probe leaves exactly the rules it installed.
//! * Clustering always assigns every sample to exactly one cluster and
//!   cluster sizes sum to the sample count.
//! * The policy-probe initialization plan is always pairwise balanced,
//!   whatever the cache size.

use ofwire::types::Dpid;
use proptest::prelude::*;
use switchsim::cache::CachePolicy;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::cluster::{cluster_rtts, kmeans_1d};
use tango::driver::run_driver;
use tango::infer_policy::{initialization_plan, PolicyProbeConfig};
use tango::infer_size::{SizeDriver, SizeProbeConfig};
use tango::pattern::RuleKind;
use tango::stats::pearson;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn size_probe_invariants_hold_for_any_policy(
        policy in arb_policy(),
        tcam in 40u64..150,
        seed in any::<u64>(),
    ) {
        let mut tb = Testbed::new(seed);
        let dpid = Dpid(1);
        tb.attach_default(dpid, SwitchProfile::generic_cached(tcam, policy));
        let cfg = SizeProbeConfig {
            max_flows: (tcam * 2) as usize,
            trials_per_level: 64,
            seed,
            ..SizeProbeConfig::default()
        };
        let est = run_driver(&mut tb, dpid, SizeDriver::new(RuleKind::L3, cfg))
            .expect("size probe completes");
        prop_assert_eq!(est.m, (tcam * 2) as usize);
        // Rules left behind = exactly the installed probe rules.
        prop_assert_eq!(tb.switch(dpid).rule_count(), est.m);
        // Level estimates live in [0, m] and sum to ≈ m.
        let mut total = 0.0;
        for l in &est.levels {
            prop_assert!(l.estimated_size >= 0.0);
            prop_assert!(l.estimated_size <= est.m as f64 + 1e-9);
            total += l.estimated_size;
        }
        let m_f = est.m as f64;
        prop_assert!(
            (total - m_f).abs() / m_f < 0.35,
            "layer estimates sum to {total} for m={m_f}"
        );
        // Sweep counts are exact.
        let swept: usize = est.levels.iter().map(|l| l.swept_count).sum();
        prop_assert_eq!(swept, est.m);
    }

    #[test]
    fn clustering_partitions_every_sample(
        samples in proptest::collection::vec(0.1f64..20.0, 1..300),
    ) {
        let c = cluster_rtts(&samples);
        prop_assert!(c.k() >= 1);
        prop_assert_eq!(c.sizes.iter().sum::<usize>(), samples.len());
        prop_assert_eq!(c.boundaries.len(), c.k() - 1);
        // classify() maps every sample into range.
        for &s in &samples {
            prop_assert!(c.classify(s) < c.k());
        }
        // Centers are sorted ascending.
        for w in c.centers.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn kmeans_wcss_decreases_with_k(
        samples in proptest::collection::vec(0.1f64..20.0, 8..200),
    ) {
        let (_, w1) = kmeans_1d(&samples, 1);
        let (_, w2) = kmeans_1d(&samples, 2);
        let (_, w3) = kmeans_1d(&samples, 3);
        prop_assert!(w2 <= w1 + 1e-9);
        prop_assert!(w3 <= w2 + 1e-9);
    }

    #[test]
    fn initialization_plan_always_balanced(
        cache_size in 4usize..400,
        hold_priority in any::<bool>(),
        hold_traffic in any::<bool>(),
    ) {
        let cfg = PolicyProbeConfig::default();
        let s = 2 * cache_size;
        let plan = initialization_plan(s, hold_priority, hold_traffic, &cfg);
        prop_assert_eq!(plan.len(), s);
        // use_rank is a permutation.
        let mut ranks: Vec<u32> = plan.iter().map(|f| f.use_rank).collect();
        ranks.sort_unstable();
        prop_assert_eq!(ranks, (0..s as u32).collect::<Vec<_>>());
        // Splits are exactly half/half (unless held).
        if !hold_priority {
            let hi = plan.iter().filter(|f| f.priority == cfg.prio_high).count();
            prop_assert_eq!(hi, s / 2);
        }
        if !hold_traffic {
            let hi = plan.iter().filter(|f| f.traffic == cfg.traffic_high).count();
            // (i/2)%2 splits exactly in half when s % 4 == 0, within 2
            // otherwise.
            prop_assert!((hi as i64 - (s / 2) as i64).abs() <= 2);
        }
        // Attribute vectors decorrelate (skip held-constant ones, where
        // pearson is undefined).
        let vecs: Vec<Vec<f64>> = vec![
            plan.iter().map(|f| f64::from(f.id)).collect(),
            plan.iter().map(|f| f64::from(f.use_rank)).collect(),
            plan.iter().map(|f| f64::from(f.priority)).collect(),
            plan.iter().map(|f| f64::from(f.traffic)).collect(),
        ];
        for i in 0..vecs.len() {
            for j in i + 1..vecs.len() {
                if let Some(r) = pearson(&vecs[i], &vecs[j]) {
                    prop_assert!(
                        r.abs() < 0.35,
                        "attrs {i}/{j} correlate at {r} (s={s})"
                    );
                }
            }
        }
    }
}
