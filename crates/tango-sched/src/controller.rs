//! The Tango controller facade — the one-stop public API tying the
//! whole system together (Fig 4's component diagram): the probing
//! engine feeds the Tango Score and Pattern Databases, and the network
//! scheduler and application hints consume them.

use crate::dag::RequestDag;
use crate::executor::{ExecError, ExecReport};
use crate::schedulers::resolve;
use ofwire::types::Dpid;
use simnet::time::SimDuration;
use switchsim::harness::Testbed;
use tango::curves::measure_latency_profile;
use tango::db::TangoDb;
use tango::driver::ProbeError;
use tango::fleet::{run_inference, FleetJob};
use tango::hints::{advise_placement, AppHint};
use tango::infer_geometry::{probe_geometry, GeometryEstimate};
use tango::infer_policy::{probe_policy, PolicyProbeConfig};
use tango::infer_size::{probe_sizes, SizeProbeConfig};
use tango::pattern::RuleKind;
use tango::probe::ProbingEngine;

/// What [`TangoController::understand_switch`] should probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnderstandOptions {
    /// Cap on installed rules for the size probe.
    pub max_flows: usize,
    /// Sampling trials per layer (Algorithm 1 stage 3).
    pub trials_per_level: usize,
    /// Also run the cache-policy probe (needs a bounded fast layer).
    pub probe_policy: bool,
    /// Also measure latency curves at this batch size (0 = skip).
    pub latency_batch: usize,
}

impl Default for UnderstandOptions {
    fn default() -> UnderstandOptions {
        UnderstandOptions {
            max_flows: 4096,
            trials_per_level: 600,
            probe_policy: true,
            latency_batch: 300,
        }
    }
}

/// The assembled Tango controller: a testbed of (possibly diverse,
/// possibly unknown) switches plus the knowledge Tango accumulates
/// about them.
pub struct TangoController {
    testbed: Testbed,
    db: TangoDb,
}

impl TangoController {
    /// Wraps a testbed.
    #[must_use]
    pub fn new(testbed: Testbed) -> TangoController {
        TangoController {
            testbed,
            db: TangoDb::new(),
        }
    }

    /// The accumulated knowledge base.
    #[must_use]
    pub fn db(&self) -> &TangoDb {
        &self.db
    }

    /// The underlying testbed.
    #[must_use]
    pub fn testbed(&self) -> &Testbed {
        &self.testbed
    }

    /// Mutable testbed access (e.g. to preinstall application state).
    pub fn testbed_mut(&mut self) -> &mut Testbed {
        &mut self.testbed
    }

    /// Runs the full understanding pass on one switch: layer sizes,
    /// cache policy (if a bounded fast layer exists), and latency
    /// curves. Clears the switch's rules before and after (offline
    /// probing, §4).
    ///
    /// # Errors
    /// Propagates any [`ProbeError`] from the probes.
    pub fn understand_switch(
        &mut self,
        dpid: Dpid,
        opts: &UnderstandOptions,
    ) -> Result<(), ProbeError> {
        let size = {
            let mut engine = ProbingEngine::new(&mut self.testbed, dpid, RuleKind::L3);
            engine.clear_rules();
            let cfg = SizeProbeConfig {
                max_flows: opts.max_flows,
                trials_per_level: opts.trials_per_level,
                ..SizeProbeConfig::default()
            };
            probe_sizes(&mut engine, &cfg)?
        };
        let fast = size.fast_layer_size();
        let bounded = size.hit_rejection || size.levels.len() >= 2;

        let policy = if opts.probe_policy && bounded {
            let n = fast.unwrap_or(0.0).round() as usize;
            let mut engine = ProbingEngine::new(&mut self.testbed, dpid, RuleKind::L3);
            Some(probe_policy(&mut engine, n, &PolicyProbeConfig::default())?)
        } else {
            None
        };

        let latency = if opts.latency_batch > 0 {
            let mut engine = ProbingEngine::new(&mut self.testbed, dpid, RuleKind::L3);
            engine.clear_rules();
            let lp = measure_latency_profile(&mut engine, opts.latency_batch)?;
            engine.clear_rules();
            Some(lp)
        } else {
            None
        };

        let label = self.testbed.switch(dpid).profile_name.clone();
        let k = self.db.switch_mut(dpid);
        k.label = label;
        k.size = Some(size);
        k.policy = policy;
        k.latency = latency;
        Ok(())
    }

    /// Runs the understanding pass on many switches at once, probing
    /// them concurrently over the shared control path: all size probes
    /// interleave in one fleet phase, then all policy probes (sized by
    /// the phase-one results). Per-switch knowledge is bit-identical to
    /// calling [`understand_switch`](TangoController::understand_switch)
    /// on each switch — fleet probing only compresses wall-clock time.
    ///
    /// Latency curves (when `opts.latency_batch > 0`) are still measured
    /// switch-by-switch: their per-arm clears make them stateful in a
    /// way the interleaved phases deliberately are not.
    ///
    /// # Errors
    /// Propagates any [`ProbeError`]; knowledge from completed phases is
    /// kept.
    pub fn understand_fleet(
        &mut self,
        dpids: &[Dpid],
        opts: &UnderstandOptions,
    ) -> Result<(), ProbeError> {
        // Phase 1: all size probes, interleaved.
        let cfg = SizeProbeConfig {
            max_flows: opts.max_flows,
            trials_per_level: opts.trials_per_level,
            ..SizeProbeConfig::default()
        };
        for &dpid in dpids {
            ProbingEngine::new(&mut self.testbed, dpid, RuleKind::L3).clear_rules();
        }
        let size_jobs: Vec<FleetJob> = dpids
            .iter()
            .map(|&d| FleetJob::size(d, RuleKind::L3, cfg))
            .collect();
        let size_outcomes = run_inference(&mut self.testbed, &size_jobs)?;
        self.db.ingest_fleet(&size_jobs, &size_outcomes);

        // Phase 2: policy probes for every switch phase 1 found bounded.
        if opts.probe_policy {
            let policy_jobs: Vec<FleetJob> = size_outcomes
                .iter()
                .zip(dpids)
                .filter_map(|(outcome, &dpid)| {
                    let size = outcome.as_size()?;
                    let bounded = size.hit_rejection || size.levels.len() >= 2;
                    if !bounded {
                        return None;
                    }
                    let n = size.fast_layer_size().unwrap_or(0.0).round() as usize;
                    Some(FleetJob::policy(
                        dpid,
                        RuleKind::L3,
                        n,
                        PolicyProbeConfig::default(),
                    ))
                })
                .collect();
            let policy_outcomes = run_inference(&mut self.testbed, &policy_jobs)?;
            self.db.ingest_fleet(&policy_jobs, &policy_outcomes);
        }

        // Phase 3: latency curves, per switch (see the doc comment).
        for &dpid in dpids {
            let latency = if opts.latency_batch > 0 {
                let mut engine = ProbingEngine::new(&mut self.testbed, dpid, RuleKind::L3);
                engine.clear_rules();
                let lp = measure_latency_profile(&mut engine, opts.latency_batch)?;
                engine.clear_rules();
                Some(lp)
            } else {
                None
            };
            let label = self.testbed.switch(dpid).profile_name.clone();
            let k = self.db.switch_mut(dpid);
            k.label = label;
            k.latency = latency;
        }
        Ok(())
    }

    /// Probes a switch's TCAM geometry (the future-work width-mode
    /// pattern).
    ///
    /// # Errors
    /// Propagates any [`ProbeError`] from the sub-probes.
    pub fn probe_geometry(
        &mut self,
        dpid: Dpid,
        cap: usize,
    ) -> Result<GeometryEstimate, ProbeError> {
        probe_geometry(&mut self.testbed, dpid, cap, 128)
    }

    /// Executes a request DAG under the registry scheduler `name` with
    /// the release rule it is registered with: `"tango"` (pattern
    /// ordering + guard-time release), `"dionysus"` (the baseline, for
    /// comparison), or any other entry of
    /// [`crate::schedulers::registry`].
    ///
    /// # Errors
    /// [`ExecError::StuckDag`] on a dependency cycle.
    ///
    /// # Panics
    /// If `name` is not a registered scheduler.
    pub fn execute(&mut self, dag: &mut RequestDag, name: &str) -> Result<ExecReport, ExecError> {
        let entry = resolve(name).unwrap_or_else(|| panic!("no scheduler registered as {name:?}"));
        entry.run(&mut self.testbed, dag, &self.db)
    }

    /// Picks the best switch for a hinted flow, using the knowledge
    /// base (the intro's software-vs-hardware placement example).
    #[must_use]
    pub fn place(&self, candidates: &[Dpid], hint: &AppHint) -> Option<Dpid> {
        advise_placement(&self.db, candidates, hint)
    }

    /// Predicted time to install `adds` rules on `dpid` (ascending
    /// order), from the measured latency curves.
    #[must_use]
    pub fn predict_install_ms(&self, dpid: Dpid, adds: usize) -> f64 {
        self.db
            .latency_or_default(dpid)
            .predict_batch_ms(adds, 0, 0)
    }

    /// Convenience: a controller-side makespan comparison for the same
    /// DAG-building closure under Tango and Dionysus (fresh state is
    /// the caller's responsibility).
    pub fn compare<F>(&mut self, mut build: F) -> (SimDuration, SimDuration)
    where
        F: FnMut() -> RequestDag,
    {
        let mut run = |name| {
            self.execute(&mut build(), name)
                .expect("compared DAGs are acyclic")
                .makespan
        };
        (run("tango"), run("dionysus"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqElem;
    use ofwire::flow_match::FlowMatch;
    use switchsim::cache::CachePolicy;
    use switchsim::profiles::SwitchProfile;
    use tango::hints::FlowGoal;

    fn controller() -> TangoController {
        let mut tb = Testbed::new(0xc0);
        tb.attach_default(
            Dpid(1),
            SwitchProfile::generic_cached(200, CachePolicy::fifo()),
        );
        tb.attach_default(Dpid(2), SwitchProfile::ovs());
        TangoController::new(tb)
    }

    #[test]
    fn understand_populates_db() {
        let mut c = controller();
        c.understand_switch(
            Dpid(1),
            &UnderstandOptions {
                max_flows: 400,
                trials_per_level: 300,
                ..UnderstandOptions::default()
            },
        )
        .expect("understanding pass completes");
        let k = c.db().switch(Dpid(1)).unwrap();
        let fast = k.fast_layer_size().unwrap();
        assert!((fast - 200.0).abs() / 200.0 < 0.06, "fast {fast}");
        assert_eq!(
            k.policy.as_ref().unwrap().as_policy().describe(),
            "insertion_time↓"
        );
        assert!(k.latency.unwrap().priority_sensitive());
        // The probe cleaned up after itself.
        assert_eq!(c.testbed().switch(Dpid(1)).rule_count(), 0);
    }

    #[test]
    fn understanding_drives_placement() {
        let mut c = controller();
        for d in [Dpid(1), Dpid(2)] {
            c.understand_switch(
                d,
                &UnderstandOptions {
                    max_flows: 400,
                    trials_per_level: 64,
                    probe_policy: false,
                    latency_batch: 100,
                },
            )
            .expect("understanding pass completes");
        }
        assert_eq!(
            c.place(&[Dpid(1), Dpid(2)], &AppHint::fast_setup()),
            Some(Dpid(2)),
            "OVS installs faster"
        );
        assert_eq!(
            c.place(
                &[Dpid(1), Dpid(2)],
                &AppHint {
                    goal: FlowGoal::FastForwarding,
                    install_by_ms: None
                }
            ),
            Some(Dpid(1)),
            "hardware forwards faster"
        );
        // Predictions come from measured curves, not defaults.
        let hw = c.predict_install_ms(Dpid(1), 100);
        let sw = c.predict_install_ms(Dpid(2), 100);
        assert!(sw < hw);
    }

    #[test]
    fn understand_fleet_matches_per_switch_understanding() {
        let opts = UnderstandOptions {
            max_flows: 400,
            trials_per_level: 64,
            ..UnderstandOptions::default()
        };
        let mut seq = controller();
        for d in [Dpid(1), Dpid(2)] {
            seq.understand_switch(d, &opts).expect("sequential pass");
        }
        let mut fleet = controller();
        fleet
            .understand_fleet(&[Dpid(1), Dpid(2)], &opts)
            .expect("fleet pass");
        for d in [Dpid(1), Dpid(2)] {
            assert_eq!(
                fleet.db().switch(d),
                seq.db().switch(d),
                "fleet and sequential knowledge diverge for {d}"
            );
        }
    }

    #[test]
    fn execute_and_compare() {
        let mut c = controller();
        let build = || {
            let mut dag = RequestDag::new();
            let mut prios: Vec<u16> = (0..100u16).map(|i| 1000 + i).collect();
            simnet::rng::DetRng::new(4).shuffle(&mut prios);
            for (i, p) in prios.iter().enumerate() {
                dag.add_node(ReqElem::add(
                    Dpid(1),
                    FlowMatch::l3_for_id(5000 + i as u32),
                    *p,
                    1,
                ));
            }
            dag
        };
        let (tango, dionysus) = c.compare(build);
        assert!(
            tango.as_millis_f64() < dionysus.as_millis_f64(),
            "tango {tango} vs dionysus {dionysus}"
        );
    }
}
