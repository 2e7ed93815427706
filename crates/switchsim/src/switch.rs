//! The assembled switch: pipeline + latency models + per-switch RNG,
//! exposing the operations a control channel drives.

use crate::entry::{EntryId, FlowEntry};
use crate::expiry::Expired;
use crate::latency::{ControlCosts, DataPathLatency};
use crate::pipeline::{Hit, ModOutcome, Pipeline, TableFull};
use crate::profiles::{ReportedFeatures, SwitchProfile};
use ofwire::features::{FeaturesReply, PhyPort};
use ofwire::flow_match::FlowKey;
use ofwire::flow_mod::{FlowMod, FlowModCommand};
use ofwire::stats::{FlowStatsEntry, TableStatsEntry};
use ofwire::types::Dpid;
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};

/// Why a flow-mod was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModError {
    /// Every table is full (`FlowModFailed/ALL_TABLES_FULL`).
    TableFull,
}

/// What a successful flow-mod did (used for cost attribution and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModEffect {
    /// A rule was added at the given level.
    Added {
        /// Level index where the new rule landed.
        level: usize,
        /// True if that level is hardware-backed.
        hardware: bool,
        /// TCAM entries shifted.
        shifts: usize,
        /// Id of the new entry.
        id: EntryId,
    },
    /// Rules were modified in place.
    Modified(usize),
    /// Rules were deleted.
    Deleted(usize),
}

/// Plain counters of everything the data path did over a switch's
/// lifetime — the observable residue of the pipeline's add/evict/delete
/// cascades and lookup promotions. Maintained unconditionally (a few
/// u64 increments on paths that already charge microseconds of virtual
/// latency) and snapshotted into the telemetry metrics registry per
/// experiment cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataPathStats {
    /// Rules added into a hardware-backed level.
    pub adds_hw: u64,
    /// Rules added into a software level.
    pub adds_sw: u64,
    /// Adds rejected with all tables full.
    pub add_rejects: u64,
    /// TCAM capacity units shifted by priority-ordered adds (the Fig 3b
    /// cost driver).
    pub tcam_shift_units: u64,
    /// Rules modified in place.
    pub mods: u64,
    /// Rules removed by explicit deletes.
    pub deleted_rules: u64,
    /// Rules removed by idle/hard timeout (cache evictions included —
    /// expiry is how cached entries leave policy-cached pipelines).
    pub expired_rules: u64,
    /// Data-plane lookups injected.
    pub lookups: u64,
    /// Lookups served by the fastest (level-0) table — the flow-table
    /// index hit count; `fast_hits / lookups` is the hit rate.
    pub fast_hits: u64,
    /// Lookups served by a slower level.
    pub slow_hits: u64,
    /// Lookups that missed every level (controller punt).
    pub misses: u64,
}

/// A simulated OpenFlow switch.
#[derive(Debug, Clone)]
pub struct Switch {
    /// Datapath id.
    pub dpid: Dpid,
    /// Profile name (for reporting).
    pub profile_name: String,
    pipeline: Pipeline,
    control: ControlCosts,
    datapath: DataPathLatency,
    reported: ReportedFeatures,
    rng: DetRng,
    next_entry_id: u64,
    expired_queue: Vec<Expired>,
    stats: DataPathStats,
}

impl Switch {
    /// Instantiates a switch from a profile with a deterministic seed.
    ///
    /// If the profile preinstalls a default (table-miss punt) route, one
    /// capacity unit of the fastest hardware level is reserved for it —
    /// reproducing Switch #1's observable 2047-of-2048 usable slots
    /// (Fig 2b) — without shadowing real rules in lookups.
    #[must_use]
    pub fn new(profile: SwitchProfile, dpid: Dpid, seed: u64) -> Switch {
        let mut pipeline = profile.pipeline;
        if profile.preinstalled_default_route {
            if let Pipeline::PolicyCached { levels, .. } = &mut pipeline {
                if let Some(g) = levels.first_mut().and_then(|l| l.geometry.as_mut()) {
                    g.capacity_units = g.capacity_units.saturating_sub(1);
                }
            }
        }
        Switch {
            dpid,
            profile_name: profile.name,
            pipeline,
            control: profile.control,
            datapath: profile.datapath,
            reported: profile.reported,
            rng: DetRng::new(seed ^ dpid.0),
            next_entry_id: 1,
            expired_queue: Vec::new(),
            stats: DataPathStats::default(),
        }
    }

    /// Lifetime data-path counters (adds, evictions, shifts, hit rates).
    #[must_use]
    pub fn stats(&self) -> DataPathStats {
        self.stats
    }

    /// Removes timed-out entries as of `now`, queueing `flow_removed`
    /// records for [`Switch::take_expired`]. Called lazily before every
    /// control or data operation (and callable explicitly). With no
    /// timeout installed anywhere — every inference fill, every update
    /// schedule — it is one counter check.
    pub fn expire(&mut self, now: SimTime) {
        if self.pipeline.timeout_count() == 0 {
            return;
        }
        let expired = self.pipeline.expire(now);
        self.stats.expired_rules += expired.len() as u64;
        self.expired_queue.extend(expired);
    }

    /// Drains the queued expiry notifications.
    pub fn take_expired(&mut self) -> Vec<Expired> {
        std::mem::take(&mut self.expired_queue)
    }

    /// Applies a flow-mod, returning its effect and processing cost.
    pub fn apply_flow_mod(
        &mut self,
        fm: &FlowMod,
        now: SimTime,
    ) -> (Result<FlowModEffect, FlowModError>, SimDuration) {
        self.expire(now);
        match fm.command {
            FlowModCommand::Add => {
                let entry = self.make_entry(fm, now);
                match self.pipeline.add(entry) {
                    Ok(out) => {
                        self.note_add(out.hardware, out.shifts);
                        let cost = self
                            .control
                            .add_cost(out.hardware, out.shifts, &mut self.rng);
                        (
                            Ok(FlowModEffect::Added {
                                level: out.level,
                                hardware: out.hardware,
                                shifts: out.shifts,
                                id: out.id,
                            }),
                            cost,
                        )
                    }
                    Err(TableFull) => {
                        self.stats.add_rejects += 1;
                        // A rejected add still costs the switch a lookup.
                        let cost = self.control.add_cost(false, 0, &mut self.rng);
                        (Err(FlowModError::TableFull), cost)
                    }
                }
            }
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let strict = fm.command == FlowModCommand::ModifyStrict;
                let fallback = self.make_entry(fm, now);
                let resident = self.pipeline.rule_count();
                match self.pipeline.modify(
                    &fm.flow_match,
                    fm.priority,
                    strict,
                    &fm.actions,
                    fallback,
                ) {
                    Ok(ModOutcome::Modified(n)) => {
                        self.stats.mods += n as u64;
                        let cost = self.control.mod_cost(n, resident, &mut self.rng);
                        (Ok(FlowModEffect::Modified(n)), cost)
                    }
                    Ok(ModOutcome::AddedInstead(out)) => {
                        self.note_add(out.hardware, out.shifts);
                        let cost = self
                            .control
                            .add_cost(out.hardware, out.shifts, &mut self.rng);
                        (
                            Ok(FlowModEffect::Added {
                                level: out.level,
                                hardware: out.hardware,
                                shifts: out.shifts,
                                id: out.id,
                            }),
                            cost,
                        )
                    }
                    Err(TableFull) => {
                        let cost = self.control.mod_cost(0, resident, &mut self.rng);
                        (Err(FlowModError::TableFull), cost)
                    }
                }
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = fm.command == FlowModCommand::DeleteStrict;
                let n = self
                    .pipeline
                    .delete(&fm.flow_match, fm.priority, strict, fm.out_port);
                self.stats.deleted_rules += n as u64;
                let cost = self.control.del_cost(n, &mut self.rng);
                (Ok(FlowModEffect::Deleted(n)), cost)
            }
        }
    }

    fn note_add(&mut self, hardware: bool, shifts: usize) {
        if hardware {
            self.stats.adds_hw += 1;
        } else {
            self.stats.adds_sw += 1;
        }
        self.stats.tcam_shift_units += shifts as u64;
    }

    fn make_entry(&mut self, fm: &FlowMod, now: SimTime) -> FlowEntry {
        let id = EntryId(self.next_entry_id);
        self.next_entry_id += 1;
        let mut e = FlowEntry::new(id, fm.flow_match, fm.priority, fm.actions.clone(), now);
        e.cookie = fm.cookie;
        e.idle_timeout = fm.idle_timeout;
        e.hard_timeout = fm.hard_timeout;
        e
    }

    /// Injects a data packet, returning where it was served and the
    /// forwarding delay (the per-level delays of Fig 2).
    pub fn inject(&mut self, key: &FlowKey, now: SimTime, bytes: u64) -> (Hit, SimDuration) {
        self.expire(now);
        self.stats.lookups += 1;
        let hit = self.pipeline.lookup_touch(key, now, bytes);
        match hit {
            Hit::Table { level: 0, .. } => self.stats.fast_hits += 1,
            Hit::Table { .. } => self.stats.slow_hits += 1,
            Hit::Miss => self.stats.misses += 1,
        }
        let delay = self.datapath.delay(&hit, &mut self.rng);
        (hit, delay)
    }

    /// Self-reported features (may be inaccurate, per the paper).
    #[must_use]
    pub fn features_reply(&self, n_ports: u16) -> FeaturesReply {
        FeaturesReply {
            datapath_id: self.dpid,
            n_buffers: self.reported.n_buffers,
            n_tables: self.reported.n_tables,
            capabilities: 0x87,
            actions: 0xfff,
            ports: (1..=n_ports).map(PhyPort::gigabit).collect(),
        }
    }

    /// Per-flow statistics for every installed rule.
    #[must_use]
    pub fn flow_stats(&self, now: SimTime) -> Vec<FlowStatsEntry> {
        self.pipeline
            .entries()
            .into_iter()
            .map(|(level, e)| {
                let age = now.since(e.inserted_at);
                FlowStatsEntry {
                    table_id: level as u8,
                    flow_match: e.flow_match.unpack(),
                    duration_sec: (age.0 / 1_000_000_000) as u32,
                    duration_nsec: (age.0 % 1_000_000_000) as u32,
                    priority: e.priority,
                    idle_timeout: e.idle_timeout,
                    hard_timeout: e.hard_timeout,
                    cookie: e.cookie,
                    packet_count: e.packet_count,
                    byte_count: e.byte_count,
                    actions: e.actions.clone(),
                }
            })
            .collect()
    }

    /// Per-table statistics. `max_entries` repeats the *reported*
    /// capacity, not reality.
    #[must_use]
    pub fn table_stats(&self) -> Vec<TableStatsEntry> {
        let names: Vec<String> = match &self.pipeline {
            Pipeline::PolicyCached { levels, .. } => {
                levels.iter().map(|l| l.name.clone()).collect()
            }
            Pipeline::OvsMicroflow { .. } => vec!["kernel".into(), "userspace".into()],
        };
        names
            .into_iter()
            .enumerate()
            .map(|(i, name)| TableStatsEntry {
                table_id: i as u8,
                name,
                wildcards: 0x3f_ffff,
                max_entries: self.reported.max_entries,
                active_count: self.pipeline.level_occupancy(i) as u32,
                lookup_count: self.stats.lookups,
                matched_count: self.stats.fast_hits + self.stats.slow_hits,
            })
            .collect()
    }

    /// Total installed rules.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.pipeline.rule_count()
    }

    /// Rules resident at a level (see [`Pipeline::level_occupancy`]).
    #[must_use]
    pub fn level_occupancy(&self, level: usize) -> usize {
        self.pipeline.level_occupancy(level)
    }

    /// Level currently holding an entry.
    #[must_use]
    pub fn level_of(&self, id: EntryId) -> Option<usize> {
        self.pipeline.level_of(id)
    }

    /// Number of lookup levels.
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.pipeline.level_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofwire::flow_match::FlowMatch;

    fn switch(profile: SwitchProfile) -> Switch {
        Switch::new(profile, Dpid(1), 42)
    }

    #[test]
    fn vendor2_rejects_at_capacity() {
        let mut s = switch(SwitchProfile::vendor2());
        let mut installed = 0;
        for i in 0.. {
            let fm = FlowMod::add(FlowMatch::l3_for_id(i), 100);
            let (res, _) = s.apply_flow_mod(&fm, SimTime(u64::from(i)));
            match res {
                Ok(_) => installed += 1,
                Err(FlowModError::TableFull) => break,
            }
        }
        assert_eq!(installed, 2560);
    }

    #[test]
    fn vendor1_default_route_reserves_one_unit() {
        let mut s = switch(SwitchProfile::vendor1());
        // Double-wide entries: 2047 fit in TCAM, the rest spill.
        for i in 0..3000u32 {
            let fm = FlowMod::add(FlowMatch::l2l3_for_id(i), 100);
            let (res, _) = s.apply_flow_mod(&fm, SimTime(u64::from(i)));
            assert!(res.is_ok(), "software table is unbounded");
        }
        assert_eq!(s.level_occupancy(0), 2047);
        assert_eq!(s.level_occupancy(1), 3000 - 2047);
    }

    #[test]
    fn inject_reports_tiered_delays() {
        let mut s = switch(SwitchProfile::vendor1());
        let fm = FlowMod::add(FlowMatch::l3_for_id(1), 100);
        s.apply_flow_mod(&fm, SimTime(0)).0.unwrap();
        let (hit, fast) = s.inject(&FlowMatch::key_for_id(1), SimTime(10), 64);
        assert!(matches!(hit, Hit::Table { level: 0, .. }));
        let (miss, ctrl) = s.inject(&FlowMatch::key_for_id(999), SimTime(20), 64);
        assert_eq!(miss, Hit::Miss);
        assert!(ctrl > fast, "controller path slower than fast path");
    }

    #[test]
    fn mod_cheaper_than_shifted_add() {
        // The Fig 3b asymmetry: adds into a populated TCAM shift entries;
        // mods touch in place.
        let mut s = switch(SwitchProfile::vendor1());
        // Preinstall 1000 rules at descending priority so later adds
        // shift a lot.
        for i in 0..1000u32 {
            let fm = FlowMod::add(FlowMatch::l3_for_id(i), 5000 - i as u16);
            s.apply_flow_mod(&fm, SimTime(u64::from(i))).0.unwrap();
        }
        let (_, add_cost) =
            s.apply_flow_mod(&FlowMod::add(FlowMatch::l3_for_id(5000), 1), SimTime(5000));
        let (_, mod_cost) = s.apply_flow_mod(
            &FlowMod::modify_strict(FlowMatch::l3_for_id(5), 4995, vec![]),
            SimTime(5001),
        );
        assert!(
            add_cost > mod_cost,
            "low-priority add ({add_cost}) should out-cost a mod ({mod_cost})"
        );
    }

    #[test]
    fn delete_returns_count_and_cost() {
        let mut s = switch(SwitchProfile::ovs());
        for i in 0..10u32 {
            s.apply_flow_mod(&FlowMod::add(FlowMatch::l3_for_id(i), 10), SimTime(0))
                .0
                .unwrap();
        }
        let (res, cost) = s.apply_flow_mod(&FlowMod::delete_all(), SimTime(1));
        assert_eq!(res, Ok(FlowModEffect::Deleted(10)));
        assert!(cost > SimDuration::ZERO);
        assert_eq!(s.rule_count(), 0);
    }

    #[test]
    fn stats_reflect_traffic() {
        let mut s = switch(SwitchProfile::ovs());
        s.apply_flow_mod(&FlowMod::add(FlowMatch::l3_for_id(1), 10), SimTime(0))
            .0
            .unwrap();
        s.inject(&FlowMatch::key_for_id(1), SimTime(1_500_000_000), 100);
        s.inject(&FlowMatch::key_for_id(1), SimTime(2_000_000_000), 100);
        let stats = s.flow_stats(SimTime(3_000_000_000));
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].packet_count, 2);
        assert_eq!(stats[0].byte_count, 200);
        assert_eq!(stats[0].duration_sec, 3);
        let tables = s.table_stats();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].lookup_count, 2);
    }

    #[test]
    fn datapath_stats_track_cascades_and_hits() {
        let mut s = switch(SwitchProfile::vendor1());
        // Descending priorities: each add lands below the resident
        // rules, shifting TCAM entries (the Fig 3b cost driver).
        for i in 0..10u32 {
            let fm = FlowMod::add(FlowMatch::l3_for_id(i), 200 - i as u16);
            s.apply_flow_mod(&fm, SimTime(u64::from(i))).0.unwrap();
        }
        let st = s.stats();
        assert_eq!(st.adds_hw + st.adds_sw, 10);
        assert!(st.tcam_shift_units > 0, "descending priorities must shift");
        s.inject(&FlowMatch::key_for_id(1), SimTime(100), 64);
        s.inject(&FlowMatch::key_for_id(999), SimTime(101), 64);
        let st = s.stats();
        assert_eq!(st.lookups, 2);
        assert_eq!(st.fast_hits, 1);
        assert_eq!(st.misses, 1);
        s.apply_flow_mod(&FlowMod::delete_all(), SimTime(200))
            .0
            .unwrap();
        assert_eq!(s.stats().deleted_rules, 10);
    }

    #[test]
    fn features_reply_uses_reported_numbers() {
        let s = switch(SwitchProfile::vendor1());
        let fr = s.features_reply(4);
        assert_eq!(fr.datapath_id, Dpid(1));
        assert_eq!(fr.n_tables, 2);
        assert_eq!(fr.ports.len(), 4);
    }

    #[test]
    fn determinism_same_seed_same_costs() {
        let run = || {
            let mut s = Switch::new(SwitchProfile::vendor1(), Dpid(7), 99);
            let mut total = SimDuration::ZERO;
            for i in 0..50u32 {
                let fm = FlowMod::add(FlowMatch::l3_for_id(i), 1000 - i as u16);
                let (_, c) = s.apply_flow_mod(&fm, SimTime(u64::from(i)));
                total += c;
            }
            total
        };
        assert_eq!(run(), run());
    }
}
