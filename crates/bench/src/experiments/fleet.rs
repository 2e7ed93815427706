//! Fleet-scale inference throughput: N switches characterized
//! concurrently over one shared control path versus one at a time.
//!
//! The driver refactor's payoff claim: `tango::fleet::run_inference`
//! interleaves full Algorithm 1 runs so the fleet costs roughly the
//! wall-clock of its slowest member, not the sum — while every
//! per-switch estimate stays bit-identical to the sequential run. This
//! experiment sweeps fleet widths over generic policy-cached switches
//! and reports both the (virtual) wall-clock compression and the
//! identity check.

use crate::par::par_map;
use crate::report::{format_table, TracedCell};
use ofwire::types::Dpid;
use switchsim::cache::CachePolicy;
use switchsim::harness::Testbed;
use switchsim::profiles::SwitchProfile;
use tango::db::TangoDb;
use tango::driver::run_driver;
use tango::fleet::{run_inference, FleetJob};
use tango::infer_size::{size_probe, SizeEstimate, SizeProbeConfig};
use tango::pattern::RuleKind;

/// One fleet width's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScalingRow {
    /// Number of switches characterized.
    pub switches: usize,
    /// Virtual seconds to probe them one at a time.
    pub sequential_s: f64,
    /// Virtual seconds for the interleaved fleet run.
    pub fleet_s: f64,
    /// `sequential_s / fleet_s`.
    pub speedup: f64,
    /// Whether every per-switch estimate matched the sequential run
    /// field for field.
    pub identical: bool,
}

/// The cache policies cycled across fleet members, so wider fleets are
/// also more heterogeneous.
fn policies() -> [CachePolicy; 6] {
    [
        CachePolicy::fifo(),
        CachePolicy::lru(),
        CachePolicy::lfu(),
        CachePolicy::priority(),
        CachePolicy::priority_then_lru(),
        CachePolicy::lfu_then_fifo(),
    ]
}

fn build(width: usize, tcam: u64, seed: u64) -> Testbed {
    let mut tb = Testbed::new(seed);
    let policies = policies();
    for i in 0..width {
        let policy = policies[i % policies.len()].clone();
        tb.attach_default(
            Dpid(i as u64 + 1),
            SwitchProfile::generic_cached(tcam, policy),
        );
    }
    tb
}

fn config(dpid: Dpid, tcam: u64) -> SizeProbeConfig {
    SizeProbeConfig {
        max_flows: (tcam as usize) * 2,
        seed: 0xf1ee7 ^ dpid.0,
        ..SizeProbeConfig::default()
    }
}

/// Runs the scaling sweep: for each width, size-infers the whole fleet
/// sequentially and then concurrently on identically-seeded testbeds.
/// When `traced`, also returns two traced cells per width (the
/// sequential and the interleaved run; empty otherwise). Tracing never
/// changes the rows.
#[must_use]
pub fn run(widths: &[usize], tcam: u64, traced: bool) -> (Vec<FleetScalingRow>, Vec<TracedCell>) {
    // Each width owns both of its testbeds (sequential and fleet), so
    // the sweep fans out across widths; results come back by input
    // index, so traced cells merge in a thread-count-independent order.
    let outs = par_map(widths.to_vec(), |width| {
        let dpids: Vec<Dpid> = (1..=width as u64).map(Dpid).collect();

        let mut seq_tb = build(width, tcam, 7);
        if traced {
            seq_tb.enable_telemetry();
        }
        let seq_start = seq_tb.now();
        let seq: Vec<SizeEstimate> = dpids
            .iter()
            .map(|&d| {
                let probe = |p| size_probe(p, RuleKind::L3, config(d, tcam));
                run_driver(&mut seq_tb, d, probe).expect("sequential size probe")
            })
            .collect();
        let sequential_s = seq_tb.now().since(seq_start).as_millis_f64() / 1000.0;

        let mut fleet_tb = build(width, tcam, 7);
        if traced {
            fleet_tb.enable_telemetry();
        }
        let fleet_start = fleet_tb.now();
        let jobs: Vec<FleetJob> = dpids
            .iter()
            .map(|&d| FleetJob::size(d, RuleKind::L3, config(d, tcam)))
            .collect();
        let outcomes = run_inference(&mut fleet_tb, &jobs).expect("fleet inference");
        let fleet_s = fleet_tb.now().since(fleet_start).as_millis_f64() / 1000.0;

        let identical = seq
            .iter()
            .zip(&outcomes)
            .all(|(s, o)| o.as_size() == Some(s));
        let row = FleetScalingRow {
            switches: width,
            sequential_s,
            fleet_s,
            speedup: sequential_s / fleet_s,
            identical,
        };
        let cells = [
            (
                format!("fleet {width} sequential"),
                seq_tb.finish_recorder(),
            ),
            (
                format!("fleet {width} interleaved"),
                fleet_tb.finish_recorder(),
            ),
        ];
        (row, cells)
    });
    let mut rows = Vec::with_capacity(outs.len());
    let mut cells = Vec::new();
    for (row, pair) in outs {
        rows.push(row);
        if traced {
            cells.extend(pair);
        }
    }
    (rows, cells)
}

/// Characterizes a four-switch fleet and folds the outcomes into a
/// [`TangoDb`] — the artifact the scheduler loads back with
/// [`TangoDb::load_json`].
#[must_use]
pub fn knowledge_db(tcam: u64) -> TangoDb {
    let width = 4;
    let mut tb = build(width, tcam, 7);
    let jobs: Vec<FleetJob> = (1..=width as u64)
        .map(|d| FleetJob::size(Dpid(d), RuleKind::L3, config(Dpid(d), tcam)))
        .collect();
    let outcomes = run_inference(&mut tb, &jobs).expect("fleet inference");
    let mut db = TangoDb::new();
    db.ingest_fleet(&jobs, &outcomes);
    db
}

/// Renders the scaling table.
#[must_use]
pub fn render(rows: &[FleetScalingRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.switches.to_string(),
                format!("{:.2}", r.sequential_s),
                format!("{:.2}", r.fleet_s),
                format!("{:.2}x", r.speedup),
                if r.identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    format_table(
        &[
            "switches",
            "sequential (s)",
            "fleet (s)",
            "speedup",
            "bit-identical",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_traced;

    #[test]
    fn fleet_is_identical_and_faster_at_every_width() {
        let (rows, cells) = run(&[1, 2, 4], 48, false);
        assert!(cells.is_empty(), "an untraced run records no cells");
        for r in &rows {
            assert!(r.identical, "width {} diverged from sequential", r.switches);
        }
        assert!(
            (rows[0].speedup - 1.0).abs() < 1e-9,
            "a one-switch fleet is exactly the sequential run"
        );
        assert!(
            rows[2].speedup > rows[1].speedup && rows[1].speedup > 1.0,
            "speedup grows with width: {:?}",
            rows.iter().map(|r| r.speedup).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tracing_leaves_the_rows_alone_and_sees_the_driver_window() {
        let (rows, cells) = run(&[1, 2], 64, true);
        let (trace, metrics) = render_traced(&cells);
        assert_eq!(rows, run(&[1, 2], 64, false).0);
        assert!(trace.contains("fleet 2 interleaved"));
        let gauge = |key: &str| metrics.gauges.iter().find(|(k, _)| k == key).map(|g| g.1);
        assert_eq!(gauge("driver/inflight_max"), Some(128));
        assert_eq!(
            gauge("sim/queue_depth_max"),
            Some(2),
            "one front per switch"
        );
    }

    #[test]
    fn knowledge_db_holds_every_fleet_member() {
        let db = knowledge_db(48);
        for d in 1..=4u64 {
            let size = db
                .switch(Dpid(d))
                .and_then(|k| k.size.as_ref())
                .expect("size knowledge ingested");
            assert!(size.m > 0);
        }
    }
}
