//! The Tango Score Database's on-disk JSON form, pinned by a golden
//! file.
//!
//! One database holds every shape the score database persists: all
//! three geometry classes, both policy directions and all four cache
//! attributes, a policy round that chose nothing, a latency profile, a
//! headroom, a switch with nothing probed, and one pattern per rule
//! kind holding every pattern step. Its `to_json()` must equal
//! `data/db_format.json` byte for byte, and that file must load back
//! and re-render unchanged — so any change to a key name, member order
//! or encoding shows up here as a diff.

use ofwire::types::Dpid;
use switchsim::cache::{Attribute, Direction, SortKey};
use tango::cluster::Clustering;
use tango::curves::LatencyProfile;
use tango::db::TangoDb;
use tango::infer_geometry::{GeometryClass, GeometryEstimate};
use tango::infer_policy::{InferredPolicy, PolicyRound};
use tango::infer_size::{LevelEstimate, SizeEstimate};
use tango::online::Headroom;
use tango::pattern::{PatternStep, RuleKind, TangoPattern};

const GOLDEN: &str = include_str!("data/db_format.json");

fn key(attribute: Attribute, direction: Direction) -> SortKey {
    SortKey {
        attribute,
        direction,
    }
}

/// A database holding every persisted shape at least once.
fn every_shape() -> TangoDb {
    let mut db = TangoDb::new();

    let k = db.switch_mut(Dpid(1));
    k.label = "Switch #1".into();
    k.size = Some(SizeEstimate {
        m: 8190,
        hit_rejection: true,
        levels: vec![
            LevelEstimate {
                rtt_ms: 0.5,
                estimated_size: 4095.0,
                swept_count: 4000,
                saturated: false,
            },
            LevelEstimate {
                rtt_ms: 12.25,
                estimated_size: 4095.5,
                swept_count: 4190,
                saturated: true,
            },
        ],
        clustering: Clustering {
            centers: vec![0.5, 12.25],
            boundaries: vec![6.375],
            sizes: vec![4000, 4190],
        },
        rules_attempted: 8192,
        packets_sent: 12000,
        batches: 33,
    });
    k.policy = Some(InferredPolicy {
        keys: vec![
            key(Attribute::TrafficCount, Direction::KeepHigh),
            key(Attribute::UseTime, Direction::KeepLow),
        ],
        rounds: vec![
            PolicyRound {
                correlations: vec![
                    (Attribute::InsertionTime, 0.125),
                    (Attribute::UseTime, -0.25),
                    (Attribute::TrafficCount, 0.96875),
                    (Attribute::Priority, 0.0),
                ],
                chosen: Some(key(Attribute::TrafficCount, Direction::KeepHigh)),
                cached_count: 2047,
            },
            PolicyRound {
                correlations: vec![(Attribute::Priority, 0.03125)],
                chosen: None,
                cached_count: 0,
            },
        ],
    });
    k.latency = Some(LatencyProfile {
        calibrated_n: 1000,
        add_asc_ms: 1.5,
        add_desc_ms: 20.25,
        add_same_ms: 1.75,
        add_rand_ms: 10.5,
        mod_ms: 0.75,
        del_ms: 2.125,
        shift_us: 37.5,
    });
    k.geometry = Some(GeometryEstimate {
        l2_only: Some(4096.0),
        l3_only: Some(4096.0),
        l2l3: Some(2048.0),
        class: GeometryClass::WidthSensitive {
            narrow: 4096.0,
            wide: 2048.0,
        },
    });
    k.headroom = Some(Headroom {
        accepted: 567,
        hit_rejection: true,
        cleaned: 560,
    });

    db.switch_mut(Dpid(2)).geometry = Some(GeometryEstimate {
        l2_only: Some(2560.0),
        l3_only: None,
        l2l3: Some(2560.0),
        class: GeometryClass::FixedWidth { entries: 2560.0 },
    });
    db.switch_mut(Dpid(3)).geometry = Some(GeometryEstimate {
        l2_only: None,
        l3_only: None,
        l2l3: None,
        class: GeometryClass::Unbounded,
    });
    db.switch_mut(Dpid(4)).label = "never probed".into();

    for (name, kind) in [
        ("every_step_l2", RuleKind::L2),
        ("every_step_l3", RuleKind::L3),
        ("every_step_l2l3", RuleKind::L2L3),
    ] {
        db.add_pattern(TangoPattern {
            name: name.into(),
            kind,
            steps: vec![
                PatternStep::Add {
                    id: 7,
                    priority: 100,
                },
                PatternStep::Modify {
                    id: 7,
                    priority: 100,
                    out_port: 3,
                },
                PatternStep::Probe { id: 7 },
                PatternStep::Barrier,
                PatternStep::Delete {
                    id: 7,
                    priority: 100,
                },
            ],
        });
    }
    db
}

#[test]
fn every_shape_renders_as_the_golden_file() {
    assert_eq!(every_shape().to_json(), GOLDEN);
}

#[test]
fn golden_file_loads_and_re_renders_byte_for_byte() {
    let db = TangoDb::from_json(GOLDEN).expect("golden file loads");
    assert_eq!(db.to_json(), GOLDEN);
}

/// The writer encodes every non-finite `f64` as `null`; the reader must
/// take each one back, wherever a number is persisted.
#[test]
fn non_finite_numbers_load_back() {
    let mut db = TangoDb::new();
    let k = db.switch_mut(Dpid(1));
    // What `measure_latency_profile(.., n = 0)` returns: six 0/0 costs.
    k.latency = Some(LatencyProfile {
        calibrated_n: 0,
        add_asc_ms: f64::NAN,
        add_desc_ms: f64::NAN,
        add_same_ms: f64::NAN,
        add_rand_ms: f64::NAN,
        mod_ms: f64::NAN,
        del_ms: f64::NAN,
        shift_us: 0.0,
    });
    k.size = Some(SizeEstimate {
        m: 0,
        hit_rejection: false,
        levels: vec![LevelEstimate {
            rtt_ms: f64::INFINITY,
            estimated_size: f64::NAN,
            swept_count: 0,
            saturated: false,
        }],
        clustering: Clustering {
            centers: vec![f64::NAN, f64::NEG_INFINITY],
            boundaries: vec![f64::INFINITY],
            sizes: vec![0, 0],
        },
        rules_attempted: 0,
        packets_sent: 0,
        batches: 0,
    });
    k.policy = Some(InferredPolicy {
        keys: vec![],
        rounds: vec![PolicyRound {
            correlations: vec![(Attribute::UseTime, f64::NAN)],
            chosen: None,
            cached_count: 0,
        }],
    });
    k.geometry = Some(GeometryEstimate {
        l2_only: Some(f64::NAN),
        l3_only: None,
        l2l3: Some(f64::INFINITY),
        class: GeometryClass::WidthSensitive {
            narrow: f64::NAN,
            wide: f64::INFINITY,
        },
    });
    db.switch_mut(Dpid(2)).geometry = Some(GeometryEstimate {
        l2_only: None,
        l3_only: None,
        l2l3: None,
        class: GeometryClass::FixedWidth {
            entries: f64::NEG_INFINITY,
        },
    });

    let text = db.to_json();
    let loaded = TangoDb::from_json(&text).expect("the writer's own output loads");
    assert_eq!(loaded.to_json(), text);
    let lat = loaded
        .switch(Dpid(1))
        .and_then(|k| k.latency)
        .expect("latency");
    assert!(lat.add_asc_ms.is_nan() && lat.del_ms.is_nan());
    assert_eq!(lat.shift_us, 0.0);
}
