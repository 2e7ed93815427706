//! The Tango Score and Pattern Databases (TangoDB, §4).
//!
//! Every measurement the probing engine produces is deposited here, and
//! every consumer — the network scheduler, placement hints, application
//! API — reads from here. "The measurement results are stored into a
//! central Tango Score Database, to allow sharing of results across
//! components."

use crate::curves::LatencyProfile;
use crate::fleet::{FleetJob, FleetOutcome};
use crate::infer_geometry::GeometryEstimate;
use crate::infer_policy::InferredPolicy;
use crate::infer_size::SizeEstimate;
use crate::json::Value;
use crate::online::Headroom;
use crate::pattern::TangoPattern;
use ofwire::types::Dpid;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Everything Tango has learned about one switch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SwitchKnowledge {
    /// Profile/vendor label, if known (reporting only).
    pub label: String,
    /// Inferred per-layer sizes, fastest first (Algorithm 1).
    pub size: Option<SizeEstimate>,
    /// Inferred cache policy (Algorithm 2).
    pub policy: Option<InferredPolicy>,
    /// Measured operation-cost profile.
    pub latency: Option<LatencyProfile>,
    /// Inferred TCAM geometry.
    pub geometry: Option<GeometryEstimate>,
    /// Last online headroom measurement.
    pub headroom: Option<Headroom>,
}

impl SwitchKnowledge {
    /// Per-layer RTT centers in ms (empty if sizes were never probed).
    #[must_use]
    pub fn layer_rtts_ms(&self) -> Vec<f64> {
        self.size
            .as_ref()
            .map(|s| s.clustering.centers.clone())
            .unwrap_or_default()
    }

    /// Estimated fast-layer capacity, if probed.
    #[must_use]
    pub fn fast_layer_size(&self) -> Option<f64> {
        self.size.as_ref().and_then(SizeEstimate::fast_layer_size)
    }

    /// Mean rule-installation cost (ascending adds) in ms, if measured.
    #[must_use]
    pub fn add_ms(&self) -> Option<f64> {
        self.latency.map(|l| l.add_asc_ms)
    }
}

/// The central score + pattern database.
#[derive(Debug, Clone, Default)]
pub struct TangoDb {
    knowledge: BTreeMap<u64, SwitchKnowledge>,
    patterns: BTreeMap<String, TangoPattern>,
}

impl TangoDb {
    /// An empty database.
    #[must_use]
    pub fn new() -> TangoDb {
        TangoDb::default()
    }

    /// Knowledge record for a switch, creating it on first use.
    pub fn switch_mut(&mut self, dpid: Dpid) -> &mut SwitchKnowledge {
        self.knowledge.entry(dpid.0).or_default()
    }

    /// Read access to a switch's knowledge.
    #[must_use]
    pub fn switch(&self, dpid: Dpid) -> Option<&SwitchKnowledge> {
        self.knowledge.get(&dpid.0)
    }

    /// All switches with recorded knowledge.
    #[must_use]
    pub fn dpids(&self) -> Vec<Dpid> {
        self.knowledge.keys().map(|&d| Dpid(d)).collect()
    }

    /// Folds a batch of fleet-inference outcomes into the database —
    /// the network-wide ingest path for
    /// [`fleet::run_inference`](crate::fleet::run_inference). Jobs and
    /// outcomes are matched by position (outcomes come back in job
    /// order); pattern outcomes carry no switch knowledge and are
    /// skipped.
    pub fn ingest_fleet(&mut self, jobs: &[FleetJob], outcomes: &[FleetOutcome]) {
        for (job, outcome) in jobs.iter().zip(outcomes) {
            let k = self.switch_mut(job.dpid);
            match outcome {
                FleetOutcome::Size(e) => k.size = Some(e.clone()),
                FleetOutcome::Policy(p) => k.policy = Some(p.clone()),
                FleetOutcome::Geometry(g) => k.geometry = Some(g.clone()),
                FleetOutcome::Headroom(h) => k.headroom = Some(*h),
                FleetOutcome::Pattern(_) => {}
            }
        }
    }

    /// Registers (or replaces) a pattern by name — "Tango allows new
    /// Tango Patterns to be continuously added to the database".
    pub fn add_pattern(&mut self, pattern: TangoPattern) {
        self.patterns.insert(pattern.name.clone(), pattern);
    }

    /// Fetches a pattern by name.
    #[must_use]
    pub fn pattern(&self, name: &str) -> Option<&TangoPattern> {
        self.patterns.get(name)
    }

    /// Names of all registered patterns.
    #[must_use]
    pub fn pattern_names(&self) -> Vec<&str> {
        self.patterns.keys().map(String::as_str).collect()
    }

    /// The latency profile for a switch, or a conservative default for
    /// never-probed switches (slow, priority-sensitive — safe for
    /// scheduling decisions).
    #[must_use]
    pub fn latency_or_default(&self, dpid: Dpid) -> LatencyProfile {
        self.switch(dpid)
            .and_then(|k| k.latency)
            .unwrap_or(LatencyProfile {
                calibrated_n: 0,
                add_asc_ms: 2.0,
                add_desc_ms: 20.0,
                add_same_ms: 2.0,
                add_rand_ms: 10.0,
                mod_ms: 1.0,
                del_ms: 2.0,
                shift_us: 10.0,
            })
    }

    /// Serializes the whole database (knowledge and patterns) to the
    /// score-database JSON form.
    #[must_use]
    pub fn to_json(&self) -> String {
        codec::Json::to_json(self).render()
    }

    /// Parses a database from its JSON form.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidData`] when the text is not valid JSON or
    /// not a score database.
    pub fn from_json(text: &str) -> io::Result<TangoDb> {
        let v = Value::parse(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        codec::Json::from_json(&v)
    }

    /// Writes the database to `path` as JSON, creating parent
    /// directories as needed — how fleet inference results land under
    /// `results/` for the scheduler to reload.
    ///
    /// # Errors
    /// Any I/O failure creating or writing the file.
    pub fn save_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Reads a database previously written by
    /// [`save_json`](TangoDb::save_json).
    ///
    /// # Errors
    /// Any I/O failure, or [`io::ErrorKind::InvalidData`] on malformed
    /// content.
    pub fn load_json(path: impl AsRef<Path>) -> io::Result<TangoDb> {
        TangoDb::from_json(&std::fs::read_to_string(path)?)
    }
}

/// The score database's JSON form. Each persisted type states its shape
/// once — a record's field list, an enum's name table, a tagged union's
/// variant table — and [`Json`](codec::Json) derives both the writer and
/// the reader from that one statement.
mod codec {
    use super::{LatencyProfile, SwitchKnowledge, TangoDb, Value};
    use crate::cluster::Clustering;
    use crate::infer_geometry::{GeometryClass, GeometryEstimate};
    use crate::infer_policy::{InferredPolicy, PolicyRound};
    use crate::infer_size::{LevelEstimate, SizeEstimate};
    use crate::online::Headroom;
    use crate::pattern::{PatternStep, RuleKind, TangoPattern};
    use std::io;
    use switchsim::cache::{Attribute, Direction, SortKey};

    fn bad(msg: impl Into<String>) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, msg.into())
    }

    /// `e`, prefixed with the member (or element) it arose in.
    fn within(key: impl std::fmt::Display, e: &io::Error) -> io::Error {
        bad(format!("`{key}`: {e}"))
    }

    /// A type with a JSON form.
    pub(super) trait Json: Sized {
        fn to_json(&self) -> Value;
        fn from_json(v: &Value) -> io::Result<Self>;
        /// The value of a member that is absent: an error, except for
        /// `Option`.
        fn absent() -> io::Result<Self> {
            Err(bad("missing"))
        }
    }

    /// Member `key` of object `v`; errors name the member.
    fn get<T: Json>(v: &Value, key: &str) -> io::Result<T> {
        if !matches!(v, Value::Obj(_)) {
            return Err(bad("not an object"));
        }
        match v.get(key) {
            Some(member) => T::from_json(member),
            None => T::absent(),
        }
        .map_err(|e| within(key, &e))
    }

    /// Non-finite values are written as `null`, so `null` reads as NaN.
    impl Json for f64 {
        fn to_json(&self) -> Value {
            Value::num(*self)
        }
        fn from_json(v: &Value) -> io::Result<Self> {
            match v {
                Value::Null => Ok(f64::NAN),
                _ => v.as_f64().ok_or_else(|| bad("not a number")),
            }
        }
    }

    impl Json for usize {
        fn to_json(&self) -> Value {
            Value::Num(*self as f64)
        }
        fn from_json(v: &Value) -> io::Result<Self> {
            v.as_usize()
                .ok_or_else(|| bad("not a non-negative integer"))
        }
    }

    macro_rules! narrow_int {
        ($($ty:ty),*) => {$(
            impl Json for $ty {
                fn to_json(&self) -> Value {
                    Value::Num(f64::from(*self))
                }
                fn from_json(v: &Value) -> io::Result<Self> {
                    let n = usize::from_json(v)?;
                    n.try_into()
                        .map_err(|_| bad(format!("{n} is out of range for {}", stringify!($ty))))
                }
            }
        )*};
    }
    narrow_int!(u16, u32);

    impl Json for bool {
        fn to_json(&self) -> Value {
            Value::Bool(*self)
        }
        fn from_json(v: &Value) -> io::Result<Self> {
            v.as_bool().ok_or_else(|| bad("not a bool"))
        }
    }

    impl Json for String {
        fn to_json(&self) -> Value {
            Value::Str(self.clone())
        }
        fn from_json(v: &Value) -> io::Result<Self> {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| bad("not a string"))
        }
    }

    /// `None` is written as `null`; `null` and an absent member read as
    /// `None`.
    impl<T: Json> Json for Option<T> {
        fn to_json(&self) -> Value {
            self.as_ref().map_or(Value::Null, T::to_json)
        }
        fn from_json(v: &Value) -> io::Result<Self> {
            match v {
                Value::Null => Ok(None),
                _ => T::from_json(v).map(Some),
            }
        }
        fn absent() -> io::Result<Self> {
            Ok(None)
        }
    }

    impl<T: Json> Json for Vec<T> {
        fn to_json(&self) -> Value {
            Value::Arr(self.iter().map(T::to_json).collect())
        }
        fn from_json(v: &Value) -> io::Result<Self> {
            v.as_arr()
                .ok_or_else(|| bad("not an array"))?
                .iter()
                .enumerate()
                .map(|(i, x)| T::from_json(x).map_err(|e| within(i, &e)))
                .collect()
        }
    }

    /// A struct as an object of its fields, in the listed order. The
    /// reader's struct literal makes a field left off the list a compile
    /// error.
    macro_rules! record {
        ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
            impl Json for $ty {
                fn to_json(&self) -> Value {
                    Value::Obj(vec![$((stringify!($field).to_owned(), self.$field.to_json())),*])
                }
                fn from_json(v: &Value) -> io::Result<Self> {
                    Ok($ty { $($field: get(v, stringify!($field))?),* })
                }
            }
        )*};
    }

    record! {
        SortKey { attribute, direction }
        LevelEstimate { rtt_ms, estimated_size, swept_count, saturated }
        Clustering { centers, boundaries, sizes }
        SizeEstimate { m, hit_rejection, levels, clustering, rules_attempted, packets_sent, batches }
        PolicyRound { correlations, chosen, cached_count }
        InferredPolicy { keys, rounds }
        LatencyProfile {
            calibrated_n, add_asc_ms, add_desc_ms, add_same_ms, add_rand_ms, mod_ms, del_ms,
            shift_us,
        }
        GeometryEstimate { l2_only, l3_only, l2l3, class }
        Headroom { accepted, hit_rejection, cleaned }
        TangoPattern { name, kind, steps }
        SwitchKnowledge { label, size, policy, latency, geometry, headroom }
    }

    /// A fieldless enum as a string, by one name table.
    macro_rules! names {
        ($($ty:ident { $($variant:ident => $name:literal),* $(,)? })*) => {$(
            impl Json for $ty {
                fn to_json(&self) -> Value {
                    Value::Str(match self { $($ty::$variant => $name),* }.to_owned())
                }
                fn from_json(v: &Value) -> io::Result<Self> {
                    match v.as_str().ok_or_else(|| bad("not a string"))? {
                        $($name => Ok($ty::$variant),)*
                        other => Err(bad(format!("unknown name `{other}`"))),
                    }
                }
            }
        )*};
    }

    names! {
        RuleKind { L2 => "l2", L3 => "l3", L2L3 => "l2l3" }
        Direction { KeepHigh => "keep_high", KeepLow => "keep_low" }
        Attribute {
            InsertionTime => "insertion_time",
            UseTime => "use_time",
            TrafficCount => "traffic_count",
            Priority => "priority",
        }
    }

    /// An enum as an object: the variant's name under `$tag`, then its
    /// fields in the listed order.
    macro_rules! tagged {
        ($($ty:ident on $tag:literal {
            $($variant:ident $({ $($field:ident),* })? => $name:literal),* $(,)?
        })*) => {$(
            impl Json for $ty {
                fn to_json(&self) -> Value {
                    match self {
                        $($ty::$variant $({ $($field),* })? => Value::Obj(vec![
                            ($tag.to_owned(), Value::Str($name.to_owned())),
                            $($((stringify!($field).to_owned(), $field.to_json()),)*)?
                        ]),)*
                    }
                }
                fn from_json(v: &Value) -> io::Result<Self> {
                    match get::<String>(v, $tag)?.as_str() {
                        $($name => Ok($ty::$variant $({ $($field: get(v, stringify!($field))?),* })?),)*
                        other => Err(within($tag, &bad(format!("unknown name `{other}`")))),
                    }
                }
            }
        )*};
    }

    tagged! {
        GeometryClass on "kind" {
            Unbounded => "unbounded",
            FixedWidth { entries } => "fixed_width",
            WidthSensitive { narrow, wide } => "width_sensitive",
        }
        PatternStep on "op" {
            Add { id, priority } => "add",
            Modify { id, priority, out_port } => "modify",
            Delete { id, priority } => "delete",
            Probe { id } => "probe",
            Barrier => "barrier",
        }
    }

    /// One policy-round correlation: `{"attribute": .., "r": ..}`.
    impl Json for (Attribute, f64) {
        fn to_json(&self) -> Value {
            Value::Obj(vec![
                ("attribute".to_owned(), self.0.to_json()),
                ("r".to_owned(), self.1.to_json()),
            ])
        }
        fn from_json(v: &Value) -> io::Result<Self> {
            Ok((get(v, "attribute")?, get(v, "r")?))
        }
    }

    /// Knowledge keyed by decimal dpid, patterns keyed by name.
    impl Json for TangoDb {
        fn to_json(&self) -> Value {
            let knowledge = self
                .knowledge
                .iter()
                .map(|(dpid, k)| (dpid.to_string(), k.to_json()))
                .collect();
            let patterns = self
                .patterns
                .iter()
                .map(|(name, p)| (name.clone(), p.to_json()))
                .collect();
            Value::Obj(vec![
                ("knowledge".to_owned(), Value::Obj(knowledge)),
                ("patterns".to_owned(), Value::Obj(patterns)),
            ])
        }

        fn from_json(v: &Value) -> io::Result<Self> {
            let members = |key: &str| {
                match v.get(key) {
                    Some(m) => m.as_obj().ok_or_else(|| bad("not an object")),
                    None => Err(bad("missing")),
                }
                .map_err(|e| within(key, &e))
            };
            let mut db = TangoDb::new();
            for (dpid, k) in members("knowledge")? {
                let parsed = dpid
                    .parse()
                    .map_err(|_| bad(format!("`knowledge`: non-numeric dpid key `{dpid}`")))?;
                let knowledge = SwitchKnowledge::from_json(k)
                    .map_err(|e| within("knowledge", &within(dpid, &e)))?;
                db.knowledge.insert(parsed, knowledge);
            }
            for (name, p) in members("patterns")? {
                let pattern = TangoPattern::from_json(p)
                    .map_err(|e| within("patterns", &within(name, &e)))?;
                if pattern.name != *name {
                    return Err(bad(format!(
                        "`patterns`: key `{name}` disagrees with the pattern's `name` `{}`",
                        pattern.name
                    )));
                }
                db.patterns.insert(name.clone(), pattern);
            }
            Ok(db)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PriorityOrder, RuleKind};

    #[test]
    fn knowledge_lifecycle() {
        let mut db = TangoDb::new();
        assert!(db.switch(Dpid(1)).is_none());
        db.switch_mut(Dpid(1)).label = "Switch #1".into();
        assert_eq!(db.switch(Dpid(1)).unwrap().label, "Switch #1");
        assert_eq!(db.dpids(), vec![Dpid(1)]);
        assert!(db.switch(Dpid(1)).unwrap().fast_layer_size().is_none());
        assert!(db.switch(Dpid(1)).unwrap().add_ms().is_none());
    }

    #[test]
    fn pattern_registry() {
        let mut db = TangoDb::new();
        let p = TangoPattern::priority_insertion(10, PriorityOrder::Ascending, RuleKind::L3);
        let name = p.name.clone();
        db.add_pattern(p);
        assert!(db.pattern(&name).is_some());
        assert_eq!(db.pattern_names(), vec![name.as_str()]);
        assert!(db.pattern("nope").is_none());
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        use crate::cluster::Clustering;
        use crate::infer_geometry::{GeometryClass, GeometryEstimate};
        use crate::infer_policy::{InferredPolicy, PolicyRound};
        use crate::infer_size::{LevelEstimate, SizeEstimate};
        use crate::online::Headroom;
        use switchsim::cache::{Attribute, Direction, SortKey};

        let mut db = TangoDb::new();
        let k = db.switch_mut(Dpid(3));
        k.label = "Switch \"#3\"".into();
        k.size = Some(SizeEstimate {
            m: 1534,
            hit_rejection: true,
            levels: vec![
                LevelEstimate {
                    rtt_ms: 1.25,
                    estimated_size: 767.0,
                    swept_count: 760,
                    saturated: false,
                },
                LevelEstimate {
                    rtt_ms: 11.5,
                    estimated_size: 767.0,
                    swept_count: 774,
                    saturated: true,
                },
            ],
            clustering: Clustering {
                centers: vec![1.25, 11.5],
                boundaries: vec![6.375],
                sizes: vec![760, 774],
            },
            rules_attempted: 2048,
            packets_sent: 3000,
            batches: 11,
        });
        k.policy = Some(InferredPolicy {
            keys: vec![SortKey {
                attribute: Attribute::InsertionTime,
                direction: Direction::KeepLow,
            }],
            rounds: vec![PolicyRound {
                correlations: vec![
                    (Attribute::InsertionTime, -0.92),
                    (Attribute::Priority, 0.03),
                ],
                chosen: Some(SortKey {
                    attribute: Attribute::InsertionTime,
                    direction: Direction::KeepLow,
                }),
                cached_count: 383,
            }],
        });
        k.latency = Some(TangoDb::new().latency_or_default(Dpid(3)));
        k.geometry = Some(GeometryEstimate {
            l2_only: Some(767.0),
            l3_only: Some(767.0),
            l2l3: Some(369.0),
            class: GeometryClass::WidthSensitive {
                narrow: 767.0,
                wide: 369.0,
            },
        });
        k.headroom = Some(Headroom {
            accepted: 567,
            hit_rejection: true,
            cleaned: 567,
        });
        // A second switch with nothing probed yet, and a pattern.
        db.switch_mut(Dpid(9)).label = "fresh".into();
        db.add_pattern(TangoPattern::priority_insertion(
            3,
            PriorityOrder::Descending,
            RuleKind::L2L3,
        ));

        let path = std::env::temp_dir().join("tango_db_roundtrip_test.json");
        db.save_json(&path).expect("save");
        let loaded = TangoDb::load_json(&path).expect("load");
        std::fs::remove_file(&path).ok();

        // Field-for-field equality, via the canonical rendering plus
        // spot checks on the typed view.
        assert_eq!(loaded.to_json(), db.to_json());
        let lk = loaded.switch(Dpid(3)).expect("switch survives");
        assert_eq!(lk, db.switch(Dpid(3)).expect("source switch"));
        assert_eq!(lk.fast_layer_size(), Some(767.0));
        assert_eq!(loaded.pattern_names(), db.pattern_names());
        assert_eq!(
            loaded.pattern(db.pattern_names()[0]),
            db.pattern(db.pattern_names()[0])
        );
    }

    #[test]
    fn malformed_json_is_a_typed_io_error() {
        let err = TangoDb::from_json("{\"knowledge\": 5}").expect_err("not a database");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("`knowledge`"), "{err}");
        let err = TangoDb::from_json("not json").expect_err("not JSON at all");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Each rejection is `InvalidData` and names the offending member.
        let pattern = |key: &str, name: &str, step: &str| {
            format!(
                r#"{{"knowledge": {{}}, "patterns": {{"{key}": {{"name": "{name}", "kind": "l3", "steps": [{step}]}}}}}}"#
            )
        };
        let add = r#"{"op": "add", "id": 1, "priority": 7}"#;
        for (text, member) in [
            (
                r#"{"knowledge": {"1": {"size": null}}, "patterns": {}}"#.to_owned(),
                "`label`",
            ),
            (
                r#"{"knowledge": {"1": {"label": "", "geometry": {"class": {"kind": "hexagonal"}}}}, "patterns": {}}"#
                    .to_owned(),
                "`kind`",
            ),
            (pattern("p", "p", r#"{"op": "jump", "id": 1}"#), "`op`"),
            (
                pattern("p", "p", r#"{"op": "add", "id": 1, "priority": 70000}"#),
                "`priority`",
            ),
            (pattern("p", "q", add), "`name`"),
        ] {
            let err = TangoDb::from_json(&text).expect_err(&text);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{text}");
            assert!(err.to_string().contains(member), "{err} should name {member}");
        }
        TangoDb::from_json(&pattern("p", "p", add)).expect("the well-formed control loads");
    }

    #[test]
    fn default_latency_is_conservative() {
        let db = TangoDb::new();
        let lp = db.latency_or_default(Dpid(99));
        assert!(lp.priority_sensitive());
        assert!(lp.add_desc_ms > lp.add_asc_ms);
    }
}
