//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] captures everything the paper calls an
//! "experiment setup" — constellation, ground segment, GS pairs, horizon,
//! forwarding granularity, line rate, queue size, congestion controller,
//! thread count — as *data* rather than code. Specs round-trip through
//! JSON, so a figure run is reproducible from a file, and the
//! [`runner`](crate::runner) executes any spec by name through one shared
//! driver.
//!
//! The JSON path is [`ExperimentSpec::to_json_string`] /
//! [`ExperimentSpec::from_json`]: a hand-rolled, schema-stable mapping
//! with precise error messages, over [`hypatia_util::json`]. Each scalar
//! knob is one row of the `KNOBS` table (key, doc line, range, field), which
//! `--set`, the printer and the parser each loop over; only `ground`,
//! `pairs`, `faults` and `params` are written by hand.

// Spec I/O is a crash-resilience surface: a malformed file must come back
// as a typed SpecError, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::experiments::tcp_single::CcKind;
use crate::scenario::{ConstellationChoice, Scenario, ScenarioBuilder};
use hypatia_constellation::ground::{top_cities, CITIES};
use hypatia_constellation::{Constellation, GroundStation};
use hypatia_fault::{FaultSchedule, FaultSpec, FlapProcess, LinkCut, OutageWindow};
use hypatia_netsim::{SimConfig, SimMode};
use hypatia_routing::incremental::RoutingConfig;
use hypatia_util::json::{self, Value};
use hypatia_util::{DataRate, SimDuration};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::RangeBounds;
use std::sync::Arc;

/// Which ground stations the scenario uses.
#[derive(Debug, Clone, PartialEq)]
pub enum GroundSegment {
    /// The `n` most populous cities of the embedded dataset.
    TopCities(usize),
    /// An explicit station list.
    Cities(Vec<GroundStation>),
}

impl GroundSegment {
    /// Materialize the station list.
    pub fn stations(&self) -> Vec<GroundStation> {
        match self {
            GroundSegment::TopCities(n) => top_cities(*n),
            GroundSegment::Cities(v) => v.clone(),
        }
    }
}

/// Which source→destination pairs the experiment studies.
#[derive(Debug, Clone, PartialEq)]
pub enum PairSelection {
    /// Explicit `(src city, dst city)` pairs.
    Named(Vec<(String, String)>),
    /// Every unordered GS pair at least this far apart (great-circle km).
    MinDistance {
        /// Minimum pair distance, km.
        km: f64,
    },
    /// The paper's fixed random permutation traffic matrix (seeded by the
    /// spec's `seed`).
    Permutation,
}

impl PairSelection {
    /// The explicit pairs, if this selection names them.
    pub fn named(&self) -> Option<&[(String, String)]> {
        match self {
            PairSelection::Named(v) => Some(v),
            _ => None,
        }
    }
}

/// An experiment-specific parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A number (integers are stored as f64).
    Num(f64),
    /// A boolean flag.
    Flag(bool),
    /// Free text.
    Text(String),
    /// A list of numbers.
    List(Vec<f64>),
}

/// A malformed spec: bad JSON, a missing/mistyped field, or an unknown
/// `--set` key or value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid experiment spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// A complete, serializable description of one experiment run.
///
/// Each scalar field is a knob (key in parentheses; see [`Self::knobs`]).
/// At its default a knob is left out of the printed JSON, so spec files
/// written before it existed keep their bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Registry name (e.g. `fig03_rtt_fluctuations`).
    pub experiment: String,
    /// Constellation preset.
    pub constellation: ConstellationChoice,
    /// Ground segment.
    pub ground: GroundSegment,
    /// Pair selection.
    pub pairs: PairSelection,
    /// Simulated horizon (`duration_s`).
    pub duration: SimDuration,
    /// Forwarding-state granularity, the paper's Δt (`step_ms`).
    pub step: SimDuration,
    /// Uniform line rate of ISLs and GSLs (`line_rate_mbps`).
    pub line_rate: DataRate,
    /// Drop-tail queue capacity per device, packets (`queue_packets`).
    pub queue_packets: usize,
    /// Utilization-tracking bucket; `None` disables tracking (`utilization_bucket_s`).
    pub utilization_bucket: Option<SimDuration>,
    /// Congestion controller for TCP workloads (`cc`).
    pub cc: CcKind,
    /// Routing-sweep worker threads (`threads`): the sweeps of Figs. 6–9
    /// and 13 fan snapshots out over them (0 = one per core). Packet runs
    /// do not read it.
    pub threads: usize,
    /// Seed for randomized pieces: permutation matrix, loss processes (`seed`).
    pub seed: u64,
    /// Churn share above which SSSP repair recomputes in full (`repair_churn_threshold`).
    pub repair_churn_threshold: f64,
    /// Retired event-engine shard count (`sim_shards`): parsed, validated
    /// ≥ 1 and printed off its default, but nothing reads it — the engine
    /// runs one shard, and a run given more warns. Kept while the
    /// benchmark harness still writes it (ROADMAP item 1c).
    pub sim_shards: usize,
    /// Packet-level, fluid, or hybrid simulation of bulk flows (`sim_mode`).
    pub sim_mode: SimMode,
    /// Demand below which a flow stays packet-level (`fluid_threshold_kbps`).
    pub fluid_threshold_kbps: f64,
    /// Offered flows of traffic-matrix experiments (`flows`).
    pub flows: Option<u64>,
    /// Optional fault-injection scenario; `None` keeps every component up.
    pub faults: Option<FaultSpec>,
    /// Checkpoint interval in simulated time (`checkpoint_every_s`).
    pub checkpoint_every: Option<SimDuration>,
    /// Checkpoint directory of an earlier run to resume from (`resume_from`).
    pub resume_from: Option<String>,
    /// Run conservation audits at every epoch boundary (`audit`).
    pub audit: bool,
    /// Experiment-specific extras (e.g. `ping_interval_ms`).
    pub params: BTreeMap<String, ParamValue>,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        let sim = SimConfig::default();
        ExperimentSpec {
            experiment: String::new(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(100),
            pairs: PairSelection::Named(Vec::new()),
            duration: SimDuration::from_secs(200),
            step: sim.fstate_step,
            line_rate: sim.link_rate,
            queue_packets: sim.queue_packets,
            utilization_bucket: None,
            cc: CcKind::NewReno,
            threads: 0,
            seed: 1,
            repair_churn_threshold: sim.routing.repair_churn_threshold,
            sim_shards: 1,
            sim_mode: sim.sim_mode,
            fluid_threshold_kbps: 0.0,
            flows: None,
            faults: None,
            checkpoint_every: None,
            resume_from: None,
            audit: false,
            params: BTreeMap::new(),
        }
    }
}

/// Flap process used when a `--set` key configures only one of
/// `mttf`/`mttr`: fail about once an hour, repair in a minute.
const DEFAULT_FLAP: FlapProcess = FlapProcess { mttf_s: 3600.0, mttr_s: 60.0 };

/// Top-level JSON keys outside the knob table.
const STRUCTURED: [&str; 6] =
    ["experiment", "constellation", "ground", "pairs", "faults", "params"];

impl ExperimentSpec {
    /// The simulator configuration this spec describes.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::default()
            .with_link_rate(self.line_rate)
            .with_queue_packets(self.queue_packets)
            .with_fstate_step(self.step);
        if let Some(bucket) = self.utilization_bucket {
            cfg = cfg.with_utilization_bucket(bucket);
        }
        cfg.with_repair_churn_threshold(self.repair_churn_threshold).with_sim_mode(self.sim_mode)
    }

    /// The routing configuration this spec describes.
    pub fn routing_config(&self) -> RoutingConfig {
        RoutingConfig {
            repair_churn_threshold: self.repair_churn_threshold,
            ..RoutingConfig::default()
        }
    }

    /// Assemble the scenario: the spec's constellation and ground segment,
    /// configured by [`Self::scenario_over`].
    pub fn build_scenario(&self) -> Scenario {
        let built = ScenarioBuilder::new(self.constellation)
            .ground_stations(self.ground.stations())
            .build();
        self.scenario_over(built.constellation)
    }

    /// The scenario of `constellation` under this spec: the spec's
    /// simulator configuration, and its fault scenario (if any) compiled
    /// against `constellation` (horizon = the spec's `duration`).
    pub fn scenario_over(&self, constellation: Arc<Constellation>) -> Scenario {
        let mut sim_config = self.sim_config();
        if let Some(faults) = &self.faults {
            let schedule = FaultSchedule::compile(faults, &constellation, self.duration);
            sim_config.faults = Some(Arc::new(schedule));
        }
        Scenario { constellation, sim_config }
    }

    /// The fault scenario, created fault-free on first access (used by the
    /// fault-related `--set` keys and by experiments that inject faults).
    pub fn faults_mut(&mut self) -> &mut FaultSpec {
        self.faults.get_or_insert_with(FaultSpec::default)
    }

    /// The minimum distance of a `min_distance_km` pair selection.
    pub(crate) fn min_pair_distance_km(&self) -> Result<f64, SpecError> {
        match self.pairs {
            PairSelection::MinDistance { km } => Ok(km),
            _ => err(format!("{} needs pairs {{ \"min_distance_km\": X }}", self.experiment)),
        }
    }

    /// Extra parameter `key` as `read` takes it (`None`: not what `want`
    /// says); missing or mistyped, the error names the key, `want` and
    /// the value given.
    fn param<'a, T>(
        &'a self,
        key: &str,
        want: &str,
        read: impl FnOnce(&'a ParamValue) -> Option<T>,
    ) -> Result<T, SpecError> {
        let Some(v) = self.params.get(key) else {
            return err(format!("param {key:?} is missing: expects {want}"));
        };
        // A non-finite number prints as itself here, not as JSON's stand-in.
        let given = if let ParamValue::Num(x) = v { x.to_string() } else { param_json(v) };
        read(v).ok_or_else(|| SpecError(format!("param {key:?} expects {want}, got {given}")))
    }

    /// Numeric extra parameter (finite).
    pub fn num(&self, key: &str) -> Result<f64, SpecError> {
        self.num_in(key, ..)
    }

    /// Numeric parameter (finite) in `range`, checked where it is read so
    /// that a value the model cannot take is a spec error, not a panic
    /// deeper down: `1.0..` for at least one, `(Excluded(0.0), Unbounded)`
    /// for positive.
    pub(crate) fn num_in(&self, key: &str, range: impl RangeBounds<f64>) -> Result<f64, SpecError> {
        let want = format!("a finite number{}", range_text(&range));
        self.param(key, &want, |v| match v {
            ParamValue::Num(x) if x.is_finite() && range.contains(x) => Some(*x),
            _ => None,
        })
    }

    /// Boolean extra parameter.
    pub fn flag(&self, key: &str) -> Result<bool, SpecError> {
        self.param(key, "true or false", |v| match v {
            ParamValue::Flag(b) => Some(*b),
            _ => None,
        })
    }

    /// Text extra parameter.
    pub fn text(&self, key: &str) -> Result<&str, SpecError> {
        self.param(key, "text", |v| match v {
            ParamValue::Text(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// Numeric-list extra parameter (finite numbers). `--set key=10`
    /// parses as a single number, a comma list as a list; a bare number
    /// reads as a one-element list.
    pub fn list(&self, key: &str) -> Result<&[f64], SpecError> {
        self.list_in(key, ..)
    }

    /// Numeric-list parameter, every entry finite and in `range`
    /// ([`Self::num_in`]); a bare number reads as a one-element list.
    pub(crate) fn list_in(
        &self,
        key: &str,
        range: impl RangeBounds<f64>,
    ) -> Result<&[f64], SpecError> {
        let want = format!("a list of finite numbers{}", range_text(&range));
        let fits = |x: &f64| x.is_finite() && range.contains(x);
        self.param(key, &want, |v| match v {
            ParamValue::List(xs) if xs.iter().all(fits) => Some(xs.as_slice()),
            ParamValue::Num(x) if fits(x) => Some(std::slice::from_ref(x)),
            _ => None,
        })
    }

    /// Whole-number parameter in `min..=u32::MAX`.
    pub(crate) fn whole(&self, key: &str, min: u32) -> Result<u32, SpecError> {
        let want = format!("a whole number in {min}..={}", u32::MAX);
        self.param(key, &want, |v| match v {
            ParamValue::Num(x) => whole(*x, min),
            _ => None,
        })
    }

    /// Whole-number list parameter, every entry in `min..=u32::MAX`; a
    /// bare number reads as a one-element list.
    pub(crate) fn wholes(&self, key: &str, min: u32) -> Result<Vec<u32>, SpecError> {
        let want = format!("whole numbers in {min}..={}", u32::MAX);
        self.param(key, &want, |v| match v {
            ParamValue::List(xs) => xs.iter().map(|&x| whole(x, min)).collect(),
            ParamValue::Num(x) => Some(vec![whole(*x, min)?]),
            _ => None,
        })
    }

    /// Every scalar knob's key and doc line, in printing order.
    pub fn knobs() -> impl Iterator<Item = (&'static str, &'static str)> {
        KNOBS.iter().map(|k| (k.key, k.doc.trim()))
    }

    /// Apply one `--set key=value` override.
    ///
    /// A knob key ([`Self::knobs`]) is checked exactly as the JSON parser
    /// checks it: the value is read as a JSON literal (text as itself) and
    /// an optional knob takes `none` to unset it. The structured fields take
    /// `constellation=NAME`, `cities=N`, `pairs=SRC:DST[;SRC:DST...]` and
    /// `min_distance_km=X`; the fault scenario takes `fault_seed=N`,
    /// `sat_outage=SAT:FROM_S:UNTIL_S`, `isl_cut=A-B:FROM_S:UNTIL_S`,
    /// `gsl_weather=GS:FROM_S:UNTIL_S` (each appends a window) and
    /// `sat_mttf_s`/`sat_mttr_s`/`isl_mttf_s`/`isl_mttr_s` for the flap
    /// processes. Any other key lands in `params`, with the value parsed as
    /// bool, number, comma-separated number list, or text — in that order.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        let bad = |why: &str| SpecError(format!("{key:?} {why}, got {value:?}"));
        if let Some(knob) = knob(key) {
            let field = (knob.field)(self);
            let v = field.parse_text(value);
            return field.put(knob.range, &v).map_err(|why| bad(&why));
        }
        // The hand-written keys read their numbers as the knobs do.
        let whole = |text: &str| int(&literal(text), ANY).map_err(|why| bad(&why));
        let real = |text: &str| num(&literal(text), ANY).map_err(|why| bad(&why));
        // Split `TARGET:FROM_S:UNTIL_S`, leaving the target untyped.
        let window = || match value.split(':').collect::<Vec<_>>()[..] {
            [target, from, until] => Ok((target, real(from)?, real(until)?)),
            _ => Err(bad("expects TARGET:FROM_S:UNTIL_S")),
        };
        match key {
            "constellation" => {
                self.constellation = ConstellationChoice::parse(value).ok_or_else(|| {
                    bad("expects starlink_s1, kuiper_k1, telesat_t1 or kuiper_k1_bent_pipe")
                })?;
            }
            "cities" => self.ground = top_cities_segment(whole(value)?).map_err(|why| bad(&why))?,
            "pairs" => {
                let named = value.split(';').filter(|p| !p.is_empty()).map(|pair| {
                    let (s, d) =
                        pair.split_once(':').ok_or_else(|| bad("expects SRC:DST[;...]"))?;
                    Ok((s.to_string(), d.to_string()))
                });
                self.pairs = PairSelection::Named(named.collect::<Result<_, SpecError>>()?);
            }
            "min_distance_km" => self.pairs = PairSelection::MinDistance { km: real(value)? },
            "fault_seed" => self.faults_mut().seed = whole(value)?,
            "sat_mttf_s" | "sat_mttr_s" | "isl_mttf_s" | "isl_mttr_s" => {
                let x = num(&literal(value), POSITIVE).map_err(|why| bad(&why))?;
                let f = self.faults_mut();
                let flap = if key.starts_with("sat") { &mut f.sat_flap } else { &mut f.isl_flap };
                let flap = flap.get_or_insert(DEFAULT_FLAP);
                if key.ends_with("mttf_s") {
                    flap.mttf_s = x;
                } else {
                    flap.mttr_s = x;
                }
            }
            "sat_outage" | "gsl_weather" => {
                let (target, from_s, until_s) = window()?;
                let window = OutageWindow { target: whole(target)? as u32, from_s, until_s };
                let f = self.faults_mut();
                let list =
                    if key == "sat_outage" { &mut f.sat_outages } else { &mut f.gsl_weather };
                list.push(window);
            }
            "isl_cut" => {
                let (pair, from_s, until_s) = window()?;
                let Some((a, b)) = pair.split_once('-') else {
                    return Err(bad("expects A-B:FROM_S:UNTIL_S"));
                };
                let (a, b) = (whole(a)? as u32, whole(b)? as u32);
                self.faults_mut().isl_cuts.push(LinkCut { a, b, from_s, until_s });
            }
            "experiment" => {
                return err("the experiment name is fixed; pick a different registry entry")
            }
            _ => {
                removed(key)?;
                self.params.insert(key.to_string(), infer_param(value));
            }
        }
        Ok(())
    }

    /// Serialize to pretty JSON (the schema `from_json` reads).
    pub fn to_json_string(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"experiment\": {},", json_str(&self.experiment));
        let _ = writeln!(s, "  \"constellation\": {},", json_str(self.constellation.slug()));
        match &self.ground {
            GroundSegment::TopCities(n) => {
                let _ = writeln!(s, "  \"ground\": {{ \"top_cities\": {n} }},");
            }
            GroundSegment::Cities(cities) => {
                let rows = cities.iter().map(|gs| {
                    format!(
                        "{{ \"name\": {}, \"lat\": {}, \"lon\": {} }}",
                        json_str(&gs.name),
                        json_num(gs.latitude_deg),
                        json_num(gs.longitude_deg)
                    )
                });
                push_rows(&mut s, "ground", "cities", rows.collect());
            }
        }
        match &self.pairs {
            PairSelection::Named(pairs) if pairs.is_empty() => {
                s.push_str("  \"pairs\": { \"named\": [] },\n");
            }
            PairSelection::Named(pairs) => {
                let rows = pairs.iter().map(|(src, dst)| {
                    format!("{{ \"src\": {}, \"dst\": {} }}", json_str(src), json_str(dst))
                });
                push_rows(&mut s, "pairs", "named", rows.collect());
            }
            PairSelection::MinDistance { km } => {
                let _ = writeln!(s, "  \"pairs\": {{ \"min_distance_km\": {} }},", json_num(*km));
            }
            PairSelection::Permutation => {
                s.push_str("  \"pairs\": \"permutation\",\n");
            }
        }
        for (knob, text, off) in self.knob_values() {
            if let (true, Some(text)) = (knob.required || off, text) {
                let _ = writeln!(s, "  {}: {text},", json_str(knob.key));
            }
        }
        if let Some(f) = &self.faults {
            let window = |w: &OutageWindow| {
                let (from, until) = (json_num(w.from_s), json_num(w.until_s));
                format!("{{ \"target\": {}, \"from_s\": {from}, \"until_s\": {until} }}", w.target)
            };
            let cut = |c: &LinkCut| {
                let (from, until) = (json_num(c.from_s), json_num(c.until_s));
                format!(
                    "{{ \"a\": {}, \"b\": {}, \"from_s\": {from}, \"until_s\": {until} }}",
                    c.a, c.b
                )
            };
            let flap = |p: &FlapProcess| {
                format!(
                    "{{ \"mttf_s\": {}, \"mttr_s\": {} }}",
                    json_num(p.mttf_s),
                    json_num(p.mttr_s)
                )
            };
            s.push_str("  \"faults\": {\n");
            let _ = writeln!(s, "    \"seed\": {},", f.seed);
            let _ = writeln!(s, "    \"sat_outages\": {},", json_list(&f.sat_outages, window));
            let _ = writeln!(s, "    \"isl_cuts\": {},", json_list(&f.isl_cuts, cut));
            if let Some(p) = &f.sat_flap {
                let _ = writeln!(s, "    \"sat_flap\": {},", flap(p));
            }
            if let Some(p) = &f.isl_flap {
                let _ = writeln!(s, "    \"isl_flap\": {},", flap(p));
            }
            let _ = writeln!(s, "    \"gsl_weather\": {}", json_list(&f.gsl_weather, window));
            s.push_str("  },\n");
        }
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("\n    {}: {}", json_str(k), param_json(v)))
            .collect();
        let close = if params.is_empty() { "" } else { "\n  " };
        let _ = write!(s, "  \"params\": {{{}{close}}}\n}}", params.join(","));
        s
    }

    /// Every knob with its printed value (`None` for an unset optional)
    /// and whether that differs from [`ExperimentSpec::default`]'s.
    fn knob_values(&self) -> impl Iterator<Item = (&'static Knob, Option<String>, bool)> {
        // The table hands out `&mut` fields, so this reads copies.
        let (mut spec, mut default) = (self.clone(), ExperimentSpec::default());
        KNOBS.iter().map(move |knob| {
            let text = (knob.field)(&mut spec).json();
            let off = text != (knob.field)(&mut default).json();
            (knob, text, off)
        })
    }

    /// The keys of the knobs set off their [`ExperimentSpec::default`]
    /// value, in table order: what [`Self::to_json_string`] prints beyond
    /// the required knobs.
    pub(crate) fn knobs_off_default(&self) -> Vec<&'static str> {
        self.knob_values().filter(|k| k.2).map(|k| k.0.key).collect()
    }

    /// Parse a spec from the JSON produced by [`Self::to_json_string`]
    /// (unknown top-level keys are rejected to catch typos).
    pub fn from_json(text: &str) -> Result<ExperimentSpec, SpecError> {
        match json::from_str(text) {
            Ok(v) => Self::from_value(&v),
            Err(e) => err(format!("not valid JSON: {e}")),
        }
    }

    /// Parse a spec from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<ExperimentSpec, SpecError> {
        for (key, _) in v.as_object().into_iter().flat_map(|m| m.iter()) {
            if !STRUCTURED.contains(&key.as_str()) && knob(key).is_none() {
                removed(key).map_err(|why| SpecError(format!("unknown key {key:?}: {why}")))?;
                return err(format!("unknown key {key:?}"));
            }
        }
        let experiment = field(v, "spec", "experiment", text)?;
        let mut spec = ExperimentSpec { experiment, ..ExperimentSpec::default() };

        spec.set("constellation", &field(v, "spec", "constellation", text)?)?;

        let ground = v.get("ground").ok_or_else(|| SpecError("missing \"ground\"".into()))?;
        spec.ground = if let Some(n) = ground.get("top_cities").and_then(Value::as_u64) {
            top_cities_segment(n)
                .map_err(|why| SpecError(format!("\"top_cities\" {why}, got {n}")))?
        } else if let Some(cities) = ground.get("cities").and_then(Value::as_array) {
            let mut out = Vec::with_capacity(cities.len());
            for c in cities {
                let name = field(c, "ground city", "name", text)?;
                let ctx = format!("city {name:?}");
                let (lat, lon) = (field(c, &ctx, "lat", num)?, field(c, &ctx, "lon", num)?);
                out.push(GroundStation::new(&name, lat, lon));
            }
            GroundSegment::Cities(out)
        } else {
            return err("\"ground\" must be { \"top_cities\": N } or { \"cities\": [...] }");
        };

        let pairs = v.get("pairs").ok_or_else(|| SpecError("missing \"pairs\"".into()))?;
        spec.pairs = if pairs.as_str() == Some("permutation") {
            PairSelection::Permutation
        } else if let Some(km) = pairs.get("min_distance_km").and_then(Value::as_f64) {
            PairSelection::MinDistance { km }
        } else if let Some(named) = pairs.get("named").and_then(Value::as_array) {
            let pair =
                |p: &Value| Ok((field(p, "pair", "src", text)?, field(p, "pair", "dst", text)?));
            PairSelection::Named(named.iter().map(pair).collect::<Result<_, SpecError>>()?)
        } else {
            return err("\"pairs\" must be { \"named\": [...] }, { \"min_distance_km\": X } \
                 or \"permutation\"");
        };

        for knob in KNOBS {
            match v.get(knob.key) {
                Some(x) => (knob.field)(&mut spec).put(knob.range, x).map_err(|why| {
                    SpecError(format!("{:?} {why}, got {}", knob.key, json::to_string(x)))
                })?,
                None if knob.required => return err(format!("missing {:?}", knob.key)),
                None => {}
            }
        }
        spec.faults = match v.get("faults") {
            Some(fv) => Some(parse_faults(fv)?),
            None => None,
        };

        if let Some(params) = v.get("params").and_then(Value::as_object) {
            for (key, pv) in params.iter() {
                spec.params.insert(key.clone(), value_to_param(key, pv)?);
            }
        }
        Ok(spec)
    }
}

/// One scalar knob of [`ExperimentSpec`]: a row of [`KNOBS`].
struct Knob {
    /// The `--set` and JSON key.
    key: &'static str,
    /// One line for `--help` and the knob table of EXPERIMENTS.md.
    doc: &'static str,
    /// Printed even at its default, and a spec file must carry it.
    required: bool,
    /// The values a number may take, in the key's unit.
    range: Span,
    /// The spec field the knob reads and writes.
    field: for<'a> fn(&'a mut ExperimentSpec) -> Field<'a>,
}

/// The values a number may take beyond being finite. A range without 0
/// also refuses a value that rounds to zero in the field's unit.
type Span = (Bound<f64>, Bound<f64>);

/// Any finite number (any value of a non-numeric field).
const ANY: Span = (Unbounded, Unbounded);
const NON_NEGATIVE: Span = (Included(0.0), Unbounded);
const POSITIVE: Span = (Excluded(0.0), Unbounded);
const AT_LEAST_ONE: Span = (Included(1.0), Unbounded);

/// The longest duration a knob takes, seconds (about 32 years): the sum
/// of a few such durations, the latest instant a run derives from them,
/// stays far below `SimTime`'s 584 years of nanoseconds.
const MAX_SECS: f64 = 1e9;
/// The fastest line rate a knob takes, Mbit/s (1 Pbit/s): its bit/s fit a
/// `DataRate`, and one bit still takes a representable time.
const MAX_MBPS: f64 = 1e9;
/// The most routing-sweep workers a spec may ask for: a fixed bound, not
/// the host's core count, so that a spec valid on one machine is valid on
/// every machine, and no typo asks the OS for billions of threads.
const MAX_THREADS: f64 = 1024.0;

const HORIZON_S: Span = (Included(0.0), Included(MAX_SECS));
const INTERVAL_S: Span = (Excluded(0.0), Included(MAX_SECS));
const INTERVAL_MS: Span = (Excluded(0.0), Included(MAX_SECS * 1e3));
const RATE_MBPS: Span = (Excluded(0.0), Included(MAX_MBPS));
const RATE_KBPS: Span = (Included(0.0), Included(MAX_MBPS * 1e3));
const THREADS: Span = (Included(0.0), Included(MAX_THREADS));

/// A knob's spec field, tagged with how its value is written.
enum Field<'a> {
    /// A non-negative integer.
    Int(&'a mut u64),
    /// A non-negative integer held as a `usize`.
    Count(&'a mut usize),
    /// A number.
    Num(&'a mut f64),
    /// A duration, written as seconds times the scale (1e3 for `_ms`).
    Secs(&'a mut SimDuration, f64),
    /// A line rate, written in Mbit/s.
    Mbps(&'a mut DataRate),
    /// A congestion controller name.
    Cc(&'a mut CcKind),
    /// A simulation mode name.
    Mode(&'a mut SimMode),
    /// `true` or `false`.
    Flag(&'a mut bool),
    /// Optional integer: unset unless given (`--set KEY=none` unsets).
    OptInt(&'a mut Option<u64>),
    /// Optional duration, written as [`Field::Secs`].
    OptSecs(&'a mut Option<SimDuration>, f64),
    /// Optional free text.
    OptText(&'a mut Option<String>),
}

/// Builds the [`KNOBS`] rows: doc comment, `key: presence RANGE
/// Kind(field[, scale])`, where presence is `required` (always printed, and
/// a spec file must carry it) or `defaulted` (printed only off its default)
/// and `RANGE` names a [`Span`].
macro_rules! knobs {
    (@required required) => { true };
    (@required defaulted) => { false };
    ($($(#[doc = $doc:literal])+ $key:ident: $presence:ident $range:ident
        $kind:ident($field:ident $(, $scale:expr)?),)*) => {
        &[$(Knob {
            key: stringify!($key),
            doc: concat!($($doc),+),
            required: knobs!(@required $presence),
            range: $range,
            field: |s| Field::$kind(&mut s.$field $(, $scale)?),
        }),*]
    };
}

/// Every scalar knob, in printing order.
const KNOBS: &[Knob] = knobs![
    /// Simulated horizon, seconds.
    duration_s: required HORIZON_S Secs(duration, 1.0),
    /// Forwarding-state granularity (the paper's Δt), milliseconds.
    step_ms: required INTERVAL_MS Secs(step, 1e3),
    /// Line rate of every ISL and GSL, Mbit/s.
    line_rate_mbps: required RATE_MBPS Mbps(line_rate),
    /// Drop-tail queue capacity per device, packets.
    queue_packets: required AT_LEAST_ONE Count(queue_packets),
    /// Per-device utilization-tracking bucket, seconds; unset, nothing is tracked.
    utilization_bucket_s: defaulted INTERVAL_S OptSecs(utilization_bucket, 1.0),
    /// Congestion controller of TCP workloads: newreno, vegas, cubic or bbr.
    cc: required ANY Cc(cc),
    /// Worker threads of the routing sweeps' snapshot fan-out (0 = one per
    /// core); packet runs do not read it. Results are identical for any value.
    threads: required THREADS Count(threads),
    /// Seed of the randomized pieces (permutation matrix, loss processes).
    seed: required ANY Int(seed),
    /// Retired: accepted, ignored, warns above 1 (the event engine runs one shard).
    sim_shards: defaulted AT_LEAST_ONE Count(sim_shards),
    /// packet, fluid, or hybrid (bulk flows fluid, the rest packet-level).
    sim_mode: defaulted ANY Mode(sim_mode),
    /// Demand below which a flow stays packet-level in fluid or hybrid
    /// mode, kbit/s (0 = the experiment's default).
    fluid_threshold_kbps: defaulted RATE_KBPS Num(fluid_threshold_kbps),
    /// Offered flows of traffic-matrix experiments; unset, the experiment's default.
    flows: defaulted AT_LEAST_ONE OptInt(flows),
    /// Share of flipped edges above which SSSP repair falls back to full Dijkstra.
    repair_churn_threshold: defaulted NON_NEGATIVE Num(repair_churn_threshold),
    /// Checkpoint interval, simulated seconds; unset, no checkpoints.
    checkpoint_every_s: defaulted INTERVAL_S OptSecs(checkpoint_every, 1.0),
    /// Checkpoint directory of an earlier run to resume from; unset, start at t = 0.
    resume_from: defaulted ANY OptText(resume_from),
    /// Run conservation audits at every epoch boundary.
    audit: defaulted ANY Flag(audit),
];

/// The knob with this key.
fn knob(key: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.key == key)
}

impl Field<'_> {
    /// `--set` text as the JSON value the parser would see: `null` for
    /// `none` (or nothing) given to an optional field, the text itself for
    /// a text field, otherwise the text read as a JSON literal — or, if it
    /// is not one, as a string, which [`Field::put`] then rejects.
    fn parse_text(&self, text: &str) -> Value {
        let optional = matches!(self, Field::OptInt(_) | Field::OptSecs(..) | Field::OptText(_));
        match self {
            _ if optional && (text.is_empty() || text.eq_ignore_ascii_case("none")) => Value::Null,
            Field::Cc(_) | Field::Mode(_) | Field::OptText(_) => Value::String(text.into()),
            _ => literal(text),
        }
    }

    /// Check a JSON value and store it (`null` unsets an optional field);
    /// the error says what was expected.
    fn put(self, range: Span, v: &Value) -> Result<(), String> {
        match self {
            Field::OptInt(f) if *v == Value::Null => *f = None,
            Field::OptSecs(f, _) if *v == Value::Null => *f = None,
            Field::OptText(f) if *v == Value::Null => *f = None,
            Field::Int(f) => *f = int(v, range)?,
            Field::Count(f) => *f = int(v, range)? as usize,
            Field::Num(f) => *f = num(v, range)?,
            Field::Secs(f, scale) => *f = secs(v, range, scale)?,
            Field::Mbps(f) => {
                let bps = (num(v, range)? * 1e6).round() as u64;
                if bps == 0 && !range.contains(&0.0) {
                    return Err("must be at least 1 bit/s".into());
                }
                *f = DataRate::from_bps(bps);
            }
            Field::Cc(f) => {
                *f = name(v, CcKind::parse).ok_or("expects newreno, vegas, cubic or bbr")?
            }
            Field::Mode(f) => {
                *f = name(v, SimMode::parse).ok_or("expects packet, fluid or hybrid")?
            }
            Field::Flag(f) => *f = v.as_bool().ok_or("expects true or false")?,
            Field::OptInt(f) => *f = Some(int(v, range)?),
            Field::OptSecs(f, scale) => *f = Some(secs(v, range, scale)?),
            Field::OptText(f) => *f = Some(text(v, range)?),
        }
        Ok(())
    }

    /// The value as printed, `None` for an unset optional.
    fn json(self) -> Option<String> {
        Some(match self {
            Field::Int(n) => n.to_string(),
            Field::Count(n) => n.to_string(),
            Field::Num(x) => json_num(*x),
            Field::Secs(d, scale) => json_num(d.secs_f64() * scale),
            Field::Mbps(r) => json_num(r.mbps_f64()),
            Field::Cc(cc) => json_str(cc.name()),
            Field::Mode(m) => json_str(m.name()),
            Field::Flag(b) => b.to_string(),
            Field::OptInt(n) => n.as_ref()?.to_string(),
            Field::OptSecs(d, scale) => json_num(d.as_ref()?.secs_f64() * scale),
            Field::OptText(t) => json_str(t.as_ref()?),
        })
    }
}

fn int(v: &Value, range: Span) -> Result<u64, String> {
    match v.as_u64() {
        None => Err("expects a non-negative integer".into()),
        Some(n) if !range.contains(&(n as f64)) => {
            Err(format!("expects an integer{}", range_text(&range)))
        }
        Some(n) => Ok(n),
    }
}

fn num(v: &Value, range: Span) -> Result<f64, String> {
    match v.as_f64() {
        None => Err("expects a number".into()),
        Some(x) if !x.is_finite() || !range.contains(&x) => {
            Err(format!("expects a finite number{}", range_text(&range)))
        }
        Some(x) => Ok(x),
    }
}

fn text(v: &Value, _: Span) -> Result<String, String> {
    v.as_str().map(str::to_string).ok_or_else(|| "expects text".into())
}

fn secs(v: &Value, range: Span, scale: f64) -> Result<SimDuration, String> {
    let d = SimDuration::from_secs_f64(num(v, range)? / scale);
    if d.is_zero() && !range.contains(&0.0) {
        return Err("must be at least 1 ns".into());
    }
    Ok(d)
}

fn name<T>(v: &Value, parse: fn(&str) -> Option<T>) -> Option<T> {
    v.as_str().and_then(parse)
}

/// `--set` text as a JSON literal, or as a string if it is not one.
fn literal(text: &str) -> Value {
    json::from_str(text).unwrap_or_else(|_| Value::String(text.into()))
}

/// Infer a [`ParamValue`] from `--set` text.
fn infer_param(value: &str) -> ParamValue {
    if value.eq_ignore_ascii_case("true") {
        return ParamValue::Flag(true);
    }
    if value.eq_ignore_ascii_case("false") {
        return ParamValue::Flag(false);
    }
    if let Ok(x) = value.parse::<f64>() {
        return ParamValue::Num(x);
    }
    if value.contains(',') {
        let parts: Result<Vec<f64>, _> =
            value.split(',').map(|p| p.trim().parse::<f64>()).collect();
        if let Ok(xs) = parts {
            return ParamValue::List(xs);
        }
    }
    ParamValue::Text(value.to_string())
}

/// `x` as a whole number in `min..=u32::MAX`.
fn whole(x: f64, min: u32) -> Option<u32> {
    (x.fract() == 0.0 && x >= f64::from(min) && x <= f64::from(u32::MAX)).then_some(x as u32)
}

/// How a range-checked read states its range: ` >= 1`, ` > 0`,
/// ` in [0, 20)`; nothing for `..`.
fn range_text(range: &impl RangeBounds<f64>) -> String {
    match (range.start_bound(), range.end_bound()) {
        (Unbounded, Unbounded) => String::new(),
        (Included(lo), Unbounded) => format!(" >= {lo}"),
        (Excluded(lo), Unbounded) => format!(" > {lo}"),
        (lo, hi) => {
            let lo = match lo {
                Included(x) => format!("[{x}"),
                Excluded(x) => format!("({x}"),
                Unbounded => "(-inf".to_string(),
            };
            let hi = match hi {
                Included(x) => format!("{x}]"),
                Excluded(x) => format!("{x})"),
                Unbounded => "inf)".to_string(),
            };
            format!(" in {lo}, {hi}")
        }
    }
}

/// A param value as its spec file prints it.
fn param_json(v: &ParamValue) -> String {
    match v {
        ParamValue::Num(x) => json_num(*x),
        ParamValue::Flag(b) => b.to_string(),
        ParamValue::Text(t) => json_str(t),
        ParamValue::List(xs) => json_list(xs, |x| json_num(*x)),
    }
}

/// The `n` most populous built-in cities, if there are that many.
fn top_cities_segment(n: u64) -> Result<GroundSegment, String> {
    match usize::try_from(n) {
        Ok(n) if (1..=CITIES.len()).contains(&n) => Ok(GroundSegment::TopCities(n)),
        _ => Err(format!("must lie in 1..={} (the built-in cities)", CITIES.len())),
    }
}

/// Err for a param that once steered the run and was removed: naming it
/// is an error, not a silently unread param.
fn removed(key: &str) -> Result<(), SpecError> {
    match key {
        "routing_mode" => err("routing_mode was removed: snapshots are always repaired \
             incrementally, with full Dijkstra as the router's own fallback"),
        "retries" => err("retries was removed: a run is deterministic, so retrying \
             after a failure would only repeat it"),
        "trace_sample_every" => err("trace_sample_every was removed: no experiment \
             records a packet trace, so sampling one changed nothing"),
        _ => Ok(()),
    }
}

fn value_to_param(key: &str, v: &Value) -> Result<ParamValue, SpecError> {
    removed(key)?;
    let bad = |why: &str| SpecError(format!("param {key:?} {why}"));
    match v {
        Value::Bool(b) => Ok(ParamValue::Flag(*b)),
        Value::String(s) => Ok(ParamValue::Text(s.clone())),
        Value::Array(items) => items
            .iter()
            .map(Value::as_f64)
            .collect::<Option<_>>()
            .map(ParamValue::List)
            .ok_or_else(|| bad("lists only numbers")),
        _ => v.as_f64().map(ParamValue::Num).ok_or_else(|| bad("has an unsupported JSON type")),
    }
}

/// Print `"key": { "inner": [`, the rows one per line, then `] },`.
fn push_rows(s: &mut String, key: &str, inner: &str, rows: Vec<String>) {
    let _ = writeln!(s, "  \"{key}\": {{ \"{inner}\": [");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {row}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    s.push_str("  ] },\n");
}

/// One-line JSON array.
fn json_list<T>(items: &[T], item: impl Fn(&T) -> String) -> String {
    format!("[{}]", items.iter().map(item).collect::<Vec<_>>().join(", "))
}

/// A knob-value reader: [`int`], [`num`] or [`text`].
type Read<T> = fn(&Value, Span) -> Result<T, String>;

/// Field `key` of the object `v`, read as the knobs read their values.
fn field<T>(v: &Value, ctx: &str, key: &str, read: Read<T>) -> Result<T, SpecError> {
    let x = v.get(key).unwrap_or(&Value::Null);
    read(x, ANY).map_err(|why| SpecError(format!("{ctx}: {key:?} {why}")))
}

fn parse_faults(v: &Value) -> Result<FaultSpec, SpecError> {
    fn entries<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], SpecError> {
        match v.get(key) {
            None => Ok(&[]),
            Some(arr) => arr
                .as_array()
                .map(Vec::as_slice)
                .ok_or_else(|| SpecError(format!("\"faults.{key}\" must be an array"))),
        }
    }
    fn windows(v: &Value, key: &str) -> Result<Vec<OutageWindow>, SpecError> {
        let ctx = format!("faults.{key} entry");
        entries(v, key)?
            .iter()
            .map(|w| {
                Ok(OutageWindow {
                    target: field(w, &ctx, "target", int)? as u32,
                    from_s: field(w, &ctx, "from_s", num)?,
                    until_s: field(w, &ctx, "until_s", num)?,
                })
            })
            .collect()
    }
    fn flap(v: &Value, key: &str) -> Result<Option<FlapProcess>, SpecError> {
        let Some(p) = v.get(key) else { return Ok(None) };
        let ctx = format!("faults.{key}");
        let mean: Read<f64> = |x, _| num(x, POSITIVE);
        Ok(Some(FlapProcess {
            mttf_s: field(p, &ctx, "mttf_s", mean)?,
            mttr_s: field(p, &ctx, "mttr_s", mean)?,
        }))
    }

    let mut f = FaultSpec::default();
    if v.get("seed").is_some() {
        f.seed = field(v, "faults", "seed", int)?;
    }
    f.sat_outages = windows(v, "sat_outages")?;
    f.gsl_weather = windows(v, "gsl_weather")?;
    let ctx = "faults.isl_cuts entry";
    f.isl_cuts = entries(v, "isl_cuts")?
        .iter()
        .map(|c| {
            Ok(LinkCut {
                a: field(c, ctx, "a", int)? as u32,
                b: field(c, ctx, "b", int)? as u32,
                from_s: field(c, ctx, "from_s", num)?,
                until_s: field(c, ctx, "until_s", num)?,
            })
        })
        .collect::<Result<_, SpecError>>()?;
    f.sat_flap = flap(v, "sat_flap")?;
    f.isl_flap = flap(v, "isl_flap")?;
    Ok(f)
}

/// JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::write_str(&mut out, s);
    out
}

/// JSON number: `{}` formatting of f64 is shortest-round-trip in Rust,
/// so the value survives serialization exactly.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        // Knob values are checked finite; guard the rest anyway.
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_routing::incremental::RoutingMode;

    fn sample() -> ExperimentSpec {
        let mut spec = ExperimentSpec {
            experiment: "fig03_rtt_fluctuations".into(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(100),
            pairs: PairSelection::Named(vec![
                ("Rio de Janeiro".into(), "Saint Petersburg".into()),
                ("Manila".into(), "Dalian".into()),
            ]),
            duration: SimDuration::from_secs(60),
            step: SimDuration::from_millis(100),
            line_rate: DataRate::from_mbps(10),
            queue_packets: 100,
            utilization_bucket: None,
            cc: CcKind::NewReno,
            threads: 0,
            seed: 1,
            ..ExperimentSpec::default()
        };
        spec.params.insert("ping_interval_ms".into(), ParamValue::Num(20.0));
        spec.params.insert("frozen".into(), ParamValue::Flag(false));
        spec.params.insert("coarse_multiples".into(), ParamValue::List(vec![2.0, 20.0]));
        spec
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let spec = sample();
        let text = spec.to_json_string();
        let back = ExperimentSpec::from_json(&text).expect("parse own output");
        assert_eq!(spec, back);
        // And a second trip is byte-stable.
        assert_eq!(text, back.to_json_string());
    }

    #[test]
    fn round_trips_all_variants() {
        let mut spec = sample();
        spec.ground = GroundSegment::Cities(vec![
            GroundStation::new("Paris", 48.8566, 2.3522),
            GroundStation::new("Moscow", 55.7558, 37.6173),
        ]);
        spec.pairs = PairSelection::MinDistance { km: 500.0 };
        spec.utilization_bucket = Some(SimDuration::from_secs(1));
        let back = ExperimentSpec::from_json(&spec.to_json_string()).unwrap();
        assert_eq!(spec, back);

        spec.pairs = PairSelection::Permutation;
        let back = ExperimentSpec::from_json(&spec.to_json_string()).unwrap();
        assert_eq!(spec, back);

        // An empty station list prints as before the rows helper existed.
        spec.ground = GroundSegment::Cities(Vec::new());
        let text = spec.to_json_string();
        assert!(text.contains("  \"ground\": { \"cities\": [\n  ] },\n"), "{text}");
        assert_eq!(ExperimentSpec::from_json(&text).unwrap(), spec);
    }

    #[test]
    fn missing_field_is_reported_by_name() {
        let e = ExperimentSpec::from_json("{}").unwrap_err();
        assert!(e.to_string().contains("experiment"), "{e}");
        let e = ExperimentSpec::from_json("not json").unwrap_err();
        assert!(e.to_string().contains("JSON"), "{e}");
    }

    /// `cities` and `{ "top_cities": N }` both take 1 to 100, the built-in
    /// city table: 0 or 101 is a spec error, not a panic at build time.
    #[test]
    fn top_cities_lie_in_the_built_in_table() {
        let mut spec = sample();
        for n in ["0", "101"] {
            let e = spec.set("cities", n).unwrap_err();
            assert!(e.to_string().contains("1..=100"), "{e}");
        }
        spec.set("cities", "1").unwrap();
        let text = spec.to_json_string();
        assert!(text.contains("\"top_cities\": 1 }"), "{text}");
        for n in [0, 101] {
            let bad = text.replace("\"top_cities\": 1 }", &format!("\"top_cities\": {n} }}"));
            let e = ExperimentSpec::from_json(&bad).unwrap_err();
            assert!(e.to_string().contains("top_cities"), "{e}");
        }
        spec.set("cities", "100").unwrap();
        assert_eq!(spec.ground, GroundSegment::TopCities(100));
    }

    #[test]
    fn set_overrides_common_fields() {
        let mut spec = sample();
        spec.set("duration_s", "200").unwrap();
        assert_eq!(spec.duration, SimDuration::from_secs(200));
        spec.set("step_ms", "50").unwrap();
        assert_eq!(spec.step, SimDuration::from_millis(50));
        spec.set("line_rate_mbps", "25").unwrap();
        assert_eq!(spec.line_rate, DataRate::from_mbps(25));
        spec.set("cities", "30").unwrap();
        assert_eq!(spec.ground, GroundSegment::TopCities(30));
        spec.set("cc", "vegas").unwrap();
        assert_eq!(spec.cc, CcKind::Vegas);
        spec.set("threads", "4").unwrap();
        assert_eq!(spec.threads, 4);
        spec.set("constellation", "starlink_s1").unwrap();
        assert_eq!(spec.constellation, ConstellationChoice::StarlinkS1);
        spec.set("pairs", "Paris:Moscow;Tokyo:Sao Paulo").unwrap();
        assert_eq!(
            spec.pairs.named().unwrap(),
            &[
                ("Paris".to_string(), "Moscow".to_string()),
                ("Tokyo".to_string(), "Sao Paulo".to_string())
            ]
        );
    }

    #[test]
    fn set_routes_unknown_keys_to_params() {
        let mut spec = sample();
        spec.set("relay_spacing_deg", "4").unwrap();
        assert_eq!(spec.num("relay_spacing_deg"), Ok(4.0));
        assert_eq!(spec.list("relay_spacing_deg"), Ok(&[4.0][..]), "a bare number is a list");
        spec.set("frozen", "true").unwrap();
        assert_eq!(spec.flag("frozen"), Ok(true));
        spec.set("line_rates_mbps", "1,10,25").unwrap();
        assert_eq!(spec.list("line_rates_mbps"), Ok(&[1.0, 10.0, 25.0][..]));
        spec.set("note", "hello world").unwrap();
        assert_eq!(spec.text("note"), Ok("hello world"));
    }

    /// A param read is strict: missing, of another type, not finite or
    /// not a whole number in range, the error names the key, what was
    /// expected and the value given.
    #[test]
    fn param_reads_name_the_key_the_type_and_the_value() {
        let mut spec = sample();
        for (key, value) in [("scan_step_s", "fast"), ("k", "2.7"), ("counts", "1,0"), ("x", "nan")]
        {
            spec.set(key, value).unwrap();
        }
        let e = spec.num("ping_interval_ms_typo").unwrap_err();
        assert_eq!(e.0, "param \"ping_interval_ms_typo\" is missing: expects a finite number");
        let e = spec.num("scan_step_s").unwrap_err();
        assert_eq!(e.0, "param \"scan_step_s\" expects a finite number, got \"fast\"");
        assert!(spec.num("x").unwrap_err().0.ends_with("got NaN"));
        assert!(spec.list("x").is_err());
        assert!(spec.flag("ping_interval_ms").unwrap_err().0.contains("true or false, got 20"));
        assert!(spec.text("frozen").unwrap_err().0.contains("expects text, got false"));
        let e = spec.whole("k", 2).unwrap_err();
        assert_eq!(e.0, "param \"k\" expects a whole number in 2..=4294967295, got 2.7");
        assert_eq!(spec.whole("ping_interval_ms", 2), Ok(20));
        assert!(spec.whole("ping_interval_ms", 21).is_err());
        assert!(spec.whole("coarse_multiples", 1).is_err(), "a list is not a number");
        assert_eq!(spec.wholes("coarse_multiples", 1), Ok(vec![2, 20]));
        assert_eq!(spec.wholes("ping_interval_ms", 1), Ok(vec![20]));
        assert!(spec.wholes("counts", 1).unwrap_err().0.contains("got [1, 0]"));
        assert_eq!(spec.wholes("counts", 0), Ok(vec![1, 0]));
        // Range-checked reads state the range; the bounds are honoured.
        assert_eq!(spec.num_in("ping_interval_ms", 20.0..), Ok(20.0));
        let e = spec.num_in("ping_interval_ms", (Excluded(20.0), Unbounded)).unwrap_err();
        assert_eq!(e.0, "param \"ping_interval_ms\" expects a finite number > 20, got 20");
        let e = spec.num_in("ping_interval_ms", 0.0..20.0).unwrap_err();
        assert!(e.0.ends_with("expects a finite number in [0, 20), got 20"), "{}", e.0);
        assert_eq!(spec.list_in("counts", 0.0..=1.0), Ok(&[1.0, 0.0][..]));
        let e = spec.list_in("counts", (Excluded(0.0), Included(1.0))).unwrap_err();
        assert!(e.0.ends_with("a list of finite numbers in (0, 1], got [1, 0]"), "{}", e.0);
        assert!(spec.num_in("x", ..).is_err(), "NaN is in no range");
    }

    #[test]
    fn set_rejects_bad_values() {
        let mut spec = sample();
        assert!(spec.set("duration_s", "soon").is_err());
        assert!(spec.set("cc", "reno2000").is_err());
        assert!(spec.set("constellation", "iridium").is_err());
        assert!(spec.set("pairs", "justonecity").is_err());
    }

    #[test]
    fn sim_config_reflects_spec() {
        let mut spec = sample();
        spec.line_rate = DataRate::from_mbps(25);
        spec.queue_packets = 50;
        spec.step = SimDuration::from_millis(50);
        spec.utilization_bucket = Some(SimDuration::from_secs(1));
        spec.threads = 4;
        spec.sim_mode = SimMode::Hybrid;
        let cfg = spec.sim_config();
        assert_eq!(cfg.link_rate, DataRate::from_mbps(25));
        assert_eq!(cfg.queue_packets, 50);
        assert_eq!(cfg.fstate_step, SimDuration::from_millis(50));
        assert_eq!(cfg.utilization_bucket, Some(SimDuration::from_secs(1)));
        // `threads` sets routing-sweep workers only: the simulator is the same.
        let unthreaded = ExperimentSpec { threads: 0, ..spec.clone() }.sim_config();
        assert_eq!(format!("{cfg:?}"), format!("{unthreaded:?}"));
        assert_eq!(cfg.sim_mode, SimMode::Hybrid);
    }

    #[test]
    fn faulted_spec_round_trips() {
        let mut spec = sample();
        let f = spec.faults_mut();
        f.seed = 7;
        f.sat_outages.push(OutageWindow { target: 12, from_s: 1.5, until_s: 4.25 });
        f.isl_cuts.push(LinkCut { a: 3, b: 7, from_s: 0.0, until_s: 2.0 });
        f.gsl_weather.push(OutageWindow { target: 0, from_s: 10.0, until_s: 30.0 });
        f.sat_flap = Some(FlapProcess { mttf_s: 570.0, mttr_s: 30.0 });
        f.isl_flap = Some(FlapProcess { mttf_s: 1200.0, mttr_s: 45.0 });
        let text = spec.to_json_string();
        assert!(text.contains(
            "    \"sat_outages\": [{ \"target\": 12, \"from_s\": 1.5, \"until_s\": 4.25 }],\n    \
             \"isl_cuts\": [{ \"a\": 3, \"b\": 7, \"from_s\": 0, \"until_s\": 2 }],\n    \
             \"sat_flap\": { \"mttf_s\": 570, \"mttr_s\": 30 },\n"
        ));
        let back = ExperimentSpec::from_json(&text).expect("parse own output");
        assert_eq!(spec, back);
        assert_eq!(text, back.to_json_string());
    }

    #[test]
    fn fault_free_spec_emits_no_faults_key() {
        // Byte compatibility: specs without faults serialize exactly as
        // before the fault subsystem existed.
        let spec = sample();
        assert!(!spec.to_json_string().contains("faults"));
        let back = ExperimentSpec::from_json(&spec.to_json_string()).unwrap();
        assert_eq!(back.faults, None);
    }

    #[test]
    fn set_fault_keys() {
        let mut spec = sample();
        spec.set("fault_seed", "99").unwrap();
        spec.set("sat_outage", "12:1.5:4.25").unwrap();
        spec.set("isl_cut", "3-7:0:2").unwrap();
        spec.set("gsl_weather", "0:10:30").unwrap();
        spec.set("sat_mttf_s", "570").unwrap();
        spec.set("sat_mttr_s", "30").unwrap();
        spec.set("isl_mttr_s", "45").unwrap();
        let f = spec.faults.as_ref().unwrap();
        assert_eq!(f.seed, 99);
        assert_eq!(f.sat_outages, vec![OutageWindow { target: 12, from_s: 1.5, until_s: 4.25 }]);
        assert_eq!(f.isl_cuts, vec![LinkCut { a: 3, b: 7, from_s: 0.0, until_s: 2.0 }]);
        assert_eq!(f.gsl_weather, vec![OutageWindow { target: 0, from_s: 10.0, until_s: 30.0 }]);
        assert_eq!(f.sat_flap, Some(FlapProcess { mttf_s: 570.0, mttr_s: 30.0 }));
        // Only mttr was set; mttf stays at the documented default.
        assert_eq!(f.isl_flap, Some(FlapProcess { mttf_s: 3600.0, mttr_s: 45.0 }));

        assert!(spec.set("sat_outage", "12:1.5").is_err());
        assert!(spec.set("isl_cut", "37:0:2").is_err());
        assert!(spec.set("gsl_weather", "zero:10:30").is_err());
        // A flap process needs positive means (the sampler divides by them).
        assert!(spec.set("sat_mttf_s", "0").is_err());
        assert!(spec.set("isl_mttr_s", "-1").is_err());
    }

    #[test]
    fn build_scenario_compiles_fault_schedule() {
        let mut spec = ExperimentSpec {
            constellation: ConstellationChoice::TelesatT1,
            ground: GroundSegment::TopCities(2),
            duration: SimDuration::from_secs(10),
            ..ExperimentSpec::default()
        };
        assert!(spec.build_scenario().sim_config.faults.is_none());
        spec.set("sat_outage", "5:1:4").unwrap();
        let scenario = spec.build_scenario();
        let schedule = scenario.sim_config.faults.expect("schedule attached");
        assert!(!schedule.is_empty());
        assert_eq!(schedule.events().len(), 2); // one Fail + one Recover
    }

    #[test]
    fn routing_spec_round_trips() {
        let mut spec = sample();
        spec.repair_churn_threshold = 0.25;
        let text = spec.to_json_string();
        assert!(!text.contains("routing_mode"));
        assert!(text.contains("\"repair_churn_threshold\": 0.25"));
        let back = ExperimentSpec::from_json(&text).expect("parse own output");
        assert_eq!(spec, back);
        assert_eq!(text, back.to_json_string());
    }

    #[test]
    fn default_routing_spec_emits_no_routing_keys() {
        // Byte compatibility: specs at the default routing configuration
        // serialize exactly as before the incremental engine existed.
        let spec = sample();
        let text = spec.to_json_string();
        assert!(!text.contains("routing_mode"));
        assert!(!text.contains("repair_churn_threshold"));
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back.routing_config().mode, RoutingMode::Incremental);
        assert_eq!(back.repair_churn_threshold, RoutingConfig::default().repair_churn_threshold);
    }

    #[test]
    fn sim_shards_round_trips_and_defaults_to_omitted() {
        // Byte compatibility: specs at the default serialize exactly as
        // before the sharded engine existed, and a retired value still
        // reads back and prints the same bytes.
        let spec = sample();
        let text = spec.to_json_string();
        assert!(!text.contains("sim_shards"));
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back.sim_shards, 1);

        let mut spec = sample();
        spec.set("sim_shards", "4").unwrap();
        assert_eq!(spec.sim_shards, 4);
        let text = spec.to_json_string();
        assert!(text.contains("\"sim_shards\": 4"));
        let back = ExperimentSpec::from_json(&text).expect("parse own output");
        assert_eq!(spec, back);
        assert_eq!(text, back.to_json_string());
        let serial = ExperimentSpec { sim_shards: 1, ..spec.clone() };
        assert_eq!(format!("{:?}", spec.sim_config()), format!("{:?}", serial.sim_config()));

        assert!(spec.set("sim_shards", "0").is_err());
        assert!(spec.set("sim_shards", "many").is_err());
        assert!(ExperimentSpec::from_json("{\"experiment\": \"e\", \"sim_shards\": 0}").is_err());
    }

    #[test]
    fn sim_mode_round_trips_and_defaults_to_omitted() {
        // Byte compatibility: packet-mode specs serialize exactly as
        // before the fluid subsystem existed.
        let spec = sample();
        let text = spec.to_json_string();
        assert!(!text.contains("sim_mode"));
        assert!(!text.contains("fluid_threshold_kbps"));
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back.sim_mode, SimMode::Packet);
        assert_eq!(back.fluid_threshold_kbps, 0.0);

        let mut spec = sample();
        spec.set("sim_mode", "hybrid").unwrap();
        spec.set("fluid_threshold_kbps", "128").unwrap();
        assert_eq!(spec.sim_mode, SimMode::Hybrid);
        assert_eq!(spec.fluid_threshold_kbps, 128.0);
        let text = spec.to_json_string();
        assert!(text.contains("\"sim_mode\": \"hybrid\""));
        assert!(text.contains("\"fluid_threshold_kbps\": 128"));
        let back = ExperimentSpec::from_json(&text).expect("parse own output");
        assert_eq!(spec, back);
        assert_eq!(text, back.to_json_string());
        assert_eq!(spec.sim_config().sim_mode, SimMode::Hybrid);

        spec.set("sim_mode", "fluid").unwrap();
        assert_eq!(spec.sim_mode, SimMode::Fluid);
        spec.set("sim_mode", "packet").unwrap();
        assert_eq!(spec.sim_mode, SimMode::Packet);

        assert!(spec.set("sim_mode", "analytic").is_err());
        assert!(spec.set("fluid_threshold_kbps", "-1").is_err());
        assert!(spec.set("fluid_threshold_kbps", "slow").is_err());
        assert!(ExperimentSpec::from_json("{\"experiment\": \"e\", \"sim_mode\": \"x\"}").is_err());
        assert!(ExperimentSpec::from_json("{\"experiment\": \"e\", \"fluid_threshold_kbps\": -2}")
            .is_err());
    }

    #[test]
    fn flows_and_trace_sampling_round_trip_and_default_to_omitted() {
        // Byte compatibility: specs without the flow-scaling knobs
        // serialize exactly as before they existed.
        let spec = sample();
        let text = spec.to_json_string();
        assert!(!text.contains("\"flows\""));
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back.flows, None);

        let mut spec = sample();
        spec.set("flows", "1000000").unwrap();
        assert_eq!(spec.flows, Some(1_000_000));
        let text = spec.to_json_string();
        assert!(text.contains("\"flows\": 1000000"));
        let back = ExperimentSpec::from_json(&text).expect("parse own output");
        assert_eq!(spec, back);
        assert_eq!(text, back.to_json_string());

        assert!(spec.set("flows", "0").is_err());
        assert!(spec.set("flows", "many").is_err());
        assert!(ExperimentSpec::from_json("{\"experiment\": \"e\", \"flows\": 0}").is_err());

        // Trace sampling was a knob no experiment read: naming it is an
        // error that says why, not a silently unread param.
        let e = spec.set("trace_sample_every", "64").unwrap_err();
        assert!(e.0.contains("trace_sample_every was removed"), "{e}");
        assert!(!spec.params.contains_key("trace_sample_every"));
        let e = ExperimentSpec::from_json("{\"experiment\": \"e\", \"trace_sample_every\": 64}")
            .unwrap_err();
        assert!(e.0.contains("\"trace_sample_every\""), "{e}");
    }

    #[test]
    fn set_routing_keys() {
        let mut spec = sample();
        spec.set("repair_churn_threshold", "0.5").unwrap();
        assert_eq!(spec.repair_churn_threshold, 0.5);
        assert!(spec.set("repair_churn_threshold", "-0.1").is_err());
        assert!(spec.set("repair_churn_threshold", "lots").is_err());
        // Full recompute is the router's fallback and test oracle, not a
        // knob: naming it is an error, not a silently unread param.
        for mode in ["full", "incremental"] {
            let e = spec.set("routing_mode", mode).unwrap_err();
            assert!(e.0.contains("routing_mode was removed"), "{e}");
        }
        assert!(!spec.params.contains_key("routing_mode"));
    }

    #[test]
    fn removed_params_are_errors_in_set_and_in_spec_files() {
        let mut spec = sample();
        let e = spec.set("retries", "1").unwrap_err();
        assert!(e.0.contains("retries was removed"), "{e}");
        assert!(!spec.params.contains_key("retries"));
        for key in ["retries", "routing_mode"] {
            let text = sample().to_json_string().replacen(
                "\"params\": {",
                &format!("\"params\": {{ \"{key}\": 1,"),
                1,
            );
            let e = ExperimentSpec::from_json(&text).unwrap_err();
            assert!(e.0.contains(&format!("{key} was removed")), "{e}");
        }
        // A removed knob at the top level of a spec file says why, too.
        for key in ["retries", "routing_mode", "trace_sample_every"] {
            let text =
                sample().to_json_string().replacen("{\n", &format!("{{\n  \"{key}\": 1,\n"), 1);
            let e = ExperimentSpec::from_json(&text).unwrap_err();
            assert!(e.0.contains(&format!("unknown key {key:?}")), "{e}");
            assert!(e.0.contains("was removed"), "{e}");
        }
    }

    #[test]
    fn sim_config_reflects_routing() {
        let mut spec = sample();
        spec.set("repair_churn_threshold", "0.3").unwrap();
        let cfg = spec.sim_config();
        assert_eq!(cfg.routing.mode, RoutingMode::Incremental);
        assert_eq!(cfg.routing.repair_churn_threshold, 0.3);
        assert_eq!(spec.routing_config(), cfg.routing);
    }

    /// Per knob, in table order: a value off its default, and values both
    /// `--set` and a spec file must reject (read as a JSON literal where
    /// one parses, else as a string).
    const CASES: &[(&str, &str, &[&str])] = &[
        ("duration_s", "12.5", &["-1", "nan", "inf", "-inf", "soon", "true", "2e10"]),
        ("step_ms", "0.25", &["0", "-1", "nan", "inf", "0.0000001", "1e15"]),
        ("line_rate_mbps", "2.5", &["0", "-1", "nan", "-inf", "0.0000001", "1e20"]),
        ("queue_packets", "7", &["0", "-1", "1.5", "many"]),
        ("utilization_bucket_s", "1.5", &["0", "-1", "nan", "inf", "1e10"]),
        ("cc", "bbr", &["tahoe", "7"]),
        ("threads", "3", &["-1", "1.5", "many", "1025", "100000000000"]),
        ("seed", "18446744073709551615", &["-1", "18446744073709551616", "1.5"]),
        ("sim_shards", "4", &["0", "-1", "many"]),
        ("sim_mode", "hybrid", &["analytic", "1"]),
        ("fluid_threshold_kbps", "64.5", &["-1", "-inf", "nan", "slow", "1e300"]),
        ("flows", "1000000", &["0", "-1", "many"]),
        ("repair_churn_threshold", "0.25", &["-0.1", "-1", "nan", "inf", "lots"]),
        ("checkpoint_every_s", "0.5", &["0", "-1", "nan", "inf", "1e10"]),
        ("resume_from", "out/ckpt", &[]),
        ("audit", "true", &["yes", "1"]),
    ];

    #[test]
    fn every_knob_round_trips_and_rejects_bad_values() {
        let keys: Vec<&str> = KNOBS.iter().map(|k| k.key).collect();
        assert_eq!(keys, CASES.iter().map(|c| c.0).collect::<Vec<_>>());
        let base = sample();
        let base_text = base.to_json_string();
        let base_json = json::from_str(&base_text).unwrap();
        let with = |key: &str, value: Value| {
            let mut v = base_json.clone();
            v.as_object_mut().unwrap().insert(key.to_string(), value);
            ExperimentSpec::from_value(&v)
        };
        for (knob, &(key, good, bad)) in KNOBS.iter().zip(CASES) {
            // At its default a knob is printed only if a file must carry it.
            let tag = format!("\n  \"{key}\": ");
            assert_eq!(base_text.contains(&tag), knob.required, "{key}");
            if knob.required {
                let mut v = base_json.clone();
                v.as_object_mut().unwrap().remove(key);
                let e = ExperimentSpec::from_value(&v).unwrap_err();
                assert!(e.0.contains(key), "{e}");
            }

            // A value off the default survives set -> print -> parse.
            let mut spec = base.clone();
            spec.set(key, good).unwrap_or_else(|e| panic!("{key}={good}: {e}"));
            assert_ne!(spec, base, "{key}={good} left the spec at its default");
            let text = spec.to_json_string();
            assert!(text.contains(&tag), "{key} not printed:\n{text}");
            let back = ExperimentSpec::from_json(&text).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert_eq!(back, spec, "{key}");
            assert_eq!(back.to_json_string(), text, "{key}");
            // An optional knob unsets again.
            if (knob.field)(&mut ExperimentSpec::default()).json().is_none() {
                spec.set(key, "none").unwrap();
                assert_eq!(spec, base, "{key}=none");
            }

            // Bad values fail on both paths, naming the knob; no knob takes
            // an array.
            let quoted = format!("\"{key}\"");
            for &b in bad {
                let e = base.clone().set(key, b).expect_err(&format!("--set {key}={b}"));
                assert!(e.0.starts_with(&quoted), "{e}");
                let v = json::from_str(b).unwrap_or_else(|_| Value::String(b.into()));
                let e = with(key, v).expect_err(&format!("JSON {key}: {b}"));
                assert!(e.0.contains(&quoted), "{e}");
            }
            let e = with(key, Value::Array(Vec::new())).expect_err(key);
            assert!(e.0.contains(key), "{e}");
        }
    }

    #[test]
    fn unknown_json_keys_are_rejected() {
        for (key, value) in [("sim_shard", "4"), ("routing_mode", "\"full\"")] {
            let text = sample().to_json_string().replacen(
                "{\n",
                &format!("{{\n  \"{key}\": {value},\n"),
                1,
            );
            let e = ExperimentSpec::from_json(&text).unwrap_err();
            assert!(e.0.contains(&format!("{key:?}")), "{e}");
        }
    }

    #[test]
    fn experiments_md_lists_every_knob() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let section = doc.split("\n### Spec knobs\n").nth(1).expect("a `### Spec knobs` section");
        let section = section.split("\n#").next().unwrap();
        let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
        let mut default = ExperimentSpec::default();
        let want: Vec<String> = KNOBS
            .iter()
            .map(|k| {
                let field = (k.field)(&mut default);
                let kind = match &field {
                    Field::Int(_) | Field::Count(_) | Field::OptInt(_) => "integer",
                    Field::Num(_) | Field::Secs(..) | Field::Mbps(_) | Field::OptSecs(..) => {
                        "number"
                    }
                    Field::Cc(_) | Field::Mode(_) => "name",
                    Field::Flag(_) => "bool",
                    Field::OptText(_) => "text",
                };
                let bound = range_text(&k.range);
                let default = match field.json() {
                    _ if k.required => "required".to_string(),
                    Some(text) => format!("`{text}`"),
                    None => "unset".to_string(),
                };
                format!("| `{}` | {kind}{bound} | {default} | {} |", k.key, k.doc.trim())
            })
            .collect();
        assert_eq!(rows, want, "EXPERIMENTS.md's knob table must read:\n{}", want.join("\n"));
    }

    /// `sample()` with every scalar knob moved off its default.
    fn every_knob_set() -> ExperimentSpec {
        ExperimentSpec {
            duration: SimDuration::from_millis(12_500),
            step: SimDuration::from_micros(250),
            line_rate: DataRate::from_bps(2_500_000),
            queue_packets: 7,
            utilization_bucket: Some(SimDuration::from_millis(1500)),
            cc: CcKind::Bbr,
            threads: 3,
            seed: u64::MAX,
            repair_churn_threshold: 0.25,
            sim_shards: 4,
            sim_mode: SimMode::Hybrid,
            fluid_threshold_kbps: 64.5,
            flows: Some(1_000_000),
            checkpoint_every: Some(SimDuration::from_millis(500)),
            resume_from: Some("out/\"ckpt\"".into()),
            audit: true,
            ..sample()
        }
    }

    #[test]
    fn printed_specs_are_pinned() {
        // Captured before the knob table replaced the hand-written
        // printer; a spec file on disk must read and print the same bytes.
        let want = r#"{
  "experiment": "fig03_rtt_fluctuations",
  "constellation": "kuiper_k1",
  "ground": { "top_cities": 100 },
  "pairs": { "named": [
    { "src": "Rio de Janeiro", "dst": "Saint Petersburg" },
    { "src": "Manila", "dst": "Dalian" }
  ] },
  "duration_s": 12.5,
  "step_ms": 0.25,
  "line_rate_mbps": 2.5,
  "queue_packets": 7,
  "utilization_bucket_s": 1.5,
  "cc": "BBR",
  "threads": 3,
  "seed": 18446744073709551615,
  "sim_shards": 4,
  "sim_mode": "hybrid",
  "fluid_threshold_kbps": 64.5,
  "flows": 1000000,
  "repair_churn_threshold": 0.25,
  "checkpoint_every_s": 0.5,
  "resume_from": "out/\"ckpt\"",
  "audit": true,
  "params": {
    "coarse_multiples": [2, 20],
    "frozen": false,
    "ping_interval_ms": 20
  }
}"#;
        let spec = every_knob_set();
        assert_eq!(spec.to_json_string(), want);
        assert_eq!(ExperimentSpec::from_json(want).unwrap(), spec);

        // FNV-64 of every registered spec's text at both scales.
        let pinned: &[(&str, u64, u64)] = &[
            ("table1_constellations", 0xa0a00c49c290507e, 0xa0a00c49c290507e),
            ("fig02_scalability", 0x86328e13ce5636ac, 0x878ec4441c3a9fde),
            ("fig03_rtt_fluctuations", 0x9b355743e670e613, 0x0650980d1400ff86),
            ("fig04_cwnd_bdp", 0x671e742a4ac33184, 0x3e04edf2dc9e55a8),
            ("fig05_cc_rates_rtt", 0xefe6fc223966ef04, 0xbaa66bee1cb654c2),
            ("fig06_08_rtt_path_ecdfs", 0x5d7aae5241192327, 0x845622f6f00246e4),
            ("fig09_timestep", 0xf1d29e2ba3c36b4b, 0x4a3e9fb32536ebe8),
            ("fig10_14_15_cross_traffic", 0x2764c8499a1b67da, 0xd7861209e4690f02),
            ("fig11_constellation_czml", 0xedd56c0f9d5ab812, 0x8c803f4ff27674ba),
            ("fig12_ground_view", 0xf3c6b2babb7fcc58, 0x7547916de58b03dd),
            ("fig13_path_viz", 0x59f009989b2fb64f, 0x3e4168efe0cb26a0),
            ("fig16_19_bent_pipe", 0x458865b7569e928c, 0xd1d79b8dbcf4339e),
            ("ext_multipath_diversity", 0xbf64a0f85ab1e3bd, 0x6ea1e9384dfd40ca),
            ("ext_failure_resilience", 0xc790f13c2954e870, 0x93a91fe89ea45059),
            ("ext_flow_scaling", 0xcbd58539777c721f, 0x5e19b9b422970305),
            ("ext_hybrid_mode", 0x171b700e9c9a839e, 0x0014958b37b46b05),
        ];
        let runner = crate::runner::ExperimentRunner::new();
        assert_eq!(runner.names(), pinned.iter().map(|p| p.0).collect::<Vec<_>>());
        for &(name, reduced, full) in pinned {
            for (scale, want) in [(false, reduced), (true, full)] {
                let text = runner.spec(name, scale).unwrap().to_json_string();
                let got = hypatia_util::hash::fnv1a_64(text.as_bytes());
                assert_eq!(got, want, "{name} full={scale}:\n{text}");
            }
        }
    }

    #[test]
    fn default_spec_matches_paper_defaults() {
        let spec = ExperimentSpec::default();
        let cfg = spec.sim_config();
        let d = SimConfig::default();
        assert_eq!(cfg.link_rate, d.link_rate);
        assert_eq!(cfg.queue_packets, d.queue_packets);
        assert_eq!(cfg.fstate_step, d.fstate_step);
    }
}
