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
//! with precise error messages, over [`hypatia_util::json`].

// Spec I/O is a crash-resilience surface: a malformed file must come back
// as a typed SpecError, never a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::experiments::tcp_single::CcKind;
use crate::scenario::{ConstellationChoice, Scenario, ScenarioBuilder};
use hypatia_constellation::ground::top_cities;
use hypatia_constellation::GroundStation;
use hypatia_fault::{FaultSchedule, FaultSpec, FlapProcess, LinkCut, OutageWindow};
use hypatia_netsim::{SimConfig, SimMode};
use hypatia_routing::incremental::{RoutingConfig, RoutingMode};
use hypatia_util::json::{self, Value};
use hypatia_util::{DataRate, SimDuration};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

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
    /// Simulated horizon.
    pub duration: SimDuration,
    /// Forwarding-state granularity (the paper's Δt).
    pub step: SimDuration,
    /// Uniform line rate (ISLs and GSLs).
    pub line_rate: DataRate,
    /// Drop-tail queue capacity per device, packets.
    pub queue_packets: usize,
    /// Per-device utilization-tracking bucket (None disables tracking).
    pub utilization_bucket: Option<SimDuration>,
    /// Congestion controller for TCP workloads.
    pub cc: CcKind,
    /// Worker threads for snapshot fan-out / forwarding prefetch
    /// (0 = serial; results are bit-identical for any value).
    pub threads: usize,
    /// Seed for randomized pieces (permutation matrix, loss processes).
    pub seed: u64,
    /// Forwarding-state recomputation strategy: full Dijkstra every
    /// snapshot, or incremental repair of the previous snapshot's trees
    /// (the default). Output is byte-identical either way — `full` is the
    /// escape hatch. Default values are omitted from the emitted JSON, so
    /// existing spec files and their artifacts stay byte-identical.
    pub routing_mode: RoutingMode,
    /// Churn fraction (flipped edges / edges) above which incremental
    /// repair falls back to a full recompute.
    pub repair_churn_threshold: f64,
    /// Shard count for the simulator's conservative parallel engine
    /// (1 = one shard on the calling thread). Results are bit-identical for
    /// any value; the default is omitted from the emitted JSON, so
    /// existing spec files and their artifacts stay byte-identical.
    pub sim_shards: usize,
    /// Simulation mode: pure packet-level (the default), pure fluid, or
    /// hybrid — bulk flows modelled analytically by the max-min fair
    /// fluid solver while short flows and control traffic stay
    /// packet-level. The default is omitted from the emitted JSON, so
    /// existing spec files and their artifacts stay byte-identical.
    pub sim_mode: SimMode,
    /// Per-flow demand threshold (kbps) below which a flow stays
    /// packet-level even in fluid/hybrid mode (0 = experiment default;
    /// omitted from the emitted JSON at 0, keeping existing spec files
    /// byte-identical).
    pub fluid_threshold_kbps: f64,
    /// Offered flow count for traffic-matrix experiments (e.g. the gravity
    /// model of `ext_flow_scaling`). `None` leaves the experiment's own
    /// default in force and is omitted from the emitted JSON, so existing
    /// spec files and their artifacts stay byte-identical.
    pub flows: Option<u64>,
    /// Per-flow trace sampling interval: the packet trace records only
    /// flows whose flow hash is divisible by this (1 = every flow, the
    /// default, omitted from the emitted JSON). Sampled-out records are
    /// counted, and sampling never alters simulation behaviour — only
    /// which trace rows are kept.
    pub trace_sample_every: u64,
    /// Optional fault-injection scenario (None keeps every component up;
    /// the emitted JSON then carries no `faults` key at all, so existing
    /// spec files and their artifacts are byte-identical).
    pub faults: Option<FaultSpec>,
    /// Checkpoint interval in simulated time: each simulation writes a
    /// restartable snapshot under `<out_dir>/checkpoints/` at every
    /// boundary. `None` (the default, omitted from the emitted JSON)
    /// disables checkpointing; snapshots never alter simulation
    /// behaviour — artifacts are byte-identical with or without them.
    pub checkpoint_every: Option<SimDuration>,
    /// Directory of snapshots from a previous (possibly killed) run of the
    /// same spec: each simulation that finds its snapshot there restores
    /// it and replays only the tail. Resume is byte-identical, so the
    /// artifacts match an uninterrupted run exactly. `None` (the default,
    /// omitted from the emitted JSON) starts every simulation from t = 0.
    pub resume_from: Option<String>,
    /// Run conservation audits (packet, per-link byte, queue-occupancy,
    /// and fluid-rate invariants) at every epoch boundary, reporting any
    /// violations in the manifest. Off by default (omitted from the
    /// emitted JSON); auditing never alters simulation behaviour.
    pub audit: bool,
    /// Experiment-specific extras (e.g. `ping_interval_ms`).
    pub params: BTreeMap<String, ParamValue>,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        let sim = SimConfig::default();
        let routing = RoutingConfig::default();
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
            routing_mode: routing.mode,
            repair_churn_threshold: routing.repair_churn_threshold,
            sim_shards: sim.sim_shards,
            sim_mode: sim.sim_mode,
            fluid_threshold_kbps: 0.0,
            flows: None,
            trace_sample_every: sim.trace_sample_every,
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
        if self.threads > 0 {
            let prefetch = cfg.fstate_prefetch;
            cfg = cfg.with_fstate_prefetch(self.threads, prefetch);
        }
        cfg.with_routing_mode(self.routing_mode)
            .with_repair_churn_threshold(self.repair_churn_threshold)
            .with_sim_shards(self.sim_shards)
            .with_sim_mode(self.sim_mode)
            .with_trace_sampling(self.trace_sample_every)
    }

    /// The routing configuration this spec describes.
    pub fn routing_config(&self) -> RoutingConfig {
        RoutingConfig {
            mode: self.routing_mode,
            repair_churn_threshold: self.repair_churn_threshold,
        }
    }

    /// Assemble the scenario (constellation + ground segment + sim config).
    ///
    /// When the spec carries a fault scenario it is compiled against the
    /// built constellation (horizon = the spec's `duration`) and attached
    /// to the simulator configuration.
    pub fn build_scenario(&self) -> Scenario {
        let mut scenario = ScenarioBuilder::new(self.constellation)
            .ground_stations(self.ground.stations())
            .sim_config(self.sim_config())
            .build();
        if let Some(faults) = &self.faults {
            let schedule = FaultSchedule::compile(faults, &scenario.constellation, self.duration);
            scenario.sim_config.faults = Some(std::sync::Arc::new(schedule));
        }
        scenario
    }

    /// The fault scenario, created fault-free on first access (used by the
    /// fault-related `--set` keys and by experiments that inject faults).
    pub fn faults_mut(&mut self) -> &mut FaultSpec {
        self.faults.get_or_insert_with(FaultSpec::default)
    }

    /// Numeric extra parameter.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.params.get(key) {
            Some(ParamValue::Num(x)) => Some(*x),
            _ => None,
        }
    }

    /// Boolean extra parameter.
    pub fn flag(&self, key: &str) -> Option<bool> {
        match self.params.get(key) {
            Some(ParamValue::Flag(b)) => Some(*b),
            _ => None,
        }
    }

    /// Text extra parameter.
    pub fn text(&self, key: &str) -> Option<&str> {
        match self.params.get(key) {
            Some(ParamValue::Text(s)) => Some(s),
            _ => None,
        }
    }

    /// Numeric-list extra parameter.
    pub fn list(&self, key: &str) -> Option<&[f64]> {
        match self.params.get(key) {
            Some(ParamValue::List(v)) => Some(v),
            _ => None,
        }
    }

    /// Apply one `--set key=value` override.
    ///
    /// Known keys address the common fields (`constellation`, `cities`,
    /// `pairs`, `min_distance_km`, `duration_s`, `step_ms`,
    /// `line_rate_mbps`, `queue_packets`, `utilization_bucket_s`, `cc`,
    /// `threads`, `seed`), the engine (`sim_shards=N` for the sharded
    /// conservative engine, 1 = serial; `sim_mode=packet|fluid|hybrid`
    /// with `fluid_threshold_kbps=X` keeping flows below the threshold
    /// packet-level), the traffic matrix and trace
    /// (`flows=N` offered flows, `trace_sample_every=K` per-flow trace
    /// sampling; both reject 0), the routing strategy
    /// (`routing_mode=full|
    /// incremental`, `repair_churn_threshold`) and the fault scenario
    /// (`fault_seed`,
    /// `sat_outage=SAT:FROM_S:UNTIL_S`, `isl_cut=A-B:FROM_S:UNTIL_S`,
    /// `gsl_weather=GS:FROM_S:UNTIL_S` — each appends a window — plus
    /// `sat_mttf_s`/`sat_mttr_s`/`isl_mttf_s`/`isl_mttr_s` for the flap
    /// processes); any other key lands in `params`, with the value parsed
    /// as bool, number, comma-separated number list, or text — in that
    /// order.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        fn parse_f64(key: &str, value: &str) -> Result<f64, SpecError> {
            value
                .parse::<f64>()
                .map_err(|_| SpecError(format!("{key} expects a number, got {value:?}")))
        }
        fn parse_u64(key: &str, value: &str) -> Result<u64, SpecError> {
            value.parse::<u64>().map_err(|_| {
                SpecError(format!("{key} expects a non-negative integer, got {value:?}"))
            })
        }
        /// Split `TARGET:FROM_S:UNTIL_S`, leaving the target untyped.
        fn parse_window_raw<'v>(
            key: &str,
            value: &'v str,
        ) -> Result<(&'v str, f64, f64), SpecError> {
            let parts: Vec<&str> = value.split(':').collect();
            if parts.len() != 3 {
                return err(format!("{key} expects TARGET:FROM_S:UNTIL_S, got {value:?}"));
            }
            Ok((parts[0], parse_f64(key, parts[1])?, parse_f64(key, parts[2])?))
        }
        fn parse_window(key: &str, value: &str) -> Result<(u32, f64, f64), SpecError> {
            let (target, from_s, until_s) = parse_window_raw(key, value)?;
            Ok((parse_u64(key, target)? as u32, from_s, until_s))
        }
        match key {
            "constellation" => match ConstellationChoice::parse(value) {
                Some(c) => self.constellation = c,
                None => {
                    return err(format!(
                        "unknown constellation {value:?} (expected one of \
                         starlink_s1, kuiper_k1, telesat_t1, kuiper_k1_bent_pipe)"
                    ))
                }
            },
            "cities" => {
                self.ground = GroundSegment::TopCities(parse_u64(key, value)? as usize);
            }
            "pairs" => {
                let mut named = Vec::new();
                for pair in value.split(';').filter(|p| !p.is_empty()) {
                    match pair.split_once(':') {
                        Some((s, d)) => named.push((s.to_string(), d.to_string())),
                        None => {
                            return err(format!("pairs expects src:dst[;src:dst...], got {pair:?}"))
                        }
                    }
                }
                self.pairs = PairSelection::Named(named);
            }
            "min_distance_km" => {
                self.pairs = PairSelection::MinDistance { km: parse_f64(key, value)? };
            }
            "duration_s" => {
                self.duration = SimDuration::from_secs_f64(parse_f64(key, value)?);
            }
            "step_ms" => {
                self.step = SimDuration::from_secs_f64(parse_f64(key, value)? / 1e3);
            }
            "line_rate_mbps" => {
                self.line_rate = DataRate::from_bps((parse_f64(key, value)? * 1e6).round() as u64);
            }
            "queue_packets" => self.queue_packets = parse_u64(key, value)? as usize,
            "utilization_bucket_s" => {
                self.utilization_bucket = if value.eq_ignore_ascii_case("none") {
                    None
                } else {
                    Some(SimDuration::from_secs_f64(parse_f64(key, value)?))
                };
            }
            "cc" => match CcKind::parse(value) {
                Some(cc) => self.cc = cc,
                None => {
                    return err(format!(
                        "unknown congestion controller {value:?} (expected \
                         newreno, vegas, cubic, or bbr)"
                    ))
                }
            },
            "threads" => self.threads = parse_u64(key, value)? as usize,
            "seed" => self.seed = parse_u64(key, value)?,
            "sim_shards" => {
                let n = parse_u64(key, value)? as usize;
                if n == 0 {
                    return err(format!("{key} must be at least 1, got {value}"));
                }
                self.sim_shards = n;
            }
            "sim_mode" => match SimMode::parse(value) {
                Some(m) => self.sim_mode = m,
                None => {
                    return err(format!(
                        "unknown sim mode {value:?} (expected packet, fluid, or hybrid)"
                    ))
                }
            },
            "fluid_threshold_kbps" => {
                let x = parse_f64(key, value)?;
                if x < 0.0 {
                    return err(format!("{key} must be non-negative, got {value}"));
                }
                self.fluid_threshold_kbps = x;
            }
            "flows" => {
                let n = parse_u64(key, value)?;
                if n == 0 {
                    return err(format!("{key} must be at least 1, got {value}"));
                }
                self.flows = Some(n);
            }
            "trace_sample_every" => {
                let n = parse_u64(key, value)?;
                if n == 0 {
                    return err(format!("{key} must be at least 1, got {value}"));
                }
                self.trace_sample_every = n;
            }
            "routing_mode" => match RoutingMode::parse(value) {
                Some(m) => self.routing_mode = m,
                None => {
                    return err(format!(
                        "unknown routing mode {value:?} (expected full or incremental)"
                    ))
                }
            },
            "repair_churn_threshold" => {
                let x = parse_f64(key, value)?;
                if x < 0.0 {
                    return err(format!("{key} must be non-negative, got {value}"));
                }
                self.repair_churn_threshold = x;
            }
            "checkpoint_every_s" => {
                if value.eq_ignore_ascii_case("none") {
                    self.checkpoint_every = None;
                } else {
                    let x = parse_f64(key, value)?;
                    if x <= 0.0 {
                        return err(format!("{key} must be positive, got {value}"));
                    }
                    self.checkpoint_every = Some(SimDuration::from_secs_f64(x));
                }
            }
            "resume_from" => {
                self.resume_from = if value.is_empty() { None } else { Some(value.to_string()) };
            }
            "audit" => {
                self.audit = match value.to_ascii_lowercase().as_str() {
                    "true" => true,
                    "false" => false,
                    _ => return err(format!("{key} expects true or false, got {value:?}")),
                };
            }
            "fault_seed" => self.faults_mut().seed = parse_u64(key, value)?,
            "sat_mttf_s" => {
                self.faults_mut().sat_flap.get_or_insert(DEFAULT_FLAP).mttf_s =
                    parse_f64(key, value)?;
            }
            "sat_mttr_s" => {
                self.faults_mut().sat_flap.get_or_insert(DEFAULT_FLAP).mttr_s =
                    parse_f64(key, value)?;
            }
            "isl_mttf_s" => {
                self.faults_mut().isl_flap.get_or_insert(DEFAULT_FLAP).mttf_s =
                    parse_f64(key, value)?;
            }
            "isl_mttr_s" => {
                self.faults_mut().isl_flap.get_or_insert(DEFAULT_FLAP).mttr_s =
                    parse_f64(key, value)?;
            }
            "sat_outage" => {
                let (target, from_s, until_s) = parse_window(key, value)?;
                self.faults_mut().sat_outages.push(OutageWindow { target, from_s, until_s });
            }
            "gsl_weather" => {
                let (target, from_s, until_s) = parse_window(key, value)?;
                self.faults_mut().gsl_weather.push(OutageWindow { target, from_s, until_s });
            }
            "isl_cut" => {
                let (pair, from_s, until_s) = parse_window_raw(key, value)?;
                let Some((a, b)) = pair.split_once('-') else {
                    return err(format!("{key} expects A-B:FROM_S:UNTIL_S, got {value:?}"));
                };
                let a = parse_u64(key, a)? as u32;
                let b = parse_u64(key, b)? as u32;
                self.faults_mut().isl_cuts.push(LinkCut { a, b, from_s, until_s });
            }
            "experiment" => {
                return err("the experiment name is fixed; pick a different registry entry")
            }
            _ => {
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
                s.push_str("  \"ground\": { \"cities\": [\n");
                for (i, gs) in cities.iter().enumerate() {
                    let _ = write!(
                        s,
                        "    {{ \"name\": {}, \"lat\": {}, \"lon\": {} }}",
                        json_str(&gs.name),
                        json_num(gs.latitude_deg),
                        json_num(gs.longitude_deg)
                    );
                    s.push_str(if i + 1 < cities.len() { ",\n" } else { "\n" });
                }
                s.push_str("  ] },\n");
            }
        }
        match &self.pairs {
            PairSelection::Named(pairs) if pairs.is_empty() => {
                s.push_str("  \"pairs\": { \"named\": [] },\n");
            }
            PairSelection::Named(pairs) => {
                s.push_str("  \"pairs\": { \"named\": [\n");
                for (i, (src, dst)) in pairs.iter().enumerate() {
                    let _ = write!(
                        s,
                        "    {{ \"src\": {}, \"dst\": {} }}",
                        json_str(src),
                        json_str(dst)
                    );
                    s.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                s.push_str("  ] },\n");
            }
            PairSelection::MinDistance { km } => {
                let _ = writeln!(s, "  \"pairs\": {{ \"min_distance_km\": {} }},", json_num(*km));
            }
            PairSelection::Permutation => {
                s.push_str("  \"pairs\": \"permutation\",\n");
            }
        }
        let _ = writeln!(s, "  \"duration_s\": {},", json_num(self.duration.secs_f64()));
        let _ = writeln!(s, "  \"step_ms\": {},", json_num(self.step.secs_f64() * 1e3));
        let _ = writeln!(s, "  \"line_rate_mbps\": {},", json_num(self.line_rate.mbps_f64()));
        let _ = writeln!(s, "  \"queue_packets\": {},", self.queue_packets);
        if let Some(b) = self.utilization_bucket {
            let _ = writeln!(s, "  \"utilization_bucket_s\": {},", json_num(b.secs_f64()));
        }
        let _ = writeln!(s, "  \"cc\": {},", json_str(self.cc.name()));
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        // The engine shard count is emitted only when sharding is on,
        // keeping pre-existing spec files byte-identical.
        if self.sim_shards != 1 {
            let _ = writeln!(s, "  \"sim_shards\": {},", self.sim_shards);
        }
        // The fluid-mode knobs are emitted only when hybrid/fluid simulation
        // is on, keeping pre-existing spec files byte-identical.
        if self.sim_mode != SimMode::Packet {
            let _ = writeln!(s, "  \"sim_mode\": {},", json_str(self.sim_mode.name()));
        }
        if self.fluid_threshold_kbps != 0.0 {
            let _ =
                writeln!(s, "  \"fluid_threshold_kbps\": {},", json_num(self.fluid_threshold_kbps));
        }
        // Flow-scaling knobs are likewise emitted only when set, keeping
        // pre-existing spec files byte-identical.
        if let Some(n) = self.flows {
            let _ = writeln!(s, "  \"flows\": {n},");
        }
        if self.trace_sample_every != 1 {
            let _ = writeln!(s, "  \"trace_sample_every\": {},", self.trace_sample_every);
        }
        // Routing knobs are emitted only when they differ from the
        // defaults, keeping pre-existing spec files byte-identical.
        let routing_defaults = RoutingConfig::default();
        if self.routing_mode != routing_defaults.mode {
            let _ = writeln!(s, "  \"routing_mode\": {},", json_str(self.routing_mode.as_str()));
        }
        if self.repair_churn_threshold != routing_defaults.repair_churn_threshold {
            let _ = writeln!(
                s,
                "  \"repair_churn_threshold\": {},",
                json_num(self.repair_churn_threshold)
            );
        }
        // Resilience knobs are emitted only when set, keeping pre-existing
        // spec files byte-identical.
        if let Some(every) = self.checkpoint_every {
            let _ = writeln!(s, "  \"checkpoint_every_s\": {},", json_num(every.secs_f64()));
        }
        if let Some(dir) = &self.resume_from {
            let _ = writeln!(s, "  \"resume_from\": {},", json_str(dir));
        }
        if self.audit {
            s.push_str("  \"audit\": true,\n");
        }
        if let Some(f) = &self.faults {
            s.push_str("  \"faults\": {\n");
            let _ = writeln!(s, "    \"seed\": {},", f.seed);
            let _ = writeln!(s, "    \"sat_outages\": {},", json_windows(&f.sat_outages));
            let _ = writeln!(s, "    \"isl_cuts\": {},", json_cuts(&f.isl_cuts));
            if let Some(p) = &f.sat_flap {
                let _ = writeln!(s, "    \"sat_flap\": {},", json_flap(p));
            }
            if let Some(p) = &f.isl_flap {
                let _ = writeln!(s, "    \"isl_flap\": {},", json_flap(p));
            }
            let _ = writeln!(s, "    \"gsl_weather\": {}", json_windows(&f.gsl_weather));
            s.push_str("  },\n");
        }
        if self.params.is_empty() {
            s.push_str("  \"params\": {}\n");
        } else {
            s.push_str("  \"params\": {\n");
            let n = self.params.len();
            for (i, (k, v)) in self.params.iter().enumerate() {
                let _ = write!(s, "    {}: ", json_str(k));
                match v {
                    ParamValue::Num(x) => s.push_str(&json_num(*x)),
                    ParamValue::Flag(b) => s.push_str(if *b { "true" } else { "false" }),
                    ParamValue::Text(t) => s.push_str(&json_str(t)),
                    ParamValue::List(xs) => {
                        s.push('[');
                        for (j, x) in xs.iter().enumerate() {
                            if j > 0 {
                                s.push_str(", ");
                            }
                            s.push_str(&json_num(*x));
                        }
                        s.push(']');
                    }
                }
                s.push_str(if i + 1 < n { ",\n" } else { "\n" });
            }
            s.push_str("  }\n");
        }
        s.push('}');
        s
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
        let mut spec =
            ExperimentSpec { experiment: req_str(v, "experiment")?, ..ExperimentSpec::default() };

        let cname = req_str(v, "constellation")?;
        spec.constellation = match ConstellationChoice::parse(&cname) {
            Some(c) => c,
            None => return err(format!("unknown constellation {cname:?}")),
        };

        let ground = v.get("ground").ok_or_else(|| SpecError("missing \"ground\"".into()))?;
        spec.ground = if let Some(n) = ground.get("top_cities").and_then(Value::as_u64) {
            GroundSegment::TopCities(n as usize)
        } else if let Some(cities) = ground.get("cities").and_then(Value::as_array) {
            let mut out = Vec::with_capacity(cities.len());
            for c in cities {
                let name = c
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| SpecError("ground city missing \"name\"".into()))?;
                let lat = c
                    .get("lat")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| SpecError(format!("city {name:?} missing \"lat\"")))?;
                let lon = c
                    .get("lon")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| SpecError(format!("city {name:?} missing \"lon\"")))?;
                out.push(GroundStation::new(name, lat, lon));
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
            let mut out = Vec::with_capacity(named.len());
            for p in named {
                let src = p
                    .get("src")
                    .and_then(Value::as_str)
                    .ok_or_else(|| SpecError("pair missing \"src\"".into()))?;
                let dst = p
                    .get("dst")
                    .and_then(Value::as_str)
                    .ok_or_else(|| SpecError("pair missing \"dst\"".into()))?;
                out.push((src.to_string(), dst.to_string()));
            }
            PairSelection::Named(out)
        } else {
            return err("\"pairs\" must be { \"named\": [...] }, { \"min_distance_km\": X } \
                 or \"permutation\"");
        };

        spec.duration = SimDuration::from_secs_f64(req_f64(v, "duration_s")?);
        spec.step = SimDuration::from_secs_f64(req_f64(v, "step_ms")? / 1e3);
        spec.line_rate = DataRate::from_bps((req_f64(v, "line_rate_mbps")? * 1e6).round() as u64);
        spec.queue_packets = req_u64(v, "queue_packets")? as usize;
        spec.utilization_bucket = match v.get("utilization_bucket_s") {
            Some(b) => match b.as_f64() {
                Some(secs) => Some(SimDuration::from_secs_f64(secs)),
                None => return err("\"utilization_bucket_s\" must be a number"),
            },
            None => None,
        };
        let ccname = req_str(v, "cc")?;
        spec.cc = match CcKind::parse(&ccname) {
            Some(cc) => cc,
            None => return err(format!("unknown congestion controller {ccname:?}")),
        };
        spec.threads = req_u64(v, "threads")? as usize;
        spec.seed = req_u64(v, "seed")?;
        if let Some(x) = v.get("sim_shards") {
            let n = x
                .as_u64()
                .ok_or_else(|| SpecError("\"sim_shards\" must be a positive integer".into()))?;
            if n == 0 {
                return err("\"sim_shards\" must be at least 1");
            }
            spec.sim_shards = n as usize;
        }
        if let Some(m) = v.get("sim_mode") {
            let name =
                m.as_str().ok_or_else(|| SpecError("\"sim_mode\" must be a string".into()))?;
            spec.sim_mode = match SimMode::parse(name) {
                Some(mode) => mode,
                None => return err(format!("unknown sim mode {name:?}")),
            };
        }
        if let Some(x) = v.get("fluid_threshold_kbps") {
            let t = x
                .as_f64()
                .ok_or_else(|| SpecError("\"fluid_threshold_kbps\" must be a number".into()))?;
            if t < 0.0 {
                return err("\"fluid_threshold_kbps\" must be non-negative");
            }
            spec.fluid_threshold_kbps = t;
        }
        if let Some(x) = v.get("flows") {
            let n = x
                .as_u64()
                .ok_or_else(|| SpecError("\"flows\" must be a positive integer".into()))?;
            if n == 0 {
                return err("\"flows\" must be at least 1");
            }
            spec.flows = Some(n);
        }
        if let Some(x) = v.get("trace_sample_every") {
            let n = x.as_u64().ok_or_else(|| {
                SpecError("\"trace_sample_every\" must be a positive integer".into())
            })?;
            if n == 0 {
                return err("\"trace_sample_every\" must be at least 1");
            }
            spec.trace_sample_every = n;
        }
        if let Some(m) = v.get("routing_mode") {
            let name =
                m.as_str().ok_or_else(|| SpecError("\"routing_mode\" must be a string".into()))?;
            spec.routing_mode = match RoutingMode::parse(name) {
                Some(mode) => mode,
                None => return err(format!("unknown routing mode {name:?}")),
            };
        }
        if let Some(x) = v.get("repair_churn_threshold") {
            spec.repair_churn_threshold = x
                .as_f64()
                .ok_or_else(|| SpecError("\"repair_churn_threshold\" must be a number".into()))?;
        }
        if let Some(x) = v.get("checkpoint_every_s") {
            let every = x
                .as_f64()
                .ok_or_else(|| SpecError("\"checkpoint_every_s\" must be a number".into()))?;
            if every <= 0.0 {
                return err("\"checkpoint_every_s\" must be positive");
            }
            spec.checkpoint_every = Some(SimDuration::from_secs_f64(every));
        }
        if let Some(x) = v.get("resume_from") {
            let dir =
                x.as_str().ok_or_else(|| SpecError("\"resume_from\" must be a string".into()))?;
            spec.resume_from = Some(dir.to_string());
        }
        if let Some(x) = v.get("audit") {
            spec.audit =
                x.as_bool().ok_or_else(|| SpecError("\"audit\" must be true or false".into()))?;
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

fn value_to_param(key: &str, v: &Value) -> Result<ParamValue, SpecError> {
    if let Some(b) = v.as_bool() {
        return Ok(ParamValue::Flag(b));
    }
    if let Some(x) = v.as_f64() {
        return Ok(ParamValue::Num(x));
    }
    if let Some(s) = v.as_str() {
        return Ok(ParamValue::Text(s.to_string()));
    }
    if let Some(arr) = v.as_array() {
        let mut xs = Vec::with_capacity(arr.len());
        for item in arr {
            match item.as_f64() {
                Some(x) => xs.push(x),
                None => return err(format!("param {key:?}: list items must be numbers")),
            }
        }
        return Ok(ParamValue::List(xs));
    }
    err(format!("param {key:?} has an unsupported JSON type"))
}

/// One-line JSON array of outage windows.
fn json_windows(ws: &[OutageWindow]) -> String {
    let mut out = String::from("[");
    for (i, w) in ws.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{ \"target\": {}, \"from_s\": {}, \"until_s\": {} }}",
            w.target,
            json_num(w.from_s),
            json_num(w.until_s)
        );
    }
    out.push(']');
    out
}

/// One-line JSON array of ISL cuts.
fn json_cuts(cuts: &[LinkCut]) -> String {
    let mut out = String::from("[");
    for (i, c) in cuts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{ \"a\": {}, \"b\": {}, \"from_s\": {}, \"until_s\": {} }}",
            c.a,
            c.b,
            json_num(c.from_s),
            json_num(c.until_s)
        );
    }
    out.push(']');
    out
}

fn json_flap(p: &FlapProcess) -> String {
    format!("{{ \"mttf_s\": {}, \"mttr_s\": {} }}", json_num(p.mttf_s), json_num(p.mttr_s))
}

fn parse_faults(v: &Value) -> Result<FaultSpec, SpecError> {
    fn field_f64(v: &Value, ctx: &str, key: &str) -> Result<f64, SpecError> {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| SpecError(format!("{ctx} missing or non-numeric {key:?}")))
    }
    fn field_u32(v: &Value, ctx: &str, key: &str) -> Result<u32, SpecError> {
        v.get(key)
            .and_then(Value::as_u64)
            .map(|x| x as u32)
            .ok_or_else(|| SpecError(format!("{ctx} missing or non-integer {key:?}")))
    }
    fn windows(v: &Value, key: &str) -> Result<Vec<OutageWindow>, SpecError> {
        let Some(arr) = v.get(key) else { return Ok(Vec::new()) };
        let items = arr
            .as_array()
            .ok_or_else(|| SpecError(format!("\"faults.{key}\" must be an array")))?;
        let ctx = format!("faults.{key} entry");
        items
            .iter()
            .map(|w| {
                Ok(OutageWindow {
                    target: field_u32(w, &ctx, "target")?,
                    from_s: field_f64(w, &ctx, "from_s")?,
                    until_s: field_f64(w, &ctx, "until_s")?,
                })
            })
            .collect()
    }
    fn flap(v: &Value, key: &str) -> Result<Option<FlapProcess>, SpecError> {
        let Some(p) = v.get(key) else { return Ok(None) };
        let ctx = format!("faults.{key}");
        Ok(Some(FlapProcess {
            mttf_s: field_f64(p, &ctx, "mttf_s")?,
            mttr_s: field_f64(p, &ctx, "mttr_s")?,
        }))
    }

    let mut f = FaultSpec::default();
    if let Some(seed) = v.get("seed") {
        f.seed = seed
            .as_u64()
            .ok_or_else(|| SpecError("\"faults.seed\" must be a non-negative integer".into()))?;
    }
    f.sat_outages = windows(v, "sat_outages")?;
    f.gsl_weather = windows(v, "gsl_weather")?;
    if let Some(arr) = v.get("isl_cuts") {
        let items = arr
            .as_array()
            .ok_or_else(|| SpecError("\"faults.isl_cuts\" must be an array".into()))?;
        f.isl_cuts = items
            .iter()
            .map(|c| {
                Ok(LinkCut {
                    a: field_u32(c, "faults.isl_cuts entry", "a")?,
                    b: field_u32(c, "faults.isl_cuts entry", "b")?,
                    from_s: field_f64(c, "faults.isl_cuts entry", "from_s")?,
                    until_s: field_f64(c, "faults.isl_cuts entry", "until_s")?,
                })
            })
            .collect::<Result<_, SpecError>>()?;
    }
    f.sat_flap = flap(v, "sat_flap")?;
    f.isl_flap = flap(v, "isl_flap")?;
    Ok(f)
}

fn req_str(v: &Value, key: &str) -> Result<String, SpecError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| SpecError(format!("missing or non-string {key:?}")))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, SpecError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| SpecError(format!("missing or non-numeric {key:?}")))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, SpecError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| SpecError(format!("missing or non-integer {key:?}")))
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
        // Spec fields are never NaN/inf; guard against it anyway.
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn missing_field_is_reported_by_name() {
        let e = ExperimentSpec::from_json("{}").unwrap_err();
        assert!(e.to_string().contains("experiment"), "{e}");
        let e = ExperimentSpec::from_json("not json").unwrap_err();
        assert!(e.to_string().contains("JSON"), "{e}");
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
        assert_eq!(spec.num("relay_spacing_deg"), Some(4.0));
        spec.set("frozen", "true").unwrap();
        assert_eq!(spec.flag("frozen"), Some(true));
        spec.set("line_rates_mbps", "1,10,25").unwrap();
        assert_eq!(spec.list("line_rates_mbps"), Some(&[1.0, 10.0, 25.0][..]));
        spec.set("note", "hello world").unwrap();
        assert_eq!(spec.text("note"), Some("hello world"));
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
        let cfg = spec.sim_config();
        assert_eq!(cfg.link_rate, DataRate::from_mbps(25));
        assert_eq!(cfg.queue_packets, 50);
        assert_eq!(cfg.fstate_step, SimDuration::from_millis(50));
        assert_eq!(cfg.utilization_bucket, Some(SimDuration::from_secs(1)));
        assert_eq!(cfg.fstate_threads, 4);
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
        assert_eq!(f.isl_flap.unwrap().mttr_s, 45.0);

        assert!(spec.set("sat_outage", "12:1.5").is_err());
        assert!(spec.set("isl_cut", "37:0:2").is_err());
        assert!(spec.set("gsl_weather", "zero:10:30").is_err());
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
        spec.routing_mode = RoutingMode::Full;
        spec.repair_churn_threshold = 0.25;
        let text = spec.to_json_string();
        assert!(text.contains("\"routing_mode\": \"full\""));
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
        assert_eq!(back.routing_mode, RoutingMode::Incremental);
        assert_eq!(back.repair_churn_threshold, RoutingConfig::default().repair_churn_threshold);
    }

    #[test]
    fn set_routing_keys() {
        let mut spec = sample();
        spec.set("routing_mode", "full").unwrap();
        assert_eq!(spec.routing_mode, RoutingMode::Full);
        spec.set("routing_mode", "incremental").unwrap();
        assert_eq!(spec.routing_mode, RoutingMode::Incremental);
        spec.set("repair_churn_threshold", "0.5").unwrap();
        assert_eq!(spec.repair_churn_threshold, 0.5);

        assert!(spec.set("routing_mode", "dijkstra").is_err());
        assert!(spec.set("repair_churn_threshold", "-0.1").is_err());
        assert!(spec.set("repair_churn_threshold", "lots").is_err());
    }

    #[test]
    fn sim_config_reflects_routing() {
        let mut spec = sample();
        spec.set("routing_mode", "full").unwrap();
        spec.set("repair_churn_threshold", "0.3").unwrap();
        let cfg = spec.sim_config();
        assert_eq!(cfg.routing.mode, RoutingMode::Full);
        assert_eq!(cfg.routing.repair_churn_threshold, 0.3);
        assert_eq!(spec.routing_config(), cfg.routing);
    }

    #[test]
    fn sim_shards_round_trips_and_defaults_to_omitted() {
        // Byte compatibility: specs at the default (serial) engine serialize
        // exactly as before the sharded engine existed.
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
        assert_eq!(spec.sim_config().sim_shards, 4);

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
        assert!(!text.contains("trace_sample_every"));
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back.flows, None);
        assert_eq!(back.trace_sample_every, 1);

        let mut spec = sample();
        spec.set("flows", "1000000").unwrap();
        spec.set("trace_sample_every", "64").unwrap();
        assert_eq!(spec.flows, Some(1_000_000));
        assert_eq!(spec.trace_sample_every, 64);
        let text = spec.to_json_string();
        assert!(text.contains("\"flows\": 1000000"));
        assert!(text.contains("\"trace_sample_every\": 64"));
        let back = ExperimentSpec::from_json(&text).expect("parse own output");
        assert_eq!(spec, back);
        assert_eq!(text, back.to_json_string());
        assert_eq!(spec.sim_config().trace_sample_every, 64);

        assert!(spec.set("flows", "0").is_err());
        assert!(spec.set("flows", "many").is_err());
        assert!(spec.set("trace_sample_every", "0").is_err());
        assert!(ExperimentSpec::from_json("{\"experiment\": \"e\", \"flows\": 0}").is_err());
        assert!(ExperimentSpec::from_json("{\"experiment\": \"e\", \"trace_sample_every\": 0}")
            .is_err());
    }

    #[test]
    fn default_spec_matches_paper_defaults() {
        let spec = ExperimentSpec::default();
        let cfg = spec.sim_config();
        let d = SimConfig::default();
        assert_eq!(cfg.link_rate, d.link_rate);
        assert_eq!(cfg.queue_packets, d.queue_packets);
        assert_eq!(cfg.fstate_step, d.fstate_step);
        assert_eq!(cfg.fstate_threads, 0);
    }
}
