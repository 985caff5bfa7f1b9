//! The experiment runner: name → spec → run → manifest.
//!
//! Every figure of the paper (and every extension study) is registered
//! here as an [`Experiment`]: it names itself, provides its default
//! [`ExperimentSpec`] at reduced or full scale, and runs against a
//! [`RunContext`] that hands it the scenario and the
//! [`hypatia_viz::sink::ArtifactSink`] all outputs flow
//! through. The [`ExperimentRunner`] owns the registry and the one run
//! lifecycle, [`ExperimentRunner::run`]: arm the [`Watchdog`], execute with
//! panics caught, then write the run's `manifest.json` — or, on any
//! failure, salvage it as `status: aborted`.

use crate::resilience::{DriveOptions, Driver};
use crate::scenario::{Scenario, UnknownCityError};
use crate::spec::{ExperimentSpec, SpecError};
use hypatia_viz::sink::ArtifactSink;
use std::fmt;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Why an experiment run failed.
#[derive(Debug)]
pub enum RunError {
    /// The requested name is not in the registry.
    UnknownExperiment {
        /// The requested name.
        name: String,
        /// Every registered experiment name.
        available: Vec<String>,
    },
    /// A city name in the spec is not in the scenario's ground segment.
    UnknownCity(UnknownCityError),
    /// The spec is malformed for this experiment.
    BadSpec(String),
    /// Writing an artifact failed.
    Io(io::Error),
    /// The experiment panicked; the runner caught it.
    Panicked {
        /// Which experiment was running.
        experiment: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The run exceeded its wall-clock deadline.
    DeadlineExceeded {
        /// The configured deadline, seconds.
        limit_s: f64,
        /// Wall-clock seconds actually elapsed when the check fired.
        elapsed_s: f64,
    },
    /// The process exceeded its peak-RSS memory budget.
    BudgetExceeded {
        /// The configured budget, bytes.
        limit_bytes: u64,
        /// Peak RSS observed, bytes.
        peak_bytes: u64,
    },
    /// Writing or restoring a state snapshot failed.
    Checkpoint(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownExperiment { name, available } => {
                write!(f, "no experiment named {name:?}; available: ")?;
                for (i, n) in available.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}")?;
                }
                Ok(())
            }
            RunError::UnknownCity(e) => write!(f, "{e}"),
            RunError::BadSpec(msg) => write!(f, "bad spec: {msg}"),
            RunError::Io(e) => write!(f, "I/O error: {e}"),
            RunError::Panicked { experiment, message } => {
                write!(f, "experiment {experiment} panicked: {message}")
            }
            RunError::DeadlineExceeded { limit_s, elapsed_s } => {
                write!(f, "deadline exceeded: {elapsed_s:.1} s elapsed, limit {limit_s:.1} s")
            }
            RunError::BudgetExceeded { limit_bytes, peak_bytes } => {
                write!(
                    f,
                    "memory budget exceeded: peak RSS {:.1} MiB, limit {:.1} MiB",
                    *peak_bytes as f64 / (1024.0 * 1024.0),
                    *limit_bytes as f64 / (1024.0 * 1024.0),
                )
            }
            RunError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl RunError {
    /// The process exit code `run_experiment` maps this error to. Each
    /// variant gets a distinct nonzero code (2 is reserved for CLI parse
    /// errors) so wrappers and CI can dispatch on the failure class.
    pub fn exit_code(&self) -> i32 {
        match self {
            RunError::UnknownExperiment { .. } => 3,
            RunError::UnknownCity(_) => 4,
            RunError::BadSpec(_) => 5,
            RunError::Io(_) => 6,
            RunError::Panicked { .. } => 7,
            RunError::DeadlineExceeded { .. } => 8,
            RunError::BudgetExceeded { .. } => 9,
            RunError::Checkpoint(_) => 10,
        }
    }
}

impl std::error::Error for RunError {}

impl From<UnknownCityError> for RunError {
    fn from(e: UnknownCityError) -> Self {
        RunError::UnknownCity(e)
    }
}

impl From<SpecError> for RunError {
    fn from(e: SpecError) -> Self {
        RunError::BadSpec(e.0)
    }
}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        RunError::Io(e)
    }
}

/// Wall-clock and memory limits, checked at epoch boundaries.
///
/// A watchdog is armed when [`ExperimentRunner::run`] starts and consulted
/// by the [drive loop](crate::resilience::drive) between simulation
/// segments: overruns surface as typed [`RunError`]s at a point where the
/// freshest checkpoint is already on disk, instead of as an opaque kill.
#[derive(Debug, Clone)]
pub struct Watchdog {
    started: Instant,
    deadline: Option<Duration>,
    max_rss_bytes: Option<u64>,
}

impl Watchdog {
    /// A watchdog that never fires.
    pub fn unlimited() -> Self {
        Watchdog { started: Instant::now(), deadline: None, max_rss_bytes: None }
    }

    /// A watchdog armed with the given limits, starting now.
    pub fn armed(deadline: Option<Duration>, max_rss_bytes: Option<u64>) -> Self {
        Watchdog { started: Instant::now(), deadline, max_rss_bytes }
    }

    /// Err when a limit has been exceeded; cheap enough for every epoch.
    pub fn check(&self) -> Result<(), RunError> {
        if let Some(limit) = self.deadline {
            let elapsed = self.started.elapsed();
            if elapsed > limit {
                return Err(RunError::DeadlineExceeded {
                    limit_s: limit.as_secs_f64(),
                    elapsed_s: elapsed.as_secs_f64(),
                });
            }
        }
        if let Some(limit) = self.max_rss_bytes {
            if let Some(peak) = hypatia_util::mem::peak_rss_bytes() {
                if peak > limit {
                    return Err(RunError::BudgetExceeded { limit_bytes: limit, peak_bytes: peak });
                }
            }
        }
        Ok(())
    }
}

/// Everything an experiment needs while running.
pub struct RunContext {
    /// The spec being executed.
    pub spec: ExperimentSpec,
    /// Where all artifacts go.
    pub sink: ArtifactSink,
    /// The spec's `deadline_s` and `max_rss_mb` limits.
    watchdog: Watchdog,
    scenario: Option<Scenario>,
}

impl RunContext {
    /// The spec's scenario, built once and cached. Returns a cheap clone
    /// (the constellation is shared behind an `Arc`), so the context stays
    /// borrowable for the sink while the scenario is in use.
    pub fn scenario(&mut self) -> Scenario {
        match &self.scenario {
            Some(s) => s.clone(),
            None => {
                let built = self.spec.build_scenario();
                self.scenario = Some(built.clone());
                built
            }
        }
    }

    /// How this run drives each simulation: the spec's resilience knobs
    /// (checkpoints under `<out_dir>/checkpoints`) and the watchdog.
    pub fn driver(&self) -> Driver {
        Driver {
            opts: DriveOptions {
                checkpoint_every: self.spec.checkpoint_every,
                checkpoint_dir: self
                    .spec
                    .checkpoint_every
                    .map(|_| self.sink.out_dir().join("checkpoints")),
                resume_from: self.spec.resume_from.as_ref().map(PathBuf::from),
                audit: self.spec.audit,
            },
            watchdog: self.watchdog.clone(),
        }
    }

    /// Write the manifest, first warning about every resilience knob that
    /// did nothing because the experiment drove no simulation (a
    /// simulation always processes at least its t = 0 forwarding update),
    /// and about a retired `sim_shards` above 1 (ROADMAP item 1c).
    fn finish(&mut self, experiment: &str) -> io::Result<PathBuf> {
        let spec = &self.spec;
        if spec.sim_shards > 1 {
            self.sink.warn("sim_shards ignored: the event engine runs one shard");
        }
        let knobs = [
            ("checkpoint_every_s", spec.checkpoint_every.is_some()),
            ("resume_from", spec.resume_from.is_some()),
            ("audit", spec.audit),
        ];
        let idle: Vec<&str> = knobs.iter().filter(|k| k.1).map(|k| k.0).collect();
        if self.sink.sim_events() == 0 && !idle.is_empty() {
            let knobs = idle.join(", ");
            self.sink.warn(format!("{knobs} ignored: {experiment} runs no packet simulation"));
        }
        self.sink.write_manifest(experiment)
    }
}

/// Knobs every experiment accepts, space-separated: by design they move
/// no artifact (`sim_shards` is retired and warns above 1).
pub(crate) const LIFECYCLE_KNOBS: &str =
    "threads repair_churn_threshold sim_shards checkpoint_every_s resume_from audit";

/// Params every experiment accepts: the watchdog's limits.
pub(crate) const LIFECYCLE_PARAMS: [&str; 2] = ["deadline_s", "max_rss_mb"];

/// What an experiment is, and what of its spec it reads beyond the
/// lifecycle inputs and the params of its default specs:
/// [`ExperimentRunner::run`] refuses any other knob set off its default,
/// a `constellation`, `ground` or `pairs` it does not declare unless it
/// equals that of a default spec, and a fault scenario unless `faults`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct About {
    /// Registry name, e.g. `fig03_rtt_fluctuations`.
    pub name: &'static str,
    /// The paper's figure label, e.g. `Fig. 3` (None for label-less runs
    /// like Table 1 — the driver prints a banner only when this is Some).
    pub label: Option<&'static str>,
    /// Human-readable title (the figure caption's subject).
    pub title: &'static str,
    /// The `KNOBS` keys and the structured fields (`constellation`,
    /// `ground`, `pairs`) it reads, space-separated.
    pub knobs: &'static str,
    /// Whether it applies the spec's fault scenario.
    pub faults: bool,
}

/// One registered experiment.
pub trait Experiment {
    /// Its name, label and title, and what it reads.
    fn about(&self) -> About;
    /// Registry name, e.g. `fig03_rtt_fluctuations`.
    fn name(&self) -> &'static str {
        self.about().name
    }
    /// Its default spec at reduced (`full = false`) or paper (`full = true`)
    /// scale, unnamed: the one definition of each param it reads.
    fn defaults(&self, full: bool) -> ExperimentSpec;
    /// [`Self::defaults`], named after the experiment.
    fn spec(&self, full: bool) -> ExperimentSpec {
        ExperimentSpec { experiment: self.name().into(), ..self.defaults(full) }
    }
    /// Execute against the context, writing artifacts through `ctx.sink`.
    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError>;
}

/// The registry plus the shared run lifecycle.
pub struct ExperimentRunner {
    experiments: Vec<Box<dyn Experiment>>,
}

impl Default for ExperimentRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ExperimentRunner {
    /// A runner with every built-in experiment registered.
    pub fn new() -> Self {
        ExperimentRunner { experiments: crate::figures::builtin_experiments() }
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.experiments.iter().map(|e| e.name().to_string()).collect()
    }

    /// Look up an experiment by name.
    pub fn get(&self, name: &str) -> Result<&dyn Experiment, RunError> {
        self.experiments.iter().find(|e| e.name() == name).map(|e| e.as_ref()).ok_or_else(|| {
            RunError::UnknownExperiment { name: name.to_string(), available: self.names() }
        })
    }

    /// The default spec for `name` at the given scale.
    pub fn spec(&self, name: &str, full: bool) -> Result<ExperimentSpec, RunError> {
        Ok(self.get(name)?.spec(full))
    }

    /// Execute `spec` into `sink`, the one way to run an experiment. An
    /// input the experiment does not read is [`RunError::BadSpec`] before
    /// anything runs (see [`About`]). The
    /// spec's `deadline_s` / `max_rss_mb` arm the context's [`Watchdog`],
    /// a panic becomes [`RunError::Panicked`], and the run ends with its
    /// `manifest.json` (returned with the sink). A failed run still
    /// salvages what the sink holds into a manifest marked
    /// `status: aborted`, with the freshest checkpoint when one is on disk.
    pub fn run(
        &self,
        spec: ExperimentSpec,
        sink: ArtifactSink,
    ) -> Result<(PathBuf, ArtifactSink), RunError> {
        supervise(self.get(&spec.experiment)?, spec, sink)
    }
}

/// Whether two specs agree on one structured field.
type SameField = fn(&ExperimentSpec, &ExperimentSpec) -> bool;

/// The structured spec fields an [`About`] may declare, each with how two
/// specs compare on it.
pub(crate) const STRUCTURED_INPUTS: [(&str, SameField); 3] = [
    ("constellation", |a, b| a.constellation == b.constellation),
    ("ground", |a, b| a.ground == b.ground),
    ("pairs", |a, b| a.pairs == b.pairs),
];

/// Err naming the first input of `spec` that `exp` does not read: a knob
/// off its default that is neither declared nor lifecycle, an undeclared
/// structured field that equals neither default spec's, a param of
/// neither default spec nor lifecycle, or a fault scenario it does not
/// apply.
pub(crate) fn check_reads(exp: &dyn Experiment, spec: &ExperimentSpec) -> Result<(), RunError> {
    let about = exp.about();
    let bad = |what: String| Err(RunError::BadSpec(format!("{} {what}", about.name)));
    let knobs: Vec<&str> = about.knobs.split_whitespace().collect();
    let lifecycle: Vec<&str> = LIFECYCLE_KNOBS.split_whitespace().collect();
    let unread = |k: &&str| !lifecycle.contains(k) && !knobs.contains(k);
    if let Some(key) = spec.knobs_off_default().into_iter().find(unread) {
        return bad(format!("does not read {key} (it reads {knobs:?})"));
    }
    let defaults = [exp.spec(false), exp.spec(true)];
    for (key, same) in STRUCTURED_INPUTS {
        if unread(&key) && !defaults.iter().any(|d| same(spec, d)) {
            return bad(format!("does not read {key} (it reads {knobs:?})"));
        }
    }
    let params = default_params(exp);
    let unknown = |k: &&String| !LIFECYCLE_PARAMS.contains(&k.as_str()) && !params.contains(k);
    if let Some(key) = spec.params.keys().find(unknown) {
        return bad(format!("has no param {key} (its params: {params:?})"));
    }
    if spec.faults.is_some() && !about.faults {
        return bad("applies no fault scenario: drop its fault keys (sat_outage, isl_cut, \
             gsl_weather, fault_seed, {sat,isl}_{mttf,mttr}_s)"
            .into());
    }
    Ok(())
}

/// The params of `exp`'s reduced and full default specs, sorted: the
/// params it reads.
pub fn default_params(exp: &dyn Experiment) -> Vec<String> {
    let mut keys: Vec<String> =
        [false, true].into_iter().flat_map(|full| exp.spec(full).params.into_keys()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// [`ExperimentRunner::run`] once the experiment is found.
fn supervise(
    exp: &dyn Experiment,
    spec: ExperimentSpec,
    sink: ArtifactSink,
) -> Result<(PathBuf, ArtifactSink), RunError> {
    check_reads(exp, &spec)?;
    // A deadline beyond `Duration`'s range never fires.
    let deadline = limit(&spec, "deadline_s")?
        .map(|s| Duration::try_from_secs_f64(s).unwrap_or(Duration::MAX));
    let max_rss = limit(&spec, "max_rss_mb")?.map(|mb| (mb * 1024.0 * 1024.0) as u64);
    let name = spec.experiment.clone();
    let watchdog = Watchdog::armed(deadline, max_rss);
    let mut ctx = RunContext { spec, sink, watchdog, scenario: None };
    // The context lives outside the unwind boundary so the sink (and
    // every artifact recorded before the panic) survives for salvage.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| exp.run(&mut ctx)));
    let result = match outcome {
        Ok(Ok(())) => ctx.watchdog.check().and_then(|()| Ok(ctx.finish(&name)?)),
        Ok(Err(err)) => Err(err),
        Err(payload) => Err(RunError::Panicked {
            experiment: name.clone(),
            message: panic_message(payload.as_ref()),
        }),
    };
    match result {
        Ok(path) => Ok((path, ctx.sink)),
        Err(err) => {
            let sink = &mut ctx.sink;
            sink.set_aborted(&err.to_string());
            if let Some(snap) = latest_snapshot(&sink.out_dir().join("checkpoints")) {
                sink.set_last_checkpoint(&snap);
            }
            if let Err(werr) = sink.write_manifest(&name) {
                eprintln!("could not salvage aborted manifest: {werr}");
            }
            Err(err)
        }
    }
}

/// A watchdog limit from the spec's params: absent, or a finite number
/// above zero.
fn limit(spec: &ExperimentSpec, key: &str) -> Result<Option<f64>, RunError> {
    match (spec.params.contains_key(key), spec.num(key)) {
        (false, _) => Ok(None),
        (true, Ok(x)) if x > 0.0 => Ok(Some(x)),
        (true, _) => {
            Err(RunError::BadSpec(format!("param {key:?} must be a finite number above 0")))
        }
    }
}

/// The panic payload as text, when it carried any.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The most recently modified `.snap` file under `dir`, if any.
fn latest_snapshot(dir: &Path) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in entries.flatten() {
        let path = entry.path();
        if !matches!(path.extension(), Some(ext) if ext == "snap") {
            continue;
        }
        let Ok(modified) = entry.metadata().and_then(|m| m.modified()) else { continue };
        if best.as_ref().map(|(t, _)| modified >= *t).unwrap_or(true) {
            best = Some((modified, path));
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GroundSegment, PairSelection};
    use hypatia_util::json::{self, Value};
    use hypatia_util::SimDuration;

    /// A fresh, empty directory for one test's run.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hypatia_runner_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The run's `manifest.json`, parsed.
    fn manifest(dir: &Path) -> Value {
        let text = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
        json::from_str(&text).expect("manifest parses")
    }

    fn quiet_sink(dir: &Path) -> ArtifactSink {
        let mut sink = ArtifactSink::new(dir);
        sink.verbose = false;
        sink
    }

    #[test]
    fn registry_has_all_figures() {
        let runner = ExperimentRunner::new();
        let names = runner.names();
        for expected in [
            "table1_constellations",
            "fig02_scalability",
            "fig03_rtt_fluctuations",
            "fig04_cwnd_bdp",
            "fig05_cc_rates_rtt",
            "fig06_08_rtt_path_ecdfs",
            "fig09_timestep",
            "fig10_14_15_cross_traffic",
            "fig11_constellation_czml",
            "fig12_ground_view",
            "fig13_path_viz",
            "fig16_19_bent_pipe",
            "ext_multipath_diversity",
            "ext_failure_resilience",
            "ext_flow_scaling",
            "ext_hybrid_mode",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
        assert_eq!(names.len(), 16);
    }

    /// Every experiment the docs name is registered: each backticked name
    /// in EXPERIMENTS.md's section headings, and the name in each
    /// `run_experiment <name>` or `$RE <name>` command of README.md,
    /// EXPERIMENTS.md and DESIGN.md. EXPERIMENTS.md's regeneration loop
    /// names every registered experiment, in registry order.
    #[test]
    fn docs_name_only_registered_experiments() {
        let names = ExperimentRunner::new().names();
        let experiments_md = include_str!("../../../EXPERIMENTS.md");
        let mut named: Vec<&str> = experiments_md
            .lines()
            .filter(|l| l.starts_with("## "))
            .flat_map(|l| l.split('`').skip(1).step_by(2))
            .collect();
        assert!(named.len() >= 10, "EXPERIMENTS.md headings name too few: {named:?}");
        let docs = [
            include_str!("../../../README.md"),
            experiments_md,
            include_str!("../../../DESIGN.md"),
        ];
        for doc in docs {
            let commands = doc.split("run_experiment ").skip(1).chain(doc.split("$RE ").skip(1));
            for command in commands {
                let mut words = command.split_whitespace();
                let word = match words.next() {
                    Some("--") => words.next(),
                    word => word,
                };
                if let Some(word) = word.filter(|w| w.starts_with(|c: char| c.is_ascii_lowercase()))
                {
                    named.extend(
                        word.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).next(),
                    );
                }
            }
        }
        let unknown: Vec<&str> =
            named.into_iter().filter(|n| !names.contains(&n.to_string())).collect();
        assert!(unknown.is_empty(), "the docs name unregistered experiments: {unknown:?}");

        let regenerated =
            experiments_md.split("for e in ").nth(1).and_then(|s| s.split("; do").next());
        let regenerated: Vec<&str> = regenerated
            .expect("a regeneration loop")
            .split_whitespace()
            .filter(|w| *w != "\\")
            .collect();
        assert_eq!(regenerated, names, "EXPERIMENTS.md's regeneration loop");
    }

    #[test]
    fn unknown_name_lists_available() {
        let runner = ExperimentRunner::new();
        let err = match runner.get("fig99_nope") {
            Err(e) => e,
            Ok(_) => panic!("lookup should have failed"),
        };
        let msg = err.to_string();
        assert!(msg.contains("fig99_nope"), "{msg}");
        assert!(msg.contains("fig03_rtt_fluctuations"), "{msg}");
    }

    #[test]
    fn spec_lookup_reports_unknown_names_as_typed_errors() {
        // The `--print-spec` path surfaces this error verbatim: it must
        // name the request and carry the registry, not panic.
        let runner = ExperimentRunner::new();
        match runner.spec("fig99_nope", false) {
            Err(RunError::UnknownExperiment { name, available }) => {
                assert_eq!(name, "fig99_nope");
                assert_eq!(available, runner.names());
            }
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
    }

    #[test]
    fn every_spec_round_trips_and_names_itself() {
        let runner = ExperimentRunner::new();
        for name in runner.names() {
            for full in [false, true] {
                let spec = runner
                    .spec(&name, full)
                    .unwrap_or_else(|e| panic!("spec lookup for {name} (full={full}): {e}"));
                assert_eq!(spec.experiment, name);
                let back = ExperimentSpec::from_json(&spec.to_json_string())
                    .unwrap_or_else(|e| panic!("{name} (full={full}): {e}"));
                assert_eq!(spec, back, "{name} full={full}");
            }
        }
    }

    /// Every experiment's default specs, at both scales, pass its own
    /// check of what it reads.
    #[test]
    fn every_default_spec_passes_its_own_check() {
        let runner = ExperimentRunner::new();
        for name in runner.names() {
            let exp = runner.get(&name).unwrap();
            for full in [false, true] {
                check_reads(exp, &exp.spec(full)).unwrap_or_else(|e| panic!("{name} {full}: {e}"));
            }
            for key in exp.about().knobs.split_whitespace() {
                let known = ExperimentSpec::knobs().any(|k| k.0 == key)
                    || STRUCTURED_INPUTS.iter().any(|s| s.0 == key);
                assert!(known, "{name}: {key} is no knob or structured field");
                let lifecycle = LIFECYCLE_KNOBS.split_whitespace().any(|k| k == key);
                assert!(!lifecycle, "{name}: {key} is a lifecycle knob");
            }
        }
    }

    /// An input the experiment does not read is a bad spec naming it; the
    /// lifecycle inputs are accepted everywhere.
    #[test]
    fn unread_inputs_are_refused_and_lifecycle_ones_accepted() {
        let runner = ExperimentRunner::new();
        let fig09 = runner.get("fig09_timestep").unwrap();
        let check = |sets: &[(&str, &str)]| {
            let mut spec = fig09.spec(false);
            for (key, value) in sets {
                spec.set(key, value).unwrap();
            }
            check_reads(fig09, &spec)
        };
        for (key, value, want) in [
            ("line_rate_mbps", "1", "does not read line_rate_mbps (it reads [\"duration_s\", \""),
            ("foo_bar", "3", "has no param foo_bar (its params: [\"coarse_multiples\"])"),
            (
                "sat_outage",
                "100:0:20",
                "applies no fault scenario: drop its fault keys (sat_outage,",
            ),
        ] {
            match check(&[(key, value)]) {
                Err(RunError::BadSpec(msg)) => {
                    assert!(msg.starts_with(&format!("fig09_timestep {want}")), "{msg}")
                }
                other => panic!("{key}={value}: {other:?}"),
            }
        }
        // Back at its default, a knob is not an input.
        check(&[("line_rate_mbps", "1"), ("line_rate_mbps", "10")]).unwrap();
        let lifecycle = [
            ("threads", "3"),
            ("repair_churn_threshold", "0.2"),
            ("sim_shards", "2"),
            ("checkpoint_every_s", "1"),
            ("resume_from", "ckpt"),
            ("audit", "true"),
            ("deadline_s", "100"),
            ("max_rss_mb", "1000"),
        ];
        let knobs = LIFECYCLE_KNOBS.split_whitespace().count();
        assert_eq!(knobs + LIFECYCLE_PARAMS.len(), lifecycle.len());
        check(&lifecycle).unwrap();
    }

    /// EXPERIMENTS.md's read-list table says what each experiment reads,
    /// in registry order.
    #[test]
    fn experiments_md_lists_what_each_experiment_reads() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let section = doc.split("\n### What each experiment reads\n").nth(1).expect("the section");
        let section = section.split("\n#").next().unwrap();
        let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
        let runner = ExperimentRunner::new();
        let ticks = |items: Vec<String>| match items.is_empty() {
            true => "—".to_string(),
            false => items.iter().map(|i| format!("`{i}`")).collect::<Vec<_>>().join(", "),
        };
        let want: Vec<String> = runner
            .names()
            .iter()
            .map(|name| {
                let exp = runner.get(name).unwrap();
                let about = exp.about();
                let knobs = ticks(about.knobs.split_whitespace().map(String::from).collect());
                let faults = if about.faults { "yes" } else { "no" };
                format!("| `{name}` | {knobs} | {} | {faults} |", ticks(default_params(exp)))
            })
            .collect();
        assert_eq!(rows, want, "EXPERIMENTS.md's read-list table must read:\n{}", want.join("\n"));
    }

    #[test]
    fn blown_deadline_salvages_an_aborted_manifest_with_the_last_checkpoint() {
        let mut spec = ExperimentSpec {
            experiment: "fig02_scalability".into(),
            ground: GroundSegment::TopCities(10),
            pairs: PairSelection::Permutation,
            duration: SimDuration::from_secs(1),
            ..ExperimentSpec::default()
        };
        for (key, value) in [
            ("line_rates_mbps", "10"),
            ("slowdown", "false"),
            ("flow_table", "apps"),
            ("checkpoint_every_s", "0.2"),
            ("deadline_s", "1e-9"),
        ] {
            spec.set(key, value).expect(key);
        }
        let dir = temp_dir("deadline");
        match ExperimentRunner::new().run(spec, quiet_sink(&dir)) {
            Err(RunError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let doc = manifest(&dir);
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("aborted"));
        let last = doc.get("checkpoints").and_then(|c| c.get("last")).and_then(Value::as_str);
        assert!(last.is_some_and(|p| p.ends_with(".snap")), "checkpoints.last: {last:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn panic_salvages_the_artifacts_written_before_it() {
        struct Panics;
        impl Experiment for Panics {
            fn about(&self) -> About {
                let title = "writes one artifact, then panics";
                About { name: "panics", label: None, title, knobs: "", faults: false }
            }
            fn defaults(&self, _full: bool) -> ExperimentSpec {
                ExperimentSpec::default()
            }
            fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
                ctx.sink.write_text("before.txt", "written before the panic\n")?;
                panic!("deliberate test panic");
            }
        }
        let dir = temp_dir("panic");
        match supervise(&Panics, Panics.spec(false), quiet_sink(&dir)) {
            Err(RunError::Panicked { experiment, message }) => {
                assert_eq!(experiment, "panics");
                assert_eq!(message, "deliberate test panic");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        let doc = manifest(&dir);
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("aborted"));
        let names: Vec<&str> = doc
            .get("artifacts")
            .and_then(Value::as_array)
            .expect("artifact list")
            .iter()
            .filter_map(|a| a.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, ["before.txt"]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn watchdog_limits_are_checked_before_the_run_starts() {
        struct Noop;
        impl Experiment for Noop {
            fn about(&self) -> About {
                About { name: "noop", label: None, title: "does nothing", knobs: "", faults: false }
            }
            fn defaults(&self, _full: bool) -> ExperimentSpec {
                ExperimentSpec::default()
            }
            fn run(&self, _ctx: &mut RunContext) -> Result<(), RunError> {
                Ok(())
            }
        }
        let run = |key: &str, value: &str| {
            let mut spec = Noop.spec(false);
            spec.set(key, value).expect(key);
            let dir = temp_dir("limits");
            let result = supervise(&Noop, spec, quiet_sink(&dir)).map(|_| ());
            let wrote_manifest = dir.join("manifest.json").exists();
            let _ = std::fs::remove_dir_all(dir);
            (result, wrote_manifest)
        };
        for (key, value) in [("deadline_s", "0"), ("deadline_s", "inf"), ("max_rss_mb", "-5")] {
            match run(key, value) {
                (Err(RunError::BadSpec(msg)), false) => assert!(msg.contains(key), "{msg}"),
                other => panic!("{key}={value}: expected BadSpec and no manifest, got {other:?}"),
            }
        }
        // Beyond `Duration`'s range: a deadline that never fires, not a panic.
        assert!(matches!(run("deadline_s", "1e300"), (Ok(()), true)));
    }
}
