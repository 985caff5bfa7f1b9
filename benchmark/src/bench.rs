//! Running one workload: warm-up, timed repetitions, output check,
//! traced pass, probes — and turning what they measured into metrics.
//!
//! Every timed metric is the **median over repetitions** of that metric's
//! per-repetition value, and its spread is the inter-quartile range of the
//! same repetitions; nothing else is reported or compared. An end-to-end
//! time first loses the share the hypervisor stole from that repetition
//! and is then divided by how much slower than nominal the host ran the
//! reference kernel just before and after it (`calib`); the uncorrected
//! values are reported beside them as `raw.*`.

use crate::calib::{block_seconds, Reference};
use crate::expected::{self, Expected};
use crate::host;
use crate::pipeline::{netsim_spec, run_netsim};
use crate::probes::{self, HoldMix, RoutingProbe};
use crate::stats::{median, summarize, Summary};
use crate::sweep::{run_sweep, sweep_spec, SHELLS};
use crate::trace::Tracer;
use crate::workload::{Kind, NetsimDef, Outcome, Rep, Scale, Traffic, Workload};
use hypatia::experiments::hybrid::run_hybrid_point;
use hypatia::scenario::{ConstellationChoice, ScenarioBuilder};
use hypatia_constellation::ground::{gravity_pairs, top_cities};
use hypatia_constellation::NodeId;
use hypatia_fault::FaultSchedule;
use hypatia_netsim::{QueueKind, SimConfig, SimMode};
use hypatia_routing::forwarding::compute_forwarding_state;
use hypatia_util::time::TimeSteps;
use hypatia_util::{DataRate, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed repetitions of each kind after the discarded warm-up, at least.
pub const MIN_REPS: usize = 3;

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Full or smoke sizes.
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// Warm-up and timed repetitions together take this much wall time:
    /// the last repetition is the one after which another would not fit
    /// (but at least [`MIN_REPS`] of each kind are done).
    pub seconds: f64,
    /// Also run the traced pass and the layer probes.
    pub traced: bool,
    /// Artifacts, checkpoints and trace files go under here.
    pub out_root: PathBuf,
    /// Directory of pinned expectations.
    pub expected_dir: PathBuf,
}

/// What one workload produced.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// End-to-end samples by metric name, one per timed untraced
    /// repetition, times corrected for the host's speed around that
    /// repetition. The metric's value is their median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The exact end-to-end metrics (`model_err_*`).
    pub exact: BTreeMap<&'static str, f64>,
    /// Per-layer samples (traced pass): one per traced (or sharded)
    /// repetition for span metrics, counters and ratios, one for an
    /// isolated probe. The metric's value is their median; absent = the
    /// layer did no work.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Repetitions (of every kind) whose output was checked.
    pub attempted: u64,
    /// … of which failed the check (or errored).
    pub failed: u64,
    /// First few check failures, for the report.
    pub failures: Vec<String>,
    /// The deterministic outcome every repetition agreed on.
    pub outcome: Outcome,
    /// Was the outcome compared against a pinned expectation?
    pub pinned: bool,
}

impl WorkloadResult {
    /// Median and quartiles of an end-to-end metric's samples.
    pub fn summary(&self, metric: &str) -> Option<Summary> {
        self.samples.get(metric).and_then(|v| summarize(v))
    }

    /// Median and quartiles of a per-layer metric's samples.
    pub fn layer(&self, metric: &str) -> Option<Summary> {
        self.layers.get(metric).and_then(|v| summarize(v))
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(what);
        }
    }
}

fn run_rep(w: &Workload, spec_text: &str, out: &Path, tr: &mut Tracer) -> Result<Rep, String> {
    match &w.kind {
        Kind::Netsim(def) => run_netsim(w, def, spec_text, out, tr),
        Kind::Sweep(_) => run_sweep(spec_text, out, tr),
    }
}

fn spec_text(w: &Workload, seed: u64) -> String {
    match &w.kind {
        Kind::Netsim(def) => netsim_spec(w.name, def, seed).to_json_string(),
        Kind::Sweep(def) => sweep_spec(def, seed).to_json_string(),
    }
}

/// Structural sanity of an outcome, for seeds with nothing pinned.
fn plausible(w: &Workload, o: &Outcome) -> Result<(), String> {
    if !o.violations.is_empty() {
        return Err(format!("audit violations: {:?}", o.violations));
    }
    if o.artifacts.is_empty() {
        return Err("no artifacts written".into());
    }
    match &w.kind {
        Kind::Netsim(_) if o.events == 0 || o.delivered == 0 || o.goodput_bits == 0 => {
            Err(format!("nothing simulated: {o:?}"))
        }
        Kind::Sweep(_) if o.snapshots == 0 => Err("no snapshots computed".into()),
        _ => Ok(()),
    }
}

/// The per-repetition output check: the pinned expectation when one is
/// shipped, else the first repetition that passed.
struct Checker<'a> {
    w: &'a Workload,
    reference: Option<Outcome>,
    pinned: Option<Expected>,
}

impl Checker<'_> {
    /// Check one repetition's result, booking it in `res`; returns it
    /// when it passed.
    fn check(
        &mut self,
        res: &mut WorkloadResult,
        what: &str,
        rep: Result<Rep, String>,
    ) -> Option<Rep> {
        res.attempted += 1;
        let verdict = rep.and_then(|rep| {
            plausible(self.w, &rep.outcome)?;
            let want = self.pinned.as_ref().map(|e| &e.outcome).or(self.reference.as_ref());
            match want.and_then(|want| expected::diff(want, &rep.outcome)) {
                Some(d) => Err(d),
                None => Ok(rep),
            }
        });
        match verdict {
            Ok(rep) => {
                self.reference.get_or_insert_with(|| rep.outcome.clone());
                Some(rep)
            }
            Err(e) => {
                res.fail(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Shard count of the sharded-engine repetitions (`netsim.shard_speedup`).
const PROBE_SHARDS: usize = 2;

/// Run workload `w` under `cfg`.
pub fn run_workload(w: &Workload, cfg: &RunConfig) -> Result<WorkloadResult, String> {
    let mut res = WorkloadResult { name: w.name, ..WorkloadResult::default() };
    let text = spec_text(w, cfg.seed);
    let out = cfg.out_root.join(w.name);
    let pinned = expected::load(&cfg.expected_dir, cfg.scale, w.name, cfg.seed)?;
    res.pinned = pinned.is_some();
    let pinned_model_err = pinned.as_ref().and_then(|e| e.model_err);
    let mut checker = Checker { w, reference: None, pinned };

    host::release_free_memory();
    let started = Instant::now();
    let mut reference = Reference::new();
    // One repetition, then a block of the reference kernel as long as a
    // tenth of it; `None` when the repetition failed its check.
    let mut measure = |res: &mut WorkloadResult, what: &str, tr: &mut Tracer| {
        host::reset_peak_rss();
        let rep = run_rep(w, &text, &out, tr);
        let peak = host::peak_rss_mb();
        let rep = checker.check(res, what, rep);
        let after = reference.block(block_seconds(rep.as_ref().map_or(0.0, Rep::e2e_wall_s)));
        (rep.map(|rep| (rep, peak)), after)
    };
    // Warm-up: page in the binary, fill the allocator, discard the times.
    let (_, mut before) = measure(&mut res, "warm-up", &mut Tracer::off());

    // Untraced and traced repetitions take turns, so both see the same
    // stretches of host weather. Each is kept with how much slower than
    // nominal the host ran the blocks on either side of it.
    let mut untraced: Vec<(Rep, f64)> = Vec::new();
    let mut traced: Vec<(Rep, f64)> = Vec::new();
    let mut rss: Vec<f64> = Vec::new();
    let mut last_tracer: Option<Tracer> = None;
    loop {
        let round = Instant::now();
        let (rep, after) = measure(&mut res, "repetition", &mut Tracer::off());
        if let Some((rep, peak)) = rep {
            untraced.push((rep, (before + after) / 2.0));
            rss.extend(peak);
        }
        before = after;
        if cfg.traced {
            let mut tr = Tracer::on();
            let (rep, after) = measure(&mut res, "traced repetition", &mut tr);
            if let Some((rep, _)) = rep {
                for (name, v) in span_metrics(&tr, &rep) {
                    res.layers.entry(name).or_default().push(v);
                }
                traced.push((rep, (before + after) / 2.0));
                last_tracer = Some(tr);
            }
            before = after;
        }
        let enough = untraced.len() >= MIN_REPS && (!cfg.traced || traced.len() >= MIN_REPS);
        // Deterministic failures do not get better by repeating.
        let hopeless = res.failed > 0 && res.attempted >= 4 * MIN_REPS as u64;
        let another_fits = (started.elapsed() + round.elapsed()).as_secs_f64() <= cfg.seconds;
        if hopeless || (enough && !another_fits) {
            break;
        }
    }
    if untraced.is_empty() {
        return Ok(res);
    }
    res.outcome = checker.reference.clone().unwrap_or_default();

    // End to end: one sample per untraced repetition. Wall seconds are
    // those the host did not steal, at nominal host speed; CPU seconds
    // are at nominal host speed.
    let col = |f: &dyn Fn(&Rep, f64) -> f64| -> Vec<f64> {
        untraced.iter().map(|(r, slow)| f(r, *slow)).collect()
    };
    let nominal = |r: &Rep, slow: f64| r.unstolen() / slow;
    let work = |r: &Rep| (r.outcome.events + r.outcome.snapshots) as f64;
    let rate = match &w.kind {
        Kind::Netsim(_) => "events_per_s",
        Kind::Sweep(_) => "snapshots_per_s",
    };
    res.samples.insert("rtf", col(&|r, s| r.sim_s / (r.e2e_wall_s() * nominal(r, s))));
    res.samples.insert("e2e_wall_s", col(&|r, s| r.e2e_wall_s() * nominal(r, s)));
    res.samples.insert("setup_s", col(&|r, s| r.setup_s() * nominal(r, s)));
    res.samples.insert("run_cpu_s", col(&|r, s| r.run_cpu_s() / s));
    res.samples.insert(rate, col(&|r, s| work(r) / (r.run_wall_s() * nominal(r, s))));
    res.samples.insert("peak_rss_mb", rss);

    if cfg.traced {
        if let Some(tr) = &last_tracer {
            write_trace(&cfg.out_root, w.name, cfg.seed, tr)?;
        }
        // Traced ÷ untraced, neighbour by neighbour, each at its own
        // host speed.
        let overhead = traced.iter().zip(&untraced).map(|((t, ts), (u, us))| {
            (t.e2e_wall_s() * nominal(t, *ts)) / (u.e2e_wall_s() * nominal(u, *us)) - 1.0
        });
        res.layers.insert("trace_overhead_frac", overhead.collect());
        if res.outcome.events > 0 {
            let events = res.outcome.events as f64;
            res.layers.insert("netsim.ns_per_event", col(&|r, _| r.run_cpu_s() * 1e9 / events));
        }
        res.layers.insert(rate, res.samples[rate].clone());
        res.layers.insert("host.slowdown", col(&|_, s| s));
        res.layers.insert("host.steal_frac", col(&|r, _| 1.0 - r.unstolen()));
        res.layers.insert("raw.rtf", col(&|r, _| r.sim_s / r.e2e_wall_s()));
        res.layers.insert("raw.e2e_wall_s", col(&|r, _| r.e2e_wall_s()));
        res.layers.insert("raw.setup_s", col(&|r, _| r.setup_s()));
        res.layers.insert("raw.run_cpu_s", col(&|r, _| r.run_cpu_s()));
        if w.netsim().is_some_and(|def| def.resilience.is_some()) {
            let serial_run_s = median(&col(&|r, _| r.run_wall_s())).unwrap_or(f64::NAN);
            sharded_reps(w, cfg, &mut checker, serial_run_s, untraced.len(), &mut res);
        }
        run_probes(w, cfg, &mut res.layers);
        if let Some((g, j)) = model_error(w, cfg.seed) {
            if let Some(want) = pinned_model_err {
                res.attempted += 1;
                if want != (g, j) {
                    res.fail(format!("model error ({g}, {j}) != pinned {want:?}"));
                }
            }
            for (name, v) in [("model_err_goodput", g), ("model_err_jain", j)] {
                res.exact.insert(name, v);
                res.layers.insert(name, vec![v]);
            }
        }
    }
    Ok(res)
}

/// `tcp_resil` once more on the sharded engine, tracer off: as many
/// repetitions as the serial side got, within half its time. Each must
/// reproduce the serial outcome bit for bit. `netsim.shard_speedup` is the
/// serial side's median run phase (`serial_run_s`) ÷ each sharded one, so
/// its median is median ÷ median and its quartiles are the sharded
/// engine's spread.
///
/// These come after the serial repetitions, not between them, because the
/// shard threads' allocator arenas would show up in the serial side's
/// `peak_rss_mb`; and the workload itself stays on one shard because two
/// threads meeting at every epoch barrier of a shared 2-vCPU VM made its
/// `e2e_wall_s` spread 46 % between runs (`run_cpu_s` 22 %), beyond any
/// bound the acceptance contract allows.
fn sharded_reps(
    w: &Workload,
    cfg: &RunConfig,
    checker: &mut Checker,
    serial_run_s: f64,
    want: usize,
    res: &mut WorkloadResult,
) {
    let Some(def) = w.netsim() else { return };
    let sharded = Workload { kind: Kind::Netsim(NetsimDef { shards: PROBE_SHARDS, ..*def }), ..*w };
    let text = spec_text(&sharded, cfg.seed);
    let out = cfg.out_root.join(format!("{}.sharded", w.name));
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    for _ in 0..want {
        if reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= cfg.seconds / 2.0 {
            break;
        }
        let rep = run_rep(&sharded, &text, &out, &mut Tracer::off());
        reps.extend(checker.check(res, "sharded repetition", rep));
    }
    let _ = std::fs::remove_dir_all(&out);
    let col = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    for name in ["netsim.epochs", "netsim.barriers", "netsim.min_lookahead_ns"] {
        res.layers.insert(name, col(&|r| r.counters[name]));
    }
    res.layers.insert("netsim.shard_speedup", col(&|r| serial_run_s / r.run_wall_s()));
    res.layers
        .insert("netsim.epoch_us", col(&|r| r.run_wall_s() * 1e6 / r.counters["netsim.epochs"]));
}

fn write_trace(out_root: &Path, workload: &str, seed: u64, tr: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(out_root).map_err(|e| e.to_string())?;
    let path = out_root.join(format!("{workload}.trace.json"));
    let text = serde_json::to_string(&tr.to_json(workload, seed)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Per-layer metrics that come straight from the traced repetition: span
/// totals and the counters the pipeline read from the product.
fn span_metrics(tr: &Tracer, rep: &Rep) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    // (metric, span, tag, scale, mean-per-span instead of total)
    let rows: [(&'static str, &str, &str, f64, bool); 22] = [
        ("core.spec_parse_s", "core.spec_parse", "", 1.0, false),
        ("core.scenario_build_s", "core.scenario_build", "", 1.0, false),
        ("constellation.build_s.t1", "constellation.build", "t1", 1.0, false),
        ("constellation.build_s.k1", "constellation.build", "k1", 1.0, false),
        ("constellation.build_s.s1", "constellation.build", "s1", 1.0, false),
        ("constellation.gravity_pairs_s", "constellation.gravity_pairs", "", 1.0, false),
        ("fault.compile_s", "fault.compile", "", 1.0, false),
        ("fault.state_at_us", "fault.state_at", "", 1e6, true),
        ("routing.graph_snapshot_ms.t1", "routing.graph_snapshot", "t1", 1e3, true),
        ("routing.graph_snapshot_ms.k1", "routing.graph_snapshot", "k1", 1e3, true),
        ("routing.graph_snapshot_ms.s1", "routing.graph_snapshot", "s1", 1e3, true),
        ("routing.repair_ms.t1", "routing.repair", "t1", 1e3, true),
        ("routing.repair_ms.k1", "routing.repair", "k1", 1e3, true),
        ("routing.repair_ms.s1", "routing.repair", "s1", 1e3, true),
        ("netsim.sim_new_s", "netsim.sim_new", "", 1.0, false),
        ("netsim.install_s", "netsim.install", "", 1.0, false),
        ("netsim.run_s", "netsim.run", "", 1.0, false),
        ("netsim.ckpt_write_ms", "netsim.ckpt_write", "", 1e3, true),
        ("netsim.ckpt_restore_ms", "netsim.ckpt_restore", "", 1e3, true),
        ("netsim.audit_ms", "netsim.audit", "", 1e3, true),
        ("viz.sink_write_ms", "viz.sink_write", "", 1e3, false),
        ("viz.manifest_ms", "viz.manifest", "", 1e3, false),
    ];
    for (metric, span, tag, scale, mean) in rows {
        if tr.count(span, tag) > 0 {
            let v = if mean { tr.mean_s(span, tag) } else { tr.total_s(span, tag) };
            m.insert(metric, v * scale);
        }
    }
    m.insert("span_coverage", tr.coverage("rep"));
    for (&k, &v) in &rep.counters {
        if crate::metrics::per_layer(k).is_some() {
            m.insert(k, v);
        }
    }
    m
}

/// Record the probe's per-shell routing metrics as `<stem>.<tag>`.
/// `from_spans`: the traced pipeline already timed snapshot and repair
/// per snapshot (`route_sweep`), so only diff and full SSSP come from here.
fn put_routing(m: &mut BTreeMap<&'static str, f64>, tag: &str, p: &RoutingProbe, from_spans: bool) {
    let mut put = |stem: &str, v: f64| {
        if let Some(def) = crate::metrics::per_layer(&format!("{stem}.{tag}")) {
            m.insert(def.name, v);
        }
    };
    put("routing.diff_ms", p.diff_ms);
    put("routing.full_sssp_ms", p.full_sssp_ms);
    if !from_spans {
        put("routing.graph_snapshot_ms", p.graph_snapshot_ms);
        put("routing.repair_ms", p.repair_ms);
    }
}

/// The isolated layer probes relevant to `w`, one sample each.
fn run_probes(w: &Workload, cfg: &RunConfig, layers: &mut BTreeMap<&'static str, Vec<f64>>) {
    let smoke = cfg.scale == Scale::Smoke;
    let mut probed: BTreeMap<&'static str, f64> = BTreeMap::new();
    let m = &mut probed;
    let probe_steps = if smoke { 4 } else { 10 };
    match &w.kind {
        Kind::Sweep(def) => {
            let spec = sweep_spec(def, cfg.seed);
            let faults = spec.faults.clone().unwrap_or_default();
            let times: Vec<SimTime> =
                TimeSteps::new(SimTime::ZERO, SimTime::ZERO + spec.duration, spec.step)
                    .take(probe_steps)
                    .collect();
            let (mut churn, mut positions) = (0.0, 0.0);
            for (choice, tag) in SHELLS {
                let c = choice.build(top_cities(def.cities));
                let dests: Vec<NodeId> =
                    (0..c.num_ground_stations()).map(|i| c.gs_node(i)).collect();
                let schedule = FaultSchedule::compile(&faults, &c, spec.duration);
                let p = probes::routing_probe(
                    &c,
                    &dests,
                    &times,
                    Some(&schedule),
                    spec.routing_config(),
                );
                put_routing(m, tag, &p, true);
                churn += p.churn_frac_mean / SHELLS.len() as f64;
                positions += p.positions_ns_per_sat / SHELLS.len() as f64;
                if tag == "k1" {
                    // The K1 leg fanned out over every core vs one worker.
                    let all: Vec<SimTime> =
                        TimeSteps::new(SimTime::ZERO, SimTime::ZERO + spec.duration, spec.step)
                            .collect();
                    let routing = spec.routing_config();
                    let serial = probes::par_sweep(&c, &dests, &all, &schedule, routing, 1);
                    let par =
                        probes::par_sweep(&c, &dests, &all, &schedule, routing, host::cores());
                    if par > 0.0 {
                        m.insert("routing.par_speedup", serial / par);
                    }
                }
            }
            m.insert("routing.churn_frac_mean", churn);
            m.insert("orbit.positions_ns_per_sat", positions);
        }
        Kind::Netsim(def) => {
            let spec = netsim_spec(w.name, def, cfg.seed);
            let c = spec.constellation.build(spec.ground.stations());
            let dests: Vec<NodeId> = (0..c.num_ground_stations()).map(|i| c.gs_node(i)).collect();
            let schedule =
                spec.faults.as_ref().map(|f| FaultSchedule::compile(f, &c, spec.duration));
            let times: Vec<SimTime> =
                (0..probe_steps as u64).map(|k| SimTime::ZERO + spec.step * k).collect();
            let p =
                probes::routing_probe(&c, &dests, &times, schedule.as_ref(), spec.routing_config());
            put_routing(m, "k1", &p, false);
            m.insert("orbit.positions_ns_per_sat", p.positions_ns_per_sat);
            m.insert("routing.snapshots", p.stats.snapshots as f64);
            m.insert(
                "routing.repaired_frac",
                p.stats.repaired as f64 / p.stats.snapshots.max(1) as f64,
            );
            m.insert("routing.fallback_churn", p.stats.fallback_churn as f64);
            m.insert("routing.fallback_first", p.stats.fallback_first as f64);
            m.insert("routing.churn_frac_mean", p.churn_frac_mean);
            if schedule.is_some() {
                m.insert("fault.state_at_us", p.fault_state_at_us);
            }

            // Event queue, in isolation, at this workload's delays.
            let rate = DataRate::from_kbps(def.line_rate_kbps);
            let ops = if smoke { 20_000 } else { 200_000 };
            let packet = probes::hold_increments(cfg.seed, HoldMix::Packet, rate, 4099);
            let timer = probes::hold_increments(cfg.seed, HoldMix::Timer, rate, 4099);
            let big = if smoke { 20_000 } else { 1_000_000 };
            let cal = QueueKind::Calendar;
            m.insert("netsim.queue_hold_ns_1k", probes::queue_hold(cal, 1_000, &packet, ops));
            m.insert("netsim.queue_hold_ns_100k", probes::queue_hold(cal, big / 10, &packet, ops));
            m.insert("netsim.queue_hold_ns_1m", probes::queue_hold(cal, big, &packet, ops));
            m.insert("netsim.queue_timer_ns", probes::queue_hold(cal, big / 10, &timer, ops));
            m.insert(
                "netsim.queue_hold_ns_100k_heap",
                probes::queue_hold(QueueKind::Heap, big / 10, &packet, ops),
            );
            m.insert(
                "netsim.queue_timer_ns_heap",
                probes::queue_hold(QueueKind::Heap, big / 10, &timer, ops),
            );

            if w.is_tcp() {
                let horizon = SimDuration::from_secs(if smoke { 3 } else { 30 });
                let lb = probes::tcp_loopback(rate, horizon);
                m.insert("transport.loopback_ns_per_seg", lb.ns_per_seg);
            }
            if let Traffic::HybridBulk { flows, rate_kbps } = def.traffic {
                let pairs = gravity_pairs(def.cities, flows as usize, cfg.seed);
                let fwd = compute_forwarding_state(&c, SimTime::ZERO, &dests);
                let fp = probes::fluid_probe(
                    &c,
                    &fwd,
                    &pairs,
                    rate,
                    DataRate::from_kbps(rate_kbps),
                    SimTime::ZERO + spec.duration,
                    if smoke { 3 } else { 10 },
                );
                m.insert("netsim.fluid_resolve_ms", fp.resolve_ms);
                m.insert("netsim.fluid_add_flow_s", fp.add_flow_s);
            }
        }
    }
    layers.extend(probed.into_iter().map(|(name, v)| (name, vec![v])));
}

/// The matched instance `model_err_*` compare hybrid and packet mode on:
/// a tenth of the workload's flows at the workload's per-flow rate, with
/// links fast enough and queues deep enough that the packet reference
/// drops nothing (the sources all start in phase, so a city's flows
/// arrive as one burst; the product's own differential test says the
/// comparison only means something without drops), for long enough that
/// the bytes still in flight at the horizon are about half a percent.
const MODEL_ERR_LINE_KBPS: u64 = 1_000_000;
const MODEL_ERR_QUEUE_PACKETS: usize = 1_000;
const MODEL_ERR_DURATION_MS: u64 = 2_000;

/// `hybrid_100k` only: |hybrid − packet| / packet goodput and the Jain
/// index difference, both from the product's `run_hybrid_point` on the
/// matched instance. Deterministic.
pub fn model_error(w: &Workload, seed: u64) -> Option<(f64, f64)> {
    let def = w.netsim()?;
    let Traffic::HybridBulk { flows, rate_kbps } = def.traffic else { return None };
    let sim_config = SimConfig::default()
        .with_link_rate(DataRate::from_kbps(MODEL_ERR_LINE_KBPS))
        .with_queue_packets(MODEL_ERR_QUEUE_PACKETS);
    let scenario = ScenarioBuilder::new(ConstellationChoice::KuiperK1)
        .top_cities(def.cities)
        .sim_config(sim_config)
        .build();
    let point = |mode: SimMode| {
        run_hybrid_point(
            &scenario,
            flows / 10,
            mode,
            DataRate::from_kbps(rate_kbps),
            DataRate::from_kbps(0),
            SimDuration::from_millis(MODEL_ERR_DURATION_MS),
            seed,
        )
    };
    let (packet, hybrid) = (point(SimMode::Packet), point(SimMode::Hybrid));
    Some((
        (hybrid.goodput_gbps - packet.goodput_gbps).abs() / packet.goodput_gbps,
        (hybrid.jain - packet.jain).abs(),
    ))
}
