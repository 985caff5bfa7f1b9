//! Artifact sinks: every experiment output goes through one recorder.
//!
//! An [`ArtifactSink`] owns the output directory, writes gnuplot series /
//! JSON documents / CZML / plain text through the shared [`crate::csv`]
//! and [`crate::czml`] formatters, and records every produced file —
//! name, size, and checksum — so a run can finish by emitting a
//! `manifest.json` that states exactly what it produced. Byte checksums
//! make regression tests one-line: two runs match iff their manifests do.

// The sink is a crash-resilience surface: a panic while writing artifacts
// loses the run. Errors must flow out as typed values, never unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::csv;
use hypatia_constellation::EphemerisStats;
use hypatia_netsim::audit::AuditViolation;
use hypatia_netsim::{EngineReport, FluidSolve, FluidStats, PhaseTimes, QueueStats};
use hypatia_routing::incremental::{RepairStats, RouterStats};
use hypatia_util::json::{self, json, Value};
use std::io;
use std::path::{Path, PathBuf};

/// One produced file, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactRecord {
    /// File name relative to the sink's output directory.
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// FNV-1a 64-bit checksum of the file contents.
    pub fnv64: u64,
}

/// Aggregated engine telemetry across a run's simulations.
#[derive(Debug, Clone, Copy, Default)]
struct EngineAggregate {
    epochs: u64,
    /// Merged over every recorded report.
    queue: QueueStats,
    /// Present once a recorded report's fluid solver re-solved.
    fluid: Option<FluidStats>,
    /// Summed over every recorded report.
    ephemeris: EphemerisStats,
    /// Summed over every recorded report.
    phases: PhaseTimes,
    /// Summed over every recorded report.
    routing: (RouterStats, RepairStats),
}

/// Records and writes experiment artifacts under one output directory.
#[derive(Debug)]
pub struct ArtifactSink {
    out_dir: PathBuf,
    records: Vec<ArtifactRecord>,
    warnings: Vec<String>,
    /// Simulated events accumulated across the run's simulations.
    sim_events: u64,
    /// Wall-clock seconds those simulations took.
    sim_wall_s: f64,
    /// Engine telemetry (present once any simulation reported it).
    engine: Option<EngineAggregate>,
    /// `Some((status, error))` once the supervisor marks the run aborted.
    status: Option<(String, String)>,
    /// Snapshot writes recorded via [`ArtifactSink::record_checkpoints`].
    checkpoint_count: u64,
    /// Freshest snapshot path (relative to `out_dir` when inside it).
    last_checkpoint: Option<String>,
    /// Conservation audits recorded via [`ArtifactSink::record_audit`].
    audit_checks: u64,
    /// Violations those audits found, pre-serialized.
    audit_violations: Vec<Value>,
    /// Echo `wrote <path>` lines to stdout, as `run_experiment` does;
    /// disable for tests.
    pub verbose: bool,
}

impl ArtifactSink {
    /// A sink writing into `out_dir` (created on first write).
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        ArtifactSink {
            out_dir: out_dir.into(),
            records: Vec::new(),
            warnings: Vec::new(),
            sim_events: 0,
            sim_wall_s: 0.0,
            engine: None,
            status: None,
            checkpoint_count: 0,
            last_checkpoint: None,
            audit_checks: 0,
            audit_violations: Vec::new(),
            verbose: true,
        }
    }

    /// Account a simulation's event count and wall-clock cost towards the
    /// run's events/sec line (summed across calls; the manifest reports
    /// the aggregate rate).
    pub fn record_sim(&mut self, events: u64, wall_s: f64) {
        self.sim_events += events;
        self.sim_wall_s += wall_s;
    }

    /// Total simulated events recorded via [`ArtifactSink::record_sim`].
    pub fn sim_events(&self) -> u64 {
        self.sim_events
    }

    /// Account how the simulator engine executed a run, summed across
    /// calls (a run may simulate several workloads) into the manifest's
    /// `perf.engine` block: the window count; the ephemeris counts
    /// (`report.ephemeris`: satellite windows sampled, link fits and
    /// rejected ones, interpolated and guard-band delays) as
    /// `perf.engine.ephemeris`; the wall-clock phase timers
    /// (`report.phases`) as `perf.engine.phases`; the forwarding-step
    /// counts (`report.routing`: snapshots full vs. repaired and why, and
    /// what the repairs did) as `perf.engine.routing`; the event-queue
    /// telemetry (`report.queue`: inserts per tier, cascades and refills
    /// sum, the pending, pool, run and slab peaks are the largest seen) as
    /// `perf.engine.queue`; and, once any simulation re-solved fluid
    /// rates, the fluid-solver telemetry (`report.fluid`: re-solve and
    /// work counts sum, the last-solve block is the most recent
    /// simulation's that solved at all) as `perf.engine.fluid`. Every
    /// count restarts at a resume, and the routing counts also depend on
    /// which snapshot each router last saw: like `events_per_sec` and the
    /// phase timers, none of the block is part of what a resumed run must
    /// agree on.
    pub fn record_engine(&mut self, report: &EngineReport) {
        let e = self.engine.get_or_insert_with(EngineAggregate::default);
        e.epochs += report.epochs;
        e.queue.merge(&report.queue);
        if report.fluid.resolves > 0 {
            e.fluid.get_or_insert_with(FluidStats::default).merge(&report.fluid);
        }
        e.ephemeris.merge(&report.ephemeris);
        e.phases.build_ns += report.phases.build_ns;
        e.phases.globals_ns += report.phases.globals_ns;
        e.phases.window_ns += report.phases.window_ns;
        e.phases.lookahead_wait_ns += report.phases.lookahead_wait_ns;
        e.routing.0.merge(&report.routing.0);
        e.routing.1.merge(&report.routing.1);
    }

    /// Mark the run aborted with a one-line reason; the manifest gains
    /// `"status": "aborted"` and an `error` line.
    pub fn set_aborted(&mut self, error: &str) {
        self.status = Some(("aborted".to_string(), error.to_string()));
    }

    /// Account `count` more snapshot writes, freshest at `path`; the
    /// manifest gains a `checkpoints` section once any were recorded.
    pub fn record_checkpoints(&mut self, count: u64, path: &Path) {
        self.checkpoint_count += count;
        self.set_last_checkpoint(path);
    }

    /// Point the manifest at the freshest on-disk snapshot (shown relative
    /// to the output directory when inside it).
    pub fn set_last_checkpoint(&mut self, path: &Path) {
        let shown = path.strip_prefix(&self.out_dir).unwrap_or(path);
        self.last_checkpoint = Some(shown.to_string_lossy().into_owned());
    }

    /// Account `checks` conservation audits and any violations they found;
    /// the manifest gains an `audit` section once any audit ran.
    pub fn record_audit(&mut self, checks: u64, violations: &[AuditViolation]) {
        self.audit_checks += checks;
        for v in violations {
            self.audit_violations.push(json!({
                "kind": v.kind(),
                "t_ns": v.t_ns(),
                "detail": v.to_string(),
            }));
        }
    }

    /// The output directory.
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// Everything written so far, in write order.
    pub fn records(&self) -> &[ArtifactRecord] {
        &self.records
    }

    /// Warnings accumulated (e.g. truncated traces), in order.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Attach a warning to the run (also printed immediately).
    pub fn warn(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("  warning: {message}");
        self.warnings.push(message);
    }

    /// Write a two-column gnuplot series (`# header` + `x y` lines).
    pub fn write_series(
        &mut self,
        name: &str,
        header: &str,
        points: &[(f64, f64)],
    ) -> io::Result<()> {
        self.write_bytes(name, csv::series_to_string(header, points).as_bytes())
    }

    /// Write pre-formatted text.
    pub fn write_text(&mut self, name: &str, content: &str) -> io::Result<()> {
        self.write_bytes(name, content.as_bytes())
    }

    /// Write a JSON document, pretty-printed.
    pub fn write_json(&mut self, name: &str, value: &Value) -> io::Result<()> {
        self.write_bytes(name, json::to_string_pretty(value).as_bytes())
    }

    /// Write a CZML document (a packet array).
    pub fn write_czml(&mut self, name: &str, packets: Vec<Value>) -> io::Result<()> {
        self.write_json(name, &Value::Array(packets))
    }

    /// Write raw bytes under `name`, recording size and checksum.
    pub fn write_bytes(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, bytes)?;
        if self.verbose {
            println!("  wrote {}", path.display());
        }
        self.records.push(ArtifactRecord {
            name: name.to_string(),
            bytes: bytes.len() as u64,
            fnv64: fnv1a_64(bytes),
        });
        Ok(())
    }

    /// The manifest document: experiment name, artifact list (name, size,
    /// checksum), warnings, and — when any simulation was accounted via
    /// [`ArtifactSink::record_sim`] — a `perf` section. Deterministic for
    /// identical artifact bytes, except the `events_per_sec` line, which is
    /// wall-clock; manifest-comparing tests strip that one line.
    pub fn manifest(&self, experiment: &str) -> Value {
        let artifacts: Vec<Value> = self
            .records
            .iter()
            .map(|r| {
                json!({
                    "name": r.name,
                    "bytes": r.bytes,
                    "fnv64": format!("{:016x}", r.fnv64),
                })
            })
            .collect();
        let warnings: Vec<Value> = self.warnings.iter().map(|w| Value::from(w.clone())).collect();
        let mut doc = json!({
            "experiment": experiment,
            "artifacts": Value::from(artifacts),
            "warnings": Value::from(warnings),
        });
        if self.sim_events > 0 {
            let rate = if self.sim_wall_s > 0.0 {
                (self.sim_events as f64 / self.sim_wall_s).round() as u64
            } else {
                0
            };
            let mut perf = json!({
                "events": self.sim_events,
                "events_per_sec": rate,
            });
            if let Some(e) = &self.engine {
                let q = &e.queue;
                let mut engine = json!({
                    "epochs": e.epochs,
                    "ephemeris": {
                        "fits": e.ephemeris.fits,
                        "link_fits": e.ephemeris.link_fits,
                        "rejected_fits": e.ephemeris.rejected_fits,
                        "interpolated": e.ephemeris.interpolated,
                        "exact_guard": e.ephemeris.exact_guard,
                    },
                    "phases": {
                        "build_ns": e.phases.build_ns,
                        "globals_ns": e.phases.globals_ns,
                        "window_ns": e.phases.window_ns,
                        "lookahead_wait_ns": e.phases.lookahead_wait_ns,
                    },
                    "routing": routing_json(&e.routing),
                    "queue": {
                        "level1_inserts": q.level1_inserts,
                        "level2_inserts": q.level2_inserts,
                        "far_inserts": q.far_inserts,
                        "cascaded": q.cascaded,
                        "peak_pending": q.peak_pending,
                        "pool_peak": q.pool_peak,
                        "refills": q.refills,
                        "peak_run": q.peak_run,
                        "late_inserts": q.late_inserts,
                        "slab_peak": q.slab_peak,
                    },
                });
                if let (Some(f), Some(obj)) = (&e.fluid, engine.as_object_mut()) {
                    let mut fluid = fluid_solve_json(&f.total);
                    insert(&mut fluid, "resolves", Value::from(f.resolves));
                    insert(&mut fluid, "last", fluid_solve_json(&f.last));
                    obj.insert("fluid".to_string(), fluid);
                }
                if let Some(obj) = perf.as_object_mut() {
                    obj.insert("engine".to_string(), engine);
                }
            }
            insert(&mut doc, "perf", perf);
        }
        if self.checkpoint_count > 0 || self.last_checkpoint.is_some() {
            let mut ck = json!({ "count": self.checkpoint_count });
            if let (Some(last), Some(obj)) = (&self.last_checkpoint, ck.as_object_mut()) {
                obj.insert("last".to_string(), Value::from(last.clone()));
            }
            insert(&mut doc, "checkpoints", ck);
        }
        if self.audit_checks > 0 {
            let audit = json!({
                "checks": self.audit_checks,
                "violations": Value::from(self.audit_violations.clone()),
            });
            insert(&mut doc, "audit", audit);
        }
        if let Some((status, error)) = &self.status {
            insert(&mut doc, "status", Value::from(status.clone()));
            insert(&mut doc, "error", Value::from(error.clone()));
        }
        doc
    }

    /// Write `manifest.json` describing everything produced so far.
    /// Returns the manifest path.
    pub fn write_manifest(&mut self, experiment: &str) -> io::Result<PathBuf> {
        let text = json::to_string_pretty(&self.manifest(experiment));
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join("manifest.json");
        std::fs::write(&path, text)?;
        if self.verbose {
            println!("  wrote {}", path.display());
        }
        Ok(path)
    }
}

/// Insert a key into a JSON object value (no-op on non-objects; every
/// caller passes the manifest document, which is one).
fn insert(doc: &mut Value, key: &str, value: Value) {
    if let Some(obj) = doc.as_object_mut() {
        obj.insert(key.to_string(), value);
    }
}

/// The work counts of one fluid re-solve (or a sum of them).
fn fluid_solve_json(s: &FluidSolve) -> Value {
    json!({
        "rounds": s.rounds,
        "active_bundles": s.active_bundles,
        "links_loaded": s.links_loaded,
        "hops_walked": s.hops_walked,
        "paths_reused": s.paths_reused,
        "residual_updates": s.residual_updates,
        "residual_pushes": s.residual_pushes,
    })
}

/// How forwarding states were produced, and what the repairs did.
fn routing_json((router, repair): &(RouterStats, RepairStats)) -> Value {
    json!({
        "snapshots": router.snapshots,
        "repaired": router.repaired,
        "full_mode": router.full_mode,
        "fallback_first": router.fallback_first,
        "fallback_churn": router.fallback_churn,
        "fallback_zero_delay": router.fallback_zero_delay,
        "repair": {
            "trees": repair.trees,
            "retensed": repair.retensed,
            "rescanned": repair.rescanned,
            "slot_misses": repair.slot_misses,
            "certified": repair.certified,
        },
    })
}

// Checksum function, re-exported from `hypatia_util` where the simulator's
// per-flow hashing shares it (one FNV implementation repo-wide).
pub use hypatia_util::hash::fnv1a_64;

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_sink(tag: &str) -> ArtifactSink {
        let dir = std::env::temp_dir().join(format!("hypatia-sink-test-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = ArtifactSink::new(dir);
        sink.verbose = false;
        sink
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn series_written_and_recorded() {
        let mut sink = temp_sink("series");
        sink.write_series("s.dat", "t_s y", &[(0.0, 1.0), (0.1, 2.0)]).unwrap();
        assert_eq!(sink.records().len(), 1);
        let rec = &sink.records()[0];
        assert_eq!(rec.name, "s.dat");
        let on_disk = std::fs::read(sink.out_dir().join("s.dat")).unwrap();
        assert_eq!(rec.bytes, on_disk.len() as u64);
        assert_eq!(rec.fnv64, fnv1a_64(&on_disk));
        assert_eq!(String::from_utf8(on_disk).unwrap(), "# t_s y\n0 1\n0.1 2\n");
        std::fs::remove_dir_all(sink.out_dir()).ok();
    }

    #[test]
    fn manifest_lists_artifacts_and_warnings() {
        let mut sink = temp_sink("manifest");
        sink.write_text("a.txt", "hello").unwrap();
        sink.warnings.push("something partial".into());
        let path = sink.write_manifest("my_experiment").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("my_experiment"), "{text}");
        assert!(text.contains("a.txt"), "{text}");
        assert!(text.contains("something partial"), "{text}");
        let doc = json::from_str(&text).unwrap();
        assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("my_experiment"));
        let arts = doc.get("artifacts").and_then(Value::as_array).unwrap();
        assert_eq!(arts.len(), 1);
        assert_eq!(arts[0].get("bytes").and_then(Value::as_u64), Some(5));
        std::fs::remove_dir_all(sink.out_dir()).ok();
    }

    #[test]
    fn perf_section_appears_only_when_sims_recorded() {
        let mut sink = temp_sink("perf");
        sink.write_text("a.txt", "x").unwrap();
        assert!(sink.manifest("e").get("perf").is_none(), "no perf without record_sim");
        sink.record_sim(1000, 0.5);
        sink.record_sim(500, 0.5);
        let doc = sink.manifest("e");
        let perf = doc.get("perf").expect("perf section after record_sim");
        assert_eq!(perf.get("events").and_then(Value::as_u64), Some(1500));
        assert_eq!(perf.get("events_per_sec").and_then(Value::as_u64), Some(1500));
        assert_eq!(sink.sim_events(), 1500);
        std::fs::remove_dir_all(sink.out_dir()).ok();
    }

    #[test]
    fn engine_block_sums_reports() {
        let mut sink = temp_sink("engine");
        sink.record_sim(1000, 0.5);
        assert!(
            sink.manifest("e").get("perf").unwrap().get("engine").is_none(),
            "no engine block without record_engine"
        );
        let ephemeris = EphemerisStats {
            fits: 90,
            link_fits: 120,
            rejected_fits: 1,
            interpolated: 4000,
            exact_guard: 9,
        };
        let phases =
            PhaseTimes { build_ns: 40, globals_ns: 10, window_ns: 300, lookahead_wait_ns: 3 };
        let routing = (
            RouterStats { snapshots: 8, repaired: 7, fallback_first: 1, ..Default::default() },
            RepairStats { trees: 70, retensed: 12, rescanned: 50, slot_misses: 3, certified: 900 },
        );
        let queue = QueueStats {
            level1_inserts: 100,
            level2_inserts: 10,
            far_inserts: 1,
            cascaded: 8,
            peak_pending: 40,
            refills: 30,
            peak_run: 12,
            late_inserts: 5,
            slab_peak: 9,
            pool_peak: 48,
        };
        let report = EngineReport {
            epochs: 10,
            barriers: 0,
            min_lookahead_ns: None,
            queue,
            fluid: FluidStats::default(),
            ephemeris,
            phases,
            routing,
        };
        sink.record_engine(&report);
        let queue =
            QueueStats { peak_pending: 25, peak_run: 17, slab_peak: 7, pool_peak: 64, ..queue };
        sink.record_engine(&EngineReport { epochs: 5, queue, ..report });
        let doc = sink.manifest("e");
        let engine = doc.get("perf").unwrap().get("engine").expect("engine block");
        assert_eq!(engine.get("epochs").and_then(Value::as_u64), Some(15));
        for retired in ["sim_shards", "barriers", "min_lookahead_ns"] {
            assert!(engine.get(retired).is_none(), "{retired} is not reported");
        }
        assert!(engine.get("fluid").is_none(), "no fluid block before a re-solve");
        // Ephemeris counts ride along with every report and sum.
        let eph = engine.get("ephemeris").expect("ephemeris block");
        assert_eq!(eph.get("fits").and_then(Value::as_u64), Some(180));
        assert_eq!(eph.get("link_fits").and_then(Value::as_u64), Some(240));
        assert_eq!(eph.get("rejected_fits").and_then(Value::as_u64), Some(2));
        assert_eq!(eph.get("interpolated").and_then(Value::as_u64), Some(8000));
        assert_eq!(eph.get("exact_guard").and_then(Value::as_u64), Some(18));
        // As do the phase timers.
        let phases = engine.get("phases").expect("phases block");
        assert_eq!(phases.get("build_ns").and_then(Value::as_u64), Some(80));
        assert_eq!(phases.get("globals_ns").and_then(Value::as_u64), Some(20));
        assert_eq!(phases.get("window_ns").and_then(Value::as_u64), Some(600));
        assert_eq!(phases.get("lookahead_wait_ns").and_then(Value::as_u64), Some(6));
        for retired in ["busy_ns", "exchange_ns"] {
            assert!(phases.get(retired).is_none(), "{retired} is not reported");
        }
        // So do the routing counts, the repair kernel's nested under them.
        let routing = engine.get("routing").expect("routing block");
        assert_eq!(routing.get("snapshots").and_then(Value::as_u64), Some(16));
        assert_eq!(routing.get("repaired").and_then(Value::as_u64), Some(14));
        assert_eq!(routing.get("fallback_first").and_then(Value::as_u64), Some(2));
        let repair = routing.get("repair").expect("repair block");
        assert_eq!(repair.get("trees").and_then(Value::as_u64), Some(140));
        assert_eq!(repair.get("retensed").and_then(Value::as_u64), Some(24));
        assert_eq!(repair.get("rescanned").and_then(Value::as_u64), Some(100));
        assert_eq!(repair.get("slot_misses").and_then(Value::as_u64), Some(6));
        assert_eq!(repair.get("certified").and_then(Value::as_u64), Some(1800));
        // Queue counts sum, the peaks are maxima.
        let queue = engine.get("queue").expect("queue block");
        assert_eq!(queue.get("level1_inserts").and_then(Value::as_u64), Some(200));
        assert_eq!(queue.get("level2_inserts").and_then(Value::as_u64), Some(20));
        assert_eq!(queue.get("far_inserts").and_then(Value::as_u64), Some(2));
        assert_eq!(queue.get("cascaded").and_then(Value::as_u64), Some(16));
        assert_eq!(queue.get("peak_pending").and_then(Value::as_u64), Some(40));
        assert_eq!(queue.get("pool_peak").and_then(Value::as_u64), Some(64));
        assert_eq!(queue.get("refills").and_then(Value::as_u64), Some(60));
        assert_eq!(queue.get("peak_run").and_then(Value::as_u64), Some(17));
        assert_eq!(queue.get("late_inserts").and_then(Value::as_u64), Some(10));
        assert_eq!(queue.get("slab_peak").and_then(Value::as_u64), Some(9));

        // Fluid-solver telemetry appears once a report re-solved: totals
        // sum, `last` is the most recent simulation's that solved at all.
        let solve = FluidSolve {
            rounds: 3,
            active_bundles: 20,
            links_loaded: 9,
            hops_walked: 120,
            paths_reused: 5,
            residual_updates: 40,
            residual_pushes: 4,
        };
        let later = FluidSolve { rounds: 1, ..solve };
        for fluid in [
            FluidStats { resolves: 2, total: solve, last: solve },
            FluidStats { resolves: 1, total: later, last: later },
            FluidStats::default(),
        ] {
            sink.record_engine(&EngineReport { fluid, ..report });
        }
        let doc = sink.manifest("e");
        let fluid = doc.get("perf").unwrap().get("engine").unwrap().get("fluid").expect("fluid");
        assert_eq!(fluid.get("resolves").and_then(Value::as_u64), Some(3));
        assert_eq!(fluid.get("rounds").and_then(Value::as_u64), Some(4));
        assert_eq!(fluid.get("hops_walked").and_then(Value::as_u64), Some(240));
        assert_eq!(fluid.get("paths_reused").and_then(Value::as_u64), Some(10));
        assert_eq!(fluid.get("residual_updates").and_then(Value::as_u64), Some(80));
        assert_eq!(fluid.get("residual_pushes").and_then(Value::as_u64), Some(8));
        let last = fluid.get("last").expect("last-solve block");
        assert_eq!(last.get("rounds").and_then(Value::as_u64), Some(1));
        assert_eq!(last.get("links_loaded").and_then(Value::as_u64), Some(9));
        assert_eq!(last.get("paths_reused").and_then(Value::as_u64), Some(5));
        std::fs::remove_dir_all(sink.out_dir()).ok();
    }

    #[test]
    fn resilience_sections_appear_only_when_recorded() {
        let mut sink = temp_sink("resilience");
        sink.write_text("a.txt", "x").unwrap();
        let doc = sink.manifest("e");
        assert!(doc.get("checkpoints").is_none(), "no checkpoints section by default");
        assert!(doc.get("audit").is_none(), "no audit section by default");
        assert!(doc.get("status").is_none(), "no status on a healthy run");

        let snap = sink.out_dir().join("checkpoints").join("tcp_10mbps.snap");
        sink.record_checkpoints(3, &snap);
        let violation = AuditViolation::QueueOverCapacity {
            t_ns: 42,
            node: 1,
            device: 2,
            queue_len: 101,
            capacity: 100,
        };
        sink.record_audit(5, std::slice::from_ref(&violation));
        sink.record_audit(2, &[]);
        sink.set_aborted("deadline exceeded: 9.0 s elapsed, limit 5.0 s");

        let doc = sink.manifest("e");
        let ck = doc.get("checkpoints").expect("checkpoints section");
        assert_eq!(ck.get("count").and_then(Value::as_u64), Some(3));
        assert_eq!(
            ck.get("last").and_then(Value::as_str),
            Some("checkpoints/tcp_10mbps.snap"),
            "snapshot path is relative to the output directory"
        );
        let audit = doc.get("audit").expect("audit section");
        assert_eq!(audit.get("checks").and_then(Value::as_u64), Some(7));
        let violations = audit.get("violations").and_then(Value::as_array).expect("array");
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].get("kind").and_then(Value::as_str), Some("queue_over_capacity"));
        assert_eq!(violations[0].get("t_ns").and_then(Value::as_u64), Some(42));
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("aborted"));
        assert!(
            doc.get("error").and_then(Value::as_str).unwrap_or("").contains("deadline"),
            "{doc:?}"
        );
        std::fs::remove_dir_all(sink.out_dir()).ok();
    }

    #[test]
    fn identical_content_gives_identical_manifest() {
        let mut a = temp_sink("det-a");
        let mut b = temp_sink("det-b");
        for sink in [&mut a, &mut b] {
            sink.write_series("x.dat", "h", &[(1.0, 2.0)]).unwrap();
            sink.write_text("y.txt", "same").unwrap();
        }
        assert_eq!(
            json::to_string_pretty(&a.manifest("e")),
            json::to_string_pretty(&b.manifest("e"))
        );
        std::fs::remove_dir_all(a.out_dir()).ok();
        std::fs::remove_dir_all(b.out_dir()).ok();
    }
}
