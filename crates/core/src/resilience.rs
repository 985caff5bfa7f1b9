//! Crash resilience: the segmented simulation drive loop.
//!
//! Long experiment runs die — OOM kills, wall-clock limits, power loss.
//! This module is the one place a netsim-backed experiment advances its
//! simulator: every experiment hands its simulator to [`SimRun::drive`],
//! which times [`drive`]. That loop runs the simulation to its horizon in
//! checkpoint-interval segments, writing a restartable snapshot at every
//! boundary, optionally running conservation audits, and honouring the
//! supervisor's [`Watchdog`] deadline and
//! memory budget. A later run of the same spec with `resume_from` set
//! restores the snapshot and replays only the tail — byte-identically,
//! because the simulator's checkpoint format captures the full
//! deterministic state (see `hypatia_netsim::checkpoint`).
//!
//! Checkpointing, auditing, and watchdog checks never alter simulation
//! behaviour: a driven run produces exactly the artifacts of a plain
//! `run_until` to the same horizon.

use crate::runner::{RunError, Watchdog};
use hypatia_netsim::audit::AuditViolation;
use hypatia_netsim::{EngineReport, Simulator};
use hypatia_util::{SimDuration, SimTime};
use hypatia_viz::sink::ArtifactSink;
use std::path::PathBuf;
use std::time::Instant;

/// How [`drive`] segments a simulation run.
#[derive(Debug, Clone, Default)]
pub struct DriveOptions {
    /// Snapshot interval in simulated time (None: no checkpoints, one
    /// segment to the horizon).
    pub checkpoint_every: Option<SimDuration>,
    /// Where snapshots go (`<out_dir>/checkpoints`); required when
    /// `checkpoint_every` is set.
    pub checkpoint_dir: Option<PathBuf>,
    /// Directory holding a previous run's snapshots: a simulation whose
    /// tagged snapshot exists there restores it before running.
    pub resume_from: Option<PathBuf>,
    /// Run conservation audits at every segment boundary.
    pub audit: bool,
}

impl DriveOptions {
    /// No checkpoints, no resume, no audits: plain `run_until`.
    pub fn off() -> Self {
        DriveOptions::default()
    }
}

/// What one [`drive`] call did beyond simulating.
#[derive(Debug, Clone, Default)]
pub struct DriveOutcome {
    /// Simulated time a snapshot was restored at (None: started fresh).
    pub resumed_at: Option<SimTime>,
    /// Snapshot writes performed, in order (all to the same tagged path).
    pub checkpoints: u64,
    /// The snapshot path, when any checkpoint was written.
    pub last_checkpoint: Option<PathBuf>,
    /// Wall-clock seconds spent writing snapshots (checkpoint overhead).
    pub checkpoint_wall_s: f64,
    /// Conservation audits performed.
    pub audit_checks: u64,
    /// Violations found by those audits (empty on a healthy run).
    pub violations: Vec<AuditViolation>,
}

/// Advance `sim` to `stop` in checkpoint-interval segments.
///
/// `tag` names this simulation's snapshot file (`<tag>.snap`) inside the
/// checkpoint directory; it must be deterministic for the spec so a
/// resumed run finds the snapshot its predecessor wrote. The watchdog is
/// consulted at every segment boundary, turning deadline and memory
/// overruns into typed errors while the freshest snapshot is already on
/// disk.
pub fn drive(
    sim: &mut Simulator,
    stop: SimTime,
    tag: &str,
    opts: &DriveOptions,
    watchdog: &Watchdog,
) -> Result<DriveOutcome, RunError> {
    let mut out = DriveOutcome::default();

    if let Some(dir) = &opts.resume_from {
        let snap = dir.join(format!("{tag}.snap"));
        if snap.exists() {
            sim.restore_from(&snap).map_err(|e| {
                RunError::Checkpoint(format!("cannot resume from {}: {e}", snap.display()))
            })?;
            out.resumed_at = Some(sim.now());
        }
    }

    let snap_path = match (&opts.checkpoint_every, &opts.checkpoint_dir) {
        (Some(_), Some(dir)) => {
            std::fs::create_dir_all(dir)?;
            Some(dir.join(format!("{tag}.snap")))
        }
        (Some(_), None) => {
            return Err(RunError::Checkpoint(
                "checkpoint interval set but no checkpoint directory".into(),
            ))
        }
        (None, _) => None,
    };

    loop {
        let next = match opts.checkpoint_every {
            Some(every) => (sim.now() + every).min(stop),
            None => stop,
        };
        sim.run_until(next);
        if opts.audit {
            out.audit_checks += 1;
            out.violations.extend(sim.audit());
        }
        if next >= stop {
            break;
        }
        if let Some(snap) = &snap_path {
            let t0 = Instant::now();
            sim.checkpoint_to(snap).map_err(|e| {
                RunError::Checkpoint(format!("cannot checkpoint to {}: {e}", snap.display()))
            })?;
            out.checkpoint_wall_s += t0.elapsed().as_secs_f64();
            out.checkpoints += 1;
            out.last_checkpoint = Some(snap.clone());
        }
        watchdog.check()?;
    }
    Ok(out)
}

/// How a run drives each of its simulations: the spec's resilience knobs
/// and the attempt's watchdog (see `RunContext::driver`).
#[derive(Debug, Clone)]
pub struct Driver {
    /// Checkpoint, resume and audit settings.
    pub opts: DriveOptions,
    /// Deadline and memory limits, checked at segment boundaries.
    pub watchdog: Watchdog,
}

impl Default for Driver {
    /// No checkpoints, resume, audits or limits: a plain `run_until`.
    fn default() -> Self {
        Driver { opts: DriveOptions::off(), watchdog: Watchdog::unlimited() }
    }
}

/// One simulation driven to its stop time: what it cost and what the
/// drive loop did. [`SimRun::record`] puts it in the run's manifest.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Events the simulator has processed (a resumed run counts the
    /// restored total).
    pub events: u64,
    /// Wall-clock seconds the simulation took, snapshot writes excluded:
    /// they are I/O, not simulation.
    pub wall_s: f64,
    /// How the engine executed: windows, queue, fluid solver, phases.
    pub engine: EngineReport,
    /// Checkpoints, resume point and audits of the drive loop.
    pub outcome: DriveOutcome,
}

impl SimRun {
    /// Advance `sim` to `stop` through [`drive`] under `driver`, with
    /// `tag` naming its snapshot; `tag` must be unique among the run's
    /// simulations and deterministic for the spec, so a resume restores
    /// each simulation from its own snapshot.
    pub fn drive(
        sim: &mut Simulator,
        stop: SimTime,
        tag: &str,
        driver: &Driver,
    ) -> Result<SimRun, RunError> {
        let start = Instant::now();
        let outcome = drive(sim, stop, tag, &driver.opts, &driver.watchdog)?;
        let wall_s = (start.elapsed().as_secs_f64() - outcome.checkpoint_wall_s).max(0.0);
        Ok(SimRun { events: sim.stats.events, wall_s, engine: sim.engine_report(), outcome })
    }

    /// Simulator throughput, events per wall-clock second (0 when the
    /// run took no measurable time).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Account this simulation in the manifest: events and wall clock,
    /// the engine block and, when the drive loop wrote any, the
    /// checkpoints and audit sections.
    pub fn record(&self, sink: &mut ArtifactSink) {
        sink.record_sim(self.events, self.wall_s);
        sink.record_engine(&self.engine);
        if let Some(last) = &self.outcome.last_checkpoint {
            sink.record_checkpoints(self.outcome.checkpoints, last);
        }
        if self.outcome.audit_checks > 0 {
            sink.record_audit(self.outcome.audit_checks, &self.outcome.violations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_constellation::Constellation;
    use hypatia_netsim::apps::PingApp;
    use hypatia_netsim::{SimConfig, Simulator};
    use std::sync::Arc;

    fn sim() -> (Simulator, u32) {
        let c = Arc::new(Constellation::build(
            "drive-test",
            vec![ShellSpec::new("A", 550.0, 6, 6, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 10.0, 10.0), GroundStation::new("b", -5.0, 55.0)],
            GslConfig::new(10.0),
        ));
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let mut s = Simulator::new(c, SimConfig::default(), vec![src, dst]);
        let app = s.add_app(
            src,
            7,
            Box::new(PingApp::new(dst, SimDuration::from_millis(50), SimTime::from_secs(2))),
        );
        (s, app)
    }

    fn rtts(s: &Simulator, app: u32) -> Vec<(SimTime, SimDuration)> {
        let ping: &PingApp = s.app_as(app).unwrap();
        ping.rtts().to_vec()
    }

    #[test]
    fn segmented_drive_matches_plain_run() {
        let (mut plain, plain_app) = sim();
        plain.run_until(SimTime::from_secs(2));

        let dir = std::env::temp_dir().join(format!("hypatia_drive_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DriveOptions {
            checkpoint_every: Some(SimDuration::from_millis(600)),
            checkpoint_dir: Some(dir.clone()),
            resume_from: None,
            audit: true,
        };
        let (mut seg, seg_app) = sim();
        let out =
            drive(&mut seg, SimTime::from_secs(2), "t", &opts, &Watchdog::unlimited()).unwrap();
        assert_eq!(out.checkpoints, 3, "boundaries at 0.6, 1.2, 1.8 s");
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.audit_checks >= 4);
        assert_eq!(rtts(&plain, plain_app), rtts(&seg, seg_app));

        // Resume from the on-disk snapshot: identical final state again.
        let opts_resume = DriveOptions { resume_from: Some(dir.clone()), ..opts };
        let (mut res, res_app) = sim();
        let out = drive(&mut res, SimTime::from_secs(2), "t", &opts_resume, &Watchdog::unlimited())
            .unwrap();
        assert_eq!(out.resumed_at, Some(SimTime::from_millis(1800)));
        assert_eq!(rtts(&plain, plain_app), rtts(&res, res_app));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_starts_fresh_and_corrupt_snapshot_errors() {
        let dir = std::env::temp_dir().join(format!("hypatia_drive_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let opts = DriveOptions { resume_from: Some(dir.clone()), ..DriveOptions::off() };
        let (mut s, _) = sim();
        let out =
            drive(&mut s, SimTime::from_millis(100), "t", &opts, &Watchdog::unlimited()).unwrap();
        assert_eq!(out.resumed_at, None, "no snapshot: start at t = 0");

        std::fs::write(dir.join("t.snap"), b"not a snapshot").unwrap();
        let (mut s, _) = sim();
        match drive(&mut s, SimTime::from_millis(100), "t", &opts, &Watchdog::unlimited()) {
            Err(RunError::Checkpoint(msg)) => {
                assert!(msg.contains("resume"), "{msg}")
            }
            other => panic!("corrupt snapshot must be a Checkpoint error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_interval_without_directory_is_an_error() {
        let opts = DriveOptions {
            checkpoint_every: Some(SimDuration::from_millis(100)),
            ..DriveOptions::off()
        };
        let (mut s, _) = sim();
        match drive(&mut s, SimTime::from_millis(200), "t", &opts, &Watchdog::unlimited()) {
            Err(RunError::Checkpoint(_)) => {}
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }
}
