//! The six named workloads and what one repetition of any of them
//! returns.
//!
//! Sizes are fixed here, not on the command line: a workload's name must
//! mean the same inputs on every commit it is compared across. `Scale::
//! Smoke` is the same code path at toy sizes for CI.

use crate::host::{cpu_seconds, steal_seconds};
use std::collections::BTreeMap;

/// Full sizes, or toy sizes for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the ledger is recorded at.
    Full,
    /// 10 cities, a fraction of a simulated second: CI only.
    Smoke,
}

impl Scale {
    /// Directory / report label.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// What the packet simulator carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// fig02: one line-rate paced UDP flow per city, random permutation.
    PermUdp,
    /// fig02: one long-running TCP NewReno flow per city.
    PermTcp,
    /// ext_flow_scaling: gravity-drawn paced UDP flows in arena tables.
    GravityUdp {
        /// Offered flows.
        flows: u64,
        /// Per-flow wire rate, kbit/s.
        rate_kbps: u64,
    },
    /// ext_hybrid_mode: gravity-drawn bulk flows solved as fluid, plus the
    /// packet-level ping overlay.
    HybridBulk {
        /// Offered flows.
        flows: u64,
        /// Per-flow wire rate, kbit/s.
        rate_kbps: u64,
    },
}

/// The "machinery" of `tcp_resil`: faults, checkpoints, audits, a resume
/// (and, in the traced pass, repetitions on the sharded engine beside the
/// serial ones — see `bench::RepKind::Sharded`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resilience {
    /// Satellite mean time to failure, s.
    pub sat_mttf_s: f64,
    /// Satellite mean time to repair, s.
    pub sat_mttr_s: f64,
    /// Snapshot interval, simulated ms.
    pub checkpoint_every_ms: u64,
    /// The first simulator is abandoned here (simulated ms) and a freshly
    /// built one resumes from the latest snapshot.
    pub crash_at_ms: u64,
}

/// A packet-simulator workload (Kuiper K1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetsimDef {
    /// Ground stations: the N most populous cities.
    pub cities: usize,
    /// Uniform line rate, kbit/s.
    pub line_rate_kbps: u64,
    /// Simulated horizon, ms.
    pub duration_ms: u64,
    /// Forwarding-state granularity Δt, ms.
    pub step_ms: u64,
    /// `sim_shards` (1 = the serial engine).
    pub shards: usize,
    /// Traffic.
    pub traffic: Traffic,
    /// Faults + checkpoints + audits + one resume, when present.
    pub resilience: Option<Resilience>,
}

/// The constellation-wide routing sweep (no packet simulator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepDef {
    /// Ground stations: the N most populous cities.
    pub cities: usize,
    /// Horizon per constellation, ms.
    pub duration_ms: u64,
    /// Snapshot granularity, ms.
    pub step_ms: u64,
    /// Pairs closer than this are excluded, km.
    pub min_pair_km: f64,
    /// Satellite mean time to failure, s.
    pub sat_mttf_s: f64,
    /// Satellite mean time to repair, s.
    pub sat_mttr_s: f64,
}

/// Which pipeline runs the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `pipeline::run_netsim`.
    Netsim(NetsimDef),
    /// `sweep::run_sweep`.
    Sweep(SweepDef),
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Why it exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Its definition.
    pub kind: Kind,
}

impl Workload {
    /// Does this workload carry TCP?
    pub fn is_tcp(&self) -> bool {
        matches!(self.kind, Kind::Netsim(NetsimDef { traffic: Traffic::PermTcp, .. }))
    }

    /// The netsim definition, if this is a packet-simulator workload.
    pub fn netsim(&self) -> Option<&NetsimDef> {
        match &self.kind {
            Kind::Netsim(def) => Some(def),
            Kind::Sweep(_) => None,
        }
    }
}

/// The satellite flap process every faulted workload uses: 5 %
/// steady-state unavailability.
const SAT_MTTF_S: f64 = 190.0;
const SAT_MTTR_S: f64 = 10.0;

/// The six workloads at `scale`, in report order.
pub fn workloads(scale: Scale) -> Vec<Workload> {
    let full = scale == Scale::Full;
    let pick = |f: u64, s: u64| if full { f } else { s };
    let cities = |n: usize| if full { n } else { 10 };
    let tcp = NetsimDef {
        cities: cities(100),
        line_rate_kbps: 100_000,
        duration_ms: pick(600, 300),
        step_ms: 100,
        shards: 1,
        traffic: Traffic::PermTcp,
        resilience: None,
    };
    vec![
        Workload {
            name: "udp_perm",
            why: "line-rate UDP permutation: pure event engine (queue, device, next-hop); \
                  transport and routing idle",
            kind: Kind::Netsim(NetsimDef {
                cities: cities(30),
                line_rate_kbps: 1_000_000,
                duration_ms: pick(60, 20),
                step_ms: 100,
                shards: 1,
                traffic: Traffic::PermUdp,
                resilience: None,
            }),
        },
        Workload {
            name: "tcp_perm",
            why: "TCP NewReno permutation: ACK-clocked traffic, RTO/delayed-ACK timers in the \
                  calendar overflow heap, per-segment transport callbacks",
            kind: Kind::Netsim(tcp),
        },
        Workload {
            name: "tcp_resil",
            why: "tcp_perm with satellite flapping, 50 ms steps, checkpoints, audits and one \
                  resume: isolates the cost of the machinery (2-shard engine measured per layer)",
            kind: Kind::Netsim(NetsimDef {
                duration_ms: 300,
                step_ms: 50,
                resilience: Some(Resilience {
                    sat_mttf_s: SAT_MTTF_S,
                    sat_mttr_s: SAT_MTTR_S,
                    checkpoint_every_ms: 100,
                    crash_at_ms: 170,
                }),
                ..tcp
            }),
        },
        Workload {
            name: "route_sweep",
            why: "T1+K1+S1 all-pairs routing sweep under satellite flapping: orbit, snapshot, \
                  SSSP repair, pair tracking, ECDF sink; no packet simulator",
            kind: Kind::Sweep(SweepDef {
                cities: cities(100),
                duration_ms: pick(2_000, 500),
                step_ms: 100,
                min_pair_km: 500.0,
                sat_mttf_s: SAT_MTTF_S,
                sat_mttr_s: SAT_MTTR_S,
            }),
        },
        Workload {
            name: "flows_1m",
            why: "a million gravity UDP flows in arena tables: working set far beyond cache, \
                  set-up a third of the wall",
            kind: Kind::Netsim(NetsimDef {
                cities: cities(100),
                line_rate_kbps: 10_000,
                duration_ms: pick(800, 200),
                step_ms: 100,
                shards: 1,
                traffic: Traffic::GravityUdp { flows: pick(1_000_000, 20_000), rate_kbps: 16 },
                resilience: None,
            }),
        },
        Workload {
            name: "hybrid_100k",
            why: "100k bulk flows as fluid plus a ping overlay: event engine idle, fluid solver \
                  and per-step routing do the work",
            kind: Kind::Netsim(NetsimDef {
                cities: cities(100),
                line_rate_kbps: 10_000,
                duration_ms: pick(3_000, 500),
                step_ms: 100,
                shards: 1,
                traffic: Traffic::HybridBulk { flows: pick(100_000, 2_000), rate_kbps: 256 },
                resilience: None,
            }),
        },
    ]
}

/// The deterministic result of one repetition: what the output check
/// pins. Two repetitions of the same (workload, scale, seed) must produce
/// equal outcomes on any host, at any thread or shard count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// `SimStats::events` (0 on `route_sweep`).
    pub events: u64,
    /// Forwarding-state snapshots the harness computed (`route_sweep`).
    pub snapshots: u64,
    /// Packets delivered to their destination node.
    pub delivered: u64,
    /// Goodput numerator, bits: packet payload plus fluid bytes delivered.
    pub goodput_bits: u64,
    /// `(artifact name, fnv64 hex)` in write order, manifest excluded (its
    /// `events_per_sec` line is wall-clock).
    pub artifacts: Vec<(String, String)>,
    /// Conservation-audit violations, rendered (must be empty).
    pub violations: Vec<String>,
}

/// The three parts of a repetition, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before the first simulated instant.
    Setup,
    /// The run phase.
    Run,
    /// Result collection, artifacts, manifest.
    Write,
}

/// Splits a repetition's wall and CPU time over its [`Phase`]s: each
/// [`PhaseClock::cut`] books the time since the previous cut.
#[derive(Debug)]
pub struct PhaseClock {
    wall: std::time::Instant,
    cpu: f64,
    steal: f64,
    /// Wall seconds booked so far, indexed by `Phase as usize`.
    pub wall_s: [f64; 3],
    /// CPU seconds (user + sys, all threads) booked so far.
    pub cpu_s: [f64; 3],
}

impl PhaseClock {
    /// Start timing now.
    pub fn start() -> Self {
        PhaseClock {
            steal: steal_seconds(),
            wall: std::time::Instant::now(),
            cpu: cpu_seconds(),
            wall_s: [0.0; 3],
            cpu_s: [0.0; 3],
        }
    }

    /// Book the time since the previous cut (or the start) to `phase`.
    pub fn cut(&mut self, phase: Phase) {
        let (wall, cpu) = (std::time::Instant::now(), cpu_seconds());
        self.wall_s[phase as usize] += wall.duration_since(self.wall).as_secs_f64();
        self.cpu_s[phase as usize] += cpu - self.cpu;
        (self.wall, self.cpu) = (wall, cpu);
    }

    /// Seconds the host stole from the machine since the start: call
    /// right after the last cut.
    pub fn steal_s(&self) -> f64 {
        steal_seconds() - self.steal
    }
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds per [`Phase`]; together they cover spec JSON in →
    /// `manifest.json` out.
    pub wall_s: [f64; 3],
    /// CPU seconds per [`Phase`].
    pub cpu_s: [f64; 3],
    /// Seconds of `wall_s` the host spent elsewhere (`/proc/stat` steal,
    /// to the tick).
    pub steal_s: f64,
    /// Simulated seconds covered (summed over constellations swept).
    pub sim_s: f64,
    /// The pinned, deterministic part.
    pub outcome: Outcome,
    /// Counters read from the product (`SimStats`, `EngineReport`,
    /// `RouterStats`, …), keyed by per-layer metric name.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// Spec JSON in → `manifest.json` out, wall seconds.
    pub fn e2e_wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    /// Wall seconds before the first simulated instant.
    pub fn setup_s(&self) -> f64 {
        self.wall_s[Phase::Setup as usize]
    }

    /// Wall seconds of the run phase.
    pub fn run_wall_s(&self) -> f64 {
        self.wall_s[Phase::Run as usize]
    }

    /// CPU seconds (user + sys) of the run phase.
    pub fn run_cpu_s(&self) -> f64 {
        self.cpu_s[Phase::Run as usize]
    }

    /// The share of the repetition's wall time that was not stolen. The
    /// machine-wide steal counter also counts the other virtual CPUs, so
    /// no more is taken off than the time this process was not executing
    /// (wall − CPU: stolen, blocked or asleep; none on a sharded run).
    pub fn unstolen(&self) -> f64 {
        let wall = self.e2e_wall_s();
        let not_executing = wall - self.cpu_s.iter().sum::<f64>();
        1.0 - self.steal_s.min(not_executing).max(0.0) / wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_clock_partitions_the_repetition() {
        let t0 = std::time::Instant::now();
        let mut clock = PhaseClock::start();
        clock.cut(Phase::Setup);
        std::thread::sleep(std::time::Duration::from_millis(5));
        clock.cut(Phase::Run);
        clock.cut(Phase::Setup); // a rebuild mid-run may book more set-up
        clock.cut(Phase::Write);
        let total = t0.elapsed().as_secs_f64();
        let rep = Rep { wall_s: clock.wall_s, cpu_s: clock.cpu_s, ..Rep::default() };
        assert!(rep.run_wall_s() >= 0.005);
        assert!(rep.e2e_wall_s() <= total + 1e-3, "{} vs {total}", rep.e2e_wall_s());
        assert!(rep.setup_s() + rep.run_wall_s() <= rep.e2e_wall_s());
    }

    #[test]
    fn stolen_time_is_capped_by_the_time_not_executing() {
        let rep = |steal_s: f64, cpu: f64| Rep {
            wall_s: [0.1, 0.8, 0.1],
            cpu_s: [0.0, cpu, 0.0],
            steal_s,
            ..Rep::default()
        };
        assert_eq!(rep(0.0, 0.9).unstolen(), 1.0);
        assert!((rep(0.25, 0.7).unstolen() - 0.75).abs() < 1e-12);
        // The counter saw another CPU's steal too: only 0.1 s were free.
        assert!((rep(0.25, 0.9).unstolen() - 0.9).abs() < 1e-12);
        // Two busy threads: more CPU than wall, nothing to take off.
        assert_eq!(rep(0.25, 1.6).unstolen(), 1.0);
    }

    #[test]
    fn six_distinct_workloads_at_both_scales() {
        for scale in [Scale::Full, Scale::Smoke] {
            let all = workloads(scale);
            let names: std::collections::BTreeSet<_> = all.iter().map(|w| w.name).collect();
            assert_eq!((all.len(), names.len()), (6, 6));
            assert_eq!(all.iter().filter(|w| w.netsim().is_none()).count(), 1);
        }
    }
}
