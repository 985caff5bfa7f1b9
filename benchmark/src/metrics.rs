//! Every metric the benchmark reports: name, unit, direction, bound.
//!
//! This table is the single source for the report, `--compare`, and the
//! root `BENCHMARK.json` (a unit test keeps the two in step).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How far a metric may worsen before `--compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the base median.
    Share(f64),
    /// Deterministic: any difference is a change.
    Exact,
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name in every report.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<Bound>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// The bound on the timed end-to-end metrics. ISSUE 11 asked for 10 %
/// (5 % for CPU); the acceptance contract rejects a benchmark whose
/// run-to-run spread exceeds its bound and wants the spread under a third
/// of it. On the shared 2-vCPU VM the baseline was recorded on, the
/// host-corrected medians of ten 21-second runs still spread 3–12 %
/// (uncorrected: 8–27 %) — see README.md, "Bounds". So these sit at the
/// contract's cap.
const TIMED: Bound = Bound::Share(0.25);

/// The bound on `peak_rss_mb` (ISSUE 11: 5 %). It repeats to 0.1 % for a
/// given seed, but on the TCP workloads it moves 3–6 % between seeds (queue
/// occupancy depends on which cities are paired), and the contract takes
/// its spread across seeds.
const RSS: Bound = Bound::Share(0.20);

/// The ten end-to-end metrics, per workload. The first five are defined
/// (and non-zero) on every workload and are the `end_to_end` list of
/// `BENCHMARK.json`; the other five are n/a on some workloads or exact,
/// which that file's format cannot express, so it carries the first four
/// of them under `per_layer` and `failed_frac` as `failed`/`attempted`.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("rtf", "sim-s/wall-s", Higher, TIMED),
    e2e("e2e_wall_s", "s", Lower, TIMED),
    e2e("setup_s", "s", Lower, TIMED),
    e2e("run_cpu_s", "s", Lower, TIMED),
    e2e("peak_rss_mb", "MB", Lower, RSS),
    e2e("events_per_s", "events/s", Higher, TIMED),
    e2e("snapshots_per_s", "snapshots/s", Higher, TIMED),
    e2e("model_err_goodput", "ratio", Lower, Bound::Exact),
    e2e("model_err_jain", "abs", Lower, Bound::Exact),
    e2e("failed_frac", "share", Lower, Bound::Exact),
];

/// How many of [`END_TO_END`] go into `BENCHMARK.json`'s `end_to_end`.
pub const CONTRACT_E2E: usize = 5;

/// The per-layer metrics of the traced pass (layer = crate).
pub const PER_LAYER: [MetricDef; 78] = [
    layer("core.spec_parse_s", "s", Lower),
    layer("core.scenario_build_s", "s", Lower),
    layer("core.drive_segments", "count", Lower),
    layer("orbit.positions_ns_per_sat", "ns", Lower),
    layer("constellation.build_s.t1", "s", Lower),
    layer("constellation.build_s.k1", "s", Lower),
    layer("constellation.build_s.s1", "s", Lower),
    layer("constellation.gravity_pairs_s", "s", Lower),
    layer("fault.compile_s", "s", Lower),
    layer("fault.state_at_us", "us", Lower),
    layer("fault.events", "count", Lower),
    layer("routing.graph_snapshot_ms.t1", "ms", Lower),
    layer("routing.graph_snapshot_ms.k1", "ms", Lower),
    layer("routing.graph_snapshot_ms.s1", "ms", Lower),
    layer("routing.diff_ms.t1", "ms", Lower),
    layer("routing.diff_ms.k1", "ms", Lower),
    layer("routing.diff_ms.s1", "ms", Lower),
    layer("routing.full_sssp_ms.t1", "ms", Lower),
    layer("routing.full_sssp_ms.k1", "ms", Lower),
    layer("routing.full_sssp_ms.s1", "ms", Lower),
    layer("routing.repair_ms.t1", "ms", Lower),
    layer("routing.repair_ms.k1", "ms", Lower),
    layer("routing.repair_ms.s1", "ms", Lower),
    layer("routing.snapshots", "count", Lower),
    layer("routing.repaired_frac", "share", Higher),
    layer("routing.fallback_churn", "count", Lower),
    layer("routing.fallback_first", "count", Lower),
    layer("routing.churn_frac_mean", "share", Lower),
    layer("routing.par_speedup", "ratio", Higher),
    layer("netsim.sim_new_s", "s", Lower),
    layer("netsim.install_s", "s", Lower),
    layer("netsim.flow_state_bytes", "bytes", Lower),
    layer("netsim.bytes_per_flow", "bytes", Lower),
    layer("netsim.run_s", "s", Lower),
    layer("netsim.events", "count", Lower),
    layer("netsim.ns_per_event", "ns", Lower),
    layer("netsim.hop_deliveries", "count", Lower),
    layer("netsim.queue_drops", "count", Lower),
    layer("netsim.routing_drops", "count", Lower),
    layer("netsim.fault_drops", "count", Lower),
    layer("netsim.forwarding_updates", "count", Lower),
    layer("netsim.queue_hold_ns_1k", "ns", Lower),
    layer("netsim.queue_hold_ns_100k", "ns", Lower),
    layer("netsim.queue_hold_ns_1m", "ns", Lower),
    layer("netsim.queue_timer_ns", "ns", Lower),
    layer("netsim.queue_hold_ns_100k_heap", "ns", Lower),
    layer("netsim.queue_timer_ns_heap", "ns", Lower),
    layer("netsim.epochs", "count", Lower),
    layer("netsim.barriers", "count", Lower),
    layer("netsim.min_lookahead_ns", "ns", Higher),
    layer("netsim.epoch_us", "us", Lower),
    layer("netsim.shard_speedup", "ratio", Higher),
    layer("netsim.fluid_resolves", "count", Lower),
    layer("netsim.fluid_resolve_ms", "ms", Lower),
    layer("netsim.fluid_add_flow_s", "s", Lower),
    layer("netsim.ckpt_write_ms", "ms", Lower),
    layer("netsim.ckpt_bytes", "bytes", Lower),
    layer("netsim.ckpt_restore_ms", "ms", Lower),
    layer("netsim.audit_ms", "ms", Lower),
    layer("netsim.ckpt_count", "count", Lower),
    layer("transport.loopback_ns_per_seg", "ns", Lower),
    layer("transport.acked_bytes", "bytes", Higher),
    layer("transport.segs_per_event", "ratio", Higher),
    layer("viz.sink_write_ms", "ms", Lower),
    layer("viz.manifest_ms", "ms", Lower),
    layer("viz.artifact_bytes", "bytes", Lower),
    layer("trace_overhead_frac", "share", Lower),
    layer("span_coverage", "share", Higher),
    // How much slower than nominal the reference kernel ran around the
    // untraced repetitions (`calib`), the share of their wall time the
    // hypervisor stole, and the end-to-end times before either correction.
    layer("host.slowdown", "ratio", Lower),
    layer("host.steal_frac", "share", Lower),
    layer("raw.rtf", "sim-s/wall-s", Higher),
    layer("raw.e2e_wall_s", "s", Lower),
    layer("raw.setup_s", "s", Lower),
    layer("raw.run_cpu_s", "s", Lower),
    // End-to-end metrics the `BENCHMARK.json` format can only carry here
    // (n/a on some workloads, or exact).
    layer("events_per_s", "events/s", Higher),
    layer("snapshots_per_s", "snapshots/s", Higher),
    layer("model_err_goodput", "ratio", Lower),
    layer("model_err_jain", "abs", Lower),
];

/// Look a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// The root `BENCHMARK.json` must list exactly this table's metrics
    /// and the workload table's names: the acceptance driver refuses a
    /// run whose printed metrics differ from the file's.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.name().to_string()))
                .collect()
        };
        assert_eq!(doc["run_seconds"].as_f64(), Some(crate::RUN_SECONDS));
        assert_eq!(names("end_to_end"), table(&END_TO_END[..CONTRACT_E2E]));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        for (m, def) in doc["end_to_end"].as_array().unwrap().iter().zip(&END_TO_END) {
            let Some(Bound::Share(b)) = def.bound else { panic!("{} needs a share", def.name) };
            assert_eq!(m["bound"].as_f64(), Some(b), "{}", def.name);
            assert!(b <= 0.25);
        }
        let listed: Vec<(String, String)> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (w["name"].as_str().unwrap().into(), w["why"].as_str().unwrap().into()))
            .collect();
        let ours: Vec<(String, String)> = crate::workload::workloads(crate::workload::Scale::Full)
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END[..CONTRACT_E2E].iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.chars().all(ok), "{}", m.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(m.unit.chars().all(unit_ok), "{} unit {}", m.name, m.unit);
        }
    }
}
