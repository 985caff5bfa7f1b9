//! One repetition of a packet-simulator workload, end to end: spec JSON
//! parsed → scenario built → simulator built and loaded → run → artifacts
//! and `manifest.json` written.
//!
//! The untraced pass — the one every end-to-end number comes from — goes
//! through the product's own `ExperimentSpec::build_scenario`,
//! `Scenario::simulator` and `hypatia::resilience::drive`; the harness
//! only marks the phase boundaries (`setup_s`, the run phase's CPU) and
//! loads the traffic, which no product function exposes apart from the
//! run. With a recording [`Tracer`] the same repetition is staged by the
//! harness itself — constellation build, fault compile, and the drive
//! loop unrolled (`drive_traced`) — so that every call into a crate gets
//! a span. Both passes must produce the same [`Outcome`], so a product
//! change the staged copy does not follow fails the output check.

use crate::trace::Tracer;
use crate::workload::{NetsimDef, Outcome, Phase, PhaseClock, Rep, Traffic, Workload};
use hypatia::experiments::flow_scaling::jain_index;
use hypatia::resilience::{drive, DriveOptions, DriveOutcome};
use hypatia::runner::Watchdog;
use hypatia::scenario::{ConstellationChoice, Scenario};
use hypatia::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_constellation::ground::gravity_pairs;
use hypatia_constellation::{Constellation, NodeId};
use hypatia_fault::{FaultSchedule, FaultSpec, FlapProcess};
use hypatia_netsim::apps::{PingApp, UdpSink, UdpSource};
use hypatia_netsim::{BulkUdpSink, BulkUdpSource, FlowId, SimMode, Simulator};
use hypatia_transport::{NewReno, TcpConfig, TcpSender, TcpSink};
use hypatia_util::rng::DetRng;
use hypatia_util::{DataRate, SimDuration, SimTime};
use hypatia_viz::sink::ArtifactSink;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// UDP payload bytes per datagram (the product's figures all use 1440).
const UDP_PAYLOAD: u32 = 1440;

/// The spec the harness hands the product for `(workload, seed)`.
pub fn netsim_spec(name: &str, def: &NetsimDef, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec {
        experiment: format!("bench_{name}"),
        constellation: ConstellationChoice::KuiperK1,
        ground: GroundSegment::TopCities(def.cities),
        pairs: PairSelection::Permutation,
        duration: SimDuration::from_millis(def.duration_ms),
        step: SimDuration::from_millis(def.step_ms),
        line_rate: DataRate::from_kbps(def.line_rate_kbps),
        // 0 = no forwarding prefetch worker: the run is single-threaded
        // unless the workload itself shards.
        threads: 0,
        seed,
        sim_shards: def.shards,
        ..ExperimentSpec::default()
    };
    match def.traffic {
        Traffic::PermUdp | Traffic::PermTcp => {}
        Traffic::GravityUdp { flows, rate_kbps } => {
            spec.flows = Some(flows);
            spec.params.insert("flow_rate_kbps".to_string(), ParamValue::Num(rate_kbps as f64));
        }
        Traffic::HybridBulk { flows, rate_kbps } => {
            spec.flows = Some(flows);
            spec.sim_mode = SimMode::Hybrid;
            spec.params.insert("flow_rate_kbps".to_string(), ParamValue::Num(rate_kbps as f64));
        }
    }
    if let Some(r) = &def.resilience {
        spec.faults = Some(FaultSpec {
            seed,
            sat_flap: Some(FlapProcess { mttf_s: r.sat_mttf_s, mttr_s: r.sat_mttr_s }),
            ..FaultSpec::default()
        });
        spec.checkpoint_every = Some(SimDuration::from_millis(r.checkpoint_every_ms));
        spec.audit = true;
    }
    spec
}

/// The seed every permutation workload's traffic matrix starts from.
const BASE_PERMUTATION_SEED: u64 = 2020;

/// The permutation traffic matrix for `seed`: the fixed-point-free base
/// permutation (seed 2020) with a twentieth of its sources (at least
/// two) — drawn from `seed` — handed each other's destinations in a
/// cycle.
///
/// Re-drawing the whole permutation per seed moves the offered work
/// (events per simulated second) by 5–9 % between seeds — TCP most, where
/// one short-RTT pair carries several percent of all segments — which
/// would drown a regression of that size in input noise. Re-pairing a
/// few cities keeps it within ~2 % while every seed still routes
/// different pairs over different paths.
pub fn perturbed_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm = DetRng::new(BASE_PERMUTATION_SEED).permutation_pairs(n);
    if n < 4 {
        return perm; // too few cities to re-pair without a self-pair
    }
    let k = (n / 20).max(2);
    let mut rng = DetRng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    loop {
        rng.shuffle(&mut order);
        let chosen = &order[..k];
        // Source chosen[j] takes over the destination of chosen[j + 1].
        if (0..k).any(|j| perm[chosen[(j + 1) % k]] == chosen[j]) {
            continue; // would make a city talk to itself: draw again
        }
        let first = perm[chosen[0]];
        for j in 0..k - 1 {
            perm[chosen[j]] = perm[chosen[j + 1]];
        }
        perm[chosen[k - 1]] = first;
        return perm;
    }
}

/// Handles into the installed applications, for result collection.
#[derive(Default)]
struct Installed {
    /// Per-flow UDP sinks (`PermUdp`), flow order.
    udp_sinks: Vec<u32>,
    /// Per-flow TCP sinks / senders (`PermTcp`), flow order.
    tcp_sinks: Vec<u32>,
    tcp_senders: Vec<u32>,
    /// Per-node arena sinks (gravity traffic).
    bulk_sinks: Vec<u32>,
    /// The ping overlay (`HybridBulk`).
    ping: Option<u32>,
    /// Offered flows.
    flows: usize,
}

/// Load `pairs` into `sim` the way the product's experiments do.
fn install(
    sim: &mut Simulator,
    c: &Constellation,
    def: &NetsimDef,
    pairs: &[(usize, usize)],
    stop: SimTime,
) -> Installed {
    let mut inst = Installed { flows: pairs.len(), ..Installed::default() };
    let line_rate = DataRate::from_kbps(def.line_rate_kbps);
    match def.traffic {
        // fig02's default layout: one boxed application per flow.
        Traffic::PermUdp => {
            for (i, &(s, d)) in pairs.iter().enumerate() {
                let (src, dst) = (c.gs_node(s), c.gs_node(d));
                // The source addresses its own port at the destination, so
                // that is where the flow's sink listens.
                let port = 20_000 + i as u16;
                inst.udp_sinks.push(sim.add_app(dst, port, Box::new(UdpSink::new())));
                sim.add_app(
                    src,
                    port,
                    Box::new(UdpSource::new(dst, i as u32, line_rate, UDP_PAYLOAD, stop)),
                );
            }
        }
        Traffic::PermTcp => {
            let cfg = TcpConfig::default();
            for (i, &(s, d)) in pairs.iter().enumerate() {
                let (src, dst) = (c.gs_node(s), c.gs_node(d));
                let sink_port = 40_000 + i as u16;
                inst.tcp_sinks.push(sim.add_app(
                    dst,
                    sink_port,
                    Box::new(TcpSink::new(cfg.clone())),
                ));
                inst.tcp_senders.push(sim.add_app(
                    src,
                    20_000 + i as u16,
                    Box::new(TcpSender::new(dst, sink_port, cfg.clone(), Box::new(NewReno::new()))),
                ));
            }
        }
        Traffic::GravityUdp { rate_kbps, .. } => {
            install_arena(sim, c, pairs, DataRate::from_kbps(rate_kbps), stop, &mut inst);
        }
        Traffic::HybridBulk { rate_kbps, .. } => {
            // Control overlay between the two largest metros, packet-level
            // in every mode.
            inst.ping = Some(sim.add_app(
                c.gs_node(0),
                100,
                Box::new(PingApp::new(c.gs_node(1), SimDuration::from_millis(100), stop)),
            ));
            let rate = DataRate::from_kbps(rate_kbps);
            for (i, &(s, d)) in pairs.iter().enumerate() {
                sim.add_fluid_flow(i as u32, c.gs_node(s), c.gs_node(d), rate, UDP_PAYLOAD, stop);
            }
        }
    }
    inst
}

/// Arena flow tables: one bulk application per node, ports recycled past
/// 20k flows per node (`ext_flow_scaling`'s layout).
fn install_arena(
    sim: &mut Simulator,
    c: &Constellation,
    pairs: &[(usize, usize)],
    rate: DataRate,
    stop: SimTime,
    inst: &mut Installed,
) {
    let mut sinks: BTreeMap<u32, (Vec<u16>, Vec<u32>)> = BTreeMap::new();
    let mut sources: BTreeMap<u32, Vec<(u32, NodeId, u16, u16)>> = BTreeMap::new();
    for (i, &(s, d)) in pairs.iter().enumerate() {
        let (src, dst) = (c.gs_node(s), c.gs_node(d));
        let sink = sinks.entry(dst.0).or_default();
        let dst_port = 40_000 + (sink.1.len() % 20_000) as u16;
        sink.0.push(dst_port);
        sink.1.push(i as u32);
        let list = sources.entry(src.0).or_default();
        let src_port = 20_000 + (list.len() % 20_000) as u16;
        list.push((i as u32, dst, src_port, dst_port));
    }
    for (node, (mut ports, flow_list)) in sinks {
        ports.sort_unstable();
        ports.dedup();
        inst.bulk_sinks.push(sim.add_app_multi(
            NodeId(node),
            &ports,
            Box::new(BulkUdpSink::new(flow_list)),
        ));
    }
    for (node, list) in sources {
        let mut table = BulkUdpSource::new(rate, UDP_PAYLOAD, stop);
        for &(flow, dst, src_port, dst_port) in &list {
            table.push(FlowId(flow), dst, src_port, dst_port);
        }
        let mut ports = table.src_ports().to_vec();
        ports.sort_unstable();
        ports.dedup();
        sim.add_app_multi(NodeId(node), &ports, Box::new(table));
    }
}

/// `ExperimentSpec::build_scenario`, staged so that the constellation
/// build and the fault compile each get a span.
fn build_scenario_traced(spec: &ExperimentSpec, tr: &mut Tracer) -> Scenario {
    let b = tr.enter_tagged("constellation.build", "k1");
    let c = Arc::new(spec.constellation.build(spec.ground.stations()));
    tr.exit(b);
    let mut sim_config = spec.sim_config();
    if let Some(faults) = &spec.faults {
        let f = tr.enter("fault.compile");
        let schedule = FaultSchedule::compile(faults, &c, spec.duration);
        tr.exit(f);
        sim_config.faults = Some(Arc::new(schedule));
    }
    Scenario { constellation: c, sim_config }
}

/// `hypatia::resilience::drive`, staged: the same restore / segment /
/// audit / snapshot sequence (no watchdog), with a span around every call
/// into netsim.
fn drive_traced(
    sim: &mut Simulator,
    stop: SimTime,
    tag: &str,
    opts: &DriveOptions,
    tr: &mut Tracer,
) -> Result<DriveOutcome, String> {
    let mut out = DriveOutcome::default();
    let snap_name = format!("{tag}.snap");
    if let Some(snap) = opts.resume_from.as_ref().map(|d| d.join(&snap_name)).filter(|p| p.exists())
    {
        let s = tr.enter("netsim.ckpt_restore");
        sim.restore_from(&snap).map_err(|e| format!("restore {}: {e}", snap.display()))?;
        tr.exit(s);
        out.resumed_at = Some(sim.now());
    }
    let snap_path = match (&opts.checkpoint_every, &opts.checkpoint_dir) {
        (Some(_), Some(dir)) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            Some(dir.join(&snap_name))
        }
        (Some(_), None) => return Err("checkpoint interval without a directory".into()),
        (None, _) => None,
    };
    loop {
        let next = opts.checkpoint_every.map_or(stop, |every| (sim.now() + every).min(stop));
        let s = tr.enter("netsim.run");
        sim.run_until(next);
        tr.exit(s);
        if opts.audit {
            let s = tr.enter("netsim.audit");
            out.audit_checks += 1;
            out.violations.extend(sim.audit());
            tr.exit(s);
        }
        if next >= stop {
            return Ok(out);
        }
        if let Some(snap) = &snap_path {
            let s = tr.enter("netsim.ckpt_write");
            sim.checkpoint_to(snap).map_err(|e| format!("checkpoint {}: {e}", snap.display()))?;
            tr.exit(s);
            out.checkpoints += 1;
            out.last_checkpoint = Some(snap.clone());
        }
    }
}

/// Run one repetition of netsim workload `w` (definition `def`),
/// artifacts under `out_dir`. `spec_text` is
/// `netsim_spec(..).to_json_string()` — made by the caller, outside the
/// timed region, because it is the benchmark's input.
pub fn run_netsim(
    w: &Workload,
    def: &NetsimDef,
    spec_text: &str,
    out_dir: &Path,
    tr: &mut Tracer,
) -> Result<Rep, String> {
    run_netsim_with(w, def, spec_text, out_dir, tr, None)
}

/// [`run_netsim`] with the traffic matrix optionally replaced (`pairs`):
/// the harness's own tests hand it the product's matrix to compare the
/// two installs.
fn run_netsim_with(
    w: &Workload,
    def: &NetsimDef,
    spec_text: &str,
    out_dir: &Path,
    tr: &mut Tracer,
    pairs: Option<Vec<(usize, usize)>>,
) -> Result<Rep, String> {
    let ckpt_dir = out_dir.join("checkpoints");
    let _ = std::fs::remove_dir_all(out_dir);

    let mut clock = PhaseClock::start();
    let root = tr.enter("rep");

    // ---- set-up: everything before the first simulated instant ----
    let s = tr.enter("core.spec_parse");
    let spec = ExperimentSpec::from_json(spec_text).map_err(|e| e.to_string())?;
    tr.exit(s);

    let s = tr.enter("core.scenario_build");
    let scenario =
        if tr.enabled() { build_scenario_traced(&spec, tr) } else { spec.build_scenario() };
    tr.exit(s);
    let c = scenario.constellation.clone();
    let fault_events = scenario.sim_config.faults.as_ref().map_or(0, |f| f.len());

    let cities = c.num_ground_stations();
    let pairs: Vec<(usize, usize)> = match (pairs, def.traffic) {
        (Some(pairs), _) => pairs,
        (None, Traffic::PermUdp | Traffic::PermTcp) => {
            let s = tr.enter("core.permutation_pairs");
            let perm = perturbed_permutation(cities, spec.seed);
            tr.exit(s);
            perm.into_iter().enumerate().collect()
        }
        (None, Traffic::GravityUdp { .. } | Traffic::HybridBulk { .. }) => {
            let flows = spec.flows.ok_or("gravity workload without a flow count")? as usize;
            let s = tr.enter("constellation.gravity_pairs");
            let pairs = gravity_pairs(cities, flows, spec.seed);
            tr.exit(s);
            pairs
        }
    };

    let stop = SimTime::ZERO + spec.duration;
    let mut dests: Vec<NodeId> = (0..cities).map(|i| c.gs_node(i)).collect();
    dests.sort_unstable_by_key(|n| n.0);
    let build = |tr: &mut Tracer| {
        let s = tr.enter("netsim.sim_new");
        let mut sim = scenario.simulator(dests.clone());
        tr.exit(s);
        let s = tr.enter("netsim.install");
        let inst = install(&mut sim, &c, def, &pairs, stop);
        tr.exit(s);
        (sim, inst)
    };
    let (mut sim, mut inst) = build(tr);
    clock.cut(Phase::Setup);

    // ---- run ----
    let mut opts = DriveOptions {
        checkpoint_every: spec.checkpoint_every,
        checkpoint_dir: spec.checkpoint_every.map(|_| ckpt_dir.clone()),
        resume_from: None,
        audit: spec.audit,
    };
    let advance = |sim: &mut Simulator, to: SimTime, opts: &DriveOptions, tr: &mut Tracer| {
        if tr.enabled() {
            drive_traced(sim, to, w.name, opts, tr)
        } else {
            drive(sim, to, w.name, opts, &Watchdog::unlimited()).map_err(|e| e.to_string())
        }
    };
    let mut driven = Vec::new();
    if let Some(r) = &def.resilience {
        // The first simulator dies mid-run; a freshly built one resumes
        // from the latest snapshot and replays the tail. The rebuild is
        // part of the run phase: it is what a crash costs.
        driven.push(advance(&mut sim, SimTime::from_millis(r.crash_at_ms), &opts, tr)?);
        drop(sim);
        let s = tr.enter("netsim.resume_rebuild");
        (sim, inst) = build(tr);
        tr.exit(s);
        opts.resume_from = Some(ckpt_dir.clone());
    }
    driven.push(advance(&mut sim, stop, &opts, tr)?);
    if def.resilience.is_some() && driven.iter().all(|d| d.resumed_at.is_none()) {
        return Err("resilience workload never resumed from a snapshot".into());
    }
    clock.cut(Phase::Run);
    let run_wall_s = clock.wall_s[Phase::Run as usize];
    let checkpoints: u64 = driven.iter().map(|d| d.checkpoints).sum();
    let audit_checks: u64 = driven.iter().map(|d| d.audit_checks).sum();
    let last_checkpoint = driven.iter().rev().find_map(|d| d.last_checkpoint.clone());
    let audit_violations: Vec<_> =
        driven.iter().flat_map(|d| d.violations.iter()).cloned().collect();

    // ---- collect ----
    let s = tr.enter("core.collect");
    let mut per_flow = vec![0.0f64; inst.flows];
    for (i, &idx) in inst.udp_sinks.iter().enumerate() {
        let sink: &UdpSink = sim.app_as(idx).ok_or("UDP sink missing")?;
        per_flow[i] = sink.payload_bytes() as f64;
    }
    for (i, &idx) in inst.tcp_sinks.iter().enumerate() {
        let sink: &TcpSink = sim.app_as(idx).ok_or("TCP sink missing")?;
        per_flow[i] = sink.bytes_received() as f64;
    }
    for &idx in &inst.bulk_sinks {
        let sink: &BulkUdpSink = sim.app_as(idx).ok_or("bulk UDP sink missing")?;
        for (flow, bytes) in sink.per_flow_bytes() {
            per_flow[flow.0 as usize] = bytes as f64;
        }
    }
    if let Some(fluid) = sim.fluid() {
        for (flow, bytes) in fluid.per_flow_payload_bytes() {
            per_flow[flow as usize] = bytes;
        }
    }
    let mut acked_bytes = 0u64;
    for &idx in &inst.tcp_senders {
        let sender: &TcpSender = sim.app_as(idx).ok_or("TCP sender missing")?;
        acked_bytes += sender.acked_bytes();
    }
    let ping_rtts: Vec<(f64, f64)> = match inst.ping {
        Some(idx) => {
            let ping: &PingApp = sim.app_as(idx).ok_or("ping overlay missing")?;
            ping.rtts().iter().map(|&(t, rtt)| (t.secs_f64(), rtt.secs_f64() * 1e3)).collect()
        }
        None => Vec::new(),
    };
    let stats = sim.stats.clone();
    let engine = sim.engine_report();
    let sim_s = spec.duration.secs_f64();
    let delivered_bytes = stats.payload_bytes_delivered + stats.fluid_bytes_delivered;
    let goodput_gbps = delivered_bytes as f64 * 8.0 / sim_s / 1e9;
    let jain = jain_index(&per_flow);
    tr.exit(s);

    // ---- artifacts + manifest ----
    let mut sink = ArtifactSink::new(out_dir);
    sink.verbose = false;
    let s = tr.enter("viz.sink_write");
    let io = |e: std::io::Error| format!("artifact write: {e}");
    let flows_x = inst.flows as f64;
    sink.write_series("goodput.dat", "flows goodput_gbps", &[(flows_x, goodput_gbps)])
        .map_err(io)?;
    sink.write_series("events.dat", "goodput_gbps events", &[(goodput_gbps, stats.events as f64)])
        .map_err(io)?;
    sink.write_series("jain.dat", "flows jain_index", &[(flows_x, jain)]).map_err(io)?;
    match def.traffic {
        Traffic::PermUdp | Traffic::PermTcp => {
            let series: Vec<(f64, f64)> =
                per_flow.iter().enumerate().map(|(i, &b)| (i as f64, b)).collect();
            sink.write_series("per_flow_bytes.dat", "flow payload_bytes", &series).map_err(io)?;
        }
        Traffic::GravityUdp { .. } | Traffic::HybridBulk { .. } => {
            // A million rows would measure the disk, not the sink: fold
            // per-flow bytes by destination city.
            let mut per_city = vec![0.0f64; cities];
            for (&(_, d), &b) in pairs.iter().zip(&per_flow) {
                per_city[d] += b;
            }
            let series: Vec<(f64, f64)> =
                per_city.iter().enumerate().map(|(i, &b)| (i as f64, b)).collect();
            sink.write_series("per_city_bytes.dat", "dst_city payload_bytes", &series)
                .map_err(io)?;
            sink.write_series(
                "bytes_per_flow.dat",
                "flows bytes_per_flow",
                &[(flows_x, stats.bytes_per_flow().unwrap_or(0.0))],
            )
            .map_err(io)?;
        }
    }
    if inst.ping.is_some() {
        sink.write_series("ping_rtt.dat", "t_s rtt_ms", &ping_rtts).map_err(io)?;
    }
    tr.exit(s);
    let s = tr.enter("viz.manifest");
    sink.record_sim(stats.events, run_wall_s);
    sink.record_engine(&engine);
    if let Some(last) = &last_checkpoint {
        sink.record_checkpoints(checkpoints, last);
    }
    if audit_checks > 0 {
        sink.record_audit(audit_checks, &audit_violations);
    }
    sink.write_manifest(&spec.experiment).map_err(io)?;
    tr.exit(s);
    tr.exit(root);
    clock.cut(Phase::Write);
    let steal_s = clock.steal_s();

    // ---- output check inputs (untimed) ----
    let mut violations: Vec<String> = audit_violations.iter().map(|v| v.to_string()).collect();
    violations.extend(sim.audit().iter().map(|v| v.to_string()));
    let artifact_bytes: u64 = sink.records().iter().map(|r| r.bytes).sum();
    let outcome = Outcome {
        events: stats.events,
        snapshots: 0,
        delivered: stats.delivered,
        goodput_bits: delivered_bytes * 8,
        artifacts: sink
            .records()
            .iter()
            .map(|r| (r.name.clone(), format!("{:016x}", r.fnv64)))
            .collect(),
        violations,
    };

    let mut counters: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        counters.insert(k, v);
    };
    // Every segment but a drive call's last ends in a snapshot.
    put("core.drive_segments", (checkpoints + driven.len() as u64) as f64);
    put("fault.events", fault_events as f64);
    put("netsim.events", stats.events as f64);
    put("netsim.hop_deliveries", stats.hop_deliveries as f64);
    put("netsim.queue_drops", stats.queue_drops as f64);
    put("netsim.routing_drops", stats.routing_drops as f64);
    put("netsim.fault_drops", stats.fault_drops as f64);
    put("netsim.forwarding_updates", stats.forwarding_updates as f64);
    put("netsim.flow_state_bytes", stats.flow_state_bytes as f64);
    put("netsim.bytes_per_flow", stats.bytes_per_flow().unwrap_or(0.0));
    put("netsim.epochs", engine.epochs as f64);
    put("netsim.barriers", engine.barriers as f64);
    put("netsim.min_lookahead_ns", engine.min_lookahead_ns.unwrap_or(0) as f64);
    put("netsim.fluid_resolves", stats.fluid_resolves as f64);
    put("netsim.ckpt_count", checkpoints as f64);
    put("transport.acked_bytes", acked_bytes as f64);
    put(
        "transport.segs_per_event",
        if w.is_tcp() && stats.events > 0 {
            stats.delivered as f64 / stats.events as f64
        } else {
            0.0
        },
    );
    put("viz.artifact_bytes", artifact_bytes as f64);
    // Not a per-layer metric: what the harness's own tests compare with
    // the product's experiment functions.
    put("core.jain", jain);
    if let Some(snap) = &last_checkpoint {
        let bytes = std::fs::metadata(snap).map(|m| m.len()).unwrap_or(0);
        put("netsim.ckpt_bytes", bytes as f64);
    }

    Ok(Rep { wall_s: clock.wall_s, cpu_s: clock.cpu_s, steal_s, sim_s, outcome, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{workloads, Scale};
    use hypatia::experiments::flow_scaling::run_flow_point;
    use hypatia::experiments::hybrid::run_hybrid_point;
    use hypatia::experiments::scalability::{self, run_point, FlowTable};

    /// One untraced smoke-scale repetition of workload `name` — on the
    /// product's permutation matrix when `product_pairs` — plus the
    /// scenario it ran on.
    fn smoke_rep(name: &str, product_pairs: bool) -> (Rep, Scenario, NetsimDef) {
        let w = workloads(Scale::Smoke).into_iter().find(|w| w.name == name).unwrap();
        let def = *w.netsim().unwrap();
        let spec = netsim_spec(name, &def, 7);
        let scenario = spec.build_scenario();
        let out = std::env::temp_dir().join(format!("hyp_bench_{name}_{}", std::process::id()));
        let pairs = product_pairs.then(|| scenario.permutation_pairs(7));
        let rep =
            run_netsim_with(&w, &def, &spec.to_json_string(), &out, &mut Tracer::off(), pairs);
        let _ = std::fs::remove_dir_all(&out);
        (rep.unwrap(), scenario, def)
    }

    fn goodput_gbps(rep: &Rep) -> f64 {
        rep.outcome.goodput_bits as f64 / rep.sim_s / 1e9
    }

    /// The harness loads permutation traffic itself (no product function
    /// separates set-up from the run): on the product's own matrix it must
    /// simulate exactly what fig02's `run_point` does.
    #[test]
    fn permutation_installs_equal_fig02_run_point() {
        for (name, kind) in
            [("udp_perm", scalability::Workload::Udp), ("tcp_perm", scalability::Workload::Tcp)]
        {
            let (rep, scenario, def) = smoke_rep(name, true);
            let want = run_point(
                &scenario,
                kind,
                FlowTable::Apps,
                DataRate::from_kbps(def.line_rate_kbps),
                SimDuration::from_millis(def.duration_ms),
                7,
            );
            assert_eq!(rep.outcome.events, want.events, "{name}");
            assert_eq!(goodput_gbps(&rep), want.goodput_gbps, "{name}");
        }
    }

    /// Same for the arena flow tables against `ext_flow_scaling`'s point …
    #[test]
    fn arena_install_equals_run_flow_point() {
        let (rep, scenario, def) = smoke_rep("flows_1m", false);
        let Traffic::GravityUdp { flows, rate_kbps } = def.traffic else { panic!() };
        let want = run_flow_point(
            &scenario,
            flows,
            FlowTable::Arena,
            DataRate::from_kbps(rate_kbps),
            SimDuration::from_millis(def.duration_ms),
            7,
        );
        assert_eq!(rep.outcome.events, want.events);
        assert_eq!(goodput_gbps(&rep), want.goodput_gbps);
        assert_eq!(rep.counters["core.jain"], want.jain, "per-flow bytes");
        assert_eq!(rep.counters["netsim.bytes_per_flow"], want.bytes_per_flow);
    }

    /// … and for the fluid install against `ext_hybrid_mode`'s.
    #[test]
    fn fluid_install_equals_run_hybrid_point() {
        let (rep, scenario, def) = smoke_rep("hybrid_100k", false);
        let Traffic::HybridBulk { flows, rate_kbps } = def.traffic else { panic!() };
        let want = run_hybrid_point(
            &scenario,
            flows,
            SimMode::Hybrid,
            DataRate::from_kbps(rate_kbps),
            DataRate::from_kbps(0),
            SimDuration::from_millis(def.duration_ms),
            7,
        );
        assert_eq!(want.fluid_flows, flows);
        assert_eq!(rep.outcome.events, want.events);
        assert_eq!(goodput_gbps(&rep), want.goodput_gbps);
        assert_eq!(rep.counters["core.jain"], want.jain, "per-flow bytes");
        assert_eq!(rep.counters["netsim.fluid_resolves"], want.fluid_resolves as f64);
    }

    /// The staged (traced) repetition and the one through the product's
    /// `build_scenario` and `resilience::drive` agree, machinery and all.
    #[test]
    fn traced_pipeline_reproduces_the_untraced_outcome() {
        let w = workloads(Scale::Smoke).into_iter().find(|w| w.name == "tcp_resil").unwrap();
        let def = w.netsim().unwrap();
        let text = netsim_spec(w.name, def, 7).to_json_string();
        let out = std::env::temp_dir().join(format!("hyp_bench_staged_{}", std::process::id()));
        let plain = run_netsim(&w, def, &text, &out, &mut Tracer::off()).unwrap();
        let mut tr = Tracer::on();
        let staged = run_netsim(&w, def, &text, &out, &mut tr).unwrap();
        let _ = std::fs::remove_dir_all(&out);
        assert_eq!(plain.outcome, staged.outcome);
        assert_eq!(plain.counters, staged.counters);
        assert!(plain.counters["netsim.ckpt_count"] >= 2.0);
        assert!(tr.count("netsim.ckpt_restore", "") == 1 && tr.count("netsim.audit", "") >= 3);
    }

    #[test]
    fn perturbed_permutation_is_a_seeded_derangement_near_the_base() {
        let base3 = DetRng::new(BASE_PERMUTATION_SEED).permutation_pairs(3);
        assert_eq!(perturbed_permutation(3, 9), base3, "too small to perturb");
        for n in [4usize, 10, 30, 100] {
            let base = DetRng::new(BASE_PERMUTATION_SEED).permutation_pairs(n);
            for seed in [1u64, 7, 2020] {
                let p = perturbed_permutation(n, seed);
                assert_eq!(p, perturbed_permutation(n, seed), "deterministic in the seed");
                let mut sorted = p.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "a permutation");
                assert!(p.iter().enumerate().all(|(i, &d)| i != d), "no self-pairs");
                let moved = p.iter().zip(&base).filter(|(a, b)| a != b).count();
                assert!(moved >= 2 && moved <= (n / 20).max(2), "n={n} moved {moved}");
            }
        }
        assert_ne!(perturbed_permutation(100, 1), perturbed_permutation(100, 2));
    }
}
