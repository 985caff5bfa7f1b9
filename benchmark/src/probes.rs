//! Isolated layer probes for the traced pass: each drives one crate's
//! public API with no simulator around it, so a number here moves only
//! when that layer's code does.
//!
//! * [`queue_hold`] — the classic *hold model* on `netsim::EventQueue`;
//! * [`routing_probe`] — snapshot / diff / full SSSP / repair per
//!   snapshot, plus `orbit` propagation and `fault` state lookup;
//! * [`tcp_loopback`] — a `TcpSender`↔`TcpSink` pair over a harness-side
//!   bottleneck link;
//! * [`fluid_probe`] — `FluidNet::add_flow` and `FluidNet::resolve`;
//! * [`par_sweep`] — the snapshot-routing fan-out at a given thread count.

use hypatia_constellation::{Constellation, NodeId};
use hypatia_fault::{FaultSchedule, FaultState};
use hypatia_netsim::event::{Event, EventQueue};
use hypatia_netsim::fluid::FluidNet;
use hypatia_netsim::packet::{flow_hash, packet_id, HEADER_BYTES};
use hypatia_netsim::{AppCtx, Application, Packet, QueueKind};
use hypatia_routing::forwarding::{compute_forwarding_state_into, ForwardingState};
use hypatia_routing::graph::SnapshotBuffers;
use hypatia_routing::incremental::{GraphDiff, IncrementalRouter, RouterStats, RoutingConfig};
use hypatia_routing::parallel::{for_each_step_ordered, SnapshotWorker};
use hypatia_routing::{DelayGraph, DijkstraScratch};
use hypatia_transport::{NewReno, TcpConfig, TcpSender, TcpSink};
use hypatia_util::rng::DetRng;
use hypatia_util::{DataRate, DataSize, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

// ---------------------------------------------------------------- queue

/// Which delays the hold model's increments are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HoldMix {
    /// Alternating serialisation delay (one 1500 B frame at the workload's
    /// line rate) and propagation delay (uniform 2–12 ms): everything
    /// lands in the calendar wheel.
    Packet,
    /// Half propagation delays, half RTO-style timers (uniform 200 ms–1 s)
    /// that land in the calendar queue's overflow heap.
    Timer,
}

/// `n` hold-model increments in ns, deterministic in `(seed, mix,
/// line_rate)`.
pub fn hold_increments(seed: u64, mix: HoldMix, line_rate: DataRate, n: usize) -> Vec<u64> {
    let mut rng = DetRng::new(seed ^ 0x686f_6c64); // "hold"
    let ser_ns = line_rate.serialization_delay(DataSize::from_bytes(1500)).nanos().max(1);
    (0..n)
        .map(|i| {
            let prop_ns = 2_000_000 + rng.next_below(10_000_000);
            let timer_ns = 200_000_000 + rng.next_below(800_000_000);
            match (mix, i % 2) {
                (HoldMix::Packet, 0) => ser_ns,
                (HoldMix::Timer, 0) => timer_ns,
                _ => prop_ns,
            }
        })
        .collect()
}

/// Hold model: fill `queue` to `pending` events, then `ops` times pop the
/// earliest event and schedule one `increment` later. Returns ns per
/// pop+schedule pair. The pending count stays constant throughout.
pub fn queue_hold(kind: QueueKind, pending: usize, increments: &[u64], ops: usize) -> f64 {
    let mut q = EventQueue::with_kind(kind);
    let mut inc = increments.iter().copied().cycle();
    for i in 0..pending {
        let at = SimTime::from_nanos(inc.next().unwrap_or(1));
        q.schedule(at, Event::TxComplete { node: i as u32, device: 0 });
    }
    let mut hold = |q: &mut EventQueue, n: usize| {
        for _ in 0..n {
            let Some((t, ev)) = q.pop() else { return };
            q.schedule(t + SimDuration::from_nanos(inc.next().unwrap_or(1)), ev);
        }
    };
    // Warm up through one full turnover of the population: the fill's
    // pending times are one increment wide, the steady state's are not.
    hold(&mut q, pending);
    // Timed in chunks, median chunk reported, like every other timing.
    const CHUNKS: usize = 5;
    let per_chunk = (ops / CHUNKS).max(1);
    let chunk_ns: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let t0 = Instant::now();
            hold(&mut q, per_chunk);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    assert_eq!(q.len(), pending, "hold model must keep the pending count constant");
    crate::stats::median(&chunk_ns).unwrap_or(f64::NAN) / per_chunk as f64
}

// -------------------------------------------------------------- routing

/// Mean per-snapshot cost of each routing stage on one constellation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoutingProbe {
    /// `Constellation::positions_at_into`, ns per satellite.
    pub positions_ns_per_sat: f64,
    /// `FaultState::at`, µs per step (0 without a schedule).
    pub fault_state_at_us: f64,
    /// `SnapshotBuffers::snapshot[_masked]`, ms.
    pub graph_snapshot_ms: f64,
    /// `GraphDiff::diff_into` between consecutive snapshots, ms.
    pub diff_ms: f64,
    /// `compute_forwarding_state_into` (every destination from scratch), ms.
    pub full_sssp_ms: f64,
    /// `IncrementalRouter::compute_into`, ms (first snapshot excluded: it
    /// has nothing to repair).
    pub repair_ms: f64,
    /// Mean `GraphDiff::churn_fraction` between consecutive snapshots.
    pub churn_frac_mean: f64,
    /// The probe router's decision counters.
    pub stats: RouterStats,
}

/// Walk `times` once, timing every routing stage separately.
pub fn routing_probe(
    c: &Constellation,
    dests: &[NodeId],
    times: &[SimTime],
    schedule: Option<&FaultSchedule>,
    routing: RoutingConfig,
) -> RoutingProbe {
    let mut out = RoutingProbe::default();
    if times.is_empty() {
        return out;
    }
    let n = times.len() as f64;
    let secs = |t0: Instant| t0.elapsed().as_secs_f64();

    let mut positions = Vec::new();
    let t0 = Instant::now();
    for &t in times {
        c.positions_at_into(t, &mut positions);
        std::hint::black_box(&positions);
    }
    out.positions_ns_per_sat = secs(t0) * 1e9 / n / c.num_satellites().max(1) as f64;

    let mut buffers = SnapshotBuffers::new();
    let mut router = IncrementalRouter::new(routing);
    let mut repaired = ForwardingState::empty();
    let mut full = ForwardingState::empty();
    let mut scratch = DijkstraScratch::new();
    let mut diff = GraphDiff::default();
    let mut prev: Option<DelayGraph> = None;
    let (mut snap_s, mut diff_s, mut full_s, mut repair_s, mut fault_s, mut churn) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (k, &t) in times.iter().enumerate() {
        let t0 = Instant::now();
        let mask = schedule.map(|s| FaultState::at(s, t));
        fault_s += secs(t0);

        let t0 = Instant::now();
        let graph = buffers.snapshot_masked(c, t, mask.as_ref());
        snap_s += secs(t0);

        if let Some(prev) = &prev {
            let t0 = Instant::now();
            diff.diff_into(prev, graph);
            diff_s += secs(t0);
            churn += diff.churn_fraction();
        }

        let t0 = Instant::now();
        compute_forwarding_state_into(graph, t, dests, &mut scratch, &mut full);
        full_s += secs(t0);

        let t0 = Instant::now();
        router.compute_into(graph, t, dests, &mut repaired);
        if k > 0 {
            repair_s += secs(t0);
        }
        std::hint::black_box((&full, &repaired));
        match &mut prev {
            Some(p) => p.clone_from(graph),
            None => prev = Some(graph.clone()),
        }
    }
    let later = (times.len() - 1).max(1) as f64;
    out.fault_state_at_us = if schedule.is_some() { fault_s * 1e6 / n } else { 0.0 };
    out.graph_snapshot_ms = snap_s * 1e3 / n;
    out.diff_ms = diff_s * 1e3 / later;
    out.full_sssp_ms = full_s * 1e3 / n;
    out.repair_ms = repair_s * 1e3 / later;
    out.churn_frac_mean = churn / later;
    out.stats = router.stats;
    out
}

/// Wall seconds to compute the masked forwarding state of every instant
/// in `times` on `threads` workers, consumed in order (the pipeline
/// `pair_sweep` fans out over).
pub fn par_sweep(
    c: &Constellation,
    dests: &[NodeId],
    times: &[SimTime],
    schedule: &FaultSchedule,
    routing: RoutingConfig,
    threads: usize,
) -> f64 {
    let t0 = Instant::now();
    for_each_step_ordered(
        times.len() as u64,
        threads,
        2 * threads,
        || SnapshotWorker::with_config(routing),
        |worker, k| {
            let t = times[k as usize];
            let mask = FaultState::at(schedule, t);
            worker.forwarding_state_masked(c, t, dests, Some(&mask))
        },
        |_, state| {
            std::hint::black_box(&state);
        },
    );
    t0.elapsed().as_secs_f64()
}

// ------------------------------------------------------------ transport

/// What the harness-side loop carries between the two endpoints.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Item {
    ToSink(u64),
    ToSender(u64),
    SenderTimer(u64),
    SinkTimer(u64),
}

/// Result of [`tcp_loopback`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Loopback {
    /// Wall ns per segment handled by either endpoint (data + ACK).
    pub ns_per_seg: f64,
    /// Segments handled (deterministic).
    pub segments: u64,
    /// Bytes the sender saw acknowledged (deterministic).
    pub acked_bytes: u64,
}

/// Drive one NewReno `TcpSender` against one `TcpSink` for `horizon` of
/// simulated time over a harness-side link: `rate` bottleneck with a
/// 100-packet drop-tail queue one way, 10 ms propagation both ways. No
/// simulator — only `AppCtx::new`, the `Application` callbacks and
/// `take_actions`.
pub fn tcp_loopback(rate: DataRate, horizon: SimDuration) -> Loopback {
    const PROP_NS: u64 = 10_000_000;
    const QUEUE_PACKETS: u64 = 100;
    let (snd_node, snk_node) = (NodeId(0), NodeId(1));
    let (snd_port, snk_port) = (20_000u16, 40_000u16);
    let cfg = TcpConfig::default();
    let mut sender = TcpSender::new(snk_node, snk_port, cfg.clone(), Box::new(NewReno::new()));
    let mut sink = TcpSink::new(cfg);

    // (time, tie-break, item); packets live in a side table by key.
    let mut heap: BinaryHeap<Reverse<(u64, u64, Item)>> = BinaryHeap::new();
    let mut packets: Vec<Packet> = Vec::new();
    let mut seq = 0u64;
    let mut link_free_ns = 0u64;
    let mut out = Loopback::default();

    // Turn one endpoint's buffered actions into heap items.
    let mut apply = |ctx: &mut AppCtx,
                     from_sender: bool,
                     heap: &mut BinaryHeap<Reverse<(u64, u64, Item)>>,
                     packets: &mut Vec<Packet>| {
        let now = ctx.now.nanos();
        for action in ctx.take_actions() {
            use hypatia_netsim::app::AppAction;
            seq += 1;
            match action {
                AppAction::Send { dst, dst_port, size_bytes, payload }
                | AppAction::SendFrom { dst, dst_port, size_bytes, payload, .. } => {
                    let (src, src_port) =
                        if from_sender { (snd_node, snd_port) } else { (snk_node, snk_port) };
                    let packet = Packet {
                        id: packet_id(src, seq as u32),
                        src,
                        dst,
                        src_port,
                        dst_port,
                        size_bytes,
                        payload,
                        injected_at: ctx.now,
                        hops: 0,
                        flow_hash: flow_hash(src, dst, src_port, dst_port),
                    };
                    let key = packets.len() as u64;
                    if from_sender {
                        // Bottleneck with a drop-tail queue on the data path.
                        let ser = rate.serialization_delay(packet.size()).nanos();
                        let backlog = link_free_ns.saturating_sub(now);
                        if backlog > QUEUE_PACKETS * ser {
                            continue;
                        }
                        link_free_ns = link_free_ns.max(now) + ser;
                        packets.push(packet);
                        heap.push(Reverse((link_free_ns + PROP_NS, seq, Item::ToSink(key))));
                    } else {
                        packets.push(packet);
                        heap.push(Reverse((now + PROP_NS, seq, Item::ToSender(key))));
                    }
                }
                AppAction::Timer { delay, timer_id } => {
                    let item = if from_sender {
                        Item::SenderTimer(timer_id)
                    } else {
                        Item::SinkTimer(timer_id)
                    };
                    heap.push(Reverse((now + delay.nanos(), seq, item)));
                }
            }
        }
    };

    let t0 = Instant::now();
    let mut ctx = AppCtx::new(SimTime::ZERO, snd_node, snd_port);
    sender.on_start(&mut ctx);
    apply(&mut ctx, true, &mut heap, &mut packets);
    let mut ctx = AppCtx::new(SimTime::ZERO, snk_node, snk_port);
    sink.on_start(&mut ctx);
    apply(&mut ctx, false, &mut heap, &mut packets);
    while let Some(Reverse((at, _, item))) = heap.pop() {
        if at > horizon.nanos() {
            break;
        }
        let now = SimTime::from_nanos(at);
        match item {
            Item::ToSink(key) => {
                let mut ctx = AppCtx::new(now, snk_node, snk_port);
                sink.on_packet(&mut ctx, &packets[key as usize]);
                out.segments += 1;
                apply(&mut ctx, false, &mut heap, &mut packets);
            }
            Item::ToSender(key) => {
                let mut ctx = AppCtx::new(now, snd_node, snd_port);
                sender.on_packet(&mut ctx, &packets[key as usize]);
                out.segments += 1;
                apply(&mut ctx, true, &mut heap, &mut packets);
            }
            Item::SenderTimer(id) => {
                let mut ctx = AppCtx::new(now, snd_node, snd_port);
                sender.on_timer(&mut ctx, id);
                apply(&mut ctx, true, &mut heap, &mut packets);
            }
            Item::SinkTimer(id) => {
                let mut ctx = AppCtx::new(now, snk_node, snk_port);
                sink.on_timer(&mut ctx, id);
                apply(&mut ctx, false, &mut heap, &mut packets);
            }
        }
    }
    out.ns_per_seg = t0.elapsed().as_nanos() as f64 / out.segments.max(1) as f64;
    out.acked_bytes = sender.acked_bytes();
    out
}

// ---------------------------------------------------------------- fluid

/// Result of [`fluid_probe`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FluidProbe {
    /// Wall seconds of the `FluidNet::add_flow` loop.
    pub add_flow_s: f64,
    /// Mean wall ms per `FluidNet::resolve`.
    pub resolve_ms: f64,
}

/// Build a `FluidNet` carrying `pairs` at `rate` each and re-solve it
/// `resolves` times against the forwarding state `fwd`.
pub fn fluid_probe(
    c: &Constellation,
    fwd: &ForwardingState,
    pairs: &[(usize, usize)],
    link_rate: DataRate,
    rate: DataRate,
    stop: SimTime,
    resolves: usize,
) -> FluidProbe {
    let mut net = FluidNet::new(link_rate, link_rate);
    let t0 = Instant::now();
    for (i, &(s, d)) in pairs.iter().enumerate() {
        net.add_flow(i as u32, c.gs_node(s), c.gs_node(d), rate, 1500 - HEADER_BYTES, stop);
    }
    let add_flow_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..resolves {
        net.resolve(SimTime::ZERO, fwd, None, c);
    }
    let resolve_ms = t0.elapsed().as_secs_f64() * 1e3 / resolves.max(1) as f64;
    std::hint::black_box(net.resolves());
    FluidProbe { add_flow_s, resolve_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_increments_are_deterministic_in_the_seed() {
        let rate = DataRate::from_mbps(100);
        let a = hold_increments(2020, HoldMix::Packet, rate, 1000);
        assert_eq!(a, hold_increments(2020, HoldMix::Packet, rate, 1000));
        assert_ne!(a, hold_increments(7, HoldMix::Packet, rate, 1000));
        assert_ne!(a, hold_increments(2020, HoldMix::Timer, rate, 1000));
        // Packet mix: even entries are one 1500 B frame at the line rate.
        assert!(a.iter().step_by(2).all(|&ns| ns == 120_000), "{:?}", &a[..4]);
        assert!(a.iter().skip(1).step_by(2).all(|&ns| (2_000_000..12_000_000).contains(&ns)));
        // Timer mix: even entries are RTO-scale and overflow the 16.8 ms wheel.
        let t = hold_increments(2020, HoldMix::Timer, rate, 1000);
        assert!(t.iter().step_by(2).all(|&ns| (200_000_000..1_000_000_000).contains(&ns)));
    }

    #[test]
    fn hold_model_runs_on_both_queue_kinds_and_keeps_the_population() {
        let inc = hold_increments(1, HoldMix::Timer, DataRate::from_mbps(10), 257);
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let ns = queue_hold(kind, 500, &inc, 2_000);
            assert!(ns > 0.0 && ns.is_finite());
        }
    }

    #[test]
    fn loopback_is_deterministic_and_makes_progress() {
        let a = tcp_loopback(DataRate::from_mbps(10), SimDuration::from_secs(3));
        let b = tcp_loopback(DataRate::from_mbps(10), SimDuration::from_secs(3));
        assert_eq!((a.segments, a.acked_bytes), (b.segments, b.acked_bytes));
        assert!(a.segments > 1_000, "{a:?}");
        // 3 s at 10 Mbit/s cannot acknowledge more than the link carries.
        assert!(a.acked_bytes > 100_000 && a.acked_bytes < 3_750_000, "{a:?}");
    }
}
