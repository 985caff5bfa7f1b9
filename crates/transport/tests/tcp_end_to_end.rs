//! End-to-end TCP over a simulated constellation.
//!
//! These tests exercise the full stack — orbital geometry, routing,
//! devices/queues, and the TCP state machines — and check the transport-
//! level invariants the paper's §4.2 analysis relies on.

use hypatia_constellation::ground::GroundStation;
use hypatia_constellation::gsl::GslConfig;
use hypatia_constellation::isl::IslLayout;
use hypatia_constellation::shell::ShellSpec;
use hypatia_constellation::Constellation;
use hypatia_netsim::{SimConfig, Simulator};
use hypatia_transport::{Cubic, NewReno, TcpConfig, TcpSender, TcpSink, Vegas};
use hypatia_util::{DataRate, SimTime};
use std::sync::Arc;

fn constellation() -> Arc<Constellation> {
    Arc::new(Constellation::build(
        "tcp-e2e",
        vec![ShellSpec::new("A", 550.0, 12, 12, 53.0)],
        IslLayout::PlusGrid,
        vec![GroundStation::new("src", 10.0, 10.0), GroundStation::new("dst", -5.0, 55.0)],
        GslConfig::new(10.0),
    ))
}

/// Run one TCP flow for `secs` simulated seconds; return (sender log copy,
/// bytes received, retransmits, timeouts).
fn run_flow(
    cc: Box<dyn hypatia_transport::CongestionControl>,
    secs: u64,
    frozen: bool,
) -> (u64, u64, u64, u64) {
    let c = constellation();
    let (src, dst) = (c.gs_node(0), c.gs_node(1));
    let mut cfg = SimConfig::default().with_link_rate(DataRate::from_mbps(10));
    if frozen {
        cfg = cfg.frozen();
    }
    let mut sim = Simulator::new(c, cfg, vec![src, dst]);
    let tcp_cfg = TcpConfig::default();
    let sink_idx = sim.add_app(dst, 80, Box::new(TcpSink::new(tcp_cfg.clone())));
    let sender_idx = sim.add_app(src, 70, Box::new(TcpSender::new(dst, 80, tcp_cfg, cc)));
    sim.run_until(SimTime::from_secs(secs));
    let sink: &TcpSink = sim.app_as(sink_idx).unwrap();
    let sender: &TcpSender = sim.app_as(sender_idx).unwrap();
    (sender.acked_bytes(), sink.bytes_received(), sender.log.retransmits, sender.log.timeouts)
}

#[test]
fn newreno_fills_a_static_path() {
    // On a frozen network (no reordering, no path changes) NewReno must
    // achieve close to the 10 Mbit/s line rate after slow start.
    let (acked, received, _retx, timeouts) = run_flow(Box::new(NewReno::new()), 20, true);
    let goodput_mbps = received as f64 * 8.0 / 20.0 / 1e6;
    assert!(goodput_mbps > 7.0, "NewReno only reached {goodput_mbps:.2} Mbit/s on a clean path");
    assert!(acked <= received + 100 * 1380, "acked beyond received");
    // Slow start overshoots the drop-tail queue once; without SACK the
    // resulting multi-loss burst may be cut short by one (Impatient) RTO.
    // Steady state afterwards must be timeout-free.
    assert!(timeouts <= 2, "persistent RTOs on a clean path: {timeouts}");
}

#[test]
fn newreno_sawtooth_on_static_path() {
    let c = constellation();
    let (src, dst) = (c.gs_node(0), c.gs_node(1));
    let cfg = SimConfig::default().frozen();
    let mut sim = Simulator::new(c, cfg, vec![src, dst]);
    let tcp_cfg = TcpConfig::default();
    sim.add_app(dst, 80, Box::new(TcpSink::new(tcp_cfg.clone())));
    let sender_idx =
        sim.add_app(src, 70, Box::new(TcpSender::new(dst, 80, tcp_cfg, Box::new(NewReno::new()))));
    sim.run_until(SimTime::from_secs(30));
    let sender: &TcpSender = sim.app_as(sender_idx).unwrap();
    // The window must repeatedly rise and get cut (buffer-fill sawtooth):
    // count downward jumps of at least 25%.
    let cwnd = &sender.log.cwnd;
    let mut cuts = 0;
    for w in cwnd.windows(2) {
        if (w[1].1 as f64) < w[0].1 as f64 * 0.75 {
            cuts += 1;
        }
    }
    assert!(cuts >= 2, "expected a sawtooth, saw {cuts} cuts over {} points", cwnd.len());
    assert!(sender.log.fast_retransmits >= 2, "drops should trigger fast retransmit");
}

#[test]
fn vegas_keeps_queues_short_on_static_path() {
    // Vegas on a static path should deliver decent goodput with essentially
    // no loss (near-empty queue), unlike NewReno which fills the buffer.
    let (_, received, retx, _) = run_flow(Box::new(Vegas::new()), 20, true);
    let goodput_mbps = received as f64 * 8.0 / 20.0 / 1e6;
    assert!(goodput_mbps > 4.0, "Vegas goodput {goodput_mbps:.2} Mbit/s too low");
    assert!(retx <= 5, "Vegas should barely lose packets, retransmitted {retx}");
}

#[test]
fn cubic_fills_a_static_path() {
    let (_, received, _, _) = run_flow(Box::new(Cubic::new()), 20, true);
    let goodput_mbps = received as f64 * 8.0 / 20.0 / 1e6;
    assert!(goodput_mbps > 7.0, "CUBIC goodput {goodput_mbps:.2} Mbit/s");
}

#[test]
fn dynamic_network_still_delivers() {
    // With live orbital dynamics (forwarding updates every 100 ms), the
    // flow keeps making progress; RTT samples vary.
    let (_, received, _, _) = run_flow(Box::new(NewReno::new()), 20, false);
    let goodput_mbps = received as f64 * 8.0 / 20.0 / 1e6;
    assert!(goodput_mbps > 3.0, "dynamic-path goodput {goodput_mbps:.2} Mbit/s");
}

#[test]
fn bounded_transfer_completes_and_stops() {
    let c = constellation();
    let (src, dst) = (c.gs_node(0), c.gs_node(1));
    let mut sim = Simulator::new(c, SimConfig::default().frozen(), vec![src, dst]);
    let tcp_cfg = TcpConfig::default().with_max_data(500_000);
    let sink_idx = sim.add_app(dst, 80, Box::new(TcpSink::new(tcp_cfg.clone())));
    let sender_idx =
        sim.add_app(src, 70, Box::new(TcpSender::new(dst, 80, tcp_cfg, Box::new(NewReno::new()))));
    sim.run_until(SimTime::from_secs(60));
    let sink: &TcpSink = sim.app_as(sink_idx).unwrap();
    let sender: &TcpSender = sim.app_as(sender_idx).unwrap();
    assert_eq!(sink.bytes_received(), 500_000, "transfer incomplete");
    assert_eq!(sender.acked_bytes(), 500_000);
    assert_eq!(sender.inflight(), 0, "everything should be ACKed");
}

#[test]
fn tcp_survives_gsl_channel_loss() {
    // Weather-model stand-in: 2% per-transmission GSL loss. TCP must keep
    // making progress (retransmissions recover every hole) at reduced rate.
    let c = constellation();
    let (src, dst) = (c.gs_node(0), c.gs_node(1));
    let cfg = SimConfig::default().frozen().with_gsl_loss(0.02);
    let mut sim = Simulator::new(c, cfg, vec![src, dst]);
    let tcp_cfg = TcpConfig::default();
    let sink_idx = sim.add_app(dst, 80, Box::new(TcpSink::new(tcp_cfg.clone())));
    let sender_idx =
        sim.add_app(src, 70, Box::new(TcpSender::new(dst, 80, tcp_cfg, Box::new(NewReno::new()))));
    sim.run_until(SimTime::from_secs(30));
    assert!(sim.stats.channel_drops > 0, "loss process inactive");
    let sink: &TcpSink = sim.app_as(sink_idx).unwrap();
    let sender: &TcpSender = sim.app_as(sender_idx).unwrap();
    let goodput = sink.bytes_received() as f64 * 8.0 / 30.0 / 1e6;
    assert!(goodput > 0.5, "TCP collapsed under 2% loss: {goodput:.2} Mbit/s");
    assert!(sender.log.retransmits > 0, "loss must force retransmissions");
    // In-order delivery invariant: the sink's byte count only reflects
    // contiguous data, and never exceeds what the sender sent.
    assert!(sink.bytes_received() <= sender.acked_bytes() + 2_000_000);
}

#[test]
fn delayed_ack_disabled_still_works() {
    let c = constellation();
    let (src, dst) = (c.gs_node(0), c.gs_node(1));
    let mut sim = Simulator::new(c, SimConfig::default().frozen(), vec![src, dst]);
    let tcp_cfg = TcpConfig::default().without_delayed_ack();
    let sink_idx = sim.add_app(dst, 80, Box::new(TcpSink::new(tcp_cfg.clone())));
    sim.add_app(src, 70, Box::new(TcpSender::new(dst, 80, tcp_cfg, Box::new(NewReno::new()))));
    // 20 s horizon: the first seconds are dominated by the slow-start
    // overshoot recovery, which differs in timing without delayed ACKs.
    sim.run_until(SimTime::from_secs(20));
    let sink: &TcpSink = sim.app_as(sink_idx).unwrap();
    let goodput = sink.bytes_received() as f64 * 8.0 / 20.0 / 1e6;
    assert!(goodput > 6.0, "goodput without delayed ACKs: {goodput:.2}");
}

#[test]
fn tcp_flow_resumes_bit_identically_from_a_checkpoint() {
    // The full transport state machine — window, recovery, RTT estimator,
    // CC internals, reassembly buffer, delayed-ACK timers — must travel
    // through a snapshot: a run checkpointed mid-flow and resumed in a
    // fresh process image must finish byte-identically to one that never
    // stopped. Dynamic orbital forwarding plus GSL channel loss makes
    // this exercise the RNG and forwarding cursors too.
    let build = || {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default().with_link_rate(DataRate::from_mbps(10)).with_gsl_loss(0.02);
        let mut sim = Simulator::new(c, cfg, vec![src, dst]);
        let tcp_cfg = TcpConfig::default();
        let sink_idx = sim.add_app(dst, 80, Box::new(TcpSink::new(tcp_cfg.clone())));
        let sender_idx = sim.add_app(
            src,
            70,
            Box::new(TcpSender::new(dst, 80, tcp_cfg, Box::new(NewReno::new()))),
        );
        (sim, sink_idx, sender_idx)
    };

    let (mut clean, clean_sink, clean_sender) = build();
    clean.run_until(SimTime::from_secs(10));

    let (mut first, ..) = build();
    first.run_until(SimTime::from_secs(4));
    let image = first.checkpoint().expect("checkpoint");
    drop(first);

    let (mut resumed, res_sink, res_sender) = build();
    resumed.restore(image).expect("restore");
    assert_eq!(resumed.now(), SimTime::from_secs(4));
    resumed.run_until(SimTime::from_secs(10));

    let a: &TcpSink = clean.app_as(clean_sink).unwrap();
    let b: &TcpSink = resumed.app_as(res_sink).unwrap();
    assert!(a.bytes_received() > 500_000, "flow barely moved: {}", a.bytes_received());
    assert_eq!(a.bytes_received(), b.bytes_received());
    assert_eq!(a.goodput_bins_100ms(), b.goodput_bins_100ms());
    let sa: &TcpSender = clean.app_as(clean_sender).unwrap();
    let sb: &TcpSender = resumed.app_as(res_sender).unwrap();
    assert_eq!(sa.acked_bytes(), sb.acked_bytes());
    assert_eq!(sa.log.cwnd, sb.log.cwnd);
    assert_eq!(sa.log.rtt_samples, sb.log.rtt_samples);
    assert_eq!(sa.log.retransmits, sb.log.retransmits);
    assert_eq!(sa.log.timeouts, sb.log.timeouts);
    // Strongest form: the final serialized state is identical bit for bit.
    assert_eq!(clean.checkpoint().unwrap(), resumed.checkpoint().unwrap());
}

#[test]
fn bulk_tcp_tables_resume_bit_identically() {
    // Arena flow tables demux many protocol endpoints through one app
    // slot; their save path must round-trip each flow in table order.
    use hypatia_transport::{BulkTcpSender, BulkTcpSink};
    let build = || {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default().with_link_rate(DataRate::from_mbps(10));
        let mut sim = Simulator::new(c, cfg, vec![src, dst]);
        let tcp_cfg = TcpConfig::default();
        let mut senders = BulkTcpSender::new();
        let mut sinks = BulkTcpSink::new();
        for i in 0..4u16 {
            sinks.push(80 + i, tcp_cfg.clone());
            senders.push(70 + i, dst, 80 + i, tcp_cfg.clone(), Box::new(NewReno::new()));
        }
        let sink_ports = sinks.ports();
        let sender_ports = senders.ports();
        let sink_idx = sim.add_app_multi(dst, &sink_ports, Box::new(sinks));
        sim.add_app_multi(src, &sender_ports, Box::new(senders));
        (sim, sink_idx)
    };

    let (mut clean, clean_sinks) = build();
    clean.run_until(SimTime::from_secs(8));

    let (mut first, _) = build();
    first.run_until(SimTime::from_secs(3));
    let image = first.checkpoint().expect("checkpoint");
    drop(first);

    let (mut resumed, res_sinks) = build();
    resumed.restore(image).expect("restore");
    resumed.run_until(SimTime::from_secs(8));

    let a: &hypatia_transport::BulkTcpSink = clean.app_as(clean_sinks).unwrap();
    let b: &hypatia_transport::BulkTcpSink = resumed.app_as(res_sinks).unwrap();
    for i in 0..4 {
        assert!(a.flow(i).bytes_received() > 0, "flow {i} never started");
        assert_eq!(a.flow(i).bytes_received(), b.flow(i).bytes_received(), "flow {i}");
    }
    assert_eq!(clean.checkpoint().unwrap(), resumed.checkpoint().unwrap());
}

#[test]
fn per_packet_rtts_are_physically_plausible() {
    let c = constellation();
    let (src, dst) = (c.gs_node(0), c.gs_node(1));
    let geodesic = c.ground_stations[0].geodesic_rtt(&c.ground_stations[1]);
    let mut sim = Simulator::new(c, SimConfig::default(), vec![src, dst]);
    let tcp_cfg = TcpConfig::default();
    sim.add_app(dst, 80, Box::new(TcpSink::new(tcp_cfg.clone())));
    let sender_idx =
        sim.add_app(src, 70, Box::new(TcpSender::new(dst, 80, tcp_cfg, Box::new(NewReno::new()))));
    sim.run_until(SimTime::from_secs(10));
    let sender: &TcpSender = sim.app_as(sender_idx).unwrap();
    assert!(!sender.log.rtt_samples.is_empty());
    for &(_, rtt) in &sender.log.rtt_samples {
        assert!(rtt >= geodesic, "RTT {rtt} below the geodesic bound {geodesic}");
        assert!(rtt.secs_f64() < 5.0, "absurd RTT {rtt}");
    }
}

/// FNV-1a-64 of a snapshot image.
fn image_hash(image: &[u8]) -> u64 {
    let mut h = hypatia_util::hash::Fnv1a64::new();
    h.write(image);
    h.finish()
}

/// Mid-run images of one lossy TCP flow under each congestion controller,
/// and of bulk TCP tables mixing all four, are byte for byte the images
/// the hand-written per-field codec wrote (hashes taken from it,
/// re-pinned at checkpoint version 3 without the two-part sections);
/// restore → re-checkpoint reproduces each image exactly.
#[test]
fn mid_run_tcp_images_are_pinned_and_round_trip() {
    use hypatia_transport::{Bbr, BulkTcpSender, BulkTcpSink, CongestionControl};
    fn cc(i: usize) -> Box<dyn CongestionControl> {
        match i % 4 {
            0 => Box::new(NewReno::new()),
            1 => Box::new(Cubic::new()),
            2 => Box::new(Vegas::new()),
            _ => Box::new(Bbr::new()),
        }
    }
    // Cases 0..4 are one flow under controller `case`; case 4 is a bulk
    // table of four flows, one per controller.
    let build = |case: usize| {
        let c = constellation();
        let (src, dst) = (c.gs_node(0), c.gs_node(1));
        let cfg = SimConfig::default().with_link_rate(DataRate::from_mbps(10)).with_gsl_loss(0.02);
        let mut sim = Simulator::new(c, cfg, vec![src, dst]);
        let tcp_cfg = TcpConfig::default();
        if case < 4 {
            sim.add_app(dst, 80, Box::new(TcpSink::new(tcp_cfg.clone())));
            sim.add_app(src, 70, Box::new(TcpSender::new(dst, 80, tcp_cfg, cc(case))));
        } else {
            let (mut senders, mut sinks) = (BulkTcpSender::new(), BulkTcpSink::new());
            for i in 0..4u16 {
                sinks.push(80 + i, tcp_cfg.clone());
                senders.push(70 + i, dst, 80 + i, tcp_cfg.clone(), cc(i as usize));
            }
            let (sink_ports, sender_ports) = (sinks.ports(), senders.ports());
            sim.add_app_multi(dst, &sink_ports, Box::new(sinks));
            sim.add_app_multi(src, &sender_ports, Box::new(senders));
        }
        sim
    };
    let pinned = [
        0xf957_9269_6760_d754u64,
        0xaac9_6bcc_1229_9df0,
        0x2402_1ae8_d59f_a94d,
        0xb0aa_a427_4c51_be47,
        0x071b_0a61_b85d_894f,
    ];
    for (case, &want) in pinned.iter().enumerate() {
        let mut sim = build(case);
        sim.run_until(SimTime::from_millis(2500));
        let image = sim.checkpoint().expect("checkpoint");
        assert_eq!(image_hash(&image), want, "case {case}: {} bytes", image.len());
        let mut resumed = build(case);
        resumed.restore(image.clone()).expect("restore");
        assert_eq!(resumed.checkpoint().expect("re-checkpoint"), image, "case {case}");
    }
}
