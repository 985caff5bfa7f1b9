//! Congestion control over a moving constellation: NewReno vs Vegas vs
//! CUBIC on the same LEO path, no competing traffic (paper §4.2).
//!
//! Run with: `cargo run --release --example congestion_study`

use hypatia::experiments::tcp_single::{flow_tag, run, CcKind};
use hypatia::resilience::Driver;
use hypatia::scenario::{ConstellationChoice, ScenarioBuilder};
use hypatia::util::SimDuration;

fn main() {
    let scenario = ScenarioBuilder::new(ConstellationChoice::KuiperK1).top_cities(100).build();
    let duration = SimDuration::from_secs(30);
    let (src_name, dst_name) = ("Manila", "Dalian");
    let src = scenario.gs_by_name(src_name).expect("a top-100 city");
    let dst = scenario.gs_by_name(dst_name).expect("a top-100 city");
    println!("flow: {src_name} -> {dst_name} over Kuiper K1, {duration} of simulated time\n");

    println!(
        "{:<9} {:>10} {:>10} {:>9} {:>9} {:>10}",
        "CC", "goodput", "mean RTT", "fast rtx", "RTOs", "reordered"
    );
    for cc in [CcKind::NewReno, CcKind::Vegas, CcKind::Cubic, CcKind::Bbr] {
        let tag = flow_tag(cc, src_name, dst_name);
        let r =
            run(&scenario, src, dst, cc, duration, &tag, &Driver::default()).expect("a plain run");
        let mean_rtt = if r.rtt_series.is_empty() {
            f64::NAN
        } else {
            r.rtt_series.iter().map(|&(_, x)| x).sum::<f64>() / r.rtt_series.len() as f64
        };
        println!(
            "{:<9} {:>7.2}Mb {:>8.1}ms {:>9} {:>9} {:>10}",
            cc.name(),
            r.goodput_mbps(duration),
            mean_rtt,
            r.fast_retransmits,
            r.timeouts,
            r.reordered_arrivals
        );
    }

    println!();
    println!("Takeaway (paper §4.2): loss-based CC fills queues and misreads");
    println!("reordering as loss; delay-based CC misreads path-RTT changes as");
    println!("congestion. Both signals are unreliable over LEO dynamics.");
}
