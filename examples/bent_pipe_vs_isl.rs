//! ISLs vs bent-pipe ground relays (paper Appendix A), in brief.
//!
//! Compares Paris → Moscow over Kuiper K1 with laser inter-satellite links
//! against the same shell with no ISLs, where long-haul traffic bounces
//! through a grid of candidate ground-station relays.
//!
//! Run with: `cargo run --release --example bent_pipe_vs_isl`

use hypatia::experiments::bent_pipe::{run, BentPipeConfig};
use hypatia::resilience::Driver;
use hypatia::util::SimDuration;
use hypatia_constellation::GroundStation;

fn main() {
    let cfg = BentPipeConfig {
        duration: SimDuration::from_secs(30),
        relay_spacing_deg: 4.0,
        relay_margin_deg: 2.0,
    };
    println!("Paris -> Moscow over Kuiper K1, {} simulated\n", cfg.duration);

    let r = run(
        GroundStation::new("Paris", 48.8566, 2.3522),
        GroundStation::new("Moscow", 55.7558, 37.6173),
        &cfg,
        &Driver::default(),
    )
    .expect("a plain run has no failure path");

    for leg in [&r.isl, &r.bent_pipe] {
        let mbps = leg.bytes_received as f64 * 8.0 / cfg.duration.secs_f64() / 1e6;
        println!("[{}]", leg.label);
        println!("  mean computed RTT : {:>7.1} ms", leg.mean_computed_rtt_ms);
        println!("  TCP goodput       : {mbps:>7.2} Mbit/s");
        if let Some(path) = &leg.path_t0 {
            println!("  path at t=0       : {} nodes", path.len());
        }
        println!();
    }

    println!(
        "bent-pipe RTT penalty: {:.1} ms (paper: typically ~5 ms on this route)",
        r.bent_pipe.mean_computed_rtt_ms - r.isl.mean_computed_rtt_ms
    );
    println!("TCP behaves differently on bent-pipe: ACKs share each satellite's");
    println!("single GSL queue with data, inflating RTT estimates (Fig. 19).");
}
