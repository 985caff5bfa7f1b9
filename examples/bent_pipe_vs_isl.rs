//! ISLs vs bent-pipe ground relays (paper Appendix A), in brief.
//!
//! Compares Paris → Moscow over Kuiper K1 with laser inter-satellite links
//! against the same shell with no ISLs, where long-haul traffic bounces
//! through a grid of candidate ground-station relays.
//!
//! Run with: `cargo run --release --example bent_pipe_vs_isl`

use hypatia::experiments::bent_pipe::run;
use hypatia::resilience::Driver;
use hypatia::runner::ExperimentRunner;

fn main() {
    // The figure's reduced spec (a 4° relay grid with a 2° margin), 30 s.
    let mut spec = ExperimentRunner::new().spec("fig16_19_bent_pipe", false).expect("registered");
    spec.set("duration_s", "30").expect("a valid duration");
    println!("Paris -> Moscow over Kuiper K1, {} simulated\n", spec.duration);

    let r = run(&spec, &Driver::default()).expect("a plain run has no failure path");

    for leg in [&r.isl, &r.bent_pipe] {
        let mbps = leg.tcp.goodput_mbps(spec.duration);
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
