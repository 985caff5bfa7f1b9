//! Figs. 6–8 — per-pair RTT and path-structure ECDFs over Telesat T1,
//! Kuiper K1 and Starlink S1, all read off one pair sweep per
//! constellation.
//!
//! - Fig. 6: max RTT / geodesic RTT. Expected (paper §5.1): >80% of pairs
//!   below 2× the geodesic for every constellation; Telesat lowest despite
//!   the fewest satellites (its 10° minimum elevation admits many more GSL
//!   options); Starlink above Kuiper (22 vs 34 satellites per orbit forces
//!   zig-zag paths).
//! - Fig. 7: (a) max RTT, (b) max−min, (c) max/min. Expected: Starlink S1
//!   sees the largest variations (~10 ms median delta; >30% of pairs with
//!   max ≥ 1.2× min); Telesat the smallest.
//! - Fig. 8: (a) path changes, (b) hop-count difference, (c) hop-count
//!   ratio. Expected: Telesat's paths change less than Kuiper's/Starlink's
//!   (median 2 vs 4 changes over 200 s in the paper); Starlink shows the
//!   largest hop-count spreads (>1/3 of pairs with ≥2 extra hops).

use crate::analysis::{fraction_where, percentile};
use crate::experiments::pair_sweep::{self, PairStats, PairSweepConfig};
use crate::runner::{About, Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection};
use hypatia_util::SimDuration;
use hypatia_viz::csv::ecdf;

/// One constellation's name and per-pair statistics.
type Sweep = (&'static str, Vec<PairStats>);

/// Figs. 6, 7 and 8 as one registered experiment.
#[allow(non_camel_case_types)]
pub struct Fig06_08;

impl Experiment for Fig06_08 {
    fn about(&self) -> About {
        About {
            name: "fig06_08_rtt_path_ecdfs",
            label: Some("Figs. 6-8"),
            title: "RTTs, their variation and path changes (ECDFs across pairs)",
            knobs: "duration_s step_ms ground pairs",
            faults: false,
        }
    }

    fn defaults(&self, full: bool) -> ExperimentSpec {
        ExperimentSpec {
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::TopCities(if full { 100 } else { 40 }),
            pairs: PairSelection::MinDistance { km: 500.0 },
            duration: SimDuration::from_secs(200),
            step: SimDuration::from_millis(if full { 100 } else { 500 }),
            ..ExperimentSpec::default()
        }
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let sweeps = three_constellation_sweep(&ctx.spec)?;
        fig06(ctx, &sweeps)?;
        println!();
        fig07(ctx, &sweeps)?;
        println!();
        fig08(ctx, &sweeps)
    }
}

/// The pair sweep over Telesat T1, Kuiper K1 and Starlink S1 — the paper's
/// comparison set — driven by one spec: ground segment, duration, step,
/// minimum pair distance and thread count all come from it.
fn three_constellation_sweep(spec: &ExperimentSpec) -> Result<Vec<Sweep>, RunError> {
    let gses = spec.ground.stations();
    let cities = gses.len();
    let cfg = PairSweepConfig {
        duration: spec.duration,
        step: spec.step,
        min_pair_distance_km: spec.min_pair_distance_km()?,
        threads: spec.threads,
        routing: spec.routing_config(),
    };

    let choices = [
        ("Telesat T1", ConstellationChoice::TelesatT1),
        ("Kuiper K1", ConstellationChoice::KuiperK1),
        ("Starlink S1", ConstellationChoice::StarlinkS1),
    ];
    Ok(choices
        .into_iter()
        .map(|(name, choice)| {
            eprintln!("  sweeping {name} ({cities} cities)...");
            let c = choice.build(gses.clone());
            (name, pair_sweep::run(&c, &cfg))
        })
        .collect())
}

/// `f` of every pair, non-finite values dropped.
fn finite(stats: &[PairStats], f: impl Fn(&PairStats) -> f64) -> Vec<f64> {
    stats.iter().map(f).filter(|v| v.is_finite()).collect()
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(f64::NAN)
}

/// Write the ECDF of `values` as `{stem}_{constellation slug}.dat`.
fn write_ecdf(
    ctx: &mut RunContext,
    stem: &str,
    constellation: &str,
    header: &str,
    values: &[f64],
) -> Result<(), RunError> {
    let slug = constellation.to_lowercase().replace(' ', "_");
    ctx.sink.write_series(&format!("{stem}_{slug}.dat"), header, &ecdf(values))?;
    Ok(())
}

fn verdict(holds: bool) -> &'static str {
    if holds {
        "HOLDS"
    } else {
        "DIFFERS (check scale/params)"
    }
}

/// Fig. 6: max RTT over time against the geodesic RTT.
fn fig06(ctx: &mut RunContext, sweeps: &[Sweep]) -> Result<(), RunError> {
    println!("Fig. 6 — max RTT over time vs geodesic RTT");
    println!(
        "{:<14} {:>7} {:>12} {:>12} {:>16}",
        "constellation", "pairs", "median (x)", "p90 (x)", "frac below 2x"
    );
    let mut medians = Vec::new();
    for (name, stats) in sweeps {
        let stretches = finite(stats, PairStats::rtt_stretch);
        write_ecdf(ctx, "fig06_stretch_ecdf", name, "max_rtt_over_geodesic ecdf", &stretches)?;
        medians.push(median(&stretches));
        println!(
            "{:<14} {:>7} {:>12.2} {:>12.2} {:>16.2}",
            name,
            stretches.len(),
            median(&stretches),
            percentile(&stretches, 90.0).unwrap_or(f64::NAN),
            fraction_where(&stretches, |v| v < 2.0)
        );
    }

    println!();
    println!("Paper's qualitative checks:");
    println!("  * every constellation: >80% of pairs below 2x geodesic;");
    println!("  * ordering of medians: Telesat < Kuiper < Starlink.");
    println!(
        "  measured medians: Telesat {:.2}, Kuiper {:.2}, Starlink {:.2} -> ordering {}",
        medians[0],
        medians[1],
        medians[2],
        verdict(medians[0] <= medians[1] && medians[1] <= medians[2])
    );
    Ok(())
}

/// Fig. 7: max RTT and how far it lies above the min RTT.
fn fig07(ctx: &mut RunContext, sweeps: &[Sweep]) -> Result<(), RunError> {
    println!("Fig. 7 — RTTs and variations therein");
    println!(
        "{:<14} {:>12} {:>14} {:>14} {:>20}",
        "constellation", "med max(ms)", "med delta(ms)", "med ratio", "frac ratio>1.2"
    );
    for (name, stats) in sweeps {
        let maxes = finite(stats, |s| s.max_rtt_ms);
        let deltas = finite(stats, PairStats::rtt_delta_ms);
        let ratios = finite(stats, PairStats::rtt_ratio);
        write_ecdf(ctx, "fig07a_max_rtt", name, "max_rtt_ms ecdf", &maxes)?;
        write_ecdf(ctx, "fig07b_rtt_delta", name, "max_minus_min_ms ecdf", &deltas)?;
        write_ecdf(ctx, "fig07c_rtt_ratio", name, "max_over_min ecdf", &ratios)?;
        println!(
            "{:<14} {:>12.1} {:>14.1} {:>14.3} {:>20.2}",
            name,
            median(&maxes),
            median(&deltas),
            median(&ratios),
            fraction_where(&ratios, |v| v >= 1.2),
        );
    }

    println!();
    println!("Paper's qualitative checks:");
    println!("  * Starlink S1 shows both higher and more variable RTTs than Kuiper K1;");
    println!("  * Telesat T1's variations are smallest (low min elevation keeps");
    println!("    the same satellites reachable longer);");
    println!("  * for Starlink, >30% of pairs see max RTT at least 1.2x the min.");
    Ok(())
}

/// Fig. 8: how often and how much each pair's path changes.
fn fig08(ctx: &mut RunContext, sweeps: &[Sweep]) -> Result<(), RunError> {
    println!("Fig. 8 — path structure changes");
    println!(
        "{:<14} {:>12} {:>14} {:>14}",
        "constellation", "med changes", "med hop delta", "med hop ratio"
    );
    let mut med_changes = Vec::new();
    for (name, stats) in sweeps {
        let changes = finite(stats, |s| s.path_changes as f64);
        let hop_deltas = finite(stats, |s| s.hop_delta() as f64);
        let hop_ratios = finite(stats, PairStats::hop_ratio);
        write_ecdf(ctx, "fig08a_path_changes", name, "path_changes ecdf", &changes)?;
        write_ecdf(ctx, "fig08b_hop_delta", name, "max_minus_min_hops ecdf", &hop_deltas)?;
        write_ecdf(ctx, "fig08c_hop_ratio", name, "max_over_min_hops ecdf", &hop_ratios)?;
        med_changes.push(median(&changes));
        println!(
            "{:<14} {:>12.1} {:>14.1} {:>14.3}",
            name,
            median(&changes),
            median(&hop_deltas),
            median(&hop_ratios),
        );
    }

    // The headline comparison: Telesat changes less than the dense shells.
    println!();
    println!(
        "median path changes — Telesat {:.0}, Kuiper {:.0}, Starlink {:.0}: Telesat-lowest {}",
        med_changes[0],
        med_changes[1],
        med_changes[2],
        verdict(med_changes[0] <= med_changes[1] && med_changes[0] <= med_changes[2])
    );
    Ok(())
}
