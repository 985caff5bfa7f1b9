//! Table 1 — shell configurations for Starlink phase 1, Kuiper, Telesat.
//!
//! Regenerates the paper's table from the encoded FCC/ITU filing values
//! and verifies the per-constellation satellite totals.

use crate::runner::{About, Experiment, RunContext, RunError};
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection};
use hypatia_constellation::presets;

/// Table 1 as a registered experiment (console output only).
pub struct Table1;

impl Experiment for Table1 {
    fn about(&self) -> About {
        About {
            name: "table1_constellations",
            label: None,
            title: "Shell configurations (from FCC/ITU filings)",
            knobs: "",
            faults: false,
        }
    }

    fn defaults(&self, _full: bool) -> ExperimentSpec {
        ExperimentSpec {
            ground: GroundSegment::Cities(Vec::new()),
            pairs: PairSelection::Named(Vec::new()),
            ..ExperimentSpec::default()
        }
    }

    fn run(&self, _ctx: &mut RunContext) -> Result<(), RunError> {
        println!("Table 1: Shell configurations (from FCC/ITU filings)");
        println!();
        println!(
            "{:<10} {:<6} {:>8} {:>8} {:>12} {:>8}",
            "Const.", "shell", "h (km)", "orbits", "sats/orbit", "incl."
        );
        let groups = [
            ("Starlink", presets::starlink_shells()),
            ("Kuiper", presets::kuiper_shells()),
            ("Telesat", presets::telesat_shells()),
        ];
        for (name, shells) in &groups {
            let mut total = 0;
            for s in shells {
                println!(
                    "{:<10} {:<6} {:>8} {:>8} {:>12} {:>7}°",
                    name, s.name, s.altitude_km, s.num_orbits, s.sats_per_orbit, s.inclination_deg
                );
                total += s.num_satellites();
            }
            println!("{:<10} total satellites: {total}", name);
            println!();
        }
        println!(
            "Minimum elevation angles: Starlink {}°, Kuiper {}°, Telesat {}°",
            presets::STARLINK_MIN_ELEVATION_DEG,
            presets::KUIPER_MIN_ELEVATION_DEG,
            presets::TELESAT_MIN_ELEVATION_DEG
        );
        Ok(())
    }
}
