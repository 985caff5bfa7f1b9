//! Fig. 11 — constellation trajectory visualizations.
//!
//! Emits Cesium-loadable CZML for Telesat T1, Kuiper K1 and Starlink S1,
//! and prints coverage summaries (satellites over high latitudes vs the
//! tropics) that capture the figure's visual point: Telesat's 98.98°
//! inclination covers the poles, the others concentrate density at the
//! latitudes where people live.

use crate::runner::{Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_orbit::frames::ecef_to_geodetic;
use hypatia_util::{SimDuration, SimTime};
use hypatia_viz::czml::{constellation_czml, CzmlOptions};

/// Fig. 11 as a registered experiment.
pub struct Fig11;

impl Experiment for Fig11 {
    fn name(&self) -> &'static str {
        "fig11_constellation_czml"
    }

    fn label(&self) -> Option<&'static str> {
        Some("Fig. 11")
    }

    fn title(&self) -> &'static str {
        "Constellation trajectories (CZML export)"
    }

    fn spec(&self, full: bool) -> ExperimentSpec {
        // `duration` is the CZML document horizon and `step` its sample
        // interval; no ground segment or packet simulation is involved.
        let mut spec = ExperimentSpec {
            experiment: self.name().to_string(),
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::Cities(Vec::new()),
            pairs: PairSelection::Named(Vec::new()),
            duration: SimDuration::from_secs(if full { 6000 } else { 600 }),
            step: SimDuration::from_secs(10),
            ..ExperimentSpec::default()
        };
        spec.params.insert("pixel_size".to_string(), ParamValue::Num(3.0));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let opts = CzmlOptions {
            sample_interval: ctx.spec.step,
            duration: ctx.spec.duration,
            pixel_size: ctx.spec.num("pixel_size").unwrap_or(3.0) as u32,
        };

        for choice in [
            ConstellationChoice::TelesatT1,
            ConstellationChoice::KuiperK1,
            ConstellationChoice::StarlinkS1,
        ] {
            let c = choice.build(vec![]);
            let czml = constellation_czml(&c, &opts);
            let slug = choice.name().to_lowercase().replace(' ', "_");
            ctx.sink.write_czml(&format!("fig11_{slug}.czml"), czml)?;

            // Latitude histogram at t = 0 — the figure's visual takeaway.
            let mut polar = 0usize; // |lat| > 60°
            let mut temperate = 0usize; // 30° < |lat| <= 60°
            let mut tropical = 0usize; // |lat| <= 30°
            for i in 0..c.num_satellites() {
                let lat =
                    ecef_to_geodetic(c.sat_position_ecef(i, SimTime::ZERO)).latitude_deg.abs();
                if lat > 60.0 {
                    polar += 1;
                } else if lat > 30.0 {
                    temperate += 1;
                } else {
                    tropical += 1;
                }
            }
            println!(
                "{:<14} {:>5} sats | polar(>60°): {:>4}  temperate(30-60°): {:>4}  tropical(<=30°): {:>4}",
                choice.name(),
                c.num_satellites(),
                polar,
                temperate,
                tropical
            );
        }

        println!();
        println!("Check: only Telesat T1 places satellites above 60° latitude;");
        println!("Kuiper/Starlink concentrate where the population lives.");
        Ok(())
    }
}
