//! Fig. 12 — the ground observer's view from St. Petersburg over Kuiper K1.
//!
//! Scans for connected and disconnected instants, renders both as ASCII
//! sky panoramas (azimuth × elevation, `#` connectable / `.` below the
//! minimum elevation), and reports the connectivity windows behind the
//! Fig. 3(a) outage.

use crate::runner::{About, Experiment, RunContext, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection, ParamValue};
use hypatia_constellation::GroundStation;
use hypatia_util::SimDuration;
use hypatia_viz::ground_view::{connectivity_windows, GroundView};

/// Fig. 12 as a registered experiment.
pub struct Fig12;

impl Experiment for Fig12 {
    fn about(&self) -> About {
        About {
            name: "fig12_ground_view",
            label: Some("Fig. 12"),
            title: "Ground observer view: St. Petersburg over Kuiper K1",
            knobs: "duration_s constellation ground",
            faults: false,
        }
    }

    fn defaults(&self, full: bool) -> ExperimentSpec {
        let mut spec = ExperimentSpec {
            constellation: ConstellationChoice::KuiperK1,
            ground: GroundSegment::Cities(vec![GroundStation::new(
                "Saint Petersburg",
                59.9311,
                30.3609,
            )]),
            pairs: PairSelection::Named(Vec::new()),
            duration: SimDuration::from_secs(if full { 1200 } else { 600 }),
            ..ExperimentSpec::default()
        };
        spec.params.insert("scan_step_s".to_string(), ParamValue::Num(5.0));
        spec
    }

    fn run(&self, ctx: &mut RunContext) -> Result<(), RunError> {
        let stations = ctx.spec.ground.stations();
        let gs = stations.first().cloned().ok_or_else(|| {
            RunError::BadSpec("fig12_ground_view needs one ground station".into())
        })?;
        let c = ctx.spec.constellation.build(vec![gs.clone()]);

        let horizon = ctx.spec.duration;
        // At least a nanosecond: a shorter step rounds to zero.
        let scan_step = SimDuration::from_secs_f64(ctx.spec.num_in("scan_step_s", 1e-9..)?);
        let windows = connectivity_windows(&c, &gs, horizon, scan_step);

        println!("connectivity windows over {:.0} s:", horizon.secs_f64());
        for w in &windows {
            println!(
                "  {:>7.1}s – {:>7.1}s : {}",
                w.from.secs_f64(),
                w.until.secs_f64(),
                if w.connected { "CONNECTED" } else { "no satellite above 30°" }
            );
        }
        let disconnected: f64 =
            windows.iter().filter(|w| !w.connected).map(|w| w.until.since(w.from).secs_f64()).sum();
        println!(
            "total disconnected: {disconnected:.0} s ({:.0}% of horizon)",
            disconnected / horizon.secs_f64() * 100.0
        );

        // Render one connected and one disconnected snapshot, as in the figure.
        let connected_at = windows.iter().find(|w| w.connected).map(|w| w.from);
        let disconnected_at = windows.iter().find(|w| !w.connected).map(|w| w.from);
        for (label, at) in [("connected", connected_at), ("disconnected", disconnected_at)] {
            match at {
                Some(t) => {
                    let view = GroundView::compute(&c, &gs, t);
                    let art = view.render_ascii(100, 16);
                    println!("\n--- {label} snapshot ---\n{art}");
                    ctx.sink.write_text(&format!("fig12_{label}.txt"), &art)?;
                    ctx.sink.write_json(&format!("fig12_{label}.json"), &view.to_json())?;
                }
                None => println!("\n(no {label} instant within the horizon)"),
            }
        }

        println!("Check: St. Petersburg (59.93°N) is intermittently reachable from");
        println!("K1's 51.9°-inclination shell — the Fig. 3(a) outage mechanism.");
        Ok(())
    }
}
