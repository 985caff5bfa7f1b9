//! The paper's figures and extension studies as registered experiments.
//!
//! Each submodule implements one [`crate::runner::Experiment`]:
//! it declares its default [`crate::spec::ExperimentSpec`]
//! at reduced and paper ("full") scale, and executes against a
//! [`crate::runner::RunContext`] — writing every artifact
//! through the context's sink so the run ends with a complete manifest.
//! `run_experiment <name>` runs any of them; a spec file plus
//! `run_experiment --spec` reproduces a run.

pub mod ext_bbr_study;
pub mod ext_failure_resilience;
pub mod ext_flow_scaling;
pub mod ext_hybrid_mode;
pub mod ext_multipath_diversity;
pub mod ext_multipath_te;
pub mod fig02_scalability;
pub mod fig03_rtt_fluctuations;
pub mod fig04_cwnd_bdp;
pub mod fig05_rates_rtt;
pub mod fig06_rtt_stretch_ecdf;
pub mod fig07_rtt_cdfs;
pub mod fig08_path_hop_cdfs;
pub mod fig09_timestep;
pub mod fig10_unused_bandwidth;
pub mod fig11_constellation_czml;
pub mod fig12_ground_view;
pub mod fig13_path_viz;
pub mod fig14_15_utilization;
pub mod fig16_19_bent_pipe;
pub mod table1;

use crate::experiments::pair_sweep::{self, PairStats, PairSweepConfig};
use crate::runner::{Experiment, RunError};
use crate::scenario::ConstellationChoice;
use crate::spec::{ExperimentSpec, GroundSegment, PairSelection};

/// Every built-in experiment, in the paper's order.
pub fn builtin_experiments() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(table1::Table1),
        Box::new(fig02_scalability::Fig02),
        Box::new(fig03_rtt_fluctuations::Fig03),
        Box::new(fig04_cwnd_bdp::Fig04),
        Box::new(fig05_rates_rtt::Fig05),
        Box::new(fig06_rtt_stretch_ecdf::Fig06),
        Box::new(fig07_rtt_cdfs::Fig07),
        Box::new(fig08_path_hop_cdfs::Fig08),
        Box::new(fig09_timestep::Fig09),
        Box::new(fig10_unused_bandwidth::Fig10),
        Box::new(fig11_constellation_czml::Fig11),
        Box::new(fig12_ground_view::Fig12),
        Box::new(fig13_path_viz::Fig13),
        Box::new(fig14_15_utilization::Fig14_15),
        Box::new(fig16_19_bent_pipe::Fig16_19),
        Box::new(ext_bbr_study::ExtBbrStudy),
        Box::new(ext_multipath_diversity::ExtMultipathDiversity),
        Box::new(ext_multipath_te::ExtMultipathTe),
        Box::new(ext_failure_resilience::ExtFailureResilience),
        Box::new(ext_flow_scaling::ExtFlowScaling),
        Box::new(ext_hybrid_mode::ExtHybridMode),
    ]
}

/// The paper's three canonical Fig. 3/4 pairs, with their historic file
/// slugs.
pub(crate) const CANONICAL_PAIRS: [(&str, &str, &str); 3] = [
    ("Rio de Janeiro", "Saint Petersburg", "rio_stpetersburg"),
    ("Manila", "Dalian", "manila_dalian"),
    ("Istanbul", "Nairobi", "istanbul_nairobi"),
];

/// File-name slug for a city pair: the historic names for the paper's
/// canonical pairs, a mechanical lowercase join otherwise.
pub(crate) fn pair_slug(src: &str, dst: &str) -> String {
    for (s, d, slug) in CANONICAL_PAIRS {
        if s == src && d == dst {
            return slug.to_string();
        }
    }
    format!("{}_{}", city_slug(src), city_slug(dst))
}

fn city_slug(name: &str) -> String {
    name.to_lowercase().replace(' ', "")
}

/// The named pairs of a spec, or a BadSpec error naming the experiment.
pub(crate) fn named_pairs(spec: &ExperimentSpec) -> Result<Vec<(String, String)>, RunError> {
    match spec.pairs.named() {
        Some(pairs) if !pairs.is_empty() => Ok(pairs.to_vec()),
        _ => Err(RunError::BadSpec(format!(
            "{} needs named pairs (e.g. --set \"pairs=Paris:Moscow\")",
            spec.experiment
        ))),
    }
}

/// The first named pair of a spec.
pub(crate) fn first_pair(spec: &ExperimentSpec) -> Result<(String, String), RunError> {
    Ok(named_pairs(spec)?.swap_remove(0))
}

/// The three-constellation pair sweep shared by Figs. 6, 7 and 8, driven
/// by one spec: ground segment, duration, step, minimum pair distance and
/// thread count all come from it. Returns `(constellation name, per-pair
/// statistics)` for Telesat T1, Kuiper K1 and Starlink S1 — the paper's
/// comparison set.
pub fn three_constellation_sweep(spec: &ExperimentSpec) -> Vec<(&'static str, Vec<PairStats>)> {
    let gses = spec.ground.stations();
    let cities = gses.len();
    let cfg = PairSweepConfig {
        duration: spec.duration,
        step: spec.step,
        min_pair_distance_km: match spec.pairs {
            PairSelection::MinDistance { km } => km,
            _ => 500.0,
        },
        threads: spec.threads,
        routing: spec.routing_config(),
    };

    let choices = [
        ("Telesat T1", ConstellationChoice::TelesatT1),
        ("Kuiper K1", ConstellationChoice::KuiperK1),
        ("Starlink S1", ConstellationChoice::StarlinkS1),
    ];
    choices
        .into_iter()
        .map(|(name, choice)| {
            eprintln!("  sweeping {name} ({cities} cities)...");
            let c = choice.build(gses.clone());
            (name, pair_sweep::run(&c, &cfg))
        })
        .collect()
}

/// The shared spec skeleton of the three-constellation sweep figures.
pub(crate) fn sweep_spec(experiment: &str, full: bool) -> ExperimentSpec {
    ExperimentSpec {
        experiment: experiment.to_string(),
        constellation: ConstellationChoice::KuiperK1,
        ground: GroundSegment::TopCities(if full { 100 } else { 40 }),
        pairs: PairSelection::MinDistance { km: 500.0 },
        duration: hypatia_util::SimDuration::from_secs(200),
        step: hypatia_util::SimDuration::from_millis(if full { 100 } else { 500 }),
        ..ExperimentSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_slugs_are_stable() {
        assert_eq!(pair_slug("Rio de Janeiro", "Saint Petersburg"), "rio_stpetersburg");
        assert_eq!(pair_slug("Manila", "Dalian"), "manila_dalian");
        assert_eq!(pair_slug("Paris", "Sao Paulo"), "paris_saopaulo");
    }

    #[test]
    fn named_pairs_rejects_empty() {
        let mut spec = ExperimentSpec { experiment: "x".into(), ..ExperimentSpec::default() };
        assert!(named_pairs(&spec).is_err());
        spec.pairs = PairSelection::Named(vec![("A".into(), "B".into())]);
        assert_eq!(first_pair(&spec).unwrap(), ("A".to_string(), "B".to_string()));
    }
}
