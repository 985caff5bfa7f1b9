//! The paper's figures and extension studies as registered experiments.
//!
//! Each submodule implements one [`crate::runner::Experiment`]:
//! it declares its default [`crate::spec::ExperimentSpec`]
//! at reduced and paper ("full") scale, and executes against a
//! [`crate::runner::RunContext`] — writing every artifact
//! through the context's sink so the run ends with a complete manifest.
//! `run_experiment <name>` runs any of them; a spec file plus
//! `run_experiment --spec` reproduces a run.

pub mod ext_failure_resilience;
pub mod ext_flow_scaling;
pub mod ext_hybrid_mode;
pub mod ext_multipath_diversity;
pub mod fig02_scalability;
pub mod fig03_rtt_fluctuations;
pub mod fig04_cwnd_bdp;
pub mod fig05_cc_rates_rtt;
pub mod fig06_08_rtt_path_ecdfs;
pub mod fig09_timestep;
pub mod fig10_14_15_cross_traffic;
pub mod fig11_constellation_czml;
pub mod fig12_ground_view;
pub mod fig13_path_viz;
pub mod fig16_19_bent_pipe;
pub mod table1;

pub(crate) use crate::experiments::{pair_slug, CANONICAL_PAIRS};

use crate::experiments::scalability::FlowTable;
use crate::runner::{Experiment, RunError};
use crate::spec::ExperimentSpec;
use hypatia_util::DataRate;

/// Every built-in experiment, in the paper's order.
pub fn builtin_experiments() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(table1::Table1),
        Box::new(fig02_scalability::Fig02),
        Box::new(fig03_rtt_fluctuations::Fig03),
        Box::new(fig04_cwnd_bdp::Fig04),
        Box::new(fig05_cc_rates_rtt::Fig05Cc),
        Box::new(fig06_08_rtt_path_ecdfs::Fig06_08),
        Box::new(fig09_timestep::Fig09),
        Box::new(fig10_14_15_cross_traffic::Fig10_14_15),
        Box::new(fig11_constellation_czml::Fig11),
        Box::new(fig12_ground_view::Fig12),
        Box::new(fig13_path_viz::Fig13),
        Box::new(fig16_19_bent_pipe::Fig16_19),
        Box::new(ext_multipath_diversity::ExtMultipathDiversity),
        Box::new(ext_failure_resilience::ExtFailureResilience),
        Box::new(ext_flow_scaling::ExtFlowScaling),
        Box::new(ext_hybrid_mode::ExtHybridMode),
    ]
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

/// The `flow_table` param: `apps` or `arena`.
pub(crate) fn flow_table(spec: &ExperimentSpec) -> Result<FlowTable, RunError> {
    let name = spec.text("flow_table")?;
    FlowTable::parse(name).ok_or_else(|| {
        RunError::BadSpec(format!("param \"flow_table\" expects apps or arena, got {name:?}"))
    })
}

/// The flow counts and per-flow rate of a traffic-matrix sweep: `--set
/// flows=N` pins one point, otherwise the `flow_counts` list drives it;
/// `flow_rate_kbps` must be at least one bit per second.
pub(crate) fn flow_sweep(spec: &ExperimentSpec) -> Result<(Vec<u64>, DataRate), RunError> {
    let counts: Vec<u64> = match spec.flows {
        Some(n) => vec![n],
        None => spec.wholes("flow_counts", 1)?.into_iter().map(u64::from).collect(),
    };
    // At least one bit per second: a slower rate rounds to zero.
    let rate_kbps = spec.num_in("flow_rate_kbps", 1e-3..)?;
    Ok((counts, DataRate::from_bps((rate_kbps * 1e3).round() as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PairSelection;

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
