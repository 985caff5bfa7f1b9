//! Shared pieces of the `run_experiment` command line, the one entry point
//! that regenerates every table and figure from the experiment registry in
//! [`hypatia::runner`]: `--set` overrides and the figure banner.

#![forbid(unsafe_code)]

use hypatia::runner::RunError;
use hypatia::spec::ExperimentSpec;

/// Banner line for the scale in use.
pub fn scale_note(full: bool) -> &'static str {
    if full {
        "scale: FULL (paper parameters)"
    } else {
        "scale: reduced (pass --full for paper parameters)"
    }
}

/// Print a figure banner.
pub fn banner(figure: &str, title: &str, full: bool) {
    println!("==============================================================");
    println!("{figure}: {title}");
    println!("{}", scale_note(full));
    println!("==============================================================");
}

/// Apply `--set` overrides to a spec, in order.
pub fn apply_sets(spec: &mut ExperimentSpec, sets: &[(String, String)]) -> Result<(), RunError> {
    for (key, value) in sets {
        spec.set(key, value)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia::runner::ExperimentRunner;

    #[test]
    fn scale_notes() {
        assert!(scale_note(false).contains("reduced"));
        assert!(scale_note(true).contains("FULL"));
    }

    #[test]
    fn sets_apply_in_order() {
        let runner = ExperimentRunner::new();
        let mut spec = runner.spec("fig03_rtt_fluctuations", false).unwrap();
        apply_sets(
            &mut spec,
            &[
                ("duration_s".to_string(), "10".to_string()),
                ("duration_s".to_string(), "20".to_string()),
            ],
        )
        .unwrap();
        assert_eq!(spec.duration, hypatia_util::SimDuration::from_secs(20));
    }

    #[test]
    fn bad_set_is_a_spec_error() {
        let runner = ExperimentRunner::new();
        let mut spec = runner.spec("fig03_rtt_fluctuations", false).unwrap();
        let err = apply_sets(&mut spec, &[("cc".to_string(), "tahoe".to_string())]).unwrap_err();
        assert!(err.to_string().contains("tahoe"), "{err}");
    }
}
