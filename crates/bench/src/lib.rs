//! Shared driver for the figure-regeneration binaries.
//!
//! Every figure binary is a thin shim over the experiment registry in
//! [`hypatia::runner`]: it names its experiment and calls [`run_figure`],
//! which parses the common CLI, materializes the registered
//! [`hypatia::spec::ExperimentSpec`] at the requested
//! scale, applies `--set` overrides, and executes through the shared
//! [`hypatia::runner::ExperimentRunner`] — ending with
//! the run's `manifest.json`.
//!
//! Every binary accepts:
//!
//! * `--full` — run at the paper's parameters (200 s horizons, 100 ms
//!   granularity, 100 cities). Without it, a reduced-scale run that
//!   preserves the qualitative result finishes in minutes on one core.
//! * `--out <dir>` — where to write gnuplot-ready data files (default
//!   `results/`).
//! * `--set key=value` — override any spec field (repeatable), e.g.
//!   `--set duration_s=30 --set "pairs=Paris:Moscow"`.

#![forbid(unsafe_code)]

use hypatia::runner::{ExperimentRunner, RunError, RunPolicy};
use hypatia::spec::ExperimentSpec;
use std::path::PathBuf;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Paper-scale parameters requested?
    pub full: bool,
    /// Output directory for series files.
    pub out_dir: PathBuf,
    /// `--set key=value` spec overrides, in order.
    pub sets: Vec<(String, String)>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs { full: false, out_dir: PathBuf::from("results"), sets: Vec::new() }
    }
}

impl BenchArgs {
    /// Parse from `std::env::args`.
    pub fn parse() -> BenchArgs {
        let mut parsed = BenchArgs::default();
        let mut args = std::env::args().skip(1);
        // CLI mistakes are usage errors (exit 2), not panics.
        let usage = |msg: String| -> ! {
            eprintln!("error: {msg}");
            std::process::exit(2);
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => parsed.full = true,
                "--out" => match args.next() {
                    Some(dir) => parsed.out_dir = PathBuf::from(dir),
                    None => usage("--out requires a directory argument".to_string()),
                },
                "--set" => {
                    let Some(kv) = args.next() else {
                        usage("--set requires key=value".to_string())
                    };
                    match kv.split_once('=') {
                        Some((k, v)) => parsed.sets.push((k.to_string(), v.to_string())),
                        None => usage(format!("--set expects key=value, got {kv:?}")),
                    }
                }
                "--help" | "-h" => {
                    eprintln!("options: [--full] [--out <dir>] [--set key=value ...]");
                    std::process::exit(0);
                }
                other => usage(format!("unknown argument: {other}")),
            }
        }
        parsed
    }

    /// Banner for the scale in use.
    pub fn scale_note(&self) -> &'static str {
        if self.full {
            "scale: FULL (paper parameters)"
        } else {
            "scale: reduced (pass --full for paper parameters)"
        }
    }
}

/// Print a figure banner.
pub fn banner(figure: &str, title: &str, args: &BenchArgs) {
    println!("==============================================================");
    println!("{figure}: {title}");
    println!("{}", args.scale_note());
    println!("==============================================================");
}

/// Entry point shared by all figure binaries: parse the common CLI and
/// drive `name` through the registry. Exits on failure with the error's
/// class-specific code (`RunError::exit_code`).
pub fn run_figure(name: &str) {
    let args = BenchArgs::parse();
    drive(name, &args);
}

/// Run `name` with pre-parsed arguments. Exits on failure with the
/// error's class-specific code (`RunError::exit_code`).
pub fn drive(name: &str, args: &BenchArgs) {
    if let Err(e) = try_drive(name, args) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}

/// The fallible driver: spec lookup, `--set` overrides, banner, then a
/// supervised run (panic capture, watchdog limits, salvage — see
/// `ExperimentRunner::run_supervised`). Returns the manifest path.
pub fn try_drive(name: &str, args: &BenchArgs) -> Result<PathBuf, RunError> {
    let runner = ExperimentRunner::new();
    let exp = runner.get(name)?;
    if let Some(label) = exp.label() {
        banner(label, exp.title(), args);
    }
    let mut spec = exp.spec(args.full);
    apply_sets(&mut spec, &args.sets)?;
    let policy = RunPolicy::from_spec(&spec);
    runner.run_supervised(spec, args.out_dir.clone(), &policy)
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

    #[test]
    fn scale_notes() {
        let a = BenchArgs::default();
        assert!(a.scale_note().contains("reduced"));
        let b = BenchArgs { full: true, ..BenchArgs::default() };
        assert!(b.scale_note().contains("FULL"));
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
