//! Generic entry point: run any registered experiment from its spec.
//!
//! ```text
//! run_experiment <name> [--full] [--out <dir>] [--set key=value]...
//! run_experiment --spec <file.json> [--out <dir>] [--set key=value]...
//! run_experiment <name> --resume <checkpoint-dir> [--set ...]
//! run_experiment --list
//! run_experiment <name> [--full] [--set ...] --print-spec
//! ```
//!
//! `--list` prints every registered experiment, `--help` the usage and
//! every spec knob `--set` takes. `--print-spec` prints the resolved spec
//! as JSON (after `--full` and `--set`) without running it — the output is
//! loadable again via `--spec`. `--resume <dir>` restores per-simulation
//! snapshots a previous `--set checkpoint_every_s=F` run left behind
//! (shorthand for `--set resume_from=<dir>`). A run by name starts with
//! the figure's banner.
//!
//! Every run goes through `ExperimentRunner::run`: panics, wall-clock
//! deadlines (`--set deadline_s=F`), and memory budgets
//! (`--set max_rss_mb=F`) become typed errors with a salvaged
//! `status: aborted` manifest, and each error class exits with its own
//! code (see `RunError::exit_code`): 2 usage, 3 unknown experiment,
//! 4 unknown city, 5 bad spec, 6 I/O, 7 panic, 8 deadline, 9 memory
//! budget, 10 checkpoint.

#![forbid(unsafe_code)]

use hypatia::runner::{ExperimentRunner, RunError};
use hypatia::spec::ExperimentSpec;
use hypatia_viz::sink::ArtifactSink;
use std::fmt::Write as _;
use std::io::{ErrorKind, Write as _};
use std::path::PathBuf;
use std::process::exit;

struct Cli {
    name: Option<String>,
    spec_file: Option<PathBuf>,
    full: bool,
    out_dir: PathBuf,
    resume: Option<String>,
    sets: Vec<(String, String)>,
    list: bool,
    print_spec: bool,
}

const USAGE: &str = "usage: run_experiment <name> [--full] [--out <dir>] [--set key=value]...
       run_experiment --spec <file.json> [--out <dir>] [--set key=value]...
       run_experiment <name> --resume <checkpoint-dir>
       run_experiment --list
       run_experiment <name> --print-spec";

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        name: None,
        spec_file: None,
        full: false,
        out_dir: PathBuf::from("results"),
        resume: None,
        sets: Vec::new(),
        list: false,
        print_spec: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => cli.full = true,
            "--list" => cli.list = true,
            "--print-spec" => cli.print_spec = true,
            "--out" => {
                cli.out_dir =
                    PathBuf::from(args.next().ok_or("--out requires a directory argument")?);
            }
            "--spec" => {
                cli.spec_file =
                    Some(PathBuf::from(args.next().ok_or("--spec requires a file argument")?));
            }
            "--resume" => {
                cli.resume = Some(args.next().ok_or("--resume requires a directory argument")?);
            }
            "--set" => {
                let kv = args.next().ok_or("--set requires key=value")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--set expects key=value, got {kv:?}"))?;
                cli.sets.push((k.to_string(), v.to_string()));
            }
            "--help" | "-h" => {
                let mut text = format!("{USAGE}\n\nspec knobs (--set key=value):\n");
                for (key, doc) in ExperimentSpec::knobs() {
                    let _ = writeln!(text, "  {key:<24} {doc}");
                }
                print_and_exit(&text);
            }
            other if !other.starts_with('-') && cli.name.is_none() => {
                cli.name = Some(other.to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cli)
}

/// Resolve the spec, keeping errors typed so each class exits with its
/// own code (unknown experiment 3, bad spec/`--set` 5, unreadable spec
/// file 6) instead of collapsing everything to the usage code.
fn resolve_spec(cli: &Cli, runner: &ExperimentRunner) -> Result<ExperimentSpec, RunError> {
    let mut spec = match (&cli.spec_file, &cli.name) {
        (Some(path), _) => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                RunError::Io(std::io::Error::new(
                    e.kind(),
                    format!("cannot read {}: {e}", path.display()),
                ))
            })?;
            ExperimentSpec::from_json(&text).map_err(|e| RunError::BadSpec(e.to_string()))?
        }
        (None, Some(name)) => runner.spec(name, cli.full)?,
        (None, None) => {
            eprintln!("error: missing experiment name\n{USAGE}");
            exit(2);
        }
    };
    for (key, value) in &cli.sets {
        spec.set(key, value)?;
    }
    if let Some(dir) = &cli.resume {
        spec.resume_from = Some(dir.clone());
    }
    Ok(spec)
}

/// Write a print-only mode's whole output to stdout and exit. A reader
/// that closes the pipe early (`run_experiment --list | head -1`) took
/// all it wanted, so a broken pipe is a clean exit 0; any other write
/// error is the I/O class.
fn print_and_exit(text: &str) -> ! {
    let written = {
        let mut out = std::io::stdout().lock();
        out.write_all(text.as_bytes()).and_then(|()| out.flush())
    };
    match written {
        Ok(()) => exit(0),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => exit(0),
        Err(e) => {
            eprintln!("error: writing to stdout: {e}");
            exit(6);
        }
    }
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            exit(2);
        }
    };

    let runner = ExperimentRunner::new();
    if cli.list {
        let mut text = String::from("registered experiments:\n");
        for name in runner.names() {
            let title = runner.get(&name).map(|e| e.title()).unwrap_or("");
            let _ = writeln!(text, "  {name:<28} {title}");
        }
        print_and_exit(&text);
    }

    let spec = match resolve_spec(&cli, &runner) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            exit(e.exit_code());
        }
    };
    if cli.print_spec {
        print_and_exit(&format!("{}\n", spec.to_json_string()));
    }
    if let (None, Ok(exp)) = (&cli.spec_file, runner.get(&spec.experiment)) {
        if let Some(label) = exp.label() {
            let rule = "==============================================================";
            let scale = if cli.full {
                "FULL (paper parameters)"
            } else {
                "reduced (pass --full for paper parameters)"
            };
            println!("{rule}\n{label}: {}\nscale: {scale}\n{rule}", exp.title());
        }
    }

    match runner.run(spec, ArtifactSink::new(cli.out_dir)) {
        Ok((manifest, _)) => println!("done: {}", manifest.display()),
        Err(e) => {
            // One diagnostic line per failure, one exit code per class
            // (RunError::Display already lists the registry for unknown
            // experiment names).
            eprintln!("error: {e}");
            exit(e.exit_code());
        }
    }
}
