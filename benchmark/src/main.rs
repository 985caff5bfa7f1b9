//! The repo's one benchmark: real-time factor end to end, a per-crate
//! breakdown, six named workloads. See `benchmark/README.md`.
//!
//! ```text
//! hypatia-benchmark                      every workload, untraced + traced, report on stdout
//!                                        and in benchmark/out/report.json
//! hypatia-benchmark --smoke              the same code path at toy sizes (CI)
//! hypatia-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                        one workload; last stdout line is the driver's JSON
//! hypatia-benchmark --compare A.json B.json
//! hypatia-benchmark --write-expected     re-pin expected/ for seeds 2020 and 7
//! ```

mod bench;
mod calib;
mod compare;
mod expected;
mod host;
mod metrics;
mod pipeline;
mod probes;
mod report;
mod stats;
mod sweep;
mod trace;
mod workload;

use bench::{run_workload, RunConfig, WorkloadResult};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{workloads, Scale, Workload};

/// `run_seconds` of the root `BENCHMARK.json`: how long the driver measures
/// one pass of one workload. A full-scale report without `--seconds` gives
/// each workload twice that, because its two passes take turns.
const RUN_SECONDS: f64 = 21.0;

const USAGE: &str = "\
usage: hypatia-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       hypatia-benchmark --compare A.json B.json
       hypatia-benchmark --write-expected [--smoke]

Without --trace: runs the named (default: all six) workloads, untraced and traced
repetitions taking turns, prints every metric by name with its unit and writes
benchmark/out/report.json. With --trace 0|1: runs one pass of one workload and prints one
JSON object as the last line (the acceptance driver's format). Timed repetitions go on for
--seconds (default: 42 per workload, 21 with --trace, 0 with --smoke) and at least 3 of
each kind.";

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 2020,
        seconds: None,
        trace: None,
        smoke: false,
        compare: None,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workloads.push(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: whole number")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: number")?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds: non-negative number".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: 0 or 1, got {other:?}")),
                })
            }
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--write-expected" => a.write_expected = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// The benchmark's own directory: `benchmark/` under the repo root the
/// command is run from, else the current directory when run from inside
/// it, else where the package was built.
fn home() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark")
    } else if Path::new("expected").is_dir() && Path::new("Cargo.toml").exists() {
        PathBuf::from(".")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

fn select(all: Vec<Workload>, names: &[String]) -> Result<Vec<Workload>, String> {
    if names.is_empty() {
        return Ok(all);
    }
    names
        .iter()
        .map(|n| {
            all.iter().find(|w| w.name == n).copied().ok_or_else(|| {
                let known: Vec<&str> = all.iter().map(|w| w.name).collect();
                format!("no workload named {n:?}; known: {}", known.join(", "))
            })
        })
        .collect()
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_expected(scale: Scale, cfg: &RunConfig) -> Result<(), String> {
    for seed in expected::PINNED_SEEDS {
        for w in workloads(scale) {
            // Pin from a clean slate: self-consistency only, two passes.
            let _ = std::fs::remove_file(expected::path(&cfg.expected_dir, scale, w.name, seed));
            let cfg = RunConfig { seed, seconds: 0.0, traced: true, ..cfg.clone() };
            let res = run_workload(&w, &cfg)?;
            if res.failed > 0 {
                return Err(format!("{} seed {seed}: cannot pin, {:?}", w.name, res.failures));
            }
            let model_err =
                match (res.exact.get("model_err_goodput"), res.exact.get("model_err_jain")) {
                    (Some(&g), Some(&j)) => Some((g, j)),
                    _ => None,
                };
            let e = expected::Expected { outcome: res.outcome.clone(), model_err };
            expected::store(&cfg.expected_dir, scale, w.name, seed, &e)?;
            eprintln!("pinned {} seed {seed}: {} events", w.name, res.outcome.events);
        }
    }
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.compare {
        let rows = compare::compare(&read_json(a)?, &read_json(b)?)?;
        let (text, regressed) = compare::render(&rows);
        print!("{text}");
        return Ok(if regressed { ExitCode::from(1) } else { ExitCode::SUCCESS });
    }
    let scale = if args.smoke { Scale::Smoke } else { Scale::Full };
    let home = home();
    let out_root = home.join("out");
    let cfg = RunConfig {
        scale,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(match (args.smoke, args.trace) {
            (true, _) => 0.0,
            (false, Some(_)) => RUN_SECONDS,
            (false, None) => 2.0 * RUN_SECONDS,
        }),
        traced: args.trace.unwrap_or(true),
        out_root: out_root.clone(),
        expected_dir: home.join("expected"),
    };
    if args.write_expected {
        write_expected(scale, &cfg)?;
        return Ok(ExitCode::SUCCESS);
    }
    let selected = select(workloads(scale), &args.workloads)?;

    if let Some(traced) = args.trace {
        // Driver mode: one workload, one pass, one JSON line.
        let [w] = selected.as_slice() else {
            return Err("--trace needs exactly one --workload".into());
        };
        let res = run_workload(w, &cfg)?;
        for f in &res.failures {
            eprintln!("FAILED {}: {f}", res.name);
        }
        eprintln!(
            "outcome {}: events {} snapshots {} delivered {} goodput_bits {}",
            res.name,
            res.outcome.events,
            res.outcome.snapshots,
            res.outcome.delivered,
            res.outcome.goodput_bits
        );
        for (metric, samples) in &res.samples {
            eprintln!("samples {} {metric}: {samples:?}", res.name);
        }
        let line =
            serde_json::to_string(&report::driver_line(&res, traced)).map_err(|e| e.to_string())?;
        println!("{line}");
        return Ok(ExitCode::SUCCESS);
    }

    let mut results: Vec<WorkloadResult> = Vec::new();
    for w in &selected {
        eprintln!("running {} ...", w.name);
        results.push(run_workload(w, &cfg)?);
    }
    report::print_human(scale, args.seed, &results);
    let doc = report::to_json(scale, args.seed, &results);
    let json_path = out_root.join("report.json");
    std::fs::create_dir_all(&out_root).map_err(|e| e.to_string())?;
    let mut text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    text.push('\n');
    std::fs::write(&json_path, text).map_err(|e| format!("{}: {e}", json_path.display()))?;
    println!();
    println!("report written to {}", json_path.display());
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    Ok(if failed > 0 { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
