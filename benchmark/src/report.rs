//! Rendering results: the human-readable tables, the JSON report that
//! `--compare` reads, and the one-line JSON the acceptance driver reads.

use crate::bench::WorkloadResult;
use crate::metrics::{Bound, MetricDef, CONTRACT_E2E, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workload::Scale;
use crate::{expected, host};
use serde_json::{json, Map, Value};

/// Provenance stamped on every result.
pub fn host_json() -> Value {
    json!({
        "cores": host::cores() as u64,
        "commit": host::commit(),
        "rustc": host::rustc(),
        "deps": "stub",
    })
}

fn bound_json(def: &MetricDef) -> Value {
    match def.bound {
        Some(Bound::Share(b)) => Value::from(b),
        Some(Bound::Exact) => Value::from("exact"),
        None => Value::Null,
    }
}

/// Median, quartiles, extremes and the samples themselves.
fn samples_json(s: &Summary, samples: &[f64]) -> Map {
    let mut m = Map::new();
    m.insert("n".into(), Value::from(s.n as u64));
    for (k, v) in [("median", s.median), ("q1", s.q1), ("q3", s.q3), ("min", s.min), ("max", s.max)]
    {
        m.insert(k.into(), Value::from(v));
    }
    m.insert(
        "samples".into(),
        Value::from(samples.iter().map(|&x| Value::from(x)).collect::<Vec<_>>()),
    );
    m
}

/// The end-to-end entry of `def` for `res` (`Null` where n/a). An exact
/// metric carries only `median`: its one value.
fn e2e_json(def: &MetricDef, res: &WorkloadResult) -> Value {
    let exact = |v: f64| json!({ "median": v, "unit": def.unit, "bound": "exact" });
    if def.name == "failed_frac" {
        return exact(res.failed_frac());
    }
    let Some(s) = res.summary(def.name) else {
        return res.exact.get(def.name).map_or(Value::Null, |&v| exact(v));
    };
    let mut m = samples_json(&s, &res.samples[def.name]);
    m.insert("unit".into(), Value::from(def.unit));
    m.insert("better".into(), Value::from(def.better.name()));
    m.insert("bound".into(), bound_json(def));
    Value::Object(m)
}

/// The full report document.
pub fn to_json(scale: Scale, seed: u64, results: &[WorkloadResult]) -> Value {
    let workloads: Vec<Value> = results
        .iter()
        .map(|res| {
            let mut e2e = Map::new();
            for def in &END_TO_END {
                e2e.insert(def.name.to_string(), e2e_json(def, res));
            }
            let mut layers = Map::new();
            for def in &PER_LAYER {
                let v = match res.layer(def.name) {
                    Some(s) => {
                        let mut m = samples_json(&s, &res.layers[def.name]);
                        m.insert("unit".into(), Value::from(def.unit));
                        Value::Object(m)
                    }
                    None => Value::Null,
                };
                layers.insert(def.name.to_string(), v);
            }
            let failures: Vec<Value> =
                res.failures.iter().map(|f| Value::from(f.clone())).collect();
            let outcome = expected::to_json(&expected::Expected {
                outcome: res.outcome.clone(),
                model_err: None,
            });
            json!({
                "name": res.name,
                "attempted": res.attempted,
                "failed": res.failed,
                "pinned": res.pinned,
                "failures": Value::from(failures),
                "end_to_end": Value::Object(e2e),
                "per_layer": Value::Object(layers),
                "outcome": outcome,
            })
        })
        .collect();
    json!({
        "schema": 2u64,
        "scale": scale.name(),
        "seed": seed,
        "host": host_json(),
        "workloads": Value::from(workloads),
    })
}

fn fmt(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if !(1e-3..1e7).contains(&a) {
        format!("{v:.4e}")
    } else if a >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.5}")
    }
}

/// Print every metric of every workload by name, with its unit.
pub fn print_human(scale: Scale, seed: u64, results: &[WorkloadResult]) {
    let h = host_json();
    println!(
        "hypatia benchmark — scale {}, seed {seed}, cores {}, commit {}, {}, deps stub",
        scale.name(),
        h["cores"].as_u64().unwrap_or(0),
        h["commit"].as_str().unwrap_or("unknown"),
        h["rustc"].as_str().unwrap_or("unknown"),
    );
    let na = || "-".to_string();
    let cells = |s: Option<Summary>| match s {
        Some(s) if s.n > 1 => [fmt(s.median), fmt(s.q1), fmt(s.q3), s.n.to_string()],
        Some(s) => [fmt(s.median), na(), na(), "1".to_string()],
        None => ["n/a".to_string(), na(), na(), na()],
    };
    for res in results {
        println!();
        println!(
            "== {} — output check: {}/{} repetitions passed{}",
            res.name,
            res.attempted - res.failed,
            res.attempted,
            if res.pinned { " (against pinned expectations)" } else { " (self-consistency)" }
        );
        for f in &res.failures {
            println!("   FAILED {f}");
        }
        println!(
            "   {:<32} {:>14} {:>14} {:>14} {:>4}  {:<13} {:<7} bound",
            "end-to-end", "median", "q1", "q3", "n", "unit", "better"
        );
        for def in &END_TO_END {
            let bound = match def.bound {
                Some(Bound::Share(b)) => format!("{:.0} %", b * 100.0),
                _ => "exact".to_string(),
            };
            let [median, q1, q3, n] = if def.name == "failed_frac" {
                [fmt(res.failed_frac()), na(), na(), res.attempted.to_string()]
            } else if let Some(&v) = res.exact.get(def.name) {
                [fmt(v), na(), na(), "1".to_string()]
            } else {
                cells(res.summary(def.name))
            };
            println!(
                "   {:<32} {median:>14} {q1:>14} {q3:>14} {n:>4}  {:<13} {:<7} {bound}",
                def.name,
                def.unit,
                def.better.name()
            );
        }
        println!(
            "   {:<32} {:>14} {:>14} {:>14} {:>4}  unit",
            "per-layer (traced pass)", "median", "q1", "q3", "n"
        );
        for def in &PER_LAYER {
            let [median, q1, q3, n] = cells(res.layer(def.name));
            println!("   {:<32} {median:>14} {q1:>14} {q3:>14} {n:>4}  {}", def.name, def.unit);
        }
    }
}

/// The acceptance driver's line: `correct`, `attempted`, `failed`, and
/// either every contract end-to-end metric (`traced == false`) or every
/// per-layer metric (`traced == true`; a layer that did no work reads 0).
pub fn driver_line(res: &WorkloadResult, traced: bool) -> Value {
    let mut metrics = Map::new();
    if traced {
        for def in &PER_LAYER {
            let v = res.layer(def.name).map_or(0.0, |s| s.median);
            metrics.insert(def.name.to_string(), json!({ "value": v, "unit": def.unit }));
        }
    } else {
        for def in &END_TO_END[..CONTRACT_E2E] {
            let v = res.summary(def.name).map_or(0.0, |s| s.median);
            metrics.insert(def.name.to_string(), json!({ "value": v, "unit": def.unit }));
        }
    }
    json!({
        "correct": res.failed == 0 && res.attempted > 0,
        "attempted": res.attempted.max(1),
        "failed": res.failed,
        "metrics": Value::Object(metrics),
    })
}
