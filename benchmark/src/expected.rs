//! Pinned outcomes: `expected/<scale>/<workload>.seed<seed>.json`.
//!
//! Simulated results are deterministic, so for the seeds shipped here
//! (2020 and 7) every repetition — traced or not — must reproduce the
//! pinned events, deliveries, goodput bits and artifact checksums. For
//! any other seed the check is self-consistency: every repetition must
//! reproduce the warm-up's outcome.

use crate::workload::{Outcome, Scale};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// Seeds with shipped expectations.
pub const PINNED_SEEDS: [u64; 2] = [2020, 7];

/// What is pinned for one `(workload, scale, seed)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expected {
    /// The repetition outcome.
    pub outcome: Outcome,
    /// `(model_err_goodput, model_err_jain)` (`hybrid_100k` only).
    pub model_err: Option<(f64, f64)>,
}

/// Where the expectation for `(workload, scale, seed)` lives under `dir`.
pub fn path(dir: &Path, scale: Scale, workload: &str, seed: u64) -> PathBuf {
    dir.join(scale.name()).join(format!("{workload}.seed{seed}.json"))
}

/// Serialize.
pub fn to_json(e: &Expected) -> Value {
    let o = &e.outcome;
    let artifacts: Vec<Value> =
        o.artifacts.iter().map(|(name, fnv)| json!({ "name": name, "fnv64": fnv })).collect();
    let violations: Vec<Value> = o.violations.iter().map(|v| Value::from(v.clone())).collect();
    let mut doc = json!({
        "events": o.events,
        "snapshots": o.snapshots,
        "delivered": o.delivered,
        "goodput_bits": o.goodput_bits,
        "artifacts": Value::from(artifacts),
        "violations": Value::from(violations),
    });
    if let (Some((g, j)), Some(obj)) = (e.model_err, doc.as_object_mut()) {
        obj.insert("model_err_goodput".to_string(), Value::from(g));
        obj.insert("model_err_jain".to_string(), Value::from(j));
    }
    doc
}

/// Parse what [`to_json`] wrote.
pub fn from_json(doc: &Value) -> Result<Expected, String> {
    let num = |k: &str| doc[k].as_u64().ok_or_else(|| format!("expected file: missing {k}"));
    let mut artifacts = Vec::new();
    for a in doc["artifacts"].as_array().ok_or("expected file: missing artifacts")? {
        match (a["name"].as_str(), a["fnv64"].as_str()) {
            (Some(n), Some(f)) => artifacts.push((n.to_string(), f.to_string())),
            _ => return Err("expected file: malformed artifact".into()),
        }
    }
    let violations = doc["violations"]
        .as_array()
        .map(|v| v.iter().filter_map(|x| x.as_str().map(str::to_string)).collect())
        .unwrap_or_default();
    let model_err = match (doc["model_err_goodput"].as_f64(), doc["model_err_jain"].as_f64()) {
        (Some(g), Some(j)) => Some((g, j)),
        _ => None,
    };
    Ok(Expected {
        outcome: Outcome {
            events: num("events")?,
            snapshots: num("snapshots")?,
            delivered: num("delivered")?,
            goodput_bits: num("goodput_bits")?,
            artifacts,
            violations,
        },
        model_err,
    })
}

/// Load the pinned expectation, `Ok(None)` when none is shipped.
pub fn load(
    dir: &Path,
    scale: Scale,
    workload: &str,
    seed: u64,
) -> Result<Option<Expected>, String> {
    let p = path(dir, scale, workload, seed);
    let text = match std::fs::read_to_string(&p) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", p.display())),
    };
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))?;
    from_json(&doc).map(Some).map_err(|e| format!("{}: {e}", p.display()))
}

/// Write the expectation (used by `--write-expected`).
pub fn store(
    dir: &Path,
    scale: Scale,
    workload: &str,
    seed: u64,
    e: &Expected,
) -> Result<(), String> {
    let p = path(dir, scale, workload, seed);
    if let Some(parent) = p.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    let mut text = serde_json::to_string_pretty(&to_json(e)).map_err(|e| e.to_string())?;
    text.push('\n');
    std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))
}

/// Describe how `got` differs from `want` (`None` when equal).
pub fn diff(want: &Outcome, got: &Outcome) -> Option<String> {
    if want == got {
        return None;
    }
    let mut parts = Vec::new();
    let mut cmp = |what: &str, w: u64, g: u64| {
        if w != g {
            parts.push(format!("{what} {g} != {w}"));
        }
    };
    cmp("events", want.events, got.events);
    cmp("snapshots", want.snapshots, got.snapshots);
    cmp("delivered", want.delivered, got.delivered);
    cmp("goodput_bits", want.goodput_bits, got.goodput_bits);
    if want.artifacts != got.artifacts {
        let changed: Vec<&str> = got
            .artifacts
            .iter()
            .filter(|a| !want.artifacts.contains(a))
            .map(|(n, _)| n.as_str())
            .collect();
        parts.push(format!(
            "artifacts differ ({} vs {} files; changed: {changed:?})",
            got.artifacts.len(),
            want.artifacts.len()
        ));
    }
    if want.violations != got.violations {
        parts.push(format!("audit violations: {:?}", got.violations));
    }
    Some(parts.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Expected {
        Expected {
            outcome: Outcome {
                events: 12,
                snapshots: 3,
                delivered: 4,
                goodput_bits: 4608,
                artifacts: vec![("a.dat".into(), "00ff00ff00ff00ff".into())],
                violations: Vec::new(),
            },
            model_err: Some((0.2575, 0.125)),
        }
    }

    #[test]
    fn round_trips_through_json_text() {
        let e = sample();
        let text = serde_json::to_string_pretty(&to_json(&e)).unwrap();
        let back = from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(e, back);
        let plain = Expected { model_err: None, ..sample() };
        assert_eq!(from_json(&to_json(&plain)).unwrap(), plain);
    }

    #[test]
    fn diff_names_what_changed() {
        let want = sample().outcome;
        assert_eq!(diff(&want, &want), None);
        let mut got = want.clone();
        got.events = 13;
        got.artifacts[0].1 = "0000000000000000".into();
        let d = diff(&want, &got).unwrap();
        assert!(d.contains("events 13 != 12") && d.contains("a.dat"), "{d}");
    }

    #[test]
    fn missing_file_is_none_and_store_then_load_agrees() {
        let dir = std::env::temp_dir().join(format!("hyp_bench_expected_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(load(&dir, Scale::Smoke, "w", 1).unwrap(), None);
        store(&dir, Scale::Smoke, "w", 1, &sample()).unwrap();
        assert_eq!(load(&dir, Scale::Smoke, "w", 1).unwrap(), Some(sample()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
