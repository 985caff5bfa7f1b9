//! `--compare A.json B.json`: one row per (workload, end-to-end metric).
//!
//! A is the base, B the candidate. Both the verdict and the spread come
//! from one estimator: the median and quartiles over each side's
//! repetitions. Every ratio is B ÷ A of the medians. A row is
//! `unresolved` when either side's own spread (IQR ÷ median) is wider
//! than the metric's bound — the run cannot tell a change of that size
//! from noise — otherwise `regressed` / `improved` when the medians
//! differ by more than the bound in that direction, and `unchanged` in
//! between. Exact metrics (a single value) compare bit for bit.

use crate::metrics::{Better, Bound, MetricDef, END_TO_END};
use serde_json::Value;

/// What `--compare` concluded about one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Spread wider than the bound on either side.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the median and quartiles over its repetitions (all
/// three equal for an exact metric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median: the value the run reported.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Decide one row.
pub fn verdict(def: &MetricDef, a: Side, b: Side) -> Verdict {
    let worse = |delta: f64| match def.better {
        Better::Higher => -delta,
        Better::Lower => delta,
    };
    match def.bound {
        Some(Bound::Share(bound)) => {
            if a.spread().max(b.spread()) > bound {
                return Verdict::Unresolved;
            }
            let base = a.median.abs();
            let rel = if base == 0.0 { 0.0 } else { worse(b.median - a.median) / base };
            if rel > bound {
                Verdict::Regressed
            } else if rel < -bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
        Some(Bound::Exact) | None => {
            let w = worse(b.median - a.median);
            if w > 0.0 {
                Verdict::Regressed
            } else if w < 0.0 {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
    }
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Base side.
    pub a: Side,
    /// Candidate side.
    pub b: Side,
    /// The verdict.
    pub verdict: Verdict,
}

fn side(entry: &Value) -> Option<Side> {
    let median = entry["median"].as_f64()?;
    if entry["q1"].is_null() {
        return Some(Side { median, q1: median, q3: median });
    }
    Some(Side { median, q1: entry["q1"].as_f64()?, q3: entry["q3"].as_f64()? })
}

/// Compare two report documents (see `report::to_json`). Rows appear for
/// every (workload, metric) both reports define.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let list = |doc: &Value| -> Result<Vec<Value>, String> {
        doc["workloads"].as_array().cloned().ok_or_else(|| "report has no workloads".to_string())
    };
    for key in ["scale", "seed"] {
        if a[key] != b[key] {
            return Err(format!("reports differ in {key}: {:?} vs {:?}", a[key], b[key]));
        }
    }
    let (wa, wb) = (list(a)?, list(b)?);
    let mut rows = Vec::new();
    for ea in &wa {
        let Some(name) = ea["name"].as_str() else { continue };
        let Some(eb) = wb.iter().find(|w| w["name"].as_str() == Some(name)) else { continue };
        for def in &END_TO_END {
            let (ma, mb) = (&ea["end_to_end"][def.name], &eb["end_to_end"][def.name]);
            let (Some(sa), Some(sb)) = (side(ma), side(mb)) else { continue };
            rows.push(Row {
                workload: name.to_string(),
                metric: def.name,
                a: sa,
                b: sb,
                verdict: verdict(def, sa, sb),
            });
        }
    }
    Ok(rows)
}

/// Render the rows; returns the text and whether any row regressed.
pub fn render(rows: &[Row]) -> (String, bool) {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<18} {:>12} {:>22} {:>12} {:>22} {:>9}  verdict\n",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A"
    ));
    let mut counts = [0usize; 4];
    for r in rows {
        let ratio = if r.a.median == 0.0 { f64::NAN } else { r.b.median / r.a.median };
        out.push_str(&format!(
            "{:<12} {:<18} {:>12.5} {:>22} {:>12.5} {:>22} {:>9.4}  {}\n",
            r.workload,
            r.metric,
            r.a.median,
            format!("[{:.5}, {:.5}]", r.a.q1, r.a.q3),
            r.b.median,
            format!("[{:.5}, {:.5}]", r.b.q1, r.b.q3),
            ratio,
            r.verdict.name()
        ));
        counts[r.verdict as usize] += 1;
    }
    out.push_str(&format!(
        "{} rows: {} improved, {} unchanged, {} regressed, {} unresolved (ratios are B/A, base A)\n",
        rows.len(),
        counts[Verdict::Improved as usize],
        counts[Verdict::Unchanged as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize],
    ));
    (out, counts[Verdict::Regressed as usize] > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn tight(v: f64) -> Side {
        Side { median: v, q1: v * 0.995, q3: v * 1.005 }
    }

    #[test]
    fn verdicts_respect_direction_and_bound() {
        // rtf: higher is better, bound 25 %.
        let rtf = def("rtf");
        assert_eq!(verdict(rtf, tight(1.0), tight(1.0)), Verdict::Unchanged);
        assert_eq!(verdict(rtf, tight(1.0), tight(0.9)), Verdict::Unchanged);
        assert_eq!(verdict(rtf, tight(1.0), tight(0.7)), Verdict::Regressed);
        assert_eq!(verdict(rtf, tight(1.0), tight(1.3)), Verdict::Improved);
        // e2e_wall_s: lower is better.
        let wall = def("e2e_wall_s");
        assert_eq!(verdict(wall, tight(2.0), tight(2.6)), Verdict::Regressed);
        assert_eq!(verdict(wall, tight(2.0), tight(1.4)), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let wall = def("e2e_wall_s");
        let noisy = Side { median: 2.0, q1: 1.6, q3: 2.4 }; // 40 % spread
        assert_eq!(verdict(wall, noisy, tight(2.0)), Verdict::Unresolved);
        assert_eq!(verdict(wall, tight(2.0), noisy), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_flag_any_difference() {
        let err = def("model_err_goodput");
        assert_eq!(verdict(err, tight(0.25), tight(0.25)), Verdict::Unchanged);
        let exact = |v| Side { median: v, q1: v, q3: v };
        assert_eq!(verdict(err, exact(0.25), exact(0.2500001)), Verdict::Regressed);
        assert_eq!(verdict(err, exact(0.25), exact(0.2)), Verdict::Improved);
        assert_eq!(verdict(def("failed_frac"), exact(0.0), exact(0.25)), Verdict::Regressed);
    }

    fn report(wall: f64, failed: f64) -> Value {
        json!({
            "scale": "smoke", "seed": 1u64,
            "workloads": [{
                "name": "w",
                "end_to_end": {
                    "e2e_wall_s": { "median": wall, "q1": wall * 0.99, "q3": wall * 1.01 },
                    "failed_frac": { "median": failed },
                    "snapshots_per_s": Value::Null
                }
            }]
        })
    }

    #[test]
    fn compare_walks_reports_and_render_flags_regressions() {
        let rows = compare(&report(1.0, 0.0), &report(1.02, 0.0)).unwrap();
        assert_eq!(rows.len(), 2, "n/a metrics produce no row");
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged));
        let (text, regressed) = render(&rows);
        assert!(!regressed && text.contains("2 unchanged"), "{text}");

        let rows = compare(&report(1.0, 0.0), &report(1.5, 0.5)).unwrap();
        let (text, regressed) = render(&rows);
        assert!(regressed && text.contains("2 regressed"), "{text}");

        let mut other = report(1.0, 0.0);
        other.as_object_mut().unwrap().insert("seed".into(), Value::from(2u64));
        assert!(compare(&report(1.0, 0.0), &other).is_err());
    }
}
