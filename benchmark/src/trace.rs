//! In-memory spans around the harness's calls into each product crate.
//!
//! A span is `(name, tag, start, end, parent)`. The harness opens one at
//! every layer boundary it crosses (`netsim.sim_new`, `routing.repair`,
//! `viz.manifest`, …); nothing inside the product is instrumented. Spans
//! stay in memory for the whole traced repetition and are written to
//! `<out>/<workload>.trace.json` afterwards. A disabled tracer reads no
//! clock and allocates nothing, so the untraced pass pays one branch per
//! boundary.

use serde_json::{json, Value};
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, `crate.what` (e.g. `routing.repair`).
    pub name: &'static str,
    /// Instance label within the name (the shell slug on per-shell spans).
    pub tag: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (= start while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const DISABLED: SpanId = SpanId(u32::MAX);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing (the untraced pass).
    pub fn off() -> Self {
        Tracer { enabled: false, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer { enabled: true, ..Tracer::off() }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under whatever span is open now.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        self.enter_tagged(name, "")
    }

    /// [`Self::enter`] with an instance tag.
    pub fn enter_tagged(&mut self, name: &'static str, tag: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let now = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            tag,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if id == DISABLED {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Spans named `name` (any tag).
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of spans named `name` with tag `tag` (`""` matches
    /// every tag), seconds.
    pub fn total_s(&self, name: &str, tag: &str) -> f64 {
        self.named(name).filter(|s| tag.is_empty() || s.tag == tag).map(Span::secs).sum()
    }

    /// How many spans are named `name` with tag `tag` (`""`: any).
    pub fn count(&self, name: &str, tag: &str) -> u64 {
        self.named(name).filter(|s| tag.is_empty() || s.tag == tag).count() as u64
    }

    /// Mean duration of those spans, seconds (0 when there are none).
    pub fn mean_s(&self, name: &str, tag: &str) -> f64 {
        match self.count(name, tag) {
            0 => 0.0,
            n => self.total_s(name, tag) / n as f64,
        }
    }

    /// Self time of every span, ns: its duration minus the part of that
    /// interval its direct children cover. Index-aligned with the spans.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Share of the root span `root` that its direct children cover — how
    /// much of the repetition the breakdown explains.
    pub fn coverage(&self, root: &str) -> f64 {
        let Some(idx) = self.spans.iter().position(|s| s.name == root) else { return 0.0 };
        let total = self.spans[idx].end_ns - self.spans[idx].start_ns;
        if total == 0 {
            return 0.0;
        }
        let own = self.self_times_ns()[idx];
        (total - own) as f64 / total as f64
    }

    /// The trace document: every span with its self time, plus self time
    /// summed by `name[/tag]`.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let own = self.self_times_ns();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(i, (s, &own_ns))| {
                json!({
                    "id": i as u64,
                    "name": s.name,
                    "tag": s.tag,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": own_ns,
                    "parent": s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                })
            })
            .collect();
        let mut by_name: Vec<(String, u64, u64)> = Vec::new();
        for (s, &own_ns) in self.spans.iter().zip(&own) {
            let key =
                if s.tag.is_empty() { s.name.to_string() } else { format!("{}/{}", s.name, s.tag) };
            match by_name.iter_mut().find(|(k, _, _)| *k == key) {
                Some(row) => {
                    row.1 += own_ns;
                    row.2 += 1;
                }
                None => by_name.push((key, own_ns, 1)),
            }
        }
        let self_by_name: Vec<Value> = by_name
            .into_iter()
            .map(|(name, ns, count)| json!({ "name": name, "self_ns": ns, "count": count }))
            .collect();
        json!({
            "workload": workload,
            "seed": seed,
            "spans": Value::from(spans),
            "self_time_by_name": Value::from(self_by_name),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, tag: "", start_ns, end_ns, parent }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer { spans, ..Tracer::on() }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let t = tracer(vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ]);
        assert_eq!(t.self_times_ns(), vec![30, 20, 10, 40]);
        assert!((t.coverage("rep") - 0.7).abs() < 1e-12);
        assert_eq!(t.coverage("missing"), 0.0);
    }

    #[test]
    fn totals_and_counts_filter_by_name_and_tag() {
        let mut t = tracer(vec![span("x", 0, 1_000_000_000, None)]);
        t.spans.push(Span { tag: "k1", ..span("y", 0, 500_000_000, Some(0)) });
        t.spans.push(Span { tag: "s1", ..span("y", 0, 250_000_000, Some(0)) });
        assert_eq!(t.count("y", ""), 2);
        assert_eq!(t.count("y", "k1"), 1);
        assert!((t.total_s("y", "") - 0.75).abs() < 1e-12);
        assert!((t.mean_s("y", "s1") - 0.25).abs() < 1e-12);
        assert_eq!(t.mean_s("z", ""), 0.0);
    }

    #[test]
    fn recording_nests_and_disabled_records_nothing() {
        let mut t = Tracer::on();
        let a = t.enter("a");
        let b = t.enter_tagged("b", "k1");
        t.exit(b);
        t.exit(a);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].tag, "k1");
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);

        let mut off = Tracer::off();
        let a = off.enter("a");
        off.exit(a);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn trace_document_carries_self_time_by_name() {
        let t = tracer(vec![
            span("rep", 0, 100, None),
            span("a", 0, 30, Some(0)),
            span("a", 40, 60, Some(0)),
        ]);
        let doc = t.to_json("w", 7);
        assert_eq!(doc["spans"].as_array().unwrap().len(), 3);
        let rows = doc["self_time_by_name"].as_array().unwrap();
        assert_eq!(rows[1]["name"], "a");
        assert_eq!(rows[1]["self_ns"], 50u64);
        assert_eq!(rows[1]["count"], 2u64);
    }
}
