//! Bounded per-packet event tracing.
//!
//! When enabled (`SimConfig::trace_limit > 0`), the simulator records one
//! entry per packet lifecycle event up to the limit — enough to reconstruct
//! the exact hop-by-hop journey of early packets (e.g. to drive a path
//! animation, or to debug a forwarding anomaly) without unbounded memory
//! growth on long runs.

use crate::checkpoint::{CheckpointError, Snap, SnapReader, SnapWriter};
use hypatia_constellation::NodeId;
use hypatia_util::SimTime;

/// What happened to the packet. The discriminant is the kind's tag in a
/// checkpoint image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceKind {
    /// Application (or echo) injected the packet at its source node.
    #[default]
    Inject = 0,
    /// The packet arrived at an intermediate or final node.
    Arrive = 1,
    /// Delivered to the destination node.
    Deliver = 2,
    /// Dropped: no route to the destination.
    RoutingDrop = 3,
    /// Dropped: device queue full.
    QueueDrop = 4,
    /// Dropped: lost on the GSL channel.
    ChannelDrop = 5,
    /// Dropped by fault injection: the packet was in flight on (or
    /// forwarded into) a link or node that a scheduled fault took down.
    FaultDrop = 6,
    /// The fluid solver recomputed the max-min rate allocation
    /// (fluid/hybrid modes). Not a packet event: `node` is always 0 and
    /// `packet_id` carries the running re-solve count.
    FluidResolve = 7,
}

impl TraceKind {
    /// Every kind, in tag order.
    pub(crate) const ALL: [TraceKind; 8] = [
        TraceKind::Inject,
        TraceKind::Arrive,
        TraceKind::Deliver,
        TraceKind::RoutingDrop,
        TraceKind::QueueDrop,
        TraceKind::ChannelDrop,
        TraceKind::FaultDrop,
        TraceKind::FluidResolve,
    ];
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceEntry {
    /// Event time.
    pub t: SimTime,
    /// Node at which the event occurred.
    pub node: NodeId,
    /// The packet's id.
    pub packet_id: u64,
    /// Event kind.
    pub kind: TraceKind,
}

/// A bounded trace buffer: the first `limit` records of a run in canonical
/// `(time, key)` order.
///
/// Alongside each entry the trace keeps the canonical event key that was
/// current when it was recorded (see [`Trace::set_key`]). Keys never leave
/// the crate: they place a record that arrives out of that order.
#[derive(Debug, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    /// Canonical key of the event each entry was recorded under (parallel
    /// to `entries`).
    keys: Vec<u64>,
    /// Key stamped on subsequent records.
    current_key: u64,
    limit: usize,
    truncated: u64,
    /// Per-flow sampling interval: [`Trace::record_flow`] keeps only flows
    /// whose flow hash divides this (1 = keep every flow).
    sample_every: u64,
    /// Records skipped because their flow was sampled out.
    sampled_out: u64,
}

impl Trace {
    /// A trace keeping at most `limit` entries (0 disables tracing).
    pub fn new(limit: usize) -> Self {
        Self::with_sampling(limit, 1)
    }

    /// A trace keeping at most `limit` entries, recording only every
    /// `sample_every`-th flow (by flow hash; 1 = every flow).
    pub fn with_sampling(limit: usize, sample_every: u64) -> Self {
        assert!(sample_every >= 1, "sampling interval must be at least 1");
        Trace {
            entries: Vec::new(),
            keys: Vec::new(),
            current_key: 0,
            limit,
            truncated: 0,
            sample_every,
            sampled_out: 0,
        }
    }

    /// Set the canonical event key stamped on subsequent records. The
    /// simulator calls this before dispatching each event; records made
    /// outside an event context keep the last key (or 0).
    pub fn set_key(&mut self, key: u64) {
        self.current_key = key;
    }

    /// Is tracing active at all?
    pub fn enabled(&self) -> bool {
        self.limit > 0
    }

    /// Record an event (no-op once full; counts truncations).
    ///
    /// Tracing is off (`limit == 0`) in every performance-sensitive run, so
    /// the disabled check inlines to a single predictable branch at each
    /// call site and the buffer manipulation stays out of line.
    #[inline(always)]
    pub fn record(&mut self, t: SimTime, node: NodeId, packet_id: u64, kind: TraceKind) {
        if self.limit == 0 {
            return;
        }
        self.record_slow(t, node, packet_id, kind);
    }

    /// Record a packet event subject to per-flow sampling: the record is
    /// kept only when the packet's flow hash divides the sampling interval,
    /// so a sampled flow keeps *every* record of *every* one of its packets
    /// (complete journeys) while the rest of the flow population costs
    /// nothing beyond the skip counter.
    ///
    /// The disabled check comes first so performance runs (tracing off) pay
    /// one predictable branch and never touch the sampling counter.
    #[inline(always)]
    pub fn record_flow(
        &mut self,
        t: SimTime,
        node: NodeId,
        packet_id: u64,
        flow_hash: u64,
        kind: TraceKind,
    ) {
        if self.limit == 0 {
            return;
        }
        if self.sample_every > 1 && !flow_hash.is_multiple_of(self.sample_every) {
            self.sampled_out += 1;
            return;
        }
        self.record_slow(t, node, packet_id, kind);
    }

    /// Keep the record if it is among the first `limit` of the run in
    /// `(time, key)` order, after every kept record of its `(time, key)`.
    /// Records arrive in that order (the queue pops in it) but for a few
    /// written outside the event loop, such as the run-start fluid
    /// re-solve, whose key sorts before the `on_start` records of its
    /// instant: one of those goes in at its position, and when the buffer
    /// is full the entry it pushes off the end counts as truncated.
    #[cold]
    fn record_slow(&mut self, t: SimTime, node: NodeId, packet_id: u64, kind: TraceKind) {
        let at = (t, self.current_key);
        let pos = match (self.entries.last(), self.keys.last()) {
            (Some(last), Some(&key)) if (last.t, key) > at => {
                let mut kept = self.entries.iter().zip(&self.keys);
                kept.rposition(|(e, &k)| (e.t, k) <= at).map_or(0, |i| i + 1)
            }
            _ => self.entries.len(),
        };
        if pos == self.limit {
            self.truncated += 1;
            return;
        }
        if self.entries.len() == self.limit {
            self.entries.pop();
            self.keys.pop();
            self.truncated += 1;
        }
        self.entries.insert(pos, TraceEntry { t, node, packet_id, kind });
        self.keys.insert(pos, self.current_key);
    }

    /// All recorded entries, in canonical `(time, key)` order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The canonical key each entry was recorded under (parallel to
    /// [`Trace::entries`]).
    #[cfg(test)]
    pub(crate) fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Events not recorded because the buffer was full: nonzero means the
    /// trace is partial, and a journey in it may be truncated.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Records skipped because per-flow sampling excluded their flow:
    /// nonzero means the trace covers a sampled subset of flows.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// The journey of one packet: its entries in order.
    pub fn journey(&self, packet_id: u64) -> Vec<TraceEntry> {
        self.entries.iter().filter(|e| e.packet_id == packet_id).copied().collect()
    }
}

/// The configured limits (stored so restore can cross-check the rebuilt
/// configuration), the counters, then each entry followed by its key.
impl Snap for Trace {
    fn put(&self, w: &mut SnapWriter) {
        (self.limit, self.sample_every).put(w);
        (self.current_key, self.truncated, self.sampled_out).put(w);
        self.entries.len().put(w);
        for (entry, key) in self.entries.iter().zip(&self.keys) {
            (*entry, *key).put(w);
        }
    }

    /// Fails if the saved limits disagree with this trace's configuration
    /// (the snapshot came from a differently configured run).
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), CheckpointError> {
        let (limit, sample_every): (usize, u64) = r.get()?;
        if limit != self.limit || sample_every != self.sample_every {
            return Err(CheckpointError::Malformed(format!(
                "trace config mismatch: snapshot limit={limit}/sample={sample_every}, \
                 rebuilt limit={}/sample={}",
                self.limit, self.sample_every
            )));
        }
        (self.current_key, self.truncated, self.sampled_out) = r.get()?;
        let n: usize = r.get()?;
        if n > limit {
            return Err(CheckpointError::Malformed(format!(
                "trace holds {n} entries over its limit {limit}"
            )));
        }
        self.entries.clear();
        self.keys.clear();
        for _ in 0..n {
            let (entry, key) = r.get()?;
            self.entries.push(entry);
            self.keys.push(key);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::new(0);
        assert!(!tr.enabled());
        tr.record(SimTime::ZERO, NodeId(1), 7, TraceKind::Inject);
        assert!(tr.entries().is_empty());
        assert_eq!(tr.truncated(), 0);
    }

    #[test]
    fn bounded_at_limit() {
        let mut tr = Trace::new(3);
        for i in 0..5 {
            tr.record(SimTime::from_nanos(i), NodeId(0), i, TraceKind::Arrive);
        }
        assert_eq!(tr.entries().len(), 3);
        assert_eq!(tr.truncated(), 2);
    }

    /// A record keyed before the tail of its instant goes in at its
    /// position; once the buffer is full it pushes the last entry out, and
    /// a record sorting after the last entry is truncated itself.
    #[test]
    fn records_land_in_canonical_order_and_truncate_the_tail() {
        let record = |tr: &mut Trace, t: u64, key: u64, id: u64| {
            tr.set_key(key);
            tr.record(SimTime::from_nanos(t), NodeId(0), id, TraceKind::Inject);
        };
        let mut tr = Trace::new(3);
        record(&mut tr, 1, 5, 1);
        record(&mut tr, 1, 9, 2);
        record(&mut tr, 1, 2, 3); // before both: goes first
        let order = |tr: &Trace| tr.entries().iter().map(|e| e.packet_id).collect::<Vec<_>>();
        assert_eq!((order(&tr), tr.keys()), (vec![3, 1, 2], &[2, 5, 9][..]));
        assert_eq!(tr.truncated(), 0);
        record(&mut tr, 1, 7, 4); // full: pushes key 9 out
        assert_eq!((order(&tr), tr.keys()), (vec![3, 1, 4], &[2, 5, 7][..]));
        record(&mut tr, 2, 0, 5); // sorts after the last entry
        record(&mut tr, 0, 99, 6); // an earlier instant, any key
        assert_eq!((order(&tr), tr.keys()), (vec![6, 3, 1], &[99, 2, 5][..]));
        assert_eq!(tr.truncated(), 3);
    }

    /// Records under one `(time, key)` — e.g. Deliver then echo Inject —
    /// keep the order they were made in, also when a record of that key
    /// goes in ahead of later-keyed ones.
    #[test]
    fn same_event_records_keep_their_order() {
        let mut tr = Trace::new(10);
        tr.set_key(50);
        tr.record(SimTime::from_nanos(9), NodeId(3), 1, TraceKind::Arrive);
        tr.set_key(42);
        tr.record(SimTime::from_nanos(9), NodeId(3), 2, TraceKind::Deliver);
        tr.record(SimTime::from_nanos(9), NodeId(3), 3, TraceKind::Inject);
        let kinds: Vec<TraceKind> = tr.entries().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [TraceKind::Deliver, TraceKind::Inject, TraceKind::Arrive]);
    }

    #[test]
    fn sampling_keeps_selected_flows_records_exactly() {
        // Flows are selected by hash divisibility: with K = 4, flows whose
        // hash ≡ 0 (mod 4) keep every record; the rest keep none.
        let every = 4;
        let mut sampled = Trace::with_sampling(1000, every);
        let mut full = Trace::new(1000);
        for flow in 0..16u64 {
            let hash = flow * 3 + 1; // arbitrary, covers both residues
            for hop in 0..5u64 {
                let kind = match hop {
                    0 => TraceKind::Inject,
                    4 => TraceKind::Deliver,
                    _ => TraceKind::Arrive,
                };
                sampled.record_flow(SimTime::from_nanos(hop), NodeId(hop as u32), flow, hash, kind);
                full.record_flow(SimTime::from_nanos(hop), NodeId(hop as u32), flow, hash, kind);
            }
        }
        let mut kept = 0;
        for flow in 0..16u64 {
            let hash = flow * 3 + 1;
            if hash % every == 0 {
                kept += 1;
                // A selected flow's journey is byte-identical to the
                // unsampled trace — nothing is thinned within the flow.
                assert_eq!(sampled.journey(flow), full.journey(flow), "flow {flow}");
                assert_eq!(sampled.journey(flow).len(), 5);
            } else {
                assert!(sampled.journey(flow).is_empty(), "flow {flow} leaked records");
            }
        }
        assert!(kept > 0, "test covers no selected flow");
        assert_eq!(sampled.sampled_out() + sampled.entries().len() as u64, 16 * 5);
        assert_eq!(sampled.truncated(), 0, "sampling is not truncation");
    }

    #[test]
    fn sampling_interval_one_records_everything() {
        let mut tr = Trace::with_sampling(10, 1);
        tr.record_flow(SimTime::ZERO, NodeId(0), 1, 12345, TraceKind::Inject);
        assert_eq!(tr.entries().len(), 1);
        assert_eq!(tr.sampled_out(), 0);
    }

    #[test]
    fn save_restore_round_trips_entries_keys_and_counters() {
        use crate::checkpoint::{Snap, SnapReader, SnapWriter};
        let mut tr = Trace::with_sampling(2, 2);
        tr.set_key(11);
        tr.record_flow(SimTime::from_nanos(1), NodeId(3), 1, 4, TraceKind::Inject);
        tr.record_flow(SimTime::from_nanos(2), NodeId(4), 2, 3, TraceKind::Inject); // sampled out
        tr.set_key(13);
        tr.record(SimTime::from_nanos(3), NodeId(5), 1, TraceKind::Deliver);
        tr.record(SimTime::from_nanos(4), NodeId(6), 1, TraceKind::Arrive); // truncated
        let mut w = SnapWriter::new(1);
        tr.put(&mut w);
        let mut back = Trace::with_sampling(2, 2);
        let mut r = SnapReader::from_bytes(w.finish(), 1).unwrap();
        back.restore(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.entries(), tr.entries());
        assert_eq!(back.keys, tr.keys);
        assert_eq!(back.truncated(), 1);
        assert_eq!(back.sampled_out(), 1);
        assert_eq!(back.current_key, 13);

        // A differently configured trace rejects the snapshot.
        let mut w = SnapWriter::new(1);
        tr.put(&mut w);
        let mut wrong = Trace::with_sampling(5, 2);
        let mut r = SnapReader::from_bytes(w.finish(), 1).unwrap();
        assert!(wrong.restore(&mut r).is_err());
    }

    #[test]
    fn journey_filters_by_packet() {
        let mut tr = Trace::new(10);
        tr.record(SimTime::from_nanos(1), NodeId(0), 1, TraceKind::Inject);
        tr.record(SimTime::from_nanos(2), NodeId(5), 2, TraceKind::Inject);
        tr.record(SimTime::from_nanos(3), NodeId(1), 1, TraceKind::Arrive);
        tr.record(SimTime::from_nanos(4), NodeId(2), 1, TraceKind::Deliver);
        let j = tr.journey(1);
        assert_eq!(j.len(), 3);
        assert_eq!(j[0].kind, TraceKind::Inject);
        assert_eq!(j[2].kind, TraceKind::Deliver);
    }
}
