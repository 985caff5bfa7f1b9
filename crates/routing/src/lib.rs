//! Time-stepped routing state for Hypatia.
//!
//! The paper (§3.1) computes "the forwarding state of satellites and ground
//! stations at a configurable time granularity, with the default being
//! 100 ms": at each step a delay-weighted graph is built from the live
//! geometry and shortest-path forwarding state is derived; in between,
//! latencies keep following satellite motion while the forwarding state is
//! held fixed.
//!
//! * [`graph`] — the delay-weighted snapshot graph (ISLs + visible GSLs);
//! * [`dijkstra`] — per-destination shortest-path trees (the scalable
//!   default, exactly equivalent to the paper's Floyd–Warshall);
//! * `floyd_warshall` — the paper's all-pairs algorithm, compiled for
//!   tests only: the oracle [`dijkstra`] is validated against;
//! * [`forwarding`] — forwarding state per time-step, and full Dijkstra
//!   on one snapshot (the oracle, and single-instant look-ups);
//! * [`path`] — path extraction, RTT evaluation, change tracking;
//! * [`incremental`] — dynamic SSSP repair between consecutive snapshots:
//!   graph diffing, Ramalingam–Reps-style tree repair, and the
//!   churn-threshold full-recompute fallback, with output byte-identical
//!   to full Dijkstra;
//! * [`ksp`] — Yen's K shortest loopless paths (multipath/TE studies);
//! * [`multipath`] — loop-free downhill-alternate forwarding (the §5.4
//!   traffic-engineering direction, usable directly by the simulator);
//! * [`parallel`] — [`SnapshotWorker::step`], the one way the product
//!   turns an instant into forwarding state (fault mask, snapshot, trees
//!   by incremental repair, multipath when a stretch is set), and the
//!   deterministic pipelines that drive it: the ordered sweep over a step
//!   range every time-stepped experiment series reads, and the
//!   bounded-prefetch pool the packet simulator consumes;
//! * [`churn`] — per-snapshot next-hop churn and unreachable-pair
//!   metrics, the routing-level view of fault injection
//!   (`hypatia-fault`): masked snapshots simply omit failed components,
//!   so forwarding states reconverge around them.

#![forbid(unsafe_code)]

pub mod churn;
pub mod dijkstra;
#[cfg(test)]
pub mod floyd_warshall;
pub mod forwarding;
pub mod graph;
pub mod incremental;
pub mod ksp;
pub mod multipath;
pub mod parallel;
pub mod path;

pub use churn::{churn_between, SnapshotChurn};
pub use dijkstra::DijkstraScratch;
pub use forwarding::{compute_forwarding_state, ForwardingState, Hops, Unreachable};
pub use graph::{DelayGraph, SnapshotBuffers};
pub use incremental::{
    GraphDiff, IncrementalRouter, RepairStats, RouterStats, RoutingConfig, RoutingMode,
};
pub use parallel::{Prefetcher, SnapshotWorker};
pub use path::{extract_path, path_rtt_at, PairTracker};
