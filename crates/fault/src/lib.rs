//! Deterministic fault injection for LEO constellation simulations.
//!
//! The paper studies the *nominal* dynamics of mega-constellations —
//! paths and RTTs change purely because satellites move. Real
//! deployments also degrade: satellites fail, inter-satellite lasers
//! drop lock, ground-station links fade in rain. This crate turns such
//! scenarios into a first-class, reproducible simulation input.
//!
//! The model is a three-stage pipeline:
//!
//! 1. A declarative [`FaultSpec`] lists explicit outage windows
//!    (satellite, ISL, GSL-weather) plus optional stochastic
//!    MTTF/MTTR *flap processes*, all driven by one seed.
//! 2. [`FaultSchedule::compile`] expands the spec against a concrete
//!    [`Constellation`](hypatia_constellation::Constellation) into a
//!    time-sorted vector of [`FaultEvent`]s. Sampling uses
//!    [`DetRng`](hypatia_util::rng::DetRng) streams derived per component
//!    with FNV-1a mixing — no wall clock, no global RNG, no
//!    iteration-order dependence.
//! 3. [`FaultState`] replays a schedule prefix to answer "is this
//!    node/link up at time t?" during snapshot-graph construction and
//!    packet forwarding. Replay from the immutable schedule is pure,
//!    so parallel forwarding-state workers mask identically to the
//!    serial path.
//!
//! Everything is integer-nanosecond timestamped and deterministic: the
//! same spec and constellation always compile to the same schedule.

#![forbid(unsafe_code)]

mod schedule;
mod spec;
mod state;

pub use schedule::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
pub use spec::{FaultSpec, FlapProcess, LinkCut, OutageWindow};
pub use state::FaultState;
