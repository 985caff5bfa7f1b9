//! # Hypatia (Rust)
//!
//! A framework for simulating and visualizing the network behaviour of
//! low-Earth-orbit satellite mega-constellations — a from-scratch Rust
//! reproduction of *"Exploring the 'Internet from space' with Hypatia"*
//! (Kassing, Bhattacherjee, Águas, Saethre, Singla; ACM IMC 2020).
//!
//! This crate is the user-facing facade. It re-exports the building blocks
//! and adds:
//!
//! * [`scenario`] — a builder assembling constellation + ground segment +
//!   simulator configuration into a runnable scenario;
//! * [`experiments`] — canned, parameterized runners for every experiment
//!   in the paper's evaluation (RTT fluctuation, congestion-control
//!   behaviour, constellation-wide sweeps, forwarding-granularity
//!   ablation, cross-traffic bandwidth, bent-pipe comparisons, simulator
//!   scalability);
//! * [`spec`] — [`ExperimentSpec`](spec::ExperimentSpec), the declarative,
//!   JSON-round-trippable description of a run (constellation, ground
//!   segment, pairs, duration, Δt, rates, congestion control, threads,
//!   seed, free-form params);
//! * [`runner`] — the [`Experiment`](runner::Experiment) trait and the
//!   [`ExperimentRunner`](runner::ExperimentRunner) registry that owns the
//!   one run lifecycle (build the scenario once, execute under a
//!   deadline and memory budget with panics caught, write the run's
//!   `manifest.json` through an
//!   [`ArtifactSink`](hypatia_viz::sink::ArtifactSink), or salvage an
//!   aborted one);
//! * [`resilience`] — the segmented drive loop: periodic checkpoints,
//!   byte-identical resume, and conservation audits for long runs;
//! * [`figures`] — every table and figure of the paper (plus the extension
//!   studies) implemented against that trait and registered by name.
//!
//! ## Quick start
//!
//! ```
//! use hypatia::prelude::*;
//!
//! // Kuiper's first shell with two cities as ground stations.
//! let cities = hypatia::constellation::ground::top_cities(2);
//! let constellation = std::sync::Arc::new(
//!     hypatia::constellation::presets::kuiper_k1(cities));
//!
//! // Ping from the most to the second-most populous city for 2 s.
//! let (src, dst) = (constellation.gs_node(0), constellation.gs_node(1));
//! let mut sim = Simulator::new(constellation, SimConfig::default(), vec![src, dst]);
//! let ping = sim.add_app(src, 7, Box::new(
//!     PingApp::new(dst, SimDuration::from_millis(100), SimTime::from_secs(2))));
//! sim.run_until(SimTime::from_secs(3));
//! let app: &PingApp = sim.app_as(ping).unwrap();
//! assert!(app.received() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod figures;
pub mod resilience;
pub mod runner;
pub mod scenario;
pub mod spec;

// Re-export the component crates under stable names.
pub use hypatia_constellation as constellation;
pub use hypatia_fault as fault;
pub use hypatia_netsim as netsim;
pub use hypatia_orbit as orbit;
pub use hypatia_routing as routing;
pub use hypatia_transport as transport;
pub use hypatia_util as util;
pub use hypatia_viz as viz;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::scenario::{Scenario, ScenarioBuilder};
    pub use hypatia_constellation::{Constellation, GroundStation, NodeId};
    pub use hypatia_netsim::apps::{PingApp, UdpSink, UdpSource};
    pub use hypatia_netsim::{SimConfig, Simulator};
    pub use hypatia_transport::{Cubic, NewReno, TcpConfig, TcpSender, TcpSink, Vegas};
    pub use hypatia_util::{DataRate, SimDuration, SimTime};
}
