//! LEO constellation construction for Hypatia.
//!
//! This crate turns the paper's Table 1 — shell descriptions from FCC/ITU
//! filings — into concrete, propagatable constellations:
//!
//! * [`shell`] — a shell (orbits × satellites/orbit at one altitude and
//!   inclination) and the element generation for every satellite in it;
//! * [`presets`] — Starlink S1–S5, Kuiper K1–K3, Telesat T1–T2, with the
//!   operators' minimum elevation angles;
//! * [`constellation`] — the assembled constellation: satellites, node-id
//!   scheme, ECEF positions over time;
//! * [`ephemeris`] — a per-satellite windowed position cache that serves
//!   the packet simulator's per-hop propagation delays, bit-identical to
//!   the exact geometry;
//! * [`isl`] — inter-satellite link layouts (+Grid default, ISL-less for
//!   bent-pipe constellations);
//! * [`ground`] — ground stations and the embedded 100-most-populous-cities
//!   dataset used throughout the paper's evaluation;
//! * [`relays`] — ground-relay grids for Appendix A's bent-pipe experiments;
//! * [`gsl`] — ground-to-satellite visibility queries.

#![forbid(unsafe_code)]

pub mod constellation;
pub mod ephemeris;
pub mod ground;
pub mod gsl;
pub mod isl;
pub mod presets;
pub mod relays;
pub mod shell;

pub use constellation::{Constellation, NodeId, Satellite};
pub use ephemeris::{Ephemeris, EphemerisStats};
pub use ground::{GroundStation, CITIES};
pub use isl::IslLayout;
pub use shell::ShellSpec;
