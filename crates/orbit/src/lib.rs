//! Orbital mechanics for Hypatia.
//!
//! The paper drives its simulator with satellite trajectories described by
//! Keplerian orbital elements from FCC/ITU filings, converted to TLEs
//! (WGS72) and propagated by an SGP4-based mobility model. This crate
//! provides the equivalent, from scratch:
//!
//! * [`kepler`] — classical orbital elements and the Kepler equation;
//! * [`propagate`] — position/velocity in the inertial frame at time `t`,
//!   with optional J2 secular perturbations ("SGP4-lite": the paper notes
//!   the full model drifts 1–3 km/day, immaterial for sub-hour runs);
//! * [`frames`] — ECI ↔ ECEF ↔ geodetic coordinate transforms;
//! * [`geodesy`] — ground positions, great-circle distance, geodesic RTT;
//! * [`visibility`] — elevation angles, slant ranges, GSL reachability;
//! * [`tle`] — NORAD two-line element generation and parsing with
//!   checksums, mirroring the paper's Keplerian→TLE utility.

#![forbid(unsafe_code)]

pub mod frames;
pub mod geodesy;
pub mod kepler;
pub mod propagate;
pub mod tle;
pub mod visibility;

pub use frames::{ecef_to_geodetic, eci_to_ecef, geodetic_to_ecef, gmst_rad, GeodeticPos};
pub use kepler::KeplerianElements;
pub use propagate::{OrbitState, Propagator};
pub use tle::Tle;
