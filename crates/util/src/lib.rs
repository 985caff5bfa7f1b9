//! Foundation types shared by every Hypatia crate.
//!
//! This crate deliberately has no knowledge of satellites or networks. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulation time, the
//!   basis of deterministic discrete-event execution;
//! * [`Vec3`] — a minimal 3D vector for orbital geometry (kilometres);
//! * [`constants`] — physical and geodetic constants (WGS72, as used by the
//!   TLE ecosystem the paper builds on);
//! * [`DataRate`] / [`DataSize`] — bit-exact link-rate arithmetic;
//! * [`rng`] — a small deterministic PRNG for reproducible workloads;
//! * [`hash`] — FNV-1a 64 hashing for manifests and per-flow spreading;
//! * [`json`] — the JSON tree, parser and printers behind specs, manifests
//!   and CZML (the workspace has no crates.io dependencies);
//! * [`mem`] — peak-RSS introspection for the scaling benchmarks;
//! * [`angle`] — degree/radian helpers and angle wrapping.

#![forbid(unsafe_code)]

pub mod angle;
pub mod constants;
pub mod hash;
pub mod json;
pub mod mem;
pub mod rng;
pub mod time;
pub mod units;
pub mod vec3;

pub use time::{SimDuration, SimTime};
pub use units::{DataRate, DataSize};
pub use vec3::Vec3;
