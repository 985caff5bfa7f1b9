//! Visualization exporters for Hypatia.
//!
//! The paper's visualization module renders, via Cesium, four interactive
//! views (§3.3/§6): satellite trajectories, the ground observer's sky view,
//! end-end paths over time, and link utilization. A browser is not part of
//! this reproduction, so this crate generates the *documents* those views
//! consume — CZML (Cesium's JSON dialect) for trajectories, structured
//! JSON for paths and utilization, ASCII for the sky view — plus
//! gnuplot-ready CSV for every figure series.
//!
//! * [`czml`] — satellite trajectory documents (Fig. 11);
//! * [`ground_view`] — azimuth/elevation observer snapshots (Fig. 12);
//! * [`path_viz`] — end-end path snapshots with geometry (Figs. 13, 16, 17);
//! * [`util_viz`] — per-ISL utilization maps (Figs. 14, 15);
//! * [`csv`] — series/CDF writers shared by the benchmark harness;
//! * [`sink`] — the artifact sink: one recorder through which every
//!   experiment output (series, JSON, CZML, text, traces) is written, with
//!   a `manifest.json` of names, sizes, and checksums per run.

#![forbid(unsafe_code)]

pub mod csv;
pub mod czml;
pub mod ground_view;
pub mod path_viz;
pub mod util_viz;

pub mod sink;
