//! Scenario assembly: constellation + ground segment + simulator config.
//!
//! A [`Scenario`] bundles everything the paper calls an "experiment setup"
//! (§3.4): which constellation, which ground stations, what line rate,
//! queue size, and forwarding-state granularity, and which GS pairs talk.

use hypatia_constellation::ground::top_cities;
use hypatia_constellation::{Constellation, GroundStation, NodeId};
use hypatia_netsim::{SimConfig, Simulator};
use hypatia_util::rng::DetRng;
use std::fmt;
use std::sync::Arc;

/// Which preset constellation to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstellationChoice {
    /// Starlink's first shell S1 (72 × 22 at 550 km, 53°, l = 25°).
    StarlinkS1,
    /// Kuiper's first shell K1 (34 × 34 at 630 km, 51.9°, l = 30°).
    KuiperK1,
    /// Telesat's first shell T1 (27 × 13 at 1015 km, 98.98°, l = 10°).
    TelesatT1,
    /// Kuiper K1 without ISLs (bent-pipe, Appendix A).
    KuiperK1BentPipe,
}

impl ConstellationChoice {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ConstellationChoice::StarlinkS1 => "Starlink S1",
            ConstellationChoice::KuiperK1 => "Kuiper K1",
            ConstellationChoice::TelesatT1 => "Telesat T1",
            ConstellationChoice::KuiperK1BentPipe => "Kuiper K1 (bent-pipe)",
        }
    }

    /// Stable machine-readable identifier (used in spec JSON and slugs).
    pub fn slug(self) -> &'static str {
        match self {
            ConstellationChoice::StarlinkS1 => "starlink_s1",
            ConstellationChoice::KuiperK1 => "kuiper_k1",
            ConstellationChoice::TelesatT1 => "telesat_t1",
            ConstellationChoice::KuiperK1BentPipe => "kuiper_k1_bent_pipe",
        }
    }

    /// Parse a [`slug`](Self::slug) or display name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        let all = [
            ConstellationChoice::StarlinkS1,
            ConstellationChoice::KuiperK1,
            ConstellationChoice::TelesatT1,
            ConstellationChoice::KuiperK1BentPipe,
        ];
        all.into_iter()
            .find(|c| s.eq_ignore_ascii_case(c.slug()) || s.eq_ignore_ascii_case(c.name()))
    }

    /// Build the constellation with the given ground stations.
    pub fn build(self, gses: Vec<GroundStation>) -> Constellation {
        use hypatia_constellation::presets;
        match self {
            ConstellationChoice::StarlinkS1 => presets::starlink_s1(gses),
            ConstellationChoice::KuiperK1 => presets::kuiper_k1(gses),
            ConstellationChoice::TelesatT1 => presets::telesat_t1(gses),
            ConstellationChoice::KuiperK1BentPipe => presets::kuiper_k1_bent_pipe(gses),
        }
    }
}

/// Lookup of a ground station by a name the scenario doesn't contain.
///
/// Carries the available city names so callers (in particular the
/// experiment runner's CLI surface) can print an actionable message
/// instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCityError {
    /// The name that was requested.
    pub name: String,
    /// Every ground-station name in the scenario, in index order.
    pub available: Vec<String>,
}

impl fmt::Display for UnknownCityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no ground station named {:?}; available ({}): ",
            self.name,
            self.available.len()
        )?;
        const SHOWN: usize = 20;
        for (i, city) in self.available.iter().take(SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{city}")?;
        }
        if self.available.len() > SHOWN {
            write!(f, ", … and {} more", self.available.len() - SHOWN)?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownCityError {}

/// A fully-assembled scenario.
#[derive(Clone)]
pub struct Scenario {
    /// The constellation (shared with any simulators built from this).
    pub constellation: Arc<Constellation>,
    /// Simulator configuration.
    pub sim_config: SimConfig,
}

impl Scenario {
    /// GS node id by ground-station index.
    pub fn gs(&self, idx: usize) -> NodeId {
        self.constellation.gs_node(idx)
    }

    /// GS node id by city name; errs with the list of available cities if
    /// the scenario's ground segment has no station of that name.
    pub fn gs_by_name(&self, name: &str) -> Result<NodeId, UnknownCityError> {
        match self.constellation.find_gs(name) {
            Some(idx) => Ok(self.constellation.gs_node(idx)),
            None => Err(UnknownCityError {
                name: name.to_string(),
                available: self
                    .constellation
                    .ground_stations
                    .iter()
                    .map(|gs| gs.name.clone())
                    .collect(),
            }),
        }
    }

    /// Build a packet simulator routing towards `dests`.
    pub fn simulator(&self, dests: Vec<NodeId>) -> Simulator {
        Simulator::new(self.constellation.clone(), self.sim_config.clone(), dests)
    }

    /// The paper's standard traffic matrix: a fixed random permutation
    /// among the ground stations (no GS talks to itself), seeded for
    /// reproducibility. Returns `(src_gs_idx, dst_gs_idx)` pairs.
    pub fn permutation_pairs(&self, seed: u64) -> Vec<(usize, usize)> {
        let n = self.constellation.num_ground_stations();
        let perm = DetRng::new(seed).permutation_pairs(n);
        perm.into_iter().enumerate().collect()
    }
}

/// Builder for [`Scenario`].
pub struct ScenarioBuilder {
    choice: ConstellationChoice,
    gses: Vec<GroundStation>,
    sim_config: SimConfig,
}

impl ScenarioBuilder {
    /// Start from a preset constellation; defaults to the world's 100 most
    /// populous cities and the paper's default simulator config.
    pub fn new(choice: ConstellationChoice) -> Self {
        ScenarioBuilder { choice, gses: top_cities(100), sim_config: SimConfig::default() }
    }

    /// Replace the ground segment.
    pub fn ground_stations(mut self, gses: Vec<GroundStation>) -> Self {
        assert!(!gses.is_empty(), "need at least one ground station");
        self.gses = gses;
        self
    }

    /// Use only the `n` most populous cities.
    pub fn top_cities(mut self, n: usize) -> Self {
        self.gses = top_cities(n);
        self
    }

    /// Override the simulator configuration.
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim_config = cfg;
        self
    }

    /// Assemble.
    pub fn build(self) -> Scenario {
        Scenario {
            constellation: Arc::new(self.choice.build(self.gses)),
            sim_config: self.sim_config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_util::DataRate;

    #[test]
    fn builder_defaults_to_100_cities() {
        let s = ScenarioBuilder::new(ConstellationChoice::KuiperK1).top_cities(5).build();
        assert_eq!(s.constellation.num_ground_stations(), 5);
        assert_eq!(s.constellation.num_satellites(), 1156);
    }

    #[test]
    fn gs_lookup_by_name() {
        let s = ScenarioBuilder::new(ConstellationChoice::KuiperK1).top_cities(25).build();
        let moscow = s.gs_by_name("Moscow").expect("Moscow in top 25");
        assert!(!s.constellation.is_satellite(moscow));
    }

    #[test]
    fn unknown_city_lists_available() {
        let s = ScenarioBuilder::new(ConstellationChoice::KuiperK1).top_cities(3).build();
        let err = s.gs_by_name("Atlantis").unwrap_err();
        assert_eq!(err.name, "Atlantis");
        assert_eq!(err.available.len(), 3);
        let msg = err.to_string();
        assert!(msg.contains("Atlantis"), "{msg}");
        assert!(msg.contains(&err.available[0]), "{msg}");
    }

    #[test]
    fn permutation_pairs_are_reproducible_and_fixed_point_free() {
        let s = ScenarioBuilder::new(ConstellationChoice::KuiperK1).top_cities(20).build();
        let a = s.permutation_pairs(42);
        let b = s.permutation_pairs(42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        for &(src, dst) in &a {
            assert_ne!(src, dst);
        }
    }

    #[test]
    fn choices_build_expected_constellations() {
        let gs = vec![GroundStation::new("x", 0.0, 0.0)];
        assert_eq!(ConstellationChoice::TelesatT1.build(gs.clone()).num_satellites(), 351);
        assert!(ConstellationChoice::KuiperK1BentPipe.build(gs).isls.is_empty());
        assert_eq!(ConstellationChoice::StarlinkS1.name(), "Starlink S1");
    }

    #[test]
    fn simulator_uses_configured_rate() {
        let s = ScenarioBuilder::new(ConstellationChoice::KuiperK1)
            .top_cities(2)
            .sim_config(SimConfig::default().with_link_rate(DataRate::from_mbps(25)))
            .build();
        let sim = s.simulator(vec![s.gs(0), s.gs(1)]);
        assert_eq!(sim.config().link_rate, DataRate::from_mbps(25));
    }
}
