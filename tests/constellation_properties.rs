//! Cross-crate invariants of the three constellations (paper §2.2, §5.1).

use hypatia::orbit::frames::ecef_to_geodetic;
use hypatia::routing::forwarding::compute_forwarding_state;
use hypatia::scenario::ConstellationChoice;
use hypatia::util::{SimDuration, SimTime};
use hypatia_constellation::ground::top_cities;
use hypatia_util::rng::DetRng;

#[test]
fn telesat_covers_poles_kuiper_does_not() {
    use hypatia::viz::ground_view::GroundView;
    use hypatia_constellation::GroundStation;
    let pole = GroundStation::new("pole", 88.0, 10.0);
    let kuiper = ConstellationChoice::KuiperK1.build(vec![pole.clone()]);
    let telesat = ConstellationChoice::TelesatT1.build(vec![pole.clone()]);
    assert!(!GroundView::compute(&kuiper, &pole, SimTime::ZERO).is_connected());
    assert!(GroundView::compute(&telesat, &pole, SimTime::ZERO).is_connected());
}

/// Paper §4.1: "For Kuiper, its other two shells do not address this
/// missing connectivity either; high-latitude cities like St. Petersburg
/// will not see continuous connectivity over Kuiper." K2 (42°) and K3
/// (33°) are inclined even lower than K1 (51.9°), so the full
/// three-shell constellation keeps the outage.
#[test]
fn full_kuiper_does_not_fix_st_petersburg() {
    use hypatia::viz::ground_view::connectivity_windows;
    use hypatia_constellation::{presets, GroundStation};
    use hypatia_util::SimDuration;
    let sp = GroundStation::new("Saint Petersburg", 59.9311, 30.3609);
    let c = presets::kuiper_full(vec![sp.clone()]);
    assert_eq!(c.num_satellites(), 3_236);
    let windows =
        connectivity_windows(&c, &sp, SimDuration::from_secs(600), SimDuration::from_secs(10));
    assert!(
        windows.iter().any(|w| !w.connected),
        "all three Kuiper shells together must still leave outages: {windows:?}"
    );
}

#[test]
fn satellite_rtt_never_beats_geodesic() {
    // Physical lower bound across constellations and pairs at several
    // instants.
    for choice in [ConstellationChoice::KuiperK1, ConstellationChoice::TelesatT1] {
        let c = choice.build(top_cities(8));
        let dests: Vec<_> = (0..8).map(|i| c.gs_node(i)).collect();
        for secs in [0u64, 30, 90] {
            let st = compute_forwarding_state(&c, SimTime::from_secs(secs), &dests);
            for i in 0..8 {
                for j in 0..8 {
                    if i == j {
                        continue;
                    }
                    if let Some(d) = st.distance(c.gs_node(i), c.gs_node(j)) {
                        let geodesic = c.ground_stations[i].geodesic_rtt(&c.ground_stations[j]);
                        assert!(
                            d * 2 + SimDuration::from_micros(1) >= geodesic,
                            "{} {i}->{j} at t={secs}: RTT {} < geodesic {}",
                            choice.name(),
                            d * 2,
                            geodesic
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn starlink_s1_leaves_high_latitudes_uncovered() {
    // Paper §2.2: S1 "will not extend service to less populated regions at
    // high latitudes".
    use hypatia::viz::ground_view::GroundView;
    use hypatia_constellation::GroundStation;
    let tromso = GroundStation::new("Tromso", 69.65, 18.96);
    let c = ConstellationChoice::StarlinkS1.build(vec![tromso.clone()]);
    for secs in [0u64, 60, 120, 180] {
        assert!(
            !GroundView::compute(&c, &tromso, SimTime::from_secs(secs)).is_connected(),
            "69.6°N unexpectedly covered by S1 (i=53°, l=25°) at t={secs}"
        );
    }
}

/// Satellite ground tracks never exceed their shell's inclination.
#[test]
fn ground_track_latitude_bounded() {
    let c = ConstellationChoice::KuiperK1.build(vec![]);
    for seed in 0..16 {
        let mut rng = DetRng::new(seed);
        let (sat_idx, secs) = (rng.next_below(1156) as usize, rng.next_below(6000));
        let geo = ecef_to_geodetic(c.sat_position_ecef(sat_idx, SimTime::from_secs(secs)));
        assert!(
            geo.latitude_deg.abs() <= 51.9 + 0.2,
            "seed {seed}: sat {sat_idx} at lat {}",
            geo.latitude_deg
        );
        // Altitude stays at the shell's nominal height (circular orbits).
        assert!(
            (geo.altitude_km - 630.0).abs() < 5.0,
            "seed {seed}: sat {sat_idx} at altitude {}",
            geo.altitude_km
        );
    }
}

/// Forwarding state is symmetric in reachability: if A reaches B, then
/// B reaches A (the graph is undirected).
#[test]
fn reachability_is_symmetric() {
    let c = ConstellationChoice::KuiperK1.build(top_cities(5));
    let dests: Vec<_> = (0..5).map(|i| c.gs_node(i)).collect();
    for seed in 0..16 {
        let secs = DetRng::new(seed).next_below(300);
        let st = compute_forwarding_state(&c, SimTime::from_secs(secs), &dests);
        for i in 0..5 {
            for j in 0..5 {
                let ab = st.distance(c.gs_node(i), c.gs_node(j));
                let ba = st.distance(c.gs_node(j), c.gs_node(i));
                assert_eq!(ab, ba, "seed {seed}: asymmetric distance {i}<->{j} at t={secs}");
            }
        }
    }
}
