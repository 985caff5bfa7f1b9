//! CZML generation: Cesium-renderable satellite trajectory documents.
//!
//! CZML is a JSON array whose first element is a `document` packet; each
//! satellite becomes a packet with time-tagged positions. Loading the
//! output in Cesium reproduces the paper's Fig. 11 trajectory views.

use hypatia_constellation::Constellation;
use hypatia_orbit::frames::ecef_to_geodetic;
use hypatia_util::json::{json, Value};
use hypatia_util::{SimDuration, SimTime};

/// Options for trajectory export.
#[derive(Debug, Clone)]
pub struct CzmlOptions {
    /// Sampling interval for positions.
    pub sample_interval: SimDuration,
    /// Total duration covered.
    pub duration: SimDuration,
    /// Dot size in pixels (the paper draws satellites as black dots).
    pub pixel_size: u32,
}

impl Default for CzmlOptions {
    fn default() -> Self {
        CzmlOptions {
            sample_interval: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(600),
            pixel_size: 3,
        }
    }
}

/// ISO-8601 timestamp `seconds` after the (arbitrary) epoch.
fn iso(seconds: f64) -> String {
    // Fixed calendar epoch for display purposes only.
    let total = seconds as u64;
    let (h, rem) = (total / 3600, total % 3600);
    let (m, s) = (rem / 60, rem % 60);
    format!("2000-01-01T{:02}:{:02}:{:02}Z", h.min(23), m, s)
}

/// Build a CZML document for the constellation's satellites.
pub fn constellation_czml(constellation: &Constellation, opts: &CzmlOptions) -> Vec<Value> {
    let end_s = opts.duration.secs_f64();
    let mut packets = vec![json!({
        "id": "document",
        "name": constellation.name,
        "version": "1.0",
        "clock": {
            "interval": format!("{}/{}", iso(0.0), iso(end_s)),
            "currentTime": iso(0.0),
            "multiplier": 10,
        }
    })];

    let steps = (opts.duration / opts.sample_interval).max(1);
    for (idx, _sat) in constellation.satellites.iter().enumerate() {
        // cartographicDegrees: [t_offset_s, lon, lat, height_m] quadruples.
        let mut samples = Vec::with_capacity((steps as usize + 1) * 4);
        for k in 0..=steps {
            let t = SimTime::ZERO + opts.sample_interval * k;
            let geo = ecef_to_geodetic(constellation.sat_position_ecef(idx, t));
            samples.push(json!(t.secs_f64()));
            samples.push(json!(geo.longitude_deg));
            samples.push(json!(geo.latitude_deg));
            samples.push(json!(geo.altitude_km * 1000.0));
        }
        packets.push(json!({
            "id": format!("sat-{idx}"),
            "name": format!("{} sat {idx}", constellation.name),
            "availability": format!("{}/{}", iso(0.0), iso(end_s)),
            "position": {
                "epoch": iso(0.0),
                "cartographicDegrees": samples,
            },
            "point": {
                "pixelSize": opts.pixel_size,
                "color": {"rgba": [0, 0, 0, 255]},
            },
        }));
    }
    packets
}

/// CZML packets visualizing component outages: each window becomes a red
/// point shown only while its component is down (availability interval).
/// Satellites are sampled along their trajectory inside the window; ground
/// stations are static. `sat_outages` / `gs_outages` hold
/// `(component index, down-from, up-at)` windows — plain tuples, so any
/// fault-schedule representation can feed this without a crate dependency.
pub fn outage_czml(
    constellation: &Constellation,
    sat_outages: &[(u32, SimTime, SimTime)],
    gs_outages: &[(u32, SimTime, SimTime)],
) -> Vec<Value> {
    let mut packets = vec![json!({
        "id": "document",
        "name": format!("{} outages", constellation.name),
        "version": "1.0",
    })];
    let sample = SimDuration::from_secs(10);
    for (k, &(sat, from, until)) in sat_outages.iter().enumerate() {
        let idx = sat as usize;
        if idx >= constellation.satellites.len() || until <= from {
            continue;
        }
        // Position samples across the window (at least the two endpoints).
        let steps = (until.since(from) / sample).max(1);
        let mut samples = Vec::with_capacity((steps as usize + 1) * 4);
        for i in 0..=steps {
            let t = (from + sample * i).min(until);
            let geo = ecef_to_geodetic(constellation.sat_position_ecef(idx, t));
            samples.push(json!(t.since(from).secs_f64()));
            samples.push(json!(geo.longitude_deg));
            samples.push(json!(geo.latitude_deg));
            samples.push(json!(geo.altitude_km * 1000.0));
        }
        packets.push(json!({
            "id": format!("outage-sat-{sat}-{k}"),
            "name": format!("sat {sat} down"),
            "availability":
                format!("{}/{}", iso(from.secs_f64()), iso(until.secs_f64())),
            "position": {
                "epoch": iso(from.secs_f64()),
                "cartographicDegrees": samples,
            },
            "point": {
                "pixelSize": 8,
                "color": {"rgba": [230, 30, 30, 255]},
            },
        }));
    }
    for (k, &(gs, from, until)) in gs_outages.iter().enumerate() {
        let idx = gs as usize;
        if idx >= constellation.ground_stations.len() || until <= from {
            continue;
        }
        let station = &constellation.ground_stations[idx];
        packets.push(json!({
            "id": format!("outage-gs-{gs}-{k}"),
            "name": format!("{} weather", station.name),
            "availability":
                format!("{}/{}", iso(from.secs_f64()), iso(until.secs_f64())),
            "position": {
                "cartographicDegrees": [station.longitude_deg, station.latitude_deg, 0.0],
            },
            "point": {
                "pixelSize": 10,
                "color": {"rgba": [230, 30, 30, 255]},
            },
        }));
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;
    use hypatia_util::json;

    fn tiny() -> Constellation {
        Constellation::build(
            "czml-test",
            vec![ShellSpec::new("A", 550.0, 2, 3, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("Paris", 48.8566, 2.3522)],
            GslConfig::new(25.0),
        )
    }

    #[test]
    fn document_packet_first() {
        let czml = constellation_czml(&tiny(), &CzmlOptions::default());
        assert_eq!(czml[0]["id"], "document");
        assert_eq!(czml[0]["version"], "1.0");
        assert_eq!(czml.len(), 1 + 6, "one packet per satellite");
    }

    #[test]
    fn satellite_packets_have_sample_quadruples() {
        let opts = CzmlOptions {
            sample_interval: SimDuration::from_secs(60),
            duration: SimDuration::from_secs(300),
            pixel_size: 3,
        };
        let czml = constellation_czml(&tiny(), &opts);
        let samples = czml[1]["position"]["cartographicDegrees"].as_array().unwrap();
        // 5 steps → 6 samples → 24 numbers.
        assert_eq!(samples.len(), 24);
        // Altitude near 550 km (in metres).
        let alt = samples[3].as_f64().unwrap();
        assert!((alt - 550_000.0).abs() < 1_000.0, "altitude {alt}");
    }

    #[test]
    fn satellite_latitudes_bounded_by_inclination() {
        let czml = constellation_czml(&tiny(), &CzmlOptions::default());
        for pkt in &czml[1..] {
            let samples = pkt["position"]["cartographicDegrees"].as_array().unwrap();
            for chunk in samples.chunks(4) {
                let lat = chunk[2].as_f64().unwrap();
                assert!(lat.abs() <= 53.1, "latitude {lat} beyond inclination");
            }
        }
    }

    #[test]
    fn outage_czml_windows_become_availability_intervals() {
        let c = tiny();
        let czml = outage_czml(
            &c,
            &[
                (0, SimTime::from_secs(10), SimTime::from_secs(40)),
                (99, SimTime::from_secs(0), SimTime::from_secs(5)), // out of range: skipped
                (1, SimTime::from_secs(5), SimTime::from_secs(5)),  // empty: skipped
            ],
            &[(0, SimTime::from_secs(20), SimTime::from_secs(50))],
        );
        assert_eq!(czml[0]["id"], "document");
        assert_eq!(czml.len(), 3, "one sat window + one gs window survive");
        assert_eq!(
            czml[1]["availability"].as_str().unwrap(),
            "2000-01-01T00:00:10Z/2000-01-01T00:00:40Z"
        );
        // 30 s window at 10 s sampling → 4 samples → 16 numbers.
        assert_eq!(czml[1]["position"]["cartographicDegrees"].as_array().unwrap().len(), 16);
        assert_eq!(czml[2]["name"], "Paris weather");
        assert_eq!(czml[2]["point"]["color"]["rgba"][0], 230);
    }

    #[test]
    fn serializes_to_valid_json() {
        let czml = constellation_czml(&tiny(), &CzmlOptions::default());
        let doc = Value::Array(czml);
        let parsed = json::from_str(&json::to_string_pretty(&doc)).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn iso_format() {
        assert_eq!(iso(0.0), "2000-01-01T00:00:00Z");
        assert_eq!(iso(3_725.0), "2000-01-01T01:02:05Z");
    }
}
