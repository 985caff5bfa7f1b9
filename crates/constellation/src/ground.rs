//! Ground stations and the embedded city dataset.
//!
//! The paper's evaluation uses "the world's 100 most populous cities" as
//! ground stations. We embed a static dataset (name, latitude, longitude,
//! metro population) compiled from public census estimates circa 2020. The
//! exact population figures only determine membership/ordering of the set;
//! network behaviour depends on the coordinates.

use hypatia_orbit::frames::{geodetic_to_ecef_ellipsoidal, GeodeticPos};
use hypatia_orbit::geodesy::{geodesic_rtt, great_circle_distance_km};
use hypatia_util::rng::DetRng;
use hypatia_util::{SimDuration, Vec3};

/// A fixed ground station (paper §3.1: static GSes with parabolic antennas).
#[derive(Debug, Clone, PartialEq)]
pub struct GroundStation {
    /// Station name (city name for the standard dataset).
    pub name: String,
    /// Latitude, degrees north.
    pub latitude_deg: f64,
    /// Longitude, degrees east.
    pub longitude_deg: f64,
    /// Altitude above the reference sphere, km (0 for cities).
    pub altitude_km: f64,
}

impl GroundStation {
    /// A surface ground station.
    pub fn new(name: impl Into<String>, latitude_deg: f64, longitude_deg: f64) -> Self {
        assert!((-90.0..=90.0).contains(&latitude_deg), "bad latitude");
        GroundStation { name: name.into(), latitude_deg, longitude_deg, altitude_km: 0.0 }
    }

    /// Geodetic position.
    pub fn geodetic(&self) -> GeodeticPos {
        GeodeticPos {
            latitude_deg: self.latitude_deg,
            longitude_deg: self.longitude_deg,
            altitude_km: self.altitude_km,
        }
    }

    /// Fixed ECEF position, km.
    ///
    /// Ground stations sit on the **WGS72 ellipsoid**, not the sphere:
    /// Earth's oblateness puts high-latitude stations ~10–20 km closer to
    /// the geocenter, measurably *raising* satellite elevation angles
    /// there. This is what makes St. Petersburg (59.93° N) intermittently
    /// reachable from Kuiper K1's 51.9°-inclination shell, exactly the
    /// marginal-coverage behaviour the paper's Figs. 3(a)/12 hinge on — on
    /// a spherical Earth the city would sit just past the coverage edge.
    pub fn position_ecef(&self) -> Vec3 {
        geodetic_to_ecef_ellipsoidal(self.geodetic())
    }

    /// Great-circle distance to another station, km.
    pub fn distance_km(&self, other: &GroundStation) -> f64 {
        great_circle_distance_km(self.geodetic(), other.geodetic())
    }

    /// Geodesic (speed-of-light, great-circle) RTT to another station.
    pub fn geodesic_rtt(&self, other: &GroundStation) -> SimDuration {
        geodesic_rtt(self.geodetic(), other.geodetic())
    }
}

/// `(name, latitude, longitude, metro population)` for the world's 100 most
/// populous cities (2020-era estimates), in descending population order.
pub const CITIES: [(&str, f64, f64, u32); 100] = [
    ("Tokyo", 35.6897, 139.6922, 37_400_000),
    ("Delhi", 28.6139, 77.2090, 29_399_000),
    ("Shanghai", 31.2304, 121.4737, 26_317_000),
    ("Sao Paulo", -23.5505, -46.6333, 21_846_000),
    ("Mexico City", 19.4326, -99.1332, 21_671_000),
    ("Cairo", 30.0444, 31.2357, 20_484_000),
    ("Dhaka", 23.8103, 90.4125, 20_283_000),
    ("Mumbai", 19.0760, 72.8777, 20_185_000),
    ("Beijing", 39.9042, 116.4074, 20_035_000),
    ("Osaka", 34.6937, 135.5023, 19_222_000),
    ("New York", 40.7128, -74.0060, 18_805_000),
    ("Karachi", 24.8607, 67.0011, 15_741_000),
    ("Chongqing", 29.5630, 106.5516, 15_354_000),
    ("Istanbul", 41.0082, 28.9784, 14_968_000),
    ("Buenos Aires", -34.6037, -58.3816, 14_967_000),
    ("Kolkata", 22.5726, 88.3639, 14_681_000),
    ("Lagos", 6.5244, 3.3792, 13_904_000),
    ("Manila", 14.5995, 120.9842, 13_482_000),
    ("Rio de Janeiro", -22.9068, -43.1729, 13_374_000),
    ("Tianjin", 39.3434, 117.3616, 13_215_000),
    ("Kinshasa", -4.4419, 15.2663, 13_171_000),
    ("Guangzhou", 23.1291, 113.2644, 12_638_000),
    ("Moscow", 55.7558, 37.6173, 12_476_000),
    ("Los Angeles", 34.0522, -118.2437, 12_448_000),
    ("Lahore", 31.5204, 74.3587, 12_188_000),
    ("Shenzhen", 22.5431, 114.0579, 12_128_000),
    ("Bangalore", 12.9716, 77.5946, 11_883_000),
    ("Paris", 48.8566, 2.3522, 10_901_000),
    ("Chennai", 13.0827, 80.2707, 10_711_000),
    ("Jakarta", -6.2088, 106.8456, 10_638_000),
    ("Bogota", 4.7110, -74.0721, 10_574_000),
    ("Lima", -12.0464, -77.0428, 10_555_000),
    ("Bangkok", 13.7563, 100.5018, 10_350_000),
    ("Seoul", 37.5665, 126.9780, 9_963_000),
    ("Hyderabad", 17.3850, 78.4867, 9_741_000),
    ("Nagoya", 35.1815, 136.9066, 9_532_000),
    ("London", 51.5074, -0.1278, 9_177_000),
    ("Chengdu", 30.5728, 104.0668, 9_136_000),
    ("Tehran", 35.6892, 51.3890, 9_013_000),
    ("Chicago", 41.8781, -87.6298, 8_864_000),
    ("Nanjing", 32.0603, 118.7969, 8_847_000),
    ("Ho Chi Minh City", 10.8231, 106.6297, 8_602_000),
    ("Wuhan", 30.5928, 114.3055, 8_365_000),
    ("Luanda", -8.8390, 13.2894, 8_045_000),
    ("Kuala Lumpur", 3.1390, 101.6869, 7_997_000),
    ("Ahmedabad", 23.0225, 72.5714, 7_868_000),
    ("Hangzhou", 30.2741, 120.1551, 7_642_000),
    ("Hong Kong", 22.3193, 114.1694, 7_490_000),
    ("Xian", 34.3416, 108.9398, 7_444_000),
    ("Dongguan", 23.0207, 113.7518, 7_407_000),
    ("Foshan", 23.0215, 113.1214, 7_326_000),
    ("Surat", 21.1702, 72.8311, 7_185_000),
    ("Riyadh", 24.7136, 46.6753, 7_070_000),
    ("Suzhou", 31.2989, 120.5853, 7_070_000),
    ("Baghdad", 33.3152, 44.3661, 6_974_000),
    ("Shenyang", 41.8057, 123.4315, 6_921_000),
    ("Santiago", -33.4489, -70.6693, 6_767_000),
    ("Pune", 18.5204, 73.8567, 6_629_000),
    ("Madrid", 40.4168, -3.7038, 6_559_000),
    ("Houston", 29.7604, -95.3698, 6_371_000),
    ("Dar es Salaam", -6.7924, 39.2083, 6_368_000),
    ("Dallas", 32.7767, -96.7970, 6_301_000),
    ("Toronto", 43.6532, -79.3832, 6_197_000),
    ("Miami", 25.7617, -80.1918, 6_158_000),
    ("Harbin", 45.8038, 126.5349, 6_115_000),
    ("Belo Horizonte", -19.9167, -43.9345, 6_028_000),
    ("Singapore", 1.3521, 103.8198, 5_850_000),
    ("Atlanta", 33.7490, -84.3880, 5_803_000),
    ("Philadelphia", 39.9526, -75.1652, 5_717_000),
    ("Khartoum", 15.5007, 32.5599, 5_678_000),
    ("Johannesburg", -26.2041, 28.0473, 5_635_000),
    ("Barcelona", 41.3851, 2.1734, 5_586_000),
    ("Fukuoka", 33.5904, 130.4017, 5_551_000),
    ("Saint Petersburg", 59.9311, 30.3609, 5_383_000),
    ("Qingdao", 36.0671, 120.3826, 5_381_000),
    ("Zhengzhou", 34.7466, 113.6254, 5_323_000),
    ("Washington", 38.9072, -77.0369, 5_322_000),
    ("Dalian", 38.9140, 121.6147, 5_300_000),
    ("Alexandria", 31.2001, 29.9187, 5_281_000),
    ("Yangon", 16.8409, 96.1735, 5_244_000),
    ("Abidjan", 5.3600, -4.0083, 5_203_000),
    ("Guadalajara", 20.6597, -103.3496, 5_179_000),
    ("Ankara", 39.9334, 32.8597, 5_118_000),
    ("Jinan", 36.6512, 117.1201, 5_052_000),
    ("Melbourne", -37.8136, 144.9631, 4_936_000),
    ("Sydney", -33.8688, 151.2093, 4_926_000),
    ("Nairobi", -1.2921, 36.8219, 4_735_000),
    ("Monterrey", 25.6866, -100.3161, 4_712_000),
    ("Hanoi", 21.0278, 105.8342, 4_678_000),
    ("Phoenix", 33.4484, -112.0740, 4_652_000),
    ("Cape Town", -33.9249, 18.4241, 4_618_000),
    ("Jeddah", 21.4858, 39.1925, 4_610_000),
    ("Accra", 5.6037, -0.1870, 4_263_000),
    ("Rome", 41.9028, 12.4964, 4_234_000),
    ("Kabul", 34.5553, 69.2075, 4_222_000),
    ("Montreal", 45.5017, -73.5673, 4_221_000),
    ("Recife", -8.0476, -34.8770, 4_078_000),
    ("Amman", 31.9454, 35.9284, 4_008_000),
    ("Casablanca", 33.5731, -7.5898, 3_752_000),
    ("Berlin", 52.5200, 13.4050, 3_562_000),
];

/// The `n` most populous cities as ground stations (n ≤ 100).
pub fn top_cities(n: usize) -> Vec<GroundStation> {
    assert!(n <= CITIES.len(), "only {} cities available", CITIES.len());
    CITIES[..n].iter().map(|&(name, lat, lon, _)| GroundStation::new(name, lat, lon)).collect()
}

/// All 100 cities (the paper's standard ground segment).
pub fn world_cities_100() -> Vec<GroundStation> {
    top_cities(100)
}

/// A population-gravity traffic matrix over the `cities` most populous
/// ground stations.
///
/// Draws `flows` ordered `(src, dst)` station-index pairs i.i.d. with
/// probability proportional to `pop_src × pop_dst` (the classic gravity
/// model with unit distance friction), self-pairs excluded. Populations
/// are the metro figures embedded in [`CITIES`]. Sampling walks a
/// cumulative weight table with one [`DetRng`] draw per flow, so the
/// demand set is a pure function of `(cities, flows, seed)` — the same
/// triple reproduces the same matrix bit-for-bit on every platform.
pub fn gravity_pairs(cities: usize, flows: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!((2..=CITIES.len()).contains(&cities), "need 2..=100 cities, got {cities}");
    let table = GravityTable::new(cities);
    let mut rng = DetRng::new(seed);
    (0..flows)
        .map(|_| {
            let k = table.index_of(rng.next_f64() * table.total);
            // Invert the flat index: row i holds cities−1 entries whose
            // column skips the diagonal.
            let src = k / (cities - 1);
            let col = k % (cities - 1);
            let dst = if col < src { col } else { col + 1 };
            (src, dst)
        })
        .collect()
}

/// The cumulative gravity weights of [`gravity_pairs`] with a guide table
/// over them, so a draw searches one bucket's few entries instead of all
/// `cities·(cities−1)`.
struct GravityTable {
    /// Cumulative weights over the ordered pairs, in row (src-major)
    /// order with the diagonal skipped.
    cumulative: Vec<f64>,
    /// The last cumulative weight.
    total: f64,
    /// `guide[b]`: how many cumulative weights are `<=` bucket `b`'s lower
    /// edge, `total · b / buckets`; one bucket per weight, plus the upper
    /// edge.
    guide: Vec<u32>,
}

impl GravityTable {
    fn new(cities: usize) -> GravityTable {
        let pops: Vec<f64> = CITIES[..cities].iter().map(|c| c.3 as f64).collect();
        let mut cumulative = Vec::with_capacity(cities * (cities - 1));
        let mut total = 0.0f64;
        for (i, &pi) in pops.iter().enumerate() {
            for (j, &pj) in pops.iter().enumerate() {
                if i != j {
                    total += pi * pj;
                    cumulative.push(total);
                }
            }
        }
        let buckets = cumulative.len();
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut below = 0;
        for b in 0..=buckets {
            let edge = total * b as f64 / buckets as f64;
            while below < cumulative.len() && cumulative[below] <= edge {
                below += 1;
            }
            guide.push(below as u32);
        }
        GravityTable { cumulative, total, guide }
    }

    /// The pair `u ∈ [0, total)` falls on: the first cumulative weight
    /// above `u` (the last pair for a `u` at or past the total), exactly
    /// `cumulative.partition_point(|&c| c <= u)` clamped to the table.
    /// Rounding may put `u` in a bucket whose range does not hold the
    /// answer; the brackets are checked, and the full search runs then.
    fn index_of(&self, u: f64) -> usize {
        let c = &self.cumulative;
        let buckets = self.guide.len() - 1;
        let b = ((u / self.total * buckets as f64) as usize).min(buckets - 1);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let k = if (lo == 0 || c[lo - 1] <= u) && (hi == c.len() || c[hi] > u) {
            lo + c[lo..hi].partition_point(|&w| w <= u)
        } else {
            c.partition_point(|&w| w <= u)
        };
        k.min(c.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_one_hundred_cities() {
        assert_eq!(CITIES.len(), 100);
        assert_eq!(world_cities_100().len(), 100);
    }

    #[test]
    fn population_is_descending() {
        for w in CITIES.windows(2) {
            assert!(w[0].3 >= w[1].3, "{} before {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CITIES.iter().map(|c| c.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 100);
    }

    #[test]
    fn coordinates_are_valid() {
        for &(name, lat, lon, _) in CITIES.iter() {
            assert!((-90.0..=90.0).contains(&lat), "{name} lat {lat}");
            assert!((-180.0..=180.0).contains(&lon), "{name} lon {lon}");
        }
    }

    #[test]
    fn paper_cities_are_present() {
        let required = [
            "Rio de Janeiro",
            "Saint Petersburg",
            "Manila",
            "Dalian",
            "Istanbul",
            "Nairobi",
            "Paris",
            "Luanda",
            "Moscow",
            "Chicago",
            "Zhengzhou",
        ];
        let names: Vec<&str> = CITIES.iter().map(|c| c.0).collect();
        for r in required {
            assert!(names.contains(&r), "missing {r}");
        }
    }

    #[test]
    fn st_petersburg_is_higher_latitude_than_kuiper_inclination() {
        // The mechanism behind the paper's Fig. 3(a)/Fig. 12 outage: St.
        // Petersburg (59.93° N) lies above Kuiper K1's 51.9° inclination.
        let sp = CITIES.iter().find(|c| c.0 == "Saint Petersburg").unwrap();
        assert!(sp.1 > 51.9);
    }

    #[test]
    fn gravity_pairs_are_deterministic_and_valid() {
        let a = gravity_pairs(100, 5_000, 42);
        let b = gravity_pairs(100, 5_000, 42);
        assert_eq!(a, b, "same (cities, flows, seed) → same matrix");
        assert_ne!(a, gravity_pairs(100, 5_000, 43), "seed changes the draw");
        assert_eq!(a.len(), 5_000);
        for &(s, d) in &a {
            assert!(s < 100 && d < 100);
            assert_ne!(s, d, "self-pairs excluded");
        }
    }

    /// The guide table's pick is the plain binary search's, bit for bit:
    /// on random draws, on every bucket edge and the floats beside it, and
    /// on every cumulative weight and the floats beside it.
    #[test]
    fn gravity_guide_table_picks_what_the_full_search_picks() {
        let beside = |u: f64| {
            [f64::from_bits(u.to_bits().saturating_sub(1)), u, f64::from_bits(u.to_bits() + 1)]
        };
        for cities in [2usize, 3, 30, 100] {
            let table = GravityTable::new(cities);
            let c = &table.cumulative;
            assert_eq!(c.len(), cities * (cities - 1));
            let plain = |u: f64| c.partition_point(|&w| w <= u).min(c.len() - 1);
            for seed in 0..4u64 {
                let mut rng = DetRng::new(0x6772_6176 + seed);
                for _ in 0..100_000 {
                    let u = rng.next_f64() * table.total;
                    assert_eq!(table.index_of(u), plain(u), "{cities} cities, seed {seed}, u {u}");
                }
            }
            let buckets = table.guide.len() - 1;
            let edges = (0..=buckets).map(|b| table.total * b as f64 / buckets as f64);
            for u in edges.chain(c.iter().copied()).flat_map(beside) {
                assert_eq!(table.index_of(u), plain(u), "{cities} cities, u {u}");
            }
            // Rounding that sent a draw one bucket off: the brackets fail
            // and the full search answers.
            for shift in [-1i64, 1] {
                let at = |b: usize| (b as i64 + shift).clamp(0, buckets as i64) as usize;
                let guide = (0..=buckets).map(|b| table.guide[at(b)]).collect();
                let off = GravityTable { cumulative: c.clone(), total: table.total, guide };
                let mut rng = DetRng::new(0x6f66_6673);
                for _ in 0..10_000 {
                    let u = rng.next_f64() * table.total;
                    assert_eq!(off.index_of(u), plain(u), "{cities} cities, shift {shift}");
                }
            }
        }
    }

    #[test]
    fn gravity_favours_populous_endpoints() {
        // Tokyo (37.4 M) must source far more flows than Berlin (3.6 M):
        // the marginal probability of an endpoint scales with its
        // population share.
        let pairs = gravity_pairs(100, 20_000, 7);
        let count_src = |i: usize| pairs.iter().filter(|&&(s, _)| s == i).count();
        assert!(
            count_src(0) > 4 * count_src(99),
            "Tokyo {} vs Berlin {}",
            count_src(0),
            count_src(99)
        );
    }

    #[test]
    fn gravity_endpoint_marginals_track_population_share() {
        // With cities = 2 every draw is (0,1) or (1,0) with equal weight;
        // with 10 cities the top city's endpoint share must be within a
        // few points of its analytic marginal.
        for &(s, d) in &gravity_pairs(2, 50, 3) {
            assert!((s, d) == (0, 1) || (s, d) == (1, 0));
        }
        let n = 10usize;
        let pairs = gravity_pairs(n, 40_000, 11);
        let pops: Vec<f64> = CITIES[..n].iter().map(|c| c.3 as f64).collect();
        let total: f64 = pops.iter().sum();
        let expected = pops[0] / total; // first-order endpoint share
        let hits = pairs.iter().filter(|&&(s, _)| s == 0).count() as f64;
        let got = hits / pairs.len() as f64;
        assert!((got - expected).abs() < 0.03, "share {got:.3} vs expected {expected:.3}");
    }

    #[test]
    fn known_pair_distance() {
        let rio = GroundStation::new("Rio", -22.9068, -43.1729);
        let sp = GroundStation::new("StP", 59.9311, 30.3609);
        let d = rio.distance_km(&sp);
        // ~11,100 km by great circle.
        assert!((10_800.0..11_500.0).contains(&d), "Rio–StP {d} km");
    }

    #[test]
    fn geodesic_rtt_positive_and_symmetric() {
        let a = GroundStation::new("A", 10.0, 20.0);
        let b = GroundStation::new("B", -30.0, 100.0);
        assert_eq!(a.geodesic_rtt(&b), b.geodesic_rtt(&a));
        assert!(a.geodesic_rtt(&b) > SimDuration::ZERO);
    }

    #[test]
    fn ecef_positions_on_the_ellipsoid() {
        // Geocentric radius between the polar (~6356.75 km) and equatorial
        // (6378.135 km) radii, decreasing with |latitude|.
        for gs in world_cities_100() {
            let r = gs.position_ecef().norm();
            assert!((6356.0..=6378.2).contains(&r), "{} radius {r}", gs.name);
        }
        let equatorial = GroundStation::new("eq", 0.0, 0.0).position_ecef().norm();
        let polarish = GroundStation::new("hi", 80.0, 0.0).position_ecef().norm();
        assert!(polarish < equatorial - 10.0, "oblateness must show: {polarish} vs {equatorial}");
    }
}
