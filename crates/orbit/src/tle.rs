//! NORAD two-line element (TLE) generation and parsing.
//!
//! The paper (§3.1) built "a utility that accepts Keplerian orbital elements
//! as input, and outputs TLEs in the WGS72 world geodetic system standard",
//! validated by round-tripping through pyephem. This module is that utility:
//! it formats elements into the fixed-column TLE format (with correct
//! modulo-10 checksums) and parses them back; the round trip is covered by
//! property tests.

use crate::kepler::KeplerianElements;
use hypatia_util::angle::{deg_to_rad, rad_to_deg};
use hypatia_util::constants::EARTH_MU_KM3_PER_S2;
use std::fmt;

/// Errors raised while parsing a TLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TleError {
    /// A line is not exactly 69 characters.
    BadLineLength { line: u8, len: usize },
    /// A line does not start with the expected line number.
    BadLineNumber { line: u8 },
    /// The modulo-10 checksum does not match.
    BadChecksum { line: u8, expected: u32, found: u32 },
    /// A numeric field failed to parse.
    BadField { line: u8, field: &'static str },
    /// The two lines carry different catalog numbers.
    CatalogMismatch,
}

impl fmt::Display for TleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TleError::BadLineLength { line, len } => {
                write!(f, "TLE line {line} has length {len}, expected 69")
            }
            TleError::BadLineNumber { line } => write!(f, "TLE line {line} has wrong line number"),
            TleError::BadChecksum { line, expected, found } => {
                write!(f, "TLE line {line} checksum {found}, expected {expected}")
            }
            TleError::BadField { line, field } => {
                write!(f, "TLE line {line}: cannot parse field `{field}`")
            }
            TleError::CatalogMismatch => write!(f, "TLE lines carry different catalog numbers"),
        }
    }
}

impl std::error::Error for TleError {}

/// A parsed (or to-be-formatted) two-line element set.
#[derive(Debug, Clone, PartialEq)]
pub struct Tle {
    /// Satellite name (line 0 of a 3LE; free text, ≤ 24 chars meaningful).
    pub name: String,
    /// NORAD catalog number (we assign sequential IDs to unlaunched birds).
    pub catalog_number: u32,
    /// International designator, e.g. "24001A".
    pub intl_designator: String,
    /// Epoch year (two digits, 00–99 per the format).
    pub epoch_year: u8,
    /// Epoch day of year with fraction (1.0 = Jan 1 00:00).
    pub epoch_day: f64,
    /// Inclination, degrees.
    pub inclination_deg: f64,
    /// RAAN, degrees.
    pub raan_deg: f64,
    /// Eccentricity (the format stores 7 digits, decimal point assumed).
    pub eccentricity: f64,
    /// Argument of perigee, degrees.
    pub arg_perigee_deg: f64,
    /// Mean anomaly, degrees.
    pub mean_anomaly_deg: f64,
    /// Mean motion, revolutions/day.
    pub mean_motion_rev_per_day: f64,
    /// Revolution number at epoch.
    pub rev_number: u32,
}

/// Modulo-10 TLE checksum: digits count as their value, '-' counts as 1.
pub fn checksum(line: &str) -> u32 {
    line.chars()
        .map(|c| match c {
            '0'..='9' => c as u32 - '0' as u32,
            '-' => 1,
            _ => 0,
        })
        .sum::<u32>()
        % 10
}

impl Tle {
    /// Build a TLE record from Keplerian elements.
    ///
    /// `epoch_year`/`epoch_day` place the elements on the calendar purely
    /// for format compliance; Hypatia's simulation clock starts at the TLE
    /// epoch regardless.
    pub fn from_elements(
        name: impl Into<String>,
        catalog_number: u32,
        elements: &KeplerianElements,
        epoch_year: u8,
        epoch_day: f64,
    ) -> Tle {
        Tle {
            name: name.into(),
            catalog_number,
            intl_designator: format!("{:02}001{}", epoch_year, designator_piece(catalog_number)),
            epoch_year,
            epoch_day,
            inclination_deg: rad_to_deg(elements.inclination_rad),
            raan_deg: rad_to_deg(elements.raan_rad),
            eccentricity: elements.eccentricity,
            arg_perigee_deg: rad_to_deg(elements.arg_perigee_rad),
            mean_anomaly_deg: rad_to_deg(elements.mean_anomaly_rad),
            mean_motion_rev_per_day: elements.mean_motion_rev_per_day(),
            rev_number: 1,
        }
    }

    /// Recover Keplerian elements (semi-major axis from the mean motion via
    /// `a = (μ / n²)^{1/3}`).
    pub fn to_elements(&self) -> KeplerianElements {
        let n_rad_s = self.mean_motion_rev_per_day * std::f64::consts::TAU / 86_400.0;
        let a = (EARTH_MU_KM3_PER_S2 / (n_rad_s * n_rad_s)).cbrt();
        KeplerianElements {
            semi_major_axis_km: a,
            eccentricity: self.eccentricity,
            inclination_rad: deg_to_rad(self.inclination_deg),
            raan_rad: deg_to_rad(self.raan_deg),
            arg_perigee_rad: deg_to_rad(self.arg_perigee_deg),
            mean_anomaly_rad: deg_to_rad(self.mean_anomaly_deg),
        }
    }

    /// Format TLE line 1 (69 columns including checksum).
    pub fn format_line1(&self) -> String {
        // Columns (1-based):  1 | 3-7 catalog | 8 class | 10-17 intl desig |
        // 19-32 epoch | 34-43 ndot | 45-52 nddot | 54-61 bstar | 63 eph type |
        // 65-68 element set | 69 checksum.
        let body = format!(
            "1 {:05}U {:<8} {:02}{:012.8} {} {} {} 0  999",
            self.catalog_number % 100_000,
            truncate(&self.intl_designator, 8),
            self.epoch_year,
            self.epoch_day,
            " .00000000", // ndot/2: zero for generated constellations
            " 00000-0",   // nddot/6: zero, exponent form
            " 00000-0",   // BSTAR drag: zero
        );
        debug_assert_eq!(body.len(), 68, "line1 body length {}", body.len());
        format!("{body}{}", checksum(&body))
    }

    /// Format TLE line 2 (69 columns including checksum).
    pub fn format_line2(&self) -> String {
        let ecc7 = format!("{:07}", (self.eccentricity * 1e7).round() as u64);
        let body = format!(
            "2 {:05} {:8.4} {:8.4} {} {:8.4} {:8.4} {:11.8}{:5}",
            self.catalog_number % 100_000,
            self.inclination_deg,
            wrap_deg(self.raan_deg),
            ecc7,
            wrap_deg(self.arg_perigee_deg),
            wrap_deg(self.mean_anomaly_deg),
            self.mean_motion_rev_per_day,
            self.rev_number % 100_000,
        );
        debug_assert_eq!(body.len(), 68, "line2 body length {}", body.len());
        format!("{body}{}", checksum(&body))
    }

    /// Parse a TLE from its two element lines (name supplied separately).
    pub fn parse(name: impl Into<String>, line1: &str, line2: &str) -> Result<Tle, TleError> {
        let l1 = validate_line(line1, 1, '1')?;
        let l2 = validate_line(line2, 2, '2')?;

        let cat1: u32 = field(l1, 2, 7, 1, "catalog")?;
        let cat2: u32 = field(l2, 2, 7, 2, "catalog")?;
        if cat1 != cat2 {
            return Err(TleError::CatalogMismatch);
        }

        let epoch_year: u8 = field(l1, 18, 20, 1, "epoch year")?;
        let epoch_day: f64 = field(l1, 20, 32, 1, "epoch day")?;
        let intl = l1[9..17].trim().to_string();

        let inclination_deg: f64 = field(l2, 8, 16, 2, "inclination")?;
        let raan_deg: f64 = field(l2, 17, 25, 2, "raan")?;
        let ecc_digits: u64 = field(l2, 26, 33, 2, "eccentricity")?;
        let arg_perigee_deg: f64 = field(l2, 34, 42, 2, "arg perigee")?;
        let mean_anomaly_deg: f64 = field(l2, 43, 51, 2, "mean anomaly")?;
        let mean_motion: f64 = field(l2, 52, 63, 2, "mean motion")?;
        let rev_number: u32 = l2[63..68]
            .trim()
            .parse()
            .map_err(|_| TleError::BadField { line: 2, field: "rev number" })?;

        Ok(Tle {
            name: name.into(),
            catalog_number: cat1,
            intl_designator: intl,
            epoch_year,
            epoch_day,
            inclination_deg,
            raan_deg,
            eccentricity: ecc_digits as f64 / 1e7,
            arg_perigee_deg,
            mean_anomaly_deg,
            mean_motion_rev_per_day: mean_motion,
            rev_number,
        })
    }
}

fn wrap_deg(d: f64) -> f64 {
    hypatia_util::angle::wrap_360(d)
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}

/// Launch-piece letters A, B, ..., Z, AA, ... derived from the catalog number
/// so that generated designators stay unique and format-legal.
fn designator_piece(catalog: u32) -> String {
    let mut n = catalog % 676; // two letters max
    let mut s = String::new();
    loop {
        s.insert(0, (b'A' + (n % 26) as u8) as char);
        n /= 26;
        if n == 0 {
            break;
        }
    }
    s
}

fn validate_line(line: &str, which: u8, lead: char) -> Result<&str, TleError> {
    if line.len() != 69 {
        return Err(TleError::BadLineLength { line: which, len: line.len() });
    }
    if !line.starts_with(lead) {
        return Err(TleError::BadLineNumber { line: which });
    }
    let expected = checksum(&line[..68]);
    let found = line
        .chars()
        .nth(68)
        .and_then(|c| c.to_digit(10))
        .ok_or(TleError::BadField { line: which, field: "checksum" })?;
    if expected != found {
        return Err(TleError::BadChecksum { line: which, expected, found });
    }
    Ok(line)
}

fn field<T: std::str::FromStr>(
    line: &str,
    start: usize,
    end: usize,
    which: u8,
    name: &'static str,
) -> Result<T, TleError> {
    line[start..end].trim().parse().map_err(|_| TleError::BadField { line: which, field: name })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_util::rng::DetRng;

    fn sample_elements() -> KeplerianElements {
        KeplerianElements::circular(550.0, 53.0, 125.5, 210.25)
    }

    #[test]
    fn checksum_of_iss_line() {
        // Real ISS TLE line 1 (checksum digit 7, body sums to 7 mod 10).
        let body = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  292";
        assert_eq!(checksum(body), 7);
    }

    #[test]
    fn lines_are_69_columns() {
        let tle = Tle::from_elements("STARLINK-TEST", 1, &sample_elements(), 24, 1.0);
        assert_eq!(tle.format_line1().len(), 69, "{}", tle.format_line1());
        assert_eq!(tle.format_line2().len(), 69, "{}", tle.format_line2());
    }

    #[test]
    fn generated_lines_have_valid_checksums() {
        let tle = Tle::from_elements("SAT", 42, &sample_elements(), 24, 123.456);
        for (i, line) in [tle.format_line1(), tle.format_line2()].iter().enumerate() {
            let expected = checksum(&line[..68]);
            let found = line.chars().nth(68).unwrap().to_digit(10).unwrap();
            assert_eq!(expected, found, "line {} checksum", i + 1);
        }
    }

    #[test]
    fn round_trip_preserves_elements() {
        let el = sample_elements();
        let tle = Tle::from_elements("SAT", 7, &el, 24, 1.0);
        let parsed = Tle::parse("SAT", &tle.format_line1(), &tle.format_line2()).unwrap();
        let back = parsed.to_elements();
        assert!(
            (back.semi_major_axis_km - el.semi_major_axis_km).abs() < 0.05,
            "a: {} vs {}",
            back.semi_major_axis_km,
            el.semi_major_axis_km
        );
        assert!((back.inclination_rad - el.inclination_rad).abs() < 1e-5);
        assert!((back.raan_rad - el.raan_rad).abs() < 1e-5);
        assert!((back.mean_anomaly_rad - el.mean_anomaly_rad).abs() < 1e-5);
        assert!(back.eccentricity.abs() < 1e-7);
    }

    #[test]
    fn parse_rejects_wrong_length() {
        let e = Tle::parse("X", "1 00001U", "2 00001").unwrap_err();
        assert!(matches!(e, TleError::BadLineLength { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_corrupted_checksum() {
        let tle = Tle::from_elements("SAT", 3, &sample_elements(), 24, 1.0);
        let mut l1 = tle.format_line1();
        // Flip the checksum digit.
        let last = l1.pop().unwrap();
        let flipped = char::from_digit((last.to_digit(10).unwrap() + 1) % 10, 10).unwrap();
        l1.push(flipped);
        let e = Tle::parse("SAT", &l1, &tle.format_line2()).unwrap_err();
        assert!(matches!(e, TleError::BadChecksum { line: 1, .. }));
    }

    #[test]
    fn parse_rejects_catalog_mismatch() {
        let t1 = Tle::from_elements("A", 1, &sample_elements(), 24, 1.0);
        let t2 = Tle::from_elements("B", 2, &sample_elements(), 24, 1.0);
        let e = Tle::parse("A", &t1.format_line1(), &t2.format_line2()).unwrap_err();
        assert_eq!(e, TleError::CatalogMismatch);
    }

    #[test]
    fn parse_real_world_iss_tle() {
        let l1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
        let l2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";
        let tle = Tle::parse("ISS (ZARYA)", l1, l2).unwrap();
        assert_eq!(tle.catalog_number, 25544);
        assert!((tle.inclination_deg - 51.6416).abs() < 1e-9);
        assert!((tle.eccentricity - 0.0006703).abs() < 1e-12);
        assert!((tle.mean_motion_rev_per_day - 15.72125391).abs() < 1e-6);
        // ISS altitude ≈ 350 km in 2008.
        let alt = tle.to_elements().perigee_altitude_km();
        assert!((330.0..370.0).contains(&alt), "ISS altitude {alt}");
    }

    /// Any circular-shell element set survives the TLE round trip.
    #[test]
    fn round_trip_any_shell() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let (h, i) = (rng.next_in(400.0, 1500.0), rng.next_in(0.1, 99.9));
            let (raan, ma) = (rng.next_in(0.0, 359.9), rng.next_in(0.0, 359.9));
            let cat = 1 + rng.next_below(99_998) as u32;
            let el = KeplerianElements::circular(h, i, raan, ma);
            let tle = Tle::from_elements("P", cat, &el, 24, 32.5);
            let parsed = Tle::parse("P", &tle.format_line1(), &tle.format_line2()).unwrap();
            let back = parsed.to_elements();
            assert!((back.perigee_altitude_km() - h).abs() < 0.1, "seed {seed}: {back:?}");
            assert!((rad_to_deg(back.inclination_rad) - i).abs() < 1e-3, "seed {seed}: {back:?}");
            assert!((rad_to_deg(back.raan_rad) - raan).abs() < 1e-3, "seed {seed}: {back:?}");
            assert!((rad_to_deg(back.mean_anomaly_rad) - ma).abs() < 1e-3, "seed {seed}: {back:?}");
        }
    }

    /// Formatting is always exactly 69 columns with a valid checksum.
    #[test]
    fn format_always_valid() {
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let (h, i) = (rng.next_in(400.0, 1999.0), rng.next_in(0.0, 180.0));
            let (raan, ma) = (rng.next_in(-720.0, 720.0), rng.next_in(-720.0, 720.0));
            let el = KeplerianElements::circular(h, i, raan, ma);
            let tle = Tle::from_elements("X", 55, &el, 24, 200.0);
            for line in [tle.format_line1(), tle.format_line2()] {
                assert_eq!(line.len(), 69, "seed {seed}: {line:?}");
                let expected = checksum(&line[..68]);
                let found = line.chars().nth(68).unwrap().to_digit(10).unwrap();
                assert_eq!(expected, found, "seed {seed}: {line:?}");
            }
        }
    }
}
