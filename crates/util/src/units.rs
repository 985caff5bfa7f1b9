//! Link-rate and data-size arithmetic.
//!
//! Serialization delay must be computed exactly and identically everywhere:
//! `bits * 1e9 / rate_bps` nanoseconds, in integer arithmetic, so that two
//! devices with the same rate always agree on transmit durations.

use crate::time::SimDuration;
use std::fmt;

/// A data size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DataSize(u64);

impl DataSize {
    pub const ZERO: DataSize = DataSize(0);

    pub const fn from_bytes(b: u64) -> Self {
        DataSize(b)
    }
    pub const fn from_kilobytes(kb: u64) -> Self {
        DataSize(kb * 1_000)
    }
    pub const fn bytes(self) -> u64 {
        self.0
    }
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }
}

impl std::ops::Add for DataSize {
    type Output = DataSize;
    fn add(self, o: DataSize) -> DataSize {
        DataSize(self.0 + o.0)
    }
}

impl std::ops::AddAssign for DataSize {
    fn add_assign(&mut self, o: DataSize) {
        self.0 += o.0;
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

/// A link data rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataRate(u64);

impl DataRate {
    pub const fn from_bps(bps: u64) -> Self {
        DataRate(bps)
    }
    pub const fn from_kbps(kbps: u64) -> Self {
        DataRate(kbps * 1_000)
    }
    pub const fn from_mbps(mbps: u64) -> Self {
        DataRate(mbps * 1_000_000)
    }
    pub const fn from_gbps(gbps: u64) -> Self {
        DataRate(gbps * 1_000_000_000)
    }
    pub const fn bps(self) -> u64 {
        self.0
    }
    pub fn mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time to serialize `size` onto a link of this rate.
    ///
    /// Exact integer arithmetic: `ceil` is *not* used — ns resolution is fine
    /// enough that rounding to nearest keeps cumulative error below one
    /// nanosecond per packet, and matching ns-3 we round down the fractional
    /// remainder. Every packet's `bits × 10⁹` fits a `u64` (up to ~2.3 GB),
    /// where the divide is one instruction; only a multi-gigabyte burst
    /// pays for the `u128` form (a libcall).
    pub fn serialization_delay(self, size: DataSize) -> SimDuration {
        assert!(self.0 > 0, "zero-rate link cannot transmit");
        let ns = match size.bits().checked_mul(1_000_000_000) {
            Some(bit_ns) => bit_ns / self.0,
            None => ((size.bits() as u128 * 1_000_000_000u128) / self.0 as u128) as u64,
        };
        SimDuration::from_nanos(ns)
    }

    /// The bandwidth-delay product in bytes for a given round-trip time.
    pub fn bdp_bytes(self, rtt: SimDuration) -> u64 {
        ((self.0 as u128 * rtt.nanos() as u128) / (8 * 1_000_000_000u128)) as u64
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 && self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gbps", self.0 / 1_000_000_000)
        } else if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}Mbps", self.0 / 1_000_000)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_exact() {
        // 1500 B at 10 Mbps = 12000 bits / 1e7 bps = 1.2 ms.
        let d = DataRate::from_mbps(10).serialization_delay(DataSize::from_bytes(1500));
        assert_eq!(d, SimDuration::from_micros(1200));
    }

    #[test]
    fn serialization_delay_one_gbps() {
        // 1250 B at 1 Gbps = 10000 bits / 1e9 = 10 us.
        let d = DataRate::from_gbps(1).serialization_delay(DataSize::from_bytes(1250));
        assert_eq!(d, SimDuration::from_micros(10));
    }

    #[test]
    fn bdp_computation() {
        // 10 Mbps * 100 ms = 1e6 bits = 125000 bytes ≈ 83 packets of 1500 B.
        let bdp = DataRate::from_mbps(10).bdp_bytes(SimDuration::from_millis(100));
        assert_eq!(bdp, 125_000);
    }

    #[test]
    fn no_overflow_on_large_sizes() {
        // 4 GB at 1 kbps must not overflow intermediate math.
        let d = DataRate::from_kbps(1)
            .serialization_delay(DataSize::from_bytes(4 * 1024 * 1024 * 1024));
        assert!(d.secs_f64() > 3e7);
    }

    /// The `u64` fast path and the `u128` fallback are one function: equal
    /// to the all-`u128` form on random (rate, size) draws, packet-sized and
    /// on both sides of the `bits × 10⁹ = 2⁶⁴` boundary.
    #[test]
    fn serialization_delay_matches_the_u128_form_across_the_overflow_boundary() {
        let wide =
            |rate: u64, bytes: u64| ((bytes as u128 * 8 * 1_000_000_000u128) / rate as u128) as u64;
        // Largest size whose bits × 10⁹ still fits a u64.
        let edge_bytes = u64::MAX / 1_000_000_000 / 8;
        let mut rng = crate::rng::DetRng::new(0x5E71A1);
        let mut sides = [0u32; 2];
        for i in 0..20_000 {
            let rate = 1 + rng.next_below(if i % 2 == 0 { 100_000_000_000 } else { 10_000 });
            let bytes = match i % 4 {
                0 => rng.next_below(9001),
                1 => edge_bytes - rng.next_below(1000),
                2 => edge_bytes + 1 + rng.next_below(1000),
                _ => rng.next_below(1 << 40),
            };
            sides[(bytes * 8).checked_mul(1_000_000_000).is_none() as usize] += 1;
            let got = DataRate::from_bps(rate).serialization_delay(DataSize::from_bytes(bytes));
            assert_eq!(got.nanos(), wide(rate, bytes), "rate {rate} bps, {bytes} B");
        }
        assert!(sides[0] > 5000 && sides[1] > 5000, "one side barely drawn: {sides:?}");
        let four_gb = 4 * 1024 * 1024 * 1024;
        let d = DataRate::from_kbps(1).serialization_delay(DataSize::from_bytes(four_gb));
        assert_eq!(d.nanos(), wide(1000, four_gb));
    }

    #[test]
    #[should_panic]
    fn zero_rate_panics() {
        DataRate::from_bps(0).serialization_delay(DataSize::from_bytes(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", DataRate::from_mbps(10)), "10Mbps");
        assert_eq!(format!("{}", DataRate::from_gbps(2)), "2Gbps");
        assert_eq!(format!("{}", DataSize::from_bytes(42)), "42B");
    }
}
