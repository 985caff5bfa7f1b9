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
    /// remainder (u128 avoids overflow for multi-gigabyte bursts).
    pub fn serialization_delay(self, size: DataSize) -> SimDuration {
        assert!(self.0 > 0, "zero-rate link cannot transmit");
        let ns = (size.bits() as u128 * 1_000_000_000u128) / self.0 as u128;
        SimDuration::from_nanos(ns as u64)
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
