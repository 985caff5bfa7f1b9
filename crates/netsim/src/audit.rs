//! Runtime conservation audits.
//!
//! A long-running simulation that silently leaks packets or oversubscribes
//! a queue produces numbers that *look* plausible — exactly the failure
//! mode a service-mode deployment cannot debug after the fact. Audit mode
//! re-derives the engine's bookkeeping from first principles at every
//! epoch boundary and reports any divergence as a typed
//! [`AuditViolation`]:
//!
//! * **packet conservation** — every packet ever injected is delivered,
//!   dropped (routing/queue/channel/fault), or still in flight (queued in
//!   a device, being serialized, or propagating as a scheduled arrival);
//! * **device conservation** — per device, packets offered equals packets
//!   transmitted + dropped + still queued + in service;
//! * **queue occupancy** — no device queue exceeds its configured
//!   capacity;
//! * **slab conservation** — per shard, the packets alive in its slab are
//!   exactly those its devices hold plus those its pending arrivals carry:
//!   a leaked or twice-freed slot shows here even when the counters agree;
//! * **fluid capacity** — in hybrid mode, the max–min solver's aggregate
//!   bundle rate on every link stays within that link's capacity.
//!
//! The checks are read-only and run outside the hot loop, so `audit=true`
//! costs one pass over the device tables per epoch — cheap enough to
//! leave on for any run whose answer matters.

use std::fmt;

/// A single invariant violation found by [`crate::Simulator::audit`].
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// Global packet conservation broke: injected packets are not all
    /// accounted for as delivered + dropped + in flight.
    PacketConservation {
        /// Simulation time of the audit.
        t_ns: u64,
        /// Packets injected since the start of the run.
        injected: u64,
        /// Packets delivered to an endpoint.
        delivered: u64,
        /// Packets dropped (routing + queue + channel + fault).
        dropped: u64,
        /// Packets queued, in serialization, or propagating.
        in_flight: u64,
    },
    /// A device's own counters disagree: packets offered to the device
    /// are not all transmitted, dropped, queued, or in service.
    DeviceConservation {
        /// Simulation time of the audit.
        t_ns: u64,
        /// Owning node index.
        node: u32,
        /// Device index within the node.
        device: u32,
        /// Packets ever offered to the device (`enqueue` calls).
        offered: u64,
        /// Transmitted + dropped + queued + in-service.
        accounted: u64,
    },
    /// A device queue holds more packets than its configured capacity.
    QueueOverCapacity {
        /// Simulation time of the audit.
        t_ns: u64,
        /// Owning node index.
        node: u32,
        /// Device index within the node.
        device: u32,
        /// Packets currently queued.
        queue_len: u64,
        /// Configured queue capacity.
        capacity: u64,
    },
    /// A shard's packet slab disagrees with its holders: a slot was leaked
    /// (alive, held by nothing) or freed while still held.
    SlabConservation {
        /// Simulation time of the audit.
        t_ns: u64,
        /// The shard.
        shard: u32,
        /// Packets alive in the shard's slab.
        alive: u64,
        /// Packets its devices hold plus its pending arrival events.
        held: u64,
    },
    /// The fluid solver allocated more aggregate rate to a link than the
    /// link's capacity (beyond floating-point tolerance).
    FluidOverCapacity {
        /// Simulation time of the audit.
        t_ns: u64,
        /// Link endpoints as node indices (`u32::MAX` marks the GSL side).
        link: (u32, u32),
        /// Aggregate allocated rate on the link, bits/s.
        load_bps: f64,
        /// Link capacity, bits/s.
        capacity_bps: f64,
    },
}

impl AuditViolation {
    /// Stable short name for manifests and log lines.
    pub fn kind(&self) -> &'static str {
        match self {
            AuditViolation::PacketConservation { .. } => "packet_conservation",
            AuditViolation::DeviceConservation { .. } => "device_conservation",
            AuditViolation::QueueOverCapacity { .. } => "queue_over_capacity",
            AuditViolation::SlabConservation { .. } => "slab_conservation",
            AuditViolation::FluidOverCapacity { .. } => "fluid_over_capacity",
        }
    }

    /// Simulation time the violation was observed, in nanoseconds.
    pub fn t_ns(&self) -> u64 {
        match self {
            AuditViolation::PacketConservation { t_ns, .. }
            | AuditViolation::DeviceConservation { t_ns, .. }
            | AuditViolation::QueueOverCapacity { t_ns, .. }
            | AuditViolation::SlabConservation { t_ns, .. }
            | AuditViolation::FluidOverCapacity { t_ns, .. } => *t_ns,
        }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::PacketConservation {
                t_ns,
                injected,
                delivered,
                dropped,
                in_flight,
            } => {
                write!(
                    f,
                    "packet conservation violated at t={t_ns}ns: injected {injected} != \
                     delivered {delivered} + dropped {dropped} + in-flight {in_flight} \
                     (= {})",
                    delivered + dropped + in_flight
                )
            }
            AuditViolation::DeviceConservation { t_ns, node, device, offered, accounted } => {
                write!(
                    f,
                    "device conservation violated at t={t_ns}ns on n{node}/d{device}: \
                     offered {offered} != accounted {accounted}"
                )
            }
            AuditViolation::QueueOverCapacity { t_ns, node, device, queue_len, capacity } => {
                write!(
                    f,
                    "queue over capacity at t={t_ns}ns on n{node}/d{device}: \
                     {queue_len} queued > capacity {capacity}"
                )
            }
            AuditViolation::SlabConservation { t_ns, shard, alive, held } => {
                write!(
                    f,
                    "slab conservation violated at t={t_ns}ns on shard {shard}: \
                     {alive} packets alive != {held} held by devices and arrivals"
                )
            }
            AuditViolation::FluidOverCapacity { t_ns, link, load_bps, capacity_bps } => {
                let (a, b) = link;
                write!(
                    f,
                    "fluid link ({a},{b}) over capacity at t={t_ns}ns: \
                     {load_bps:.1} bps allocated > {capacity_bps:.1} bps"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_times_are_stable() {
        let v = AuditViolation::PacketConservation {
            t_ns: 5,
            injected: 10,
            delivered: 4,
            dropped: 1,
            in_flight: 2,
        };
        assert_eq!(v.kind(), "packet_conservation");
        assert_eq!(v.t_ns(), 5);
        let d = AuditViolation::DeviceConservation {
            t_ns: 7,
            node: 1,
            device: 2,
            offered: 9,
            accounted: 8,
        };
        assert_eq!(d.kind(), "device_conservation");
        let q = AuditViolation::QueueOverCapacity {
            t_ns: 9,
            node: 1,
            device: 0,
            queue_len: 101,
            capacity: 100,
        };
        assert_eq!(q.kind(), "queue_over_capacity");
        let sl = AuditViolation::SlabConservation { t_ns: 10, shard: 1, alive: 4, held: 3 };
        assert_eq!((sl.kind(), sl.t_ns()), ("slab_conservation", 10));
        assert!(sl.to_string().contains("shard 1: 4 packets alive != 3 held"), "{sl}");
        let fl = AuditViolation::FluidOverCapacity {
            t_ns: 11,
            link: (3, u32::MAX),
            load_bps: 2e9,
            capacity_bps: 1e9,
        };
        assert_eq!(fl.kind(), "fluid_over_capacity");
        assert_eq!(fl.t_ns(), 11);
    }

    #[test]
    fn display_names_the_imbalance() {
        let v = AuditViolation::PacketConservation {
            t_ns: 1_000,
            injected: 10,
            delivered: 4,
            dropped: 1,
            in_flight: 2,
        };
        let s = v.to_string();
        assert!(s.contains("injected 10") && s.contains("(= 7)"), "{s}");
        let q = AuditViolation::QueueOverCapacity {
            t_ns: 2,
            node: 6,
            device: 1,
            queue_len: 101,
            capacity: 100,
        };
        assert!(q.to_string().contains("n6/d1"), "{q}");
    }
}
