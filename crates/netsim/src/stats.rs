//! Global simulation counters.

use hypatia_util::SimDuration;

/// Network-wide counters maintained by the simulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets injected by applications (and auto-generated echo replies).
    pub injected: u64,
    /// Packets delivered to their destination node.
    pub delivered: u64,
    /// Payload bytes delivered (goodput numerator, headers excluded).
    pub payload_bytes_delivered: u64,
    /// Node-to-node hop deliveries (events; the simulation-cost driver).
    pub hop_deliveries: u64,
    /// Packets dropped because no route to the destination existed.
    pub routing_drops: u64,
    /// Packets dropped at full device queues.
    pub queue_drops: u64,
    /// Packets lost on the GSL channel (weather/impairment model).
    pub channel_drops: u64,
    /// Packets dropped by fault injection (in flight on a cut link, or
    /// arriving at / forwarded towards a failed component).
    pub fault_drops: u64,
    /// Packets delivered to a port with no bound application.
    pub unclaimed: u64,
    /// Ping packets answered by node-level echo.
    pub pings_echoed: u64,
    /// Forwarding-state recomputations performed.
    pub forwarding_updates: u64,
    /// Events processed.
    pub events: u64,
    /// Flows owned by installed applications that report a footprint
    /// (see `Application::flow_footprint`; 0 when no app reports one).
    pub flow_count: u64,
    /// Steady-state bytes of per-flow application state behind
    /// `flow_count` (both endpoints; excludes in-flight packets).
    pub flow_state_bytes: u64,
    /// Fluid flows installed (fluid/hybrid modes; coordinator-owned).
    pub fluid_flows: u64,
    /// Max-min rate re-solves performed by the fluid solver.
    pub fluid_resolves: u64,
    /// Payload bytes delivered analytically by fluid flows (excluded
    /// from `payload_bytes_delivered`, which stays packet-only).
    pub fluid_bytes_delivered: u64,
}

impl SimStats {
    /// Goodput in bits/s over `horizon` of simulated time.
    pub fn goodput_bps(&self, horizon: SimDuration) -> f64 {
        assert!(!horizon.is_zero(), "horizon must be positive");
        self.payload_bytes_delivered as f64 * 8.0 / horizon.secs_f64()
    }

    /// Total drops of any kind.
    pub fn total_drops(&self) -> u64 {
        self.routing_drops + self.queue_drops + self.channel_drops + self.fault_drops
    }

    /// Fold another counter set into this one. Every field is a sum, so
    /// merging per-shard stats in any order yields the same totals a
    /// serial run reports.
    pub fn merge(&mut self, other: &SimStats) {
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.payload_bytes_delivered += other.payload_bytes_delivered;
        self.hop_deliveries += other.hop_deliveries;
        self.routing_drops += other.routing_drops;
        self.queue_drops += other.queue_drops;
        self.channel_drops += other.channel_drops;
        self.fault_drops += other.fault_drops;
        self.unclaimed += other.unclaimed;
        self.pings_echoed += other.pings_echoed;
        self.forwarding_updates += other.forwarding_updates;
        self.events += other.events;
        self.flow_count += other.flow_count;
        self.flow_state_bytes += other.flow_state_bytes;
        self.fluid_flows += other.fluid_flows;
        self.fluid_resolves += other.fluid_resolves;
        self.fluid_bytes_delivered += other.fluid_bytes_delivered;
    }

    /// Steady-state application bytes per flow (`None` when no installed
    /// app reports a footprint). The million-flow scaling budget: this must
    /// stay within tens of bytes for bulk flow tables.
    pub fn bytes_per_flow(&self) -> Option<f64> {
        (self.flow_count > 0).then(|| self.flow_state_bytes as f64 / self.flow_count as f64)
    }
}

crate::snap_fields!(SimStats {
    injected,
    delivered,
    payload_bytes_delivered,
    hop_deliveries,
    routing_drops,
    queue_drops,
    channel_drops,
    fault_drops,
    unclaimed,
    pings_echoed,
    forwarding_updates,
    events,
    flow_count,
    flow_state_bytes,
    fluid_flows,
    fluid_resolves,
    fluid_bytes_delivered,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_arithmetic() {
        let stats = SimStats { payload_bytes_delivered: 1_250_000, ..Default::default() };
        // 1.25 MB over 1 s = 10 Mbit/s.
        assert!((stats.goodput_bps(SimDuration::from_secs(1)) - 1e7).abs() < 1e-6);
        assert!((stats.goodput_bps(SimDuration::from_secs(10)) - 1e6).abs() < 1e-6);
    }

    #[test]
    fn drop_totals() {
        let stats =
            SimStats { routing_drops: 3, queue_drops: 4, fault_drops: 2, ..Default::default() };
        assert_eq!(stats.total_drops(), 9);
    }

    #[test]
    fn merge_sums_every_field() {
        let a = SimStats {
            injected: 1,
            delivered: 2,
            payload_bytes_delivered: 3,
            hop_deliveries: 4,
            routing_drops: 5,
            queue_drops: 6,
            channel_drops: 7,
            fault_drops: 8,
            unclaimed: 9,
            pings_echoed: 10,
            forwarding_updates: 11,
            events: 12,
            flow_count: 13,
            flow_state_bytes: 14,
            fluid_flows: 15,
            fluid_resolves: 16,
            fluid_bytes_delivered: 17,
        };
        let mut b = a.clone();
        b.merge(&a);
        let doubled = SimStats {
            injected: 2,
            delivered: 4,
            payload_bytes_delivered: 6,
            hop_deliveries: 8,
            routing_drops: 10,
            queue_drops: 12,
            channel_drops: 14,
            fault_drops: 16,
            unclaimed: 18,
            pings_echoed: 20,
            forwarding_updates: 22,
            events: 24,
            flow_count: 26,
            flow_state_bytes: 28,
            fluid_flows: 30,
            fluid_resolves: 32,
            fluid_bytes_delivered: 34,
        };
        assert_eq!(b, doubled);
        // Merging a default is the identity.
        let mut c = a.clone();
        c.merge(&SimStats::default());
        assert_eq!(c, a);
    }

    #[test]
    fn bytes_per_flow_guard() {
        assert!(SimStats::default().bytes_per_flow().is_none());
        let s = SimStats { flow_count: 4, flow_state_bytes: 100, ..Default::default() };
        assert_eq!(s.bytes_per_flow(), Some(25.0));
    }

    #[test]
    fn save_restore_round_trips_every_field() {
        use crate::checkpoint::{Snap, SnapReader, SnapWriter};
        // Distinct values per field so a swapped pair cannot cancel out.
        let mut w = SnapWriter::new(0);
        (1..=17u64).for_each(|i| (i * 1000 + 7).put(&mut w));
        let image = w.finish();
        let mut r = SnapReader::from_bytes(image.clone(), 0).expect("valid image");
        let mut back = SimStats::default();
        back.restore(&mut r).expect("restore");
        r.expect_end().unwrap();
        // Declaration order is image order.
        assert_eq!((back.injected, back.events, back.fluid_bytes_delivered), (1007, 12007, 17007));
        let mut w = SnapWriter::new(0);
        back.put(&mut w);
        assert_eq!(w.finish(), image);
    }
}
