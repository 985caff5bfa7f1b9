//! Network devices: a drop-tail queue in front of a fixed-rate transmitter.
//!
//! A device is one directed link of the [`crate::links::LinkTable`], which
//! says what it is attached to: an **ISL device** is hard-wired to one
//! peer satellite; a **GSL device** serves *all* of a node's
//! ground↔satellite traffic through one queue (the paper's default of one
//! GSL network device per node). Every queued packet records the next hop
//! chosen when it was enqueued, so forwarding-state changes never reroute
//! queued packets (lossless handoff semantics).
//!
//! A device never holds or reads a packet: it stays in the simulator's
//! `PacketSlab` and the queue holds a 12-byte [`Queued`] — the slot plus
//! the two things the device path needs from it. Only `save`/`restore`
//! look the packet up, to write the bytes a by-value queue wrote.

use crate::checkpoint::{CheckpointError, Snap, SnapReader, SnapWriter};
use crate::event::PacketSlab;
use crate::packet::Packet;
use hypatia_constellation::{LinkFit, NodeId};
use hypatia_util::{DataRate, DataSize, SimDuration, SimTime};
use std::collections::VecDeque;

/// A packet sitting in a device queue: where it is, and what the device
/// path needs to know about it without going there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Queued {
    /// The packet's slot in the simulator's slab.
    pub slot: u32,
    /// The next hop assigned at enqueue time (the fault check and the
    /// propagation delay hang off it).
    pub next_hop: NodeId,
    /// The packet's wire size: what serialization takes.
    pub size_bytes: u32,
}

const _: () = assert!(std::mem::size_of::<Queued>() <= 16);

/// Per-device counters.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Packets ever offered to the device (accepted, queued, or dropped).
    /// With the other counters this closes the device's conservation
    /// equation: `packets_in == packets_tx + drops + queued + in-service`.
    pub packets_in: u64,
    /// Bytes ever offered to the device.
    pub bytes_in: u64,
    /// Packets fully transmitted.
    pub packets_tx: u64,
    /// Bytes fully transmitted.
    pub bytes_tx: u64,
    /// Packets dropped because the queue was full.
    pub drops: u64,
    /// Cumulative busy (transmitting) time.
    pub busy: SimDuration,
    /// Busy time per utilization bucket, when tracking is enabled.
    pub busy_per_bucket: Vec<SimDuration>,
}

/// A transmit device.
#[derive(Debug)]
pub struct Device {
    /// Line rate.
    pub rate: DataRate,
    /// Max queued packets (excluding the one in transmission).
    pub queue_capacity: usize,
    queue: VecDeque<Queued>,
    /// The packet currently being serialized, if any.
    in_flight: Option<Queued>,
    /// Counters.
    pub stats: DeviceStats,
    /// Utilization bucket width (None = no tracking).
    bucket: Option<SimDuration>,
    /// The propagation-delay memo of the last link transmitted on. Not
    /// state: any content yields the same delays, so it is never saved.
    pub(crate) fit: LinkFit,
}

impl Device {
    /// New idle device.
    pub fn new(rate: DataRate, queue_capacity: usize, bucket: Option<SimDuration>) -> Self {
        Device {
            rate,
            queue_capacity,
            queue: VecDeque::new(),
            in_flight: None,
            stats: DeviceStats::default(),
            bucket,
            fit: LinkFit::default(),
        }
    }

    /// Packets waiting (not counting the one in transmission).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True when the transmitter is serializing a packet.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// True when the device would refuse a packet offered now: the
    /// transmitter is busy and `queue_capacity` packets wait behind it.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.in_flight.is_some() && self.queue.len() >= self.queue_capacity
    }

    /// Book a packet of `size_bytes` that a full device refused: offered
    /// and dropped, never held.
    #[inline]
    pub fn refuse(&mut self, size_bytes: u32) {
        debug_assert!(self.is_full(), "refusal with room left");
        self.stats.packets_in += 1;
        self.stats.bytes_in += size_bytes as u64;
        self.stats.drops += 1;
    }

    /// Offer a packet to a device that is not full ([`Device::is_full`]).
    /// Returns `Some(duration)` when the transmitter was idle and started
    /// on it (`TxComplete` must be scheduled after `duration`), `None` when
    /// it queued behind others.
    #[inline]
    pub fn enqueue(&mut self, q: Queued, now: SimTime) -> Option<SimDuration> {
        debug_assert!(!self.is_full(), "offered to a full device");
        self.stats.packets_in += 1;
        self.stats.bytes_in += q.size_bytes as u64;
        if self.in_flight.is_none() {
            debug_assert!(self.queue.is_empty(), "idle transmitter with queued packets");
            Some(self.start_tx(q, now))
        } else {
            self.queue.push_back(q);
            None
        }
    }

    /// Complete the in-flight transmission. Returns the transmitted packet's
    /// entry and, if more packets wait, the serialization delay of the next
    /// one (whose `TxComplete` the caller must schedule).
    #[inline]
    pub fn tx_complete(&mut self, now: SimTime) -> (Queued, Option<SimDuration>) {
        let done = self.in_flight.take().expect("tx_complete on idle device");
        self.stats.packets_tx += 1;
        self.stats.bytes_tx += done.size_bytes as u64;
        let next = self.queue.pop_front().map(|q| self.start_tx(q, now));
        (done, next)
    }

    #[inline]
    fn start_tx(&mut self, q: Queued, now: SimTime) -> SimDuration {
        let d = self.rate.serialization_delay(DataSize::from_bytes(q.size_bytes as u64));
        self.record_busy(now, d);
        self.in_flight = Some(q);
        d
    }

    /// Account `d` of busy time starting at `now` into the bucket series.
    /// Inlines to one add when utilization tracking is off.
    #[inline]
    fn record_busy(&mut self, now: SimTime, d: SimDuration) {
        self.stats.busy += d;
        let Some(bucket) = self.bucket else { return };
        // Spread the busy interval across buckets it overlaps.
        let mut start = now;
        let mut remaining = d;
        while !remaining.is_zero() {
            let idx = (start.nanos() / bucket.nanos()) as usize;
            if self.stats.busy_per_bucket.len() <= idx {
                self.stats.busy_per_bucket.resize(idx + 1, SimDuration::ZERO);
            }
            let bucket_end = SimTime::from_nanos((idx as u64 + 1) * bucket.nanos());
            let in_this = remaining.min(bucket_end.since(start));
            self.stats.busy_per_bucket[idx] += in_this;
            remaining -= in_this;
            start += in_this;
        }
    }

    /// Utilization (0..=1) of bucket `idx`, if tracked.
    pub fn utilization(&self, idx: usize) -> Option<f64> {
        let bucket = self.bucket?;
        let busy = self.stats.busy_per_bucket.get(idx).copied().unwrap_or(SimDuration::ZERO);
        Some(busy.secs_f64() / bucket.secs_f64())
    }

    /// Packets held by the device right now: queued plus in service.
    /// The audit counts these as in-flight.
    pub fn occupancy(&self) -> u64 {
        self.queue.len() as u64 + self.in_flight.is_some() as u64
    }

    /// Serialize the device's mutable state: the (possibly fluid-adjusted)
    /// rate, the queue, the in-service packet (both by value, looked up in
    /// `packets`: slots are not part of an image), and the counters. The
    /// immutable skeleton (capacity, bucket width) is rebuilt from config
    /// at restore time and is not stored.
    pub(crate) fn save(&self, w: &mut SnapWriter, packets: &PacketSlab) {
        let Device { rate, queue, in_flight, stats, queue_capacity: _, bucket: _, fit: _ } = self;
        let image = |q: &Queued| (packets[q.slot], q.next_hop);
        rate.put(w);
        queue.len().put(w);
        queue.iter().for_each(|q| image(q).put(w));
        in_flight.as_ref().map(image).put(w);
        stats.put(w);
    }

    /// Restore the state captured by [`Device::save`], parking the image's
    /// packets in `packets`. Whatever the device held before is forgotten,
    /// not freed: the caller restores into an emptied slab.
    pub(crate) fn restore(
        &mut self,
        r: &mut SnapReader,
        packets: &mut PacketSlab,
    ) -> Result<(), CheckpointError> {
        let mut park = |(packet, next_hop): (Packet, NodeId)| Queued {
            slot: packets.park(packet),
            next_hop,
            size_bytes: packet.size_bytes,
        };
        self.rate.restore(r)?;
        let qlen: usize = r.get()?;
        if qlen > self.queue_capacity {
            return Err(CheckpointError::Malformed(format!(
                "device queue of {qlen} exceeds capacity {}",
                self.queue_capacity
            )));
        }
        self.queue.clear();
        for _ in 0..qlen {
            self.queue.push_back(park(r.get()?));
        }
        self.in_flight = r.get::<Option<_>>()?.map(park);
        self.stats.restore(r)
    }
}

crate::snap_fields!(DeviceStats {
    packets_in,
    bytes_in,
    packets_tx,
    bytes_tx,
    drops,
    busy,
    busy_per_bucket,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, Payload};

    fn pkt(id: u64, size: u32) -> Packet {
        Packet {
            id,
            src: NodeId(0),
            dst: NodeId(1),
            src_port: 1,
            dst_port: 2,
            size_bytes: size,
            payload: Payload::Ping { seq: id },
            injected_at: SimTime::ZERO,
            hops: 0,
            flow_hash: 0,
        }
    }

    /// A queue entry for a packet of `size` bytes in `slot`, towards node 9.
    fn q(slot: u32, size: u32) -> Queued {
        Queued { slot, next_hop: NodeId(9), size_bytes: size }
    }

    fn dev(cap: usize) -> Device {
        Device::new(DataRate::from_mbps(10), cap, None)
    }

    #[test]
    fn idle_device_transmits_immediately() {
        let mut d = dev(4);
        let dur = d.enqueue(q(1, 1500), SimTime::ZERO);
        // 1500 B at 10 Mbps = 1.2 ms.
        assert_eq!(dur, Some(SimDuration::from_micros(1200)));
        assert!(d.is_busy());
        assert_eq!(d.queue_len(), 0);
    }

    #[test]
    fn busy_device_queues_then_chains() {
        let mut d = dev(4);
        let t0 = SimTime::ZERO;
        assert!(d.enqueue(q(1, 1500), t0).is_some());
        assert_eq!(d.enqueue(q(2, 750), t0), None);
        assert_eq!(d.queue_len(), 1);

        let t1 = SimTime::from_micros(1200);
        let (done, next) = d.tx_complete(t1);
        assert_eq!(done, q(1, 1500), "the entry comes back as it went in");
        // Next packet (750 B) starts immediately: 0.6 ms.
        assert_eq!(next, Some(SimDuration::from_micros(600)));
        assert_eq!(d.queue_len(), 0);
        assert!(d.is_busy());
    }

    #[test]
    fn a_full_device_refuses_and_books_the_refusal() {
        let mut d = dev(2);
        let t = SimTime::ZERO;
        assert!(!d.is_full());
        d.enqueue(q(1, 100), t); // in flight
        d.enqueue(q(2, 100), t); // queued
        assert!(!d.is_full(), "room for one more");
        d.enqueue(q(3, 100), t); // queued
        assert!(d.is_full());
        d.refuse(100);
        assert_eq!(d.stats.drops, 1);
        assert_eq!(d.occupancy(), 3, "a refused packet is not held");
        d.tx_complete(SimTime::from_micros(80));
        assert!(!d.is_full(), "a transmission frees a place");
        let mut zero = dev(0);
        assert!(!zero.is_full(), "an idle transmitter takes a packet whatever the capacity");
        zero.enqueue(q(1, 100), t);
        assert!(zero.is_full());
    }

    #[test]
    fn stats_count_transmissions() {
        let mut d = dev(4);
        d.enqueue(q(1, 1000), SimTime::ZERO);
        let (_, next) = d.tx_complete(SimTime::from_micros(800));
        assert!(next.is_none());
        assert_eq!(d.stats.packets_tx, 1);
        assert_eq!(d.stats.bytes_tx, 1000);
        assert_eq!(d.stats.busy, SimDuration::from_micros(800));
    }

    #[test]
    fn next_hop_and_slot_preserved_through_queue() {
        let mut d = dev(4);
        let (first, second) = (Queued { next_hop: NodeId(7), ..q(5, 100) }, q(3, 100));
        d.enqueue(first, SimTime::ZERO);
        d.enqueue(second, SimTime::ZERO);
        assert_eq!(d.tx_complete(SimTime::from_micros(80)).0, first);
        assert_eq!(d.tx_complete(SimTime::from_micros(160)).0, second);
    }

    #[test]
    fn utilization_buckets_split_across_boundaries() {
        let mut d = Device::new(
            DataRate::from_kbps(8), // 1 B/ms: sizes map to ms directly
            10,
            Some(SimDuration::from_millis(10)),
        );
        // 15 B at 8 kbps = 15 ms, starting at t = 5 ms: 5 ms in bucket 0,
        // 10 ms in bucket 1.
        d.enqueue(q(1, 15), SimTime::from_millis(5));
        assert!((d.utilization(0).unwrap() - 0.5).abs() < 1e-9);
        assert!((d.utilization(1).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(d.utilization(2).unwrap(), 0.0);
    }

    #[test]
    #[should_panic]
    fn tx_complete_on_idle_panics() {
        dev(1).tx_complete(SimTime::ZERO);
    }

    #[test]
    fn counts_offered_packets_even_when_dropped() {
        let mut d = dev(1);
        let t = SimTime::ZERO;
        d.enqueue(q(1, 100), t); // in flight
        d.enqueue(q(2, 200), t); // queued
        d.refuse(300); // dropped
        assert_eq!(d.stats.packets_in, 3);
        assert_eq!(d.stats.bytes_in, 600);
        assert_eq!(d.occupancy(), 2);
        // Conservation holds mid-flight.
        assert_eq!(d.stats.packets_in, d.stats.packets_tx + d.stats.drops + d.occupancy());
    }

    /// Park `packets` (after `skew` throw-away slots, so the numbering
    /// differs from slab to slab) and offer each to `d` towards `next_hop`.
    fn offer(d: &mut Device, slab: &mut PacketSlab, skew: u32, packets: &[(Packet, u32)]) {
        let spare: Vec<u32> = (0..skew).map(|i| slab.park(pkt(900 + i as u64, 1))).collect();
        for &(packet, next_hop) in packets {
            let slot = slab.park(packet);
            let entry = Queued { slot, next_hop: NodeId(next_hop), size_bytes: packet.size_bytes };
            d.enqueue(entry, SimTime::from_millis(5));
        }
        spare.into_iter().for_each(|slot| slab.free(slot));
    }

    fn image(d: &Device, slab: &PacketSlab) -> Vec<u8> {
        let mut w = SnapWriter::new(1);
        d.save(&mut w, slab);
        w.finish()
    }

    fn tracked_dev() -> Device {
        Device::new(DataRate::from_mbps(10), 4, Some(SimDuration::from_millis(10)))
    }

    #[test]
    fn save_restore_round_trips_mutable_state() {
        let held = [(pkt(1, 1500), 9), (pkt(2, 750), 8)];
        let (mut d, mut slab) = (tracked_dev(), PacketSlab::default());
        offer(&mut d, &mut slab, 0, &held);
        d.rate = DataRate::from_mbps(7); // a fluid residual adjustment
        let saved = image(&d, &slab);

        // Slot numbers are not part of the image: the same packets at other
        // slots write the same bytes.
        let (mut skewed, mut skewed_slab) = (tracked_dev(), PacketSlab::default());
        offer(&mut skewed, &mut skewed_slab, 3, &held);
        skewed.rate = d.rate;
        assert_ne!(skewed.in_flight.map(|q| q.slot), d.in_flight.map(|q| q.slot));
        assert_eq!(image(&skewed, &skewed_slab), saved);

        // Restore lands the packets in whatever slab it is given; what the
        // device held before is forgotten.
        let mut fresh = tracked_dev();
        fresh.enqueue(q(0, 60), SimTime::ZERO);
        let mut r = SnapReader::from_bytes(saved.clone(), 1).unwrap();
        let mut restored_slab = PacketSlab::default();
        fresh.restore(&mut r, &mut restored_slab).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored_slab.occupied(), 2);
        assert_eq!(fresh.rate, DataRate::from_mbps(7));
        assert_eq!(fresh.queue_len(), 1);
        assert!(fresh.is_busy());
        assert_eq!(fresh.stats.packets_in, 2);
        assert_eq!(fresh.stats.busy, d.stats.busy);
        assert_eq!(fresh.stats.busy_per_bucket, d.stats.busy_per_bucket);
        assert_eq!(image(&fresh, &restored_slab), saved, "restore -> save round-trips the bytes");
        // The restored device continues exactly like the original.
        for (packet, next_hop) in held {
            let (done, _) = fresh.tx_complete(SimTime::from_micros(6200));
            assert_eq!(restored_slab[done.slot], packet);
            assert_eq!((done.next_hop, done.size_bytes), (NodeId(next_hop), packet.size_bytes));
        }
        assert!(!fresh.is_busy());
    }

    #[test]
    fn restore_rejects_overlong_queue() {
        let (mut big, mut slab) = (dev(4), PacketSlab::default());
        let held: Vec<(Packet, u32)> = (0..4).map(|id| (pkt(id, 100), 9)).collect();
        offer(&mut big, &mut slab, 0, &held);
        let mut small = dev(1); // capacity 1 cannot hold the 3 queued packets
        let mut r = SnapReader::from_bytes(image(&big, &slab), 1).unwrap();
        assert!(small.restore(&mut r, &mut PacketSlab::default()).is_err());
    }
}
