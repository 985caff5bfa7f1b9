//! Packets and payloads.
//!
//! A packet carries addressing (node + port), a wire size that determines
//! serialization delay, and a typed payload. The payload types cover the
//! paper's traffic: pings (§4.1), constant-rate UDP (§3.4), and generic
//! reliable-transport segments used by the TCP implementations in
//! `hypatia-transport`.

use hypatia_constellation::NodeId;
use hypatia_util::hash::Fnv1a64;
use hypatia_util::{DataSize, SimTime};

/// Default wire overhead ascribed to headers, bytes (IP + transport, as the
/// paper counts "only packet payloads and excluding headers" for goodput).
pub const HEADER_BYTES: u32 = 60;

/// A generic reliable-transport segment (TCP-shaped, policy-free).
///
/// Sequence/ack numbers are byte offsets, 64-bit so wraparound handling is
/// unnecessary at simulation scale. `ts`/`ts_echo` implement an RFC1323-
/// style timestamp option used for RTT estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Segment {
    /// First payload byte carried (meaningless when `payload_bytes == 0`).
    pub seq: u64,
    /// Payload bytes carried; 0 for a pure ACK.
    pub payload_bytes: u32,
    /// Cumulative acknowledgment: next byte expected by the sender of this
    /// segment.
    pub ack: u64,
    /// Sender timestamp.
    pub ts: SimTime,
    /// Echo of the peer's timestamp (for RTT measurement on ACKs).
    pub ts_echo: SimTime,
    /// FIN flag (sender is done after `seq + payload_bytes`).
    pub fin: bool,
}

/// Typed payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Echo request; nodes answer automatically (kernel-style ICMP echo).
    Ping {
        /// Sequence number assigned by the pinger.
        seq: u64,
    },
    /// Echo reply.
    Pong {
        /// Sequence of the echoed ping.
        seq: u64,
        /// Injection time of the original ping (lets the pinger compute RTT
        /// without keeping per-probe state).
        ping_injected_at: SimTime,
    },
    /// Constant-rate UDP data.
    Udp {
        /// Flow identifier.
        flow: u32,
        /// Per-flow sequence number.
        seq: u64,
        /// Payload (goodput-countable) bytes.
        payload_bytes: u32,
    },
    /// A reliable-transport segment.
    Seg(Segment),
}

/// A zero ping: the blank a snapshot decoder overwrites.
impl Default for Payload {
    fn default() -> Self {
        Payload::Ping { seq: 0 }
    }
}

/// A packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Packet {
    /// Globally unique packet id (assigned at injection).
    pub id: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Source port (application demux).
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Total wire size, bytes (headers + payload).
    pub size_bytes: u32,
    /// The payload.
    pub payload: Payload,
    /// Simulation time at which the packet entered the network.
    pub injected_at: SimTime,
    /// Hops traversed so far (incremented per node-to-node delivery).
    pub hops: u16,
    /// FNV-1a-64 of the flow key `(src, dst, src_port, dst_port)`, computed
    /// once at injection (see [`flow_hash`]) and carried with the packet so
    /// multipath forwarding never re-hashes per hop.
    pub flow_hash: u64,
}

/// The globally unique id of the `seq`-th packet originated at `src`.
///
/// Ids are per-origin-node (source node in the high bits, a per-node
/// sequence in the low bits) rather than a single global counter, so that
/// id assignment is independent of the interleaving of events across nodes
/// — the property that lets the sharded engine allocate ids without any
/// cross-shard coordination while staying bit-identical to a serial run.
pub fn packet_id(src: NodeId, seq: u32) -> u64 {
    ((src.0 as u64) << 32) | seq as u64
}

/// Hash a packet's flow key. Every packet of a flow gets the same value, so
/// multipath spreading keeps flows on one path (no reordering) while
/// different flows spread across loop-free alternates.
pub fn flow_hash(src: NodeId, dst: NodeId, src_port: u16, dst_port: u16) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_u32(src.0);
    h.write_u32(dst.0);
    h.write_u16(src_port);
    h.write_u16(dst_port);
    h.finish()
}

impl Packet {
    /// Wire size as a [`DataSize`].
    pub fn size(&self) -> DataSize {
        DataSize::from_bytes(self.size_bytes as u64)
    }

    /// Goodput-countable payload bytes (0 for control traffic).
    pub fn payload_bytes(&self) -> u32 {
        match self.payload {
            Payload::Ping { .. } | Payload::Pong { .. } => 0,
            Payload::Udp { payload_bytes, .. } => payload_bytes,
            Payload::Seg(seg) => seg.payload_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(payload: Payload, size: u32) -> Packet {
        Packet {
            id: 1,
            src: NodeId(0),
            dst: NodeId(1),
            src_port: 10,
            dst_port: 20,
            size_bytes: size,
            payload,
            injected_at: SimTime::ZERO,
            hops: 0,
            flow_hash: 0,
        }
    }

    #[test]
    fn ping_counts_no_goodput() {
        assert_eq!(base(Payload::Ping { seq: 3 }, 64).payload_bytes(), 0);
        assert_eq!(
            base(Payload::Pong { seq: 3, ping_injected_at: SimTime::ZERO }, 64).payload_bytes(),
            0
        );
    }

    #[test]
    fn udp_reports_payload() {
        let p = base(Payload::Udp { flow: 1, seq: 9, payload_bytes: 1440 }, 1500);
        assert_eq!(p.payload_bytes(), 1440);
        assert_eq!(p.size().bytes(), 1500);
    }

    #[test]
    fn segment_reports_payload() {
        let seg = Segment {
            seq: 1000,
            payload_bytes: 1380,
            ack: 0,
            ts: SimTime::from_millis(5),
            ts_echo: SimTime::ZERO,
            fin: false,
        };
        assert_eq!(base(Payload::Seg(seg), 1440).payload_bytes(), 1380);
    }

    #[test]
    fn flow_hash_is_per_flow_and_direction_sensitive() {
        let fwd = flow_hash(NodeId(3), NodeId(9), 1000, 80);
        assert_eq!(fwd, flow_hash(NodeId(3), NodeId(9), 1000, 80), "deterministic");
        assert_ne!(fwd, flow_hash(NodeId(9), NodeId(3), 80, 1000), "reverse differs");
        assert_ne!(fwd, flow_hash(NodeId(3), NodeId(9), 1001, 80), "port matters");
    }

    #[test]
    fn packet_ids_are_unique_per_origin() {
        assert_eq!(packet_id(NodeId(0), 0), 0);
        assert_eq!(packet_id(NodeId(0), 1), 1);
        assert_eq!(packet_id(NodeId(1), 0), 1 << 32);
        assert_ne!(packet_id(NodeId(2), 7), packet_id(NodeId(7), 2));
    }

    #[test]
    fn pure_ack_has_zero_payload() {
        let seg = Segment {
            seq: 0,
            payload_bytes: 0,
            ack: 5000,
            ts: SimTime::ZERO,
            ts_echo: SimTime::from_millis(2),
            fin: false,
        };
        assert_eq!(base(Payload::Seg(seg), 60).payload_bytes(), 0);
    }
}
