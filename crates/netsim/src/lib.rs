//! A deterministic packet-level discrete-event network simulator — the
//! ns-3 substrate of the Hypatia reproduction.
//!
//! The paper implements its packet simulator as an ns-3 module with these
//! satellite-specific semantics (§3.1–§3.2), all reproduced here:
//!
//! * **forwarding state** is recomputed at a configurable time-step
//!   (default 100 ms) and swapped atomically at step boundaries;
//! * **latencies stay continuous**: propagation delay of every transmission
//!   is computed from live orbital geometry at transmit time, even between
//!   forwarding updates;
//! * **one GSL device per node** (default): all of a node's ground↔satellite
//!   traffic serializes through a single queue, while each ISL has its own
//!   device — this asymmetry is what produces Appendix A's bent-pipe
//!   ACK-queueing effects;
//! * **drop-tail queues** sized in packets;
//! * **lossless GSL handoff**: packets already queued or in flight are
//!   delivered along their assigned link; only new packets follow the new
//!   forwarding state;
//! * **pre-filled MAC/ARP state**: there is no address-resolution traffic.
//!
//! Determinism: integer-nanosecond timestamps and a canonical total event
//! order `(time, key)` — where a key encodes the originating node and its
//! scheduling sequence — make every run bit-reproducible. One
//! [`Simulator`] holds every node and runs that order in one loop on the
//! calling thread — the classic sequential simulator; only the next
//! forwarding step is computed beside it, on a lookahead thread.
//!
//! Applications (ping and UDP CBR here; TCP in `hypatia-transport`)
//! attach to nodes via the [`app::Application`] trait and a port demux.
//!
//! Extensions beyond the paper's model (all off by default): hybrid
//! fluid/packet simulation ([`SimConfig::with_sim_mode`] — bulk flows
//! modelled analytically by the max-min fair [`fluid`] solver while
//! short flows and control traffic stay packet-level), a deterministic
//! GSL loss process (weather stand-in),
//! loop-free multipath forwarding ([`SimConfig::with_multipath`]), a
//! bounded per-packet [`trace`], and deterministic fault injection
//! ([`SimConfig::with_faults`]): a compiled `hypatia-fault` schedule of
//! satellite/ISL/GSL failures is applied mid-flight — forwarding
//! recomputation routes around whatever is down, and packets caught on a
//! failing component are dropped and traced.

#![forbid(unsafe_code)]

pub mod app;
pub mod apps;
pub mod audit;
pub mod checkpoint;
pub mod config;
pub mod device;
pub mod event;
pub mod flow;
pub mod fluid;
pub mod links;
pub mod node;
pub mod packet;
pub mod sim;
pub mod stats;
pub mod trace;

pub use app::{AppCtx, Application};
pub use audit::AuditViolation;
pub use checkpoint::CheckpointError;
pub use config::SimConfig;
pub use event::{QueueKind, QueueStats};
pub use flow::{BulkUdpSink, BulkUdpSource, FlowId};
pub use fluid::{FluidSolve, FluidStats, SimMode};
pub use packet::{Packet, Payload, Segment};
pub use sim::{EngineReport, PhaseTimes, Simulator};
pub use stats::SimStats;
