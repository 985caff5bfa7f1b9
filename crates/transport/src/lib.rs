//! Reliable transport for Hypatia: TCP endpoints over the packet simulator.
//!
//! The paper evaluates TCP NewReno (loss-based) and TCP Vegas (delay-based)
//! over LEO paths, concluding that *both* loss and delay are poor congestion
//! signals in this setting (§4.2). This crate implements those senders —
//! plus CUBIC and BBR as extensions — against `hypatia-netsim`'s application
//! interface:
//!
//! * [`tcp::sender::TcpSender`] — sliding window, RFC6298 RTO with
//!   timestamp-based RTT sampling, fast retransmit/recovery (RFC6582
//!   NewReno semantics), pluggable congestion control;
//! * [`tcp::sink::TcpSink`] — cumulative ACKs, out-of-order reassembly,
//!   configurable delayed ACKs (the mechanism behind the paper's Fig. 3(a)
//!   RTT oscillation note);
//! * [`tcp::cc`] — the [`tcp::cc::CongestionControl`] trait with NewReno,
//!   Vegas, and CUBIC implementations.
//!
//! Simplifications, shared with the paper's setup: no handshake (flows are
//! long-running and pre-established), no SACK (ns-3's NewReno-without-SACK
//! behaviour, which is what makes reordering masquerade as loss), an
//! unbounded receive window, and byte-stream data generated on demand.

#![forbid(unsafe_code)]

pub mod tcp;

pub use tcp::bulk::{BulkTcpSender, BulkTcpSink};
pub use tcp::cc::{bbr::Bbr, cubic::Cubic, newreno::NewReno, vegas::Vegas, CongestionControl};
pub use tcp::config::TcpConfig;
pub use tcp::sender::TcpSender;
pub use tcp::sink::TcpSink;
