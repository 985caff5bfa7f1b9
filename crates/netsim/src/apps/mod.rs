//! Built-in applications: ping and constant-rate UDP.
//!
//! TCP endpoints live in the `hypatia-transport` crate, built on the same
//! [`crate::app::Application`] interface.

pub mod ping;
pub mod udp;

pub use ping::PingApp;
pub use udp::{UdpSink, UdpSource};
