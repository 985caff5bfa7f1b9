//! The application interface.
//!
//! Applications (ping sources, UDP sources/sinks, TCP endpoints) attach to
//! a node and a port. Handlers receive an [`AppCtx`] that *buffers* actions
//! (packet sends, timers) which the simulator applies after the handler
//! returns — this keeps the borrow structure simple and the event order
//! deterministic.
//!
//! Timers cannot be cancelled; an application that needs cancellation
//! encodes a generation counter into `timer_id` and ignores stale firings
//! (this is how the TCP retransmission timer is built).

use crate::packet::{Packet, Payload};
use hypatia_constellation::NodeId;
use hypatia_util::{SimDuration, SimTime};

/// A buffered application action.
#[derive(Debug, Clone)]
pub enum AppAction {
    /// Send a packet from this app's node/port.
    Send {
        /// Destination node.
        dst: NodeId,
        /// Destination port.
        dst_port: u16,
        /// Wire size, bytes.
        size_bytes: u32,
        /// Payload.
        payload: Payload,
    },
    /// Send a packet from an explicit source port of this app's node.
    ///
    /// Bulk (arena) applications own many flows behind one [`Application`];
    /// each flow keeps its own wire identity by naming its source port
    /// explicitly instead of inheriting the context port.
    SendFrom {
        /// Source port stamped on the packet.
        src_port: u16,
        /// Destination node.
        dst: NodeId,
        /// Destination port.
        dst_port: u16,
        /// Wire size, bytes.
        size_bytes: u32,
        /// Payload.
        payload: Payload,
    },
    /// Request an [`Application::on_timer`] callback after `delay`.
    Timer {
        /// Relative delay.
        delay: SimDuration,
        /// Application-chosen id, echoed back on firing.
        timer_id: u64,
    },
}

/// Handler context: the current time, the app's own address, and the action
/// buffer.
#[derive(Debug)]
pub struct AppCtx {
    /// Current simulation time.
    pub now: SimTime,
    /// The node this application lives on.
    pub node: NodeId,
    /// The port this application is bound to.
    pub port: u16,
    /// Tag OR-ed into every `timer_id` passed to [`AppCtx::set_timer`].
    ///
    /// Defaults to 0 (a no-op). Bulk applications that multiplex many flows
    /// behind one handler set this to `flow_index << 32` before delegating
    /// to per-flow protocol code, so a later `on_timer` can route the firing
    /// back to the right flow without the inner code knowing it is shared.
    pub timer_tag: u64,
    pub(crate) actions: Vec<AppAction>,
}

impl AppCtx {
    /// Create a context (public so application crates can unit-test their
    /// handlers without a full simulator).
    pub fn new(now: SimTime, node: NodeId, port: u16) -> Self {
        AppCtx { now, node, port, timer_tag: 0, actions: Vec::new() }
    }

    /// Send a packet to `(dst, dst_port)`.
    pub fn send(&mut self, dst: NodeId, dst_port: u16, size_bytes: u32, payload: Payload) {
        self.actions.push(AppAction::Send { dst, dst_port, size_bytes, payload });
    }

    /// Send a packet to `(dst, dst_port)` from an explicit source port
    /// (bulk applications owning many flows on one node).
    pub fn send_from(
        &mut self,
        src_port: u16,
        dst: NodeId,
        dst_port: u16,
        size_bytes: u32,
        payload: Payload,
    ) {
        self.actions.push(AppAction::SendFrom { src_port, dst, dst_port, size_bytes, payload });
    }

    /// Arrange an `on_timer(timer_id)` callback after `delay`. The context's
    /// [`timer_tag`](AppCtx::timer_tag) is OR-ed into the id.
    pub fn set_timer(&mut self, delay: SimDuration, timer_id: u64) {
        self.actions.push(AppAction::Timer { delay, timer_id: self.timer_tag | timer_id });
    }

    /// Drain the buffered actions (used by the simulator and by tests).
    pub fn take_actions(&mut self) -> Vec<AppAction> {
        std::mem::take(&mut self.actions)
    }
}

/// An application endpoint.
///
/// The `as_any` pair enables retrieving a concrete application (and its
/// recorded results) back from the simulator after a run.
///
/// `Send` is required because the sharded engine executes each shard's
/// applications on a worker thread; an application only ever runs on the
/// shard owning its node, so `Sync` is not needed.
pub trait Application: Send + 'static {
    /// Called once when the application is installed (typically sets the
    /// first timer or sends the first packet).
    fn on_start(&mut self, ctx: &mut AppCtx);

    /// A packet addressed to this app's `(node, port)` arrived.
    fn on_packet(&mut self, ctx: &mut AppCtx, packet: &Packet);

    /// A previously-set timer fired.
    fn on_timer(&mut self, ctx: &mut AppCtx, timer_id: u64);

    /// Steady-state flow footprint: `(flows owned, resident bytes)`.
    ///
    /// `None` (the default) means the application does not participate in
    /// footprint accounting. Bulk sources report their flow count and table
    /// bytes; bulk sinks report `(0, bytes)` so each flow is counted once
    /// while its state on both endpoints still lands in the byte total.
    fn flow_footprint(&self) -> Option<(u64, u64)> {
        None
    }

    /// Downcast support.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Downcast support (mutable).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Serialize this application's mutable state for a checkpoint.
    ///
    /// The default refuses: an application that opts into checkpointed
    /// runs must implement the pair — usually by declaring its state with
    /// [`snap_fields!`](crate::snap_fields) and invoking
    /// [`snap_app_state!`](crate::snap_app_state) here — and a run over one
    /// that has not is a typed error at checkpoint time rather than a
    /// silently wrong resume.
    /// Pending timers and in-flight packets are *not* the application's
    /// concern — they live in the event queue, which the simulator
    /// serializes itself.
    fn save_state(&self, _w: &mut crate::checkpoint::SnapWriter) -> SaveResult {
        Err(crate::checkpoint::CheckpointError::Unsupported(format!(
            "application {} does not implement save_state",
            std::any::type_name::<Self>()
        )))
    }

    /// Restore the state captured by [`Application::save_state`].
    fn restore_state(&mut self, _r: &mut crate::checkpoint::SnapReader) -> SaveResult {
        Err(crate::checkpoint::CheckpointError::Unsupported(format!(
            "application {} does not implement restore_state",
            std::any::type_name::<Self>()
        )))
    }
}

/// Result of an application state save/restore.
pub type SaveResult = Result<(), crate::checkpoint::CheckpointError>;

/// Implement [`Application::save_state`] and [`Application::restore_state`]
/// through the application's [`Snap`](crate::checkpoint::Snap) impl.
/// Invoke inside the `impl Application` block.
#[macro_export]
macro_rules! snap_app_state {
    () => {
        fn save_state(&self, w: &mut $crate::checkpoint::SnapWriter) -> $crate::app::SaveResult {
            $crate::checkpoint::Snap::put(self, w);
            Ok(())
        }

        fn restore_state(
            &mut self,
            r: &mut $crate::checkpoint::SnapReader,
        ) -> $crate::app::SaveResult {
            $crate::checkpoint::Snap::restore(self, r)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_buffers_actions_in_order() {
        let mut ctx = AppCtx::new(SimTime::from_secs(1), NodeId(3), 80);
        ctx.set_timer(SimDuration::from_millis(10), 42);
        ctx.send(NodeId(5), 99, 64, Payload::Ping { seq: 0 });
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 2);
        assert!(matches!(actions[0], AppAction::Timer { timer_id: 42, .. }));
        assert!(matches!(actions[1], AppAction::Send { dst: NodeId(5), dst_port: 99, .. }));
        // Buffer is drained.
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn timer_tag_is_ored_into_timer_ids() {
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 1);
        ctx.timer_tag = 7 << 32;
        ctx.set_timer(SimDuration::from_millis(1), 3);
        let actions = ctx.take_actions();
        assert!(
            matches!(actions[0], AppAction::Timer { timer_id, .. } if timer_id == (7 << 32) | 3)
        );
    }

    #[test]
    fn send_from_carries_explicit_source_port() {
        let mut ctx = AppCtx::new(SimTime::ZERO, NodeId(0), 1);
        ctx.send_from(555, NodeId(9), 80, 128, Payload::Ping { seq: 0 });
        let actions = ctx.take_actions();
        assert!(matches!(
            actions[0],
            AppAction::SendFrom { src_port: 555, dst: NodeId(9), dst_port: 80, .. }
        ));
    }

    #[test]
    fn ctx_exposes_identity() {
        let ctx = AppCtx::new(SimTime::from_millis(7), NodeId(1), 5);
        assert_eq!(ctx.now, SimTime::from_millis(7));
        assert_eq!(ctx.node, NodeId(1));
        assert_eq!(ctx.port, 5);
    }
}
