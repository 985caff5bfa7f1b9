//! Nodes: the port demux.
//!
//! A node's devices are links of the simulator's
//! [`LinkTable`](crate::links::LinkTable); what a node keeps itself is
//! which application each of its ports delivers to.

use hypatia_constellation::NodeId;

/// "No application" in [`Node`]'s port table.
const UNBOUND: u32 = u32::MAX;
/// Ports per page of the port table.
const PAGE: usize = 256;

/// A node in the packet simulator.
#[derive(Debug)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Application index by port ([`UNBOUND`] where none), in pages of
    /// [`PAGE`] ports allocated when their first port is bound: no
    /// applications, no allocation; a demux is two indexed loads, no hashing.
    port_apps: Vec<Option<Box<[u32; PAGE]>>>,
}

impl Node {
    /// A node with no port bound.
    pub fn new(id: NodeId) -> Self {
        Node { id, port_apps: Vec::new() }
    }

    /// Bind application `app` to `port`. Panics on double-bind.
    pub fn bind_port(&mut self, port: u16, app: u32) {
        assert!(app != UNBOUND, "application index space exhausted");
        let page = port as usize / PAGE;
        if self.port_apps.len() <= page {
            self.port_apps.resize_with(page + 1, || None);
        }
        let page = self.port_apps[page].get_or_insert_with(|| Box::new([UNBOUND; PAGE]));
        let bound = std::mem::replace(&mut page[port as usize % PAGE], app);
        assert!(bound == UNBOUND, "port {port} already bound on {}", self.id);
    }

    /// The application bound to `port`.
    pub fn app_on_port(&self, port: u16) -> Option<u32> {
        let page = self.port_apps.get(port as usize / PAGE)?.as_ref()?;
        Some(page[port as usize % PAGE]).filter(|&app| app != UNBOUND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_binding() {
        let mut n = Node::new(NodeId(3));
        assert_eq!(n.port_apps.capacity(), 0, "a node without applications allocates nothing");
        assert_eq!(n.app_on_port(80), None);
        n.bind_port(80, 7);
        n.bind_port(u16::MAX, 0);
        n.bind_port(0, 9);
        assert_eq!(n.app_on_port(80), Some(7));
        assert_eq!(n.app_on_port(79), None, "below a bound port");
        assert_eq!(n.app_on_port(81), None, "between bound ports, on a bound page");
        assert_eq!(n.app_on_port(20_000), None, "on a page nothing is bound on");
        assert_eq!((n.app_on_port(0), n.app_on_port(u16::MAX)), (Some(9), Some(0)));
        let pages = n.port_apps.iter().flatten().count();
        assert_eq!(pages, 2, "ports 0 and 80 share a page, 65535 has its own");
    }

    #[test]
    #[should_panic]
    fn double_port_bind_panics() {
        let mut n = Node::new(NodeId(3));
        n.bind_port(80, 1);
        n.bind_port(80, 2);
    }
}
