//! Nodes: device sets and the port demux.
//!
//! A satellite owns one device per ISL (hard-wired peer) plus one GSL
//! device; a ground station owns just the GSL device. Forwarding picks the
//! ISL device when the next hop is an ISL peer, the GSL device otherwise.

use crate::device::{Device, DeviceKind};
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
    /// All devices owned by the node.
    pub devices: Vec<Device>,
    /// `(peer, device index)` per ISL device, in attach order — the order
    /// the fluid engine's `LinkTable` numbers a node's links in. A
    /// satellite has a handful (4 in a +Grid), so a linear scan beats
    /// hashing the peer on every hop.
    isl_device_of: Vec<(NodeId, usize)>,
    gsl_device: Option<usize>,
    /// Application index by port ([`UNBOUND`] where none), in pages of
    /// [`PAGE`] ports allocated when their first port is bound: no
    /// applications, no allocation; a demux is two indexed loads, no hashing.
    port_apps: Vec<Option<Box<[u32; PAGE]>>>,
}

impl Node {
    /// A node with no devices yet.
    pub fn new(id: NodeId) -> Self {
        Node {
            id,
            devices: Vec::new(),
            isl_device_of: Vec::new(),
            gsl_device: None,
            port_apps: Vec::new(),
        }
    }

    /// Attach a device; registers it in the peer/GSL lookup.
    pub fn add_device(&mut self, device: Device) -> usize {
        let idx = self.devices.len();
        match device.kind {
            DeviceKind::Isl { peer } => {
                let dup = self.isl_device_of.iter().any(|&(p, _)| p == peer);
                assert!(!dup, "duplicate ISL device towards {peer}");
                self.isl_device_of.push((peer, idx));
            }
            DeviceKind::Gsl => {
                assert!(self.gsl_device.is_none(), "node already has a GSL device");
                self.gsl_device = Some(idx);
            }
        }
        self.devices.push(device);
        idx
    }

    /// The device used to reach `next_hop`: the matching ISL device when one
    /// exists, else the GSL device.
    pub fn device_for(&self, next_hop: NodeId) -> Option<usize> {
        let isl = self.isl_device_of.iter().find(|&&(peer, _)| peer == next_hop);
        isl.map(|&(_, idx)| idx).or(self.gsl_device)
    }

    /// The GSL device index, if the node has one.
    pub fn gsl_device(&self) -> Option<usize> {
        self.gsl_device
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
    use hypatia_util::DataRate;

    fn isl(peer: u32) -> Device {
        Device::new(DeviceKind::Isl { peer: NodeId(peer) }, DataRate::from_mbps(10), 100, None)
    }
    fn gsl() -> Device {
        Device::new(DeviceKind::Gsl, DataRate::from_mbps(10), 100, None)
    }

    #[test]
    fn device_selection_prefers_isl() {
        let mut n = Node::new(NodeId(0));
        let i1 = n.add_device(isl(1));
        let i2 = n.add_device(isl(2));
        let g = n.add_device(gsl());
        assert_eq!(n.device_for(NodeId(1)), Some(i1));
        assert_eq!(n.device_for(NodeId(2)), Some(i2));
        // Non-peer → GSL fallback.
        assert_eq!(n.device_for(NodeId(99)), Some(g));
        assert_eq!(n.gsl_device(), Some(g));
    }

    #[test]
    fn no_gsl_no_fallback() {
        let mut n = Node::new(NodeId(0));
        n.add_device(isl(1));
        assert_eq!(n.device_for(NodeId(5)), None);
    }

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

    #[test]
    #[should_panic]
    fn second_gsl_panics() {
        let mut n = Node::new(NodeId(0));
        n.add_device(gsl());
        n.add_device(gsl());
    }

    #[test]
    #[should_panic]
    fn duplicate_isl_peer_panics() {
        let mut n = Node::new(NodeId(0));
        n.add_device(isl(4));
        n.add_device(isl(4));
    }
}
