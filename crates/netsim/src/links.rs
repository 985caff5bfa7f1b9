//! The link table: one dense id per directed link device.
//!
//! The paper's model gives each satellite one device per ISL (a fixed
//! peer) and one GSL device that serializes all of its ground↔satellite
//! traffic; a ground station owns just the GSL device. This table is the
//! only code that numbers those devices. Node `n` owns the ids
//! `first[n]..first[n + 1]`: one per ISL peer in `Constellation::isls`
//! order, then its GSL device. The simulator keeps its devices in one
//! `Vec` indexed by link id, the fluid solver its per-link capacity, load
//! and residual arrays, and forwarding, the fluid path walk and every
//! reader find a hop's device with the one [`LinkTable::of_hop`].

use hypatia_constellation::{Constellation, NodeId};
use std::ops::Range;

/// Sentinel peer of a node's shared GSL device in a [`LinkKey`] (ISL
/// links carry the actual peer node index).
pub(crate) const GSL_PEER: u32 = u32::MAX;

/// A directed link device by what it connects: `(node, peer)` for an ISL,
/// `(node, GSL_PEER)` for the node's GSL device. The fluid solver's
/// checkpoint names links this way, so an image does not depend on ids.
pub(crate) type LinkKey = (u32, u32);

/// Dense ids for every directed link device of one constellation.
#[derive(Debug, Default)]
pub struct LinkTable {
    /// Prefix offsets over nodes, `num_nodes + 1` long.
    first: Vec<u32>,
    /// Owning node of each link.
    node: Vec<u32>,
    /// The ISL peer of each link, or [`GSL_PEER`].
    peer: Vec<u32>,
    /// Every link id, in ascending [`LinkKey`] order.
    pub(crate) by_key: Vec<u32>,
    num_satellites: u32,
}

impl LinkTable {
    /// Number the directed link devices of `constellation`. Panics on an
    /// ISL listed twice: a node has at most one device towards a peer.
    pub(crate) fn build(constellation: &Constellation) -> LinkTable {
        let n = constellation.num_nodes();
        let mut first = vec![0u32; n + 1];
        for &(a, b) in &constellation.isls {
            first[a as usize + 1] += 1;
            first[b as usize + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i] + 1;
        }
        let total = first[n] as usize;
        let mut peer = vec![GSL_PEER; total];
        let mut next = first.clone();
        for &(a, b) in &constellation.isls {
            for (from, to) in [(a, b), (b, a)] {
                peer[next[from as usize] as usize] = to;
                next[from as usize] += 1;
            }
        }
        let mut node = vec![0u32; total];
        for i in 0..n {
            node[first[i] as usize..first[i + 1] as usize].fill(i as u32);
        }
        let mut by_key: Vec<u32> = (0..total as u32).collect();
        by_key.sort_unstable_by_key(|&l| (node[l as usize], peer[l as usize]));
        let key = |l: u32| (node[l as usize], peer[l as usize]);
        if let Some(w) = by_key.windows(2).find(|w| key(w[0]) == key(w[1])) {
            panic!("duplicate ISL device: {:?}", key(w[0]));
        }
        let num_satellites = constellation.num_satellites() as u32;
        LinkTable { first, node, peer, by_key, num_satellites }
    }

    /// Number of links (directed link devices).
    pub(crate) fn len(&self) -> usize {
        self.peer.len()
    }

    /// Nodes the table numbers links for.
    pub(crate) fn num_nodes(&self) -> usize {
        self.first.len().saturating_sub(1)
    }

    /// The links of `node`, in device order: its ISLs, then its GSL device.
    pub(crate) fn of_node(&self, node: NodeId) -> Range<usize> {
        self.first[node.index()] as usize..self.first[node.index() + 1] as usize
    }

    /// The id of `node`'s first link: a link's index among its node's
    /// devices is its id less this.
    #[inline]
    pub(crate) fn first(&self, node: u32) -> u32 {
        self.first[node as usize]
    }

    /// The node that transmits on `link`.
    pub fn node(&self, link: u32) -> NodeId {
        NodeId(self.node[link as usize])
    }

    /// The fixed peer of an ISL link; `None` for a GSL device, whose peer
    /// is chosen per packet.
    pub fn peer(&self, link: u32) -> Option<NodeId> {
        Some(self.peer[link as usize]).filter(|&p| p != GSL_PEER).map(NodeId)
    }

    /// True when `link` is its node's GSL device.
    #[inline]
    pub(crate) fn is_gsl(&self, link: u32) -> bool {
        self.peer[link as usize] == GSL_PEER
    }

    pub(crate) fn key(&self, link: u32) -> LinkKey {
        (self.node[link as usize], self.peer[link as usize])
    }

    /// The link a hop `a → b` serializes through: `a`'s ISL device
    /// towards `b` when both are satellites, else `a`'s GSL device.
    /// Panics on a hop between satellites that share no ISL.
    #[inline]
    pub fn of_hop(&self, a: NodeId, b: NodeId) -> u32 {
        let gsl = self.first[a.index() + 1] - 1;
        if a.0 >= self.num_satellites || b.0 >= self.num_satellites {
            return gsl;
        }
        (self.first[a.index()]..gsl)
            .find(|&l| self.peer[l as usize] == b.0)
            .expect("satellite-to-satellite hop over no ISL")
    }

    /// The link named by a checkpointed key, if this constellation has it.
    pub(crate) fn of_key(&self, (node, peer): LinkKey) -> Option<u32> {
        let end = *self.first.get(node as usize + 1)?;
        (self.first[node as usize]..end).find(|&l| self.peer[l as usize] == peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_constellation::ground::GroundStation;
    use hypatia_constellation::gsl::GslConfig;
    use hypatia_constellation::isl::IslLayout;
    use hypatia_constellation::shell::ShellSpec;

    fn constellation() -> Constellation {
        Constellation::build(
            "linktest",
            vec![ShellSpec::new("A", 550.0, 6, 6, 53.0)],
            IslLayout::PlusGrid,
            vec![GroundStation::new("a", 5.0, 5.0)],
            GslConfig::new(10.0),
        )
    }

    #[test]
    fn device_selection_prefers_isl() {
        let c = constellation();
        let table = LinkTable::build(&c);
        let (a, b) = c.isls[3];
        let isl = table.of_hop(NodeId(a), NodeId(b));
        assert_eq!((table.node(isl), table.peer(isl)), (NodeId(a), Some(NodeId(b))));
        // Towards a ground station, and from one: the GSL device, last.
        let (gs, own) = (c.gs_node(0), table.of_node(NodeId(a)));
        let gsl = table.of_hop(NodeId(a), gs);
        assert_eq!((gsl as usize, table.peer(gsl)), (own.end - 1, None));
        let up = table.of_hop(gs, NodeId(a));
        assert_eq!(table.of_node(gs), up as usize..up as usize + 1, "a station owns its GSL only");
        assert_eq!(table.len(), 2 * c.isls.len() + c.num_nodes());
    }

    #[test]
    #[should_panic(expected = "duplicate ISL device")]
    fn duplicate_isl_peer_panics() {
        let mut c = constellation();
        let (a, b) = c.isls[0];
        c.isls.push((b, a));
        LinkTable::build(&c);
    }
}
