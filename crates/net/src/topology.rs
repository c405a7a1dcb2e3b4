//! Rack topologies: which switches exist, which directed links connect them,
//! and the hop path a message takes between two endpoints.
//!
//! A [`RackTopology`] is pure geometry — it knows nothing about bandwidth or
//! occupancy (that is [`crate::Fabric`]'s job). Paths are sequences of
//! **directed link ids**, so the forward and response directions of the same
//! physical cable are distinct resources: a host's up-link and down-link
//! are its NIC's two directions.
//!
//! [`TopologySpec::build`] computes every ordered endpoint pair's path once,
//! so [`RackTopology::path`] is a slice lookup. Link ids follow one order:
//! host cables first (CPUs, then memory nodes; each host's up-link before its
//! down-link), then leaf–spine cables, leaf-major. Trace link tracks are
//! named by these ids.
//!
//! Every path has *reverse-path symmetry*: the path from `dst` back to `src`
//! traverses the same switches in reverse order (over the opposite-direction
//! links). The leaf–spine wiring picks the spine by a hash symmetric in
//! `(src, dst)`, so the guarantee holds for every pair — the topology path
//! tests assert it exhaustively.

use crate::packet::Endpoint;
use std::collections::HashMap;

/// A vertex of the fabric graph: either a host endpoint or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopoNode {
    /// A CPU or memory node attached to an edge switch.
    Host(Endpoint),
    /// A switch, numbered `0..RackTopology::switches()`.
    Switch(usize),
}

/// One direction of a cable: an ordered `(from, to)` vertex pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectedLink {
    /// The transmitting side.
    pub from: TopoNode,
    /// The receiving side.
    pub to: TopoNode,
}

/// Shape of a fabric, without bandwidth parameters.
///
/// This is the `Copy` value that rides inside cluster and baseline configs;
/// [`TopologySpec::build`] expands it into a concrete [`RackTopology`] once
/// the endpoint roster (CPU and memory node counts) is known. Endpoints are
/// assigned to edge switches round-robin: `Cpu(i)` to switch `i % edges`,
/// `Mem(n)` to switch `n % edges`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologySpec {
    /// The single-switch rack: every path is the sender's up-link into
    /// switch 0, then the receiver's down-link.
    #[default]
    Flat,
    /// Leaf switches fully meshed to spine switches (2-tier Clos). The spine
    /// for a cross-leaf pair is chosen by a hash symmetric in `(src, dst)`.
    LeafSpine {
        /// Number of leaf (edge) switches. Must be ≥ 1.
        leaves: usize,
        /// Number of spine switches. Must be ≥ 1.
        spines: usize,
    },
}

impl TopologySpec {
    /// True when this spec routes through a multi-switch fabric (anything but
    /// [`TopologySpec::Flat`]).
    pub fn is_routed(self) -> bool {
        !matches!(self, TopologySpec::Flat)
    }

    /// Expands the spec into a concrete topology over `cpus` CPU nodes and
    /// `mems` memory nodes, computing the path of every ordered endpoint
    /// pair (`src == dst` included).
    ///
    /// # Panics
    ///
    /// Panics if a leaf or spine count is zero.
    pub fn build(self, cpus: usize, mems: usize) -> RackTopology {
        let (edges, switches) = match self {
            TopologySpec::Flat => (1, 1),
            TopologySpec::LeafSpine { leaves, spines } => {
                assert!(leaves >= 1, "leaf-spine topology needs at least one leaf");
                assert!(spines >= 1, "leaf-spine topology needs at least one spine");
                (leaves, leaves + spines)
            }
        };
        let edge_of = |ep: Endpoint| match ep {
            Endpoint::Cpu(c) => c % edges,
            Endpoint::Mem(n) => n % edges,
        };
        let roster: Vec<Endpoint> = (0..cpus)
            .map(Endpoint::Cpu)
            .chain((0..mems).map(Endpoint::Mem))
            .collect();

        let mut links = Vec::new();
        let mut cable = |a: TopoNode, b: TopoNode| {
            links.push(DirectedLink { from: a, to: b });
            links.push(DirectedLink { from: b, to: a });
        };
        for &ep in &roster {
            cable(TopoNode::Host(ep), TopoNode::Switch(edge_of(ep)));
        }
        if let TopologySpec::LeafSpine { leaves, spines } = self {
            for l in 0..leaves {
                for s in 0..spines {
                    cable(TopoNode::Switch(l), TopoNode::Switch(leaves + s));
                }
            }
        }

        let ids: HashMap<(TopoNode, TopoNode), usize> = links
            .iter()
            .enumerate()
            .map(|(i, l)| ((l.from, l.to), i))
            .collect();
        let mut offsets = Vec::with_capacity(roster.len() * roster.len() + 1);
        offsets.push(0);
        let mut hops = Vec::new();
        let mut walk = Vec::new();
        for &src in &roster {
            for &dst in &roster {
                self.switch_walk(edge_of(src), edge_of(dst), src, dst, &mut walk);
                let mut at = TopoNode::Host(src);
                for to in walk
                    .iter()
                    .map(|&s| TopoNode::Switch(s))
                    .chain([TopoNode::Host(dst)])
                {
                    hops.push(ids[&(at, to)]);
                    at = to;
                }
                offsets.push(hops.len());
            }
        }
        RackTopology {
            switches,
            cpus,
            mems,
            links,
            offsets,
            hops,
        }
    }

    /// Writes into `walk` the switch ids a message from `src` to `dst`
    /// crosses between their edge switches `a` and `b`, both included.
    fn switch_walk(self, a: usize, b: usize, src: Endpoint, dst: Endpoint, walk: &mut Vec<usize>) {
        walk.clear();
        walk.push(a);
        if a == b {
            return;
        }
        match self {
            TopologySpec::Flat => unreachable!("a flat rack has one switch"),
            TopologySpec::LeafSpine { leaves, spines } => {
                // A canonical endpoint index, summed so the choice is
                // symmetric in the pair.
                let key = |ep: Endpoint| match ep {
                    Endpoint::Cpu(c) => 2 * c,
                    Endpoint::Mem(n) => 2 * n + 1,
                };
                walk.extend([leaves + (key(src) + key(dst)) % spines, b]);
            }
        }
    }
}

/// A concrete topology: the directed link table plus every ordered endpoint
/// pair's path, computed once by [`TopologySpec::build`].
#[derive(Debug, Clone)]
pub struct RackTopology {
    switches: usize,
    cpus: usize,
    mems: usize,
    links: Vec<DirectedLink>,
    /// The path of roster pair `k = slot(src) * roster + slot(dst)` is
    /// `hops[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<usize>,
    hops: Vec<usize>,
}

impl RackTopology {
    /// Number of switches in the fabric.
    pub fn switches(&self) -> usize {
        self.switches
    }

    /// Every directed link, indexed by link id.
    pub fn links(&self) -> &[DirectedLink] {
        &self.links
    }

    /// The id of `ep`'s up-link (its first link, host to edge switch), or
    /// `None` when `ep` is not attached to the fabric.
    pub fn uplink(&self, ep: Endpoint) -> Option<usize> {
        self.slot(ep).map(|s| 2 * s)
    }

    /// The id of `ep`'s down-link (edge switch to host), or `None` when
    /// `ep` is not attached to the fabric.
    pub fn downlink(&self, ep: Endpoint) -> Option<usize> {
        self.slot(ep).map(|s| 2 * s + 1)
    }

    /// Directed-link ids a message from `src` to `dst` traverses, in order.
    ///
    /// Returns `None` when either endpoint is not attached to the fabric.
    pub fn path(&self, src: Endpoint, dst: Endpoint) -> Option<&[usize]> {
        let k = self.slot(src)? * (self.cpus + self.mems) + self.slot(dst)?;
        Some(&self.hops[self.offsets[k]..self.offsets[k + 1]])
    }

    /// `ep`'s position in the roster: CPUs, then memory nodes.
    fn slot(&self, ep: Endpoint) -> Option<usize> {
        match ep {
            Endpoint::Cpu(c) => (c < self.cpus).then_some(c),
            Endpoint::Mem(n) => (n < self.mems).then_some(self.cpus + n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster(cpus: usize, mems: usize) -> Vec<Endpoint> {
        (0..cpus)
            .map(Endpoint::Cpu)
            .chain((0..mems).map(Endpoint::Mem))
            .collect()
    }

    /// Every ordered endpoint pair must route over a loop-free path whose
    /// reverse is exactly the response path (same cables, opposite
    /// directions, reverse order) — the satellite-4 contract.
    fn assert_paths_symmetric_and_loop_free(topo: &RackTopology, eps: &[Endpoint]) {
        for &src in eps {
            for &dst in eps {
                if src == dst {
                    continue;
                }
                let fwd = topo.path(src, dst).expect("path exists");
                let rev = topo.path(dst, src).expect("reverse path exists");
                assert_eq!(fwd.len(), rev.len(), "{src}->{dst} asymmetric length");

                // Loop-free: the vertex sequence never repeats a node.
                let mut seen = vec![TopoNode::Host(src)];
                for &lid in fwd {
                    let l = topo.links()[lid];
                    assert_eq!(l.from, *seen.last().unwrap(), "{src}->{dst} not contiguous");
                    assert!(!seen.contains(&l.to), "{src}->{dst} revisits {:?}", l.to);
                    seen.push(l.to);
                }
                assert_eq!(*seen.last().unwrap(), TopoNode::Host(dst));

                // Response path = request path reversed, link by link.
                for (i, &lid) in fwd.iter().enumerate() {
                    let f = topo.links()[lid];
                    let r = topo.links()[rev[rev.len() - 1 - i]];
                    assert_eq!((f.from, f.to), (r.to, r.from), "{src}->{dst} hop {i}");
                }
            }
        }
    }

    #[test]
    fn flat_paths_are_the_single_switch_two_hop_paths() {
        let eps = roster(2, 4);
        let topo = TopologySpec::Flat.build(2, 4);
        assert_eq!(topo.switches(), 1);
        for &src in &eps {
            for &dst in &eps {
                if src == dst {
                    continue;
                }
                let p = topo.path(src, dst).unwrap();
                // Host up-link into switch 0, then switch 0 down-link to dst —
                // exactly the tx → forward shape the golden traces price.
                assert_eq!(p.len(), 2);
                assert_eq!(topo.links()[p[0]].from, TopoNode::Host(src));
                assert_eq!(topo.links()[p[0]].to, TopoNode::Switch(0));
                assert_eq!(topo.links()[p[1]].from, TopoNode::Switch(0));
                assert_eq!(topo.links()[p[1]].to, TopoNode::Host(dst));
            }
        }
        assert_paths_symmetric_and_loop_free(&topo, &eps);
    }

    #[test]
    fn leaf_spine_paths_are_loop_free_and_reversible() {
        for spines in 1..=3 {
            let eps = roster(3, 8);
            let topo = TopologySpec::LeafSpine { leaves: 2, spines }.build(3, 8);
            assert_eq!(topo.switches(), 2 + spines);
            assert_paths_symmetric_and_loop_free(&topo, &eps);
        }
    }

    #[test]
    fn spec_builds_cable_hosts_first_and_round_robin() {
        let spec = TopologySpec::LeafSpine {
            leaves: 2,
            spines: 2,
        };
        let topo = spec.build(2, 4);
        assert_eq!(topo.switches(), 4);
        assert!(spec.is_routed());
        assert!(!TopologySpec::Flat.is_routed());
        // Host cables come first: CPUs, then memory nodes, up before down.
        assert_eq!(topo.uplink(Endpoint::Cpu(1)), Some(2));
        assert_eq!(topo.uplink(Endpoint::Mem(2)), Some(8));
        assert_eq!(topo.uplink(Endpoint::Mem(9)), None);
        // Round-robin edges: Cpu(1) on leaf 1, Mem(2) on leaf 0.
        assert_eq!(topo.links()[2].to, TopoNode::Switch(1));
        assert_eq!(topo.links()[8].to, TopoNode::Switch(0));
    }
}
