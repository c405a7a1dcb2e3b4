//! Pins `TopologySpec::build`'s precomputed route table to an on-demand
//! reference: links cabled one `add_duplex` at a time into a
//! `(from, to) → id` map, and each path walked per wiring at query time.
//!
//! Link ids name the trace's link tracks and its `WireHop` spans, so the
//! table must match the reference id for id, not just hop for hop.

use pulse_net::{DirectedLink, Endpoint, RackTopology, TopoNode, TopologySpec};
use std::collections::HashMap;

/// The on-demand topology: link table, link-id map, endpoint→edge map.
struct Reference {
    spec: TopologySpec,
    switches: usize,
    links: Vec<DirectedLink>,
    link_ids: HashMap<(TopoNode, TopoNode), usize>,
    ports: HashMap<Endpoint, usize>,
}

impl Reference {
    fn new(spec: TopologySpec, roster: &[Endpoint]) -> Reference {
        let (edges, switches) = match spec {
            TopologySpec::Flat => (1, 1),
            TopologySpec::Tor { racks } => (racks, racks + 1),
            TopologySpec::LeafSpine { leaves, spines } => (leaves, leaves + spines),
            TopologySpec::Ring { switches } => (switches, switches),
        };
        let mut r = Reference {
            spec,
            switches,
            links: Vec::new(),
            link_ids: HashMap::new(),
            ports: HashMap::new(),
        };
        for &ep in roster {
            let edge = match ep {
                Endpoint::Cpu(c) => c % edges,
                Endpoint::Mem(n) => n % edges,
            };
            r.ports.insert(ep, edge);
            r.add_duplex(TopoNode::Host(ep), TopoNode::Switch(edge));
        }
        match spec {
            TopologySpec::Flat => {}
            TopologySpec::Tor { racks } => {
                for rack in 0..racks {
                    r.add_duplex(TopoNode::Switch(rack), TopoNode::Switch(racks));
                }
            }
            TopologySpec::LeafSpine { leaves, spines } => {
                for l in 0..leaves {
                    for s in 0..spines {
                        r.add_duplex(TopoNode::Switch(l), TopoNode::Switch(leaves + s));
                    }
                }
            }
            TopologySpec::Ring { switches } => {
                if switches > 1 {
                    for i in 0..switches {
                        r.add_duplex(TopoNode::Switch(i), TopoNode::Switch((i + 1) % switches));
                    }
                }
            }
        }
        r
    }

    fn add_duplex(&mut self, a: TopoNode, b: TopoNode) {
        for (from, to) in [(a, b), (b, a)] {
            let id = self.links.len();
            self.links.push(DirectedLink { from, to });
            self.link_ids.insert((from, to), id);
        }
    }

    fn link(&self, from: TopoNode, to: TopoNode) -> usize {
        self.link_ids[&(from, to)]
    }

    fn ep_key(ep: Endpoint) -> usize {
        match ep {
            Endpoint::Cpu(c) => 2 * c,
            Endpoint::Mem(n) => 2 * n + 1,
        }
    }

    fn switch_walk(&self, a: usize, b: usize, src: Endpoint, dst: Endpoint) -> Vec<usize> {
        if a == b {
            return vec![a];
        }
        match self.spec {
            TopologySpec::Flat => vec![a],
            TopologySpec::Tor { .. } => vec![a, self.switches - 1, b],
            TopologySpec::LeafSpine { leaves, spines } => {
                let s = (Self::ep_key(src) + Self::ep_key(dst)) % spines;
                vec![a, leaves + s, b]
            }
            TopologySpec::Ring { switches: n } => {
                let cw = (b + n - a) % n;
                let ccw = n - cw;
                let clockwise = cw < ccw || (cw == ccw && a < b);
                let mut walk = vec![a];
                let mut at = a;
                while at != b {
                    at = if clockwise {
                        (at + 1) % n
                    } else {
                        (at + n - 1) % n
                    };
                    walk.push(at);
                }
                walk
            }
        }
    }

    fn path(&self, src: Endpoint, dst: Endpoint) -> Option<Vec<usize>> {
        let a = *self.ports.get(&src)?;
        let b = *self.ports.get(&dst)?;
        let walk = self.switch_walk(a, b, src, dst);
        let mut hops = vec![self.link(TopoNode::Host(src), TopoNode::Switch(walk[0]))];
        for pair in walk.windows(2) {
            hops.push(self.link(TopoNode::Switch(pair[0]), TopoNode::Switch(pair[1])));
        }
        hops.push(self.link(TopoNode::Switch(*walk.last().unwrap()), TopoNode::Host(dst)));
        Some(hops)
    }
}

fn spec_grid() -> Vec<TopologySpec> {
    let mut specs = vec![TopologySpec::Flat];
    specs.extend((1..=3).map(|racks| TopologySpec::Tor { racks }));
    for leaves in 1..=3 {
        specs.extend((1..=3).map(|spines| TopologySpec::LeafSpine { leaves, spines }));
    }
    specs.extend((1..=6).map(|switches| TopologySpec::Ring { switches }));
    specs
}

fn assert_matches_reference(spec: TopologySpec, cpus: usize, mems: usize) {
    let roster: Vec<Endpoint> = (0..cpus)
        .map(Endpoint::Cpu)
        .chain((0..mems).map(Endpoint::Mem))
        .collect();
    let topo: RackTopology = spec.build(cpus, mems);
    let reference = Reference::new(spec, &roster);
    let at = format!("{spec:?} over {cpus} CPUs + {mems} memory nodes");

    assert_eq!(topo.switches(), reference.switches, "{at}: switch count");
    assert_eq!(topo.links(), &reference.links[..], "{at}: link table");
    for &src in &roster {
        let up = reference.link(TopoNode::Host(src), TopoNode::Switch(reference.ports[&src]));
        assert_eq!(topo.uplink(src), Some(up), "{at}: {src} up-link");
        for &dst in &roster {
            assert_eq!(
                topo.path(src, dst),
                reference.path(src, dst).as_deref(),
                "{at}: {src}->{dst}"
            );
        }
    }

    let off_roster = [Endpoint::Cpu(cpus), Endpoint::Mem(mems), Endpoint::Mem(100)];
    for off in off_roster {
        assert_eq!(topo.uplink(off), None, "{at}: {off} is off the roster");
        for &on in &roster {
            assert_eq!(topo.path(off, on), None, "{at}: {off}->{on}");
            assert_eq!(topo.path(on, off), None, "{at}: {on}->{off}");
        }
        assert_eq!(topo.path(off, off), None, "{at}: {off}->{off}");
    }
}

#[test]
fn precomputed_routes_match_the_on_demand_walk() {
    for spec in spec_grid() {
        for cpus in 0..=3 {
            for mems in 1..=8 {
                assert_matches_reference(spec, cpus, mems);
            }
        }
    }
}
