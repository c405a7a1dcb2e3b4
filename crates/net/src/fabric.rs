//! The routed fabric: finite-bandwidth directed links with hop-by-hop
//! serialization, FIFO egress queues, and per-link accounting.
//!
//! [`Fabric`] marries a [`Topology`](crate::Topology) to per-directed-link
//! [`SerialResource`] pipes. A message advances hop by hop with a time
//! cursor: each egress port serializes the message after any traffic already
//! queued there (stalling the *message* at that port), but the original
//! sender is only occupied for its own first-hop serialization — multi-hop
//! transit never blocks the sender, the lesson the hwgc-soft interconnect
//! journey records. Receive/forward costs are derived from the message's
//! byte count and the configured bandwidths; there are no flat per-message
//! magic constants.

use crate::link::LinkConfig;
use crate::packet::Endpoint;
use crate::switch::SwitchConfig;
use crate::topology::{RackTopology, TopoNode, Topology};
use pulse_sim::{SerialResource, SimTime};
use std::collections::VecDeque;

/// Bandwidth/latency parameters for every link and switch in a [`Fabric`].
///
/// Host-egress (and host-ingress) hops serialize at [`LinkConfig`] bandwidth
/// and add its propagation delay; switch-egress hops serialize at
/// [`SwitchConfig`] port bandwidth after its pipeline latency — the same
/// constants the flat model prices, applied per hop.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricConfig {
    /// NIC/link parameters for host-attached hops.
    pub link: LinkConfig,
    /// Switch parameters for switch-egress hops.
    pub switch: SwitchConfig,
}

/// Observed state of one directed link, for reports and tests.
#[derive(Debug, Clone, Copy)]
pub struct LinkStat {
    /// Which cable direction this is.
    pub from: TopoNode,
    /// Receiving side of the cable direction.
    pub to: TopoNode,
    /// Total payload bytes serialized onto the link.
    pub bytes: u64,
    /// Deepest the link's egress FIFO ever got (messages queued or in
    /// service at once).
    pub max_queue_depth: usize,
}

/// A routed rack fabric: topology + per-directed-link occupancy state.
#[derive(Debug)]
pub struct Fabric {
    topo: RackTopology,
    cfg: FabricConfig,
    pipes: Vec<SerialResource>,
    /// Per link: service-completion times of messages currently queued or in
    /// flight, kept FIFO so depth can be read off at enqueue time.
    queues: Vec<VecDeque<SimTime>>,
    max_depth: Vec<usize>,
    bytes: Vec<u64>,
}

impl Fabric {
    /// Builds a fabric over `topo` with one serialization pipe per directed
    /// link.
    pub fn new(topo: RackTopology, cfg: FabricConfig) -> Fabric {
        let pipes = topo
            .links()
            .iter()
            .map(|l| {
                let bps = match l.from {
                    TopoNode::Host(_) => cfg.link.bits_per_sec,
                    TopoNode::Switch(_) => cfg.switch.port_bits_per_sec,
                };
                SerialResource::new(bps)
            })
            .collect::<Vec<_>>();
        let n = pipes.len();
        Fabric {
            topo,
            cfg,
            pipes,
            queues: vec![VecDeque::new(); n],
            max_depth: vec![0; n],
            bytes: vec![0; n],
        }
    }

    /// The geometry this fabric prices.
    pub fn topology(&self) -> &RackTopology {
        &self.topo
    }

    /// Sends `bytes` from `src` to `dst`, advancing hop by hop, and returns
    /// the arrival time at `dst`.
    ///
    /// Each hop: a switch egress first pays the switch pipeline latency, then
    /// the message serializes on the hop's pipe *after* whatever is already
    /// queued there (per-hop FIFO stall), then propagates to the next vertex.
    /// Only the first hop occupies the sender's own egress pipe — downstream
    /// congestion delays the message, never the sender. Returns `None` when
    /// either endpoint is not on the fabric.
    pub fn send(
        &mut self,
        now: SimTime,
        src: Endpoint,
        dst: Endpoint,
        bytes: u64,
    ) -> Option<SimTime> {
        let path = self.topo.path(src, dst)?;
        let mut cursor = now;
        for lid in path {
            if let TopoNode::Switch(_) = self.topo.links()[lid].from {
                cursor += self.cfg.switch.pipeline_latency;
            }
            let grant = self.pipes[lid].acquire(cursor, bytes);
            let q = &mut self.queues[lid];
            while q.front().is_some_and(|&end| end <= cursor) {
                q.pop_front();
            }
            q.push_back(grant.end);
            self.max_depth[lid] = self.max_depth[lid].max(q.len());
            self.bytes[lid] += bytes;
            cursor = grant.end + self.cfg.link.propagation;
        }
        Some(cursor)
    }

    /// Busy fraction of one directed link over `[0, horizon]`.
    pub fn link_utilization(&self, link: usize, horizon: SimTime) -> f64 {
        self.pipes[link].utilization(horizon)
    }

    /// Peak busy fraction over the links *into CPU hosts* — the downlinks
    /// RPC-style bouncing congests under incast.
    pub fn cpu_downlink_peak(&self, horizon: SimTime) -> f64 {
        self.topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.to, TopoNode::Host(Endpoint::Cpu(_))))
            .map(|(i, _)| self.pipes[i].utilization(horizon))
            .fold(0.0, f64::max)
    }

    /// Messages queued or in service at `link`'s egress FIFO at `now`
    /// (entries whose service completes after `now`; the FIFO is pruned
    /// lazily, so stale completed entries are filtered here).
    pub fn queue_depth_at(&self, link: usize, now: SimTime) -> usize {
        self.queues[link].iter().filter(|&&end| end > now).count()
    }

    /// Deepest any link's egress FIFO ever got.
    pub fn max_queue_depth(&self) -> usize {
        self.max_depth.iter().copied().max().unwrap_or(0)
    }

    /// Total payload bytes hosts injected into the fabric (each message
    /// counted once, on its origin's up-link).
    pub fn host_injected_bytes(&self) -> u64 {
        self.topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l.from, TopoNode::Host(_)))
            .map(|(i, _)| self.bytes[i])
            .sum()
    }

    /// Per-directed-link observations, indexed by link id.
    pub fn link_stats(&self) -> Vec<LinkStat> {
        self.topo
            .links()
            .iter()
            .enumerate()
            .map(|(i, l)| LinkStat {
                from: l.from,
                to: l.to,
                bytes: self.bytes[i],
                max_queue_depth: self.max_depth[i],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologySpec;

    fn leaf_spine_fabric() -> Fabric {
        let topo = TopologySpec::LeafSpine {
            leaves: 2,
            spines: 2,
        }
        .build(2, 4);
        Fabric::new(topo, FabricConfig::default())
    }

    #[test]
    fn flat_fabric_matches_the_legacy_hop_arithmetic() {
        // One message over an idle flat fabric must cost exactly what the
        // legacy path prices: tx serialization + propagation + switch
        // pipeline + port serialization + propagation.
        let cfg = FabricConfig::default();
        let topo = TopologySpec::Flat.build(1, 1);
        let mut fab = Fabric::new(topo, cfg);
        let bytes = 1_000;
        let t0 = SimTime::from_micros(5);
        let arrive = fab
            .send(t0, Endpoint::Cpu(0), Endpoint::Mem(0), bytes)
            .unwrap();
        let ser_link = SimTime::serialization(bytes, cfg.link.bits_per_sec);
        let ser_port = SimTime::serialization(bytes, cfg.switch.port_bits_per_sec);
        let expect = t0
            + ser_link
            + cfg.link.propagation
            + cfg.switch.pipeline_latency
            + ser_port
            + cfg.link.propagation;
        assert_eq!(arrive, expect);
    }

    #[test]
    fn multi_hop_transit_does_not_stall_the_sender() {
        let mut fab = leaf_spine_fabric();
        // Cpu(0) (leaf 0) to Mem(1) (leaf 1): 4 hops. The sender's up-link
        // frees after its own serialization, regardless of spine congestion.
        let t0 = SimTime::ZERO;
        // A huge transfer departs Cpu(0) toward Mem(1) (4 hops via spine 1,
        // since Cpu→Mem key sums are odd). Then a tiny message leaves the
        // same sender for Cpu(1), which rides spine 0 — it shares only the
        // sender's up-link with the big transfer.
        fab.send(t0, Endpoint::Cpu(0), Endpoint::Mem(1), 1 << 20)
            .unwrap();
        let up = fab
            .topology()
            .path(Endpoint::Cpu(0), Endpoint::Mem(1))
            .unwrap()[0];
        let small = fab
            .send(t0, Endpoint::Cpu(0), Endpoint::Cpu(1), 64)
            .unwrap();
        // The second (tiny, different-path) send had to wait only for the
        // first message's *up-link* serialization, not its full transit.
        let ser_big = SimTime::serialization(1 << 20, fab.pipes[up].bits_per_sec());
        let ser_small = SimTime::serialization(64, fab.pipes[up].bits_per_sec());
        let cfg = FabricConfig::default();
        let floor = t0 + ser_big + ser_small + cfg.link.propagation;
        assert!(
            small >= floor,
            "small send must queue behind big on the up-link"
        );
        let big_arrival = t0
            + ser_big
            + cfg.link.propagation
            + cfg.switch.pipeline_latency
            + SimTime::serialization(1 << 20, cfg.switch.port_bits_per_sec);
        assert!(
            small < big_arrival,
            "small send to another leaf must not wait for the big transfer's full transit"
        );
    }

    #[test]
    fn busy_egress_stalls_the_message_fifo_and_depth_is_recorded() {
        let mut fab = leaf_spine_fabric();
        // Incast: every memory node fires at the same CPU at t=0. The CPU
        // down-link serializes them FIFO; arrivals are strictly increasing
        // and the down-link queue depth reflects the burst.
        let mut arrivals: Vec<SimTime> = (0..4)
            .map(|n| {
                fab.send(SimTime::ZERO, Endpoint::Mem(n), Endpoint::Cpu(0), 4096)
                    .unwrap()
            })
            .collect();
        let sorted = {
            let mut s = arrivals.clone();
            s.sort();
            s
        };
        assert_eq!(arrivals, sorted);
        arrivals.dedup();
        assert_eq!(arrivals.len(), 4, "FIFO serialization separates arrivals");
        assert!(
            fab.max_queue_depth() >= 2,
            "incast must queue at some egress"
        );
        assert!(fab.cpu_downlink_peak(*arrivals.last().unwrap()) > 0.0);
        assert_eq!(fab.host_injected_bytes(), 4 * 4096);
    }

    #[test]
    fn unknown_endpoints_do_not_route() {
        let mut fab = leaf_spine_fabric();
        assert!(fab
            .send(SimTime::ZERO, Endpoint::Cpu(0), Endpoint::Mem(9), 64)
            .is_none());
    }
}
