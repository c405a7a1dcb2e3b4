//! The rack fabric: finite-bandwidth directed links with hop-by-hop
//! serialization, FIFO egress queues, and per-link accounting.
//!
//! [`Fabric`] marries a [`RackTopology`] to one serialization pipe per
//! directed link and owns every per-link fact the rack reports: rate, bytes
//! carried, busy time and egress queue depth. It prices every topology,
//! the single-switch flat rack included. Its one booking primitive is
//! [`Fabric::hop`]: a message that reaches a link's transmitting end at
//! `at` pays the switch pipeline (on a switch egress), serializes after any
//! traffic already queued there (stalling the *message* at that port, never
//! its sender), then propagates. A caller that books each hop at the
//! simulated time the message reaches it sees every link in time order;
//! the rack does exactly that, one event per hop. [`Fabric::send`] is the
//! fold of `hop` over a precomputed path ([`RackTopology::path`]), booking
//! every hop at once. Every charge derives from the message's byte count
//! and the configured bandwidths; there are no flat per-message magic
//! constants.

use crate::packet::Endpoint;
use crate::switch::SwitchConfig;
use crate::topology::{RackTopology, TopoNode};
use pulse_sim::{SerialResource, SimTime};
use std::collections::VecDeque;

/// Host-link timing parameters. Every charge a host link makes is a pure
/// function of the message's byte count and these parameters: it
/// serializes exactly the bytes handed to it (no framing overhead).
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// One-way propagation incl. NIC processing on both ends of the hop.
    pub propagation: SimTime,
    /// Bandwidth in bits per second.
    pub bits_per_sec: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            // NIC tx + PHY + wire for one endpoint↔switch hop; calibrated so
            // one endpoint→switch→endpoint crossing plus switch pipeline
            // lands in the paper's observed 3.5–5 µs per node-crossing.
            propagation: SimTime::from_micros(1) + SimTime::from_nanos(500),
            bits_per_sec: 100_000_000_000,
        }
    }
}

/// Bandwidth/latency parameters for every link and switch in a [`Fabric`].
///
/// Host-egress hops serialize at [`LinkConfig`] bandwidth; switch-egress
/// hops serialize at [`SwitchConfig`] port bandwidth after its pipeline
/// latency. Every hop then adds the link's propagation delay.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricConfig {
    /// NIC/link parameters for host-attached hops.
    pub link: LinkConfig,
    /// Switch parameters for switch-egress hops.
    pub switch: SwitchConfig,
}

/// One directed link: its serialization pipe, its egress FIFO, and the
/// switch pipeline a message pays before it (zero on a host egress).
#[derive(Debug, Clone)]
struct Pipe {
    wire: SerialResource,
    pipeline: SimTime,
    /// Service-completion times of messages currently queued or in
    /// flight, kept FIFO so depth can be read off at enqueue time.
    queue: VecDeque<SimTime>,
    max_depth: usize,
}

impl Pipe {
    /// Serializes `bytes` that reach the link's transmitting end at `at`,
    /// after the pipeline and behind whatever is already queued there;
    /// returns when the last byte leaves.
    fn book(&mut self, at: SimTime, bytes: u64) -> SimTime {
        let ready = at + self.pipeline;
        let end = self.wire.acquire(ready, bytes).end;
        while self.queue.front().is_some_and(|&done| done <= ready) {
            self.queue.pop_front();
        }
        self.queue.push_back(end);
        self.max_depth = self.max_depth.max(self.queue.len());
        end
    }
}

/// A rack fabric: topology + per-directed-link occupancy state.
#[derive(Debug)]
pub struct Fabric {
    topo: RackTopology,
    cfg: FabricConfig,
    pipes: Vec<Pipe>,
}

impl Fabric {
    /// Builds a fabric over `topo` with one serialization pipe per directed
    /// link.
    pub fn new(topo: RackTopology, cfg: FabricConfig) -> Fabric {
        let pipes = topo
            .links()
            .iter()
            .map(|l| {
                let (bits_per_sec, pipeline) = match l.from {
                    TopoNode::Host(_) => (cfg.link.bits_per_sec, SimTime::ZERO),
                    TopoNode::Switch(_) => {
                        (cfg.switch.port_bits_per_sec, cfg.switch.pipeline_latency)
                    }
                };
                Pipe {
                    wire: SerialResource::new(bits_per_sec),
                    pipeline,
                    queue: VecDeque::new(),
                    max_depth: 0,
                }
            })
            .collect();
        Fabric { topo, cfg, pipes }
    }

    /// The geometry this fabric prices.
    pub fn topology(&self) -> &RackTopology {
        &self.topo
    }

    /// Books one hop: `bytes` reach directed link `link`'s transmitting
    /// end at `at`, pay the switch pipeline on a switch egress, serialize
    /// behind whatever is already queued on the link (per-hop FIFO stall)
    /// and propagate. Returns when the message reaches the link's far end.
    pub fn hop(&mut self, at: SimTime, link: usize, bytes: u64) -> SimTime {
        self.pipes[link].book(at, bytes) + self.cfg.link.propagation
    }

    /// Sends `bytes` from `src` to `dst` and returns the arrival time at
    /// `dst`: the fold of [`Fabric::hop`] over the precomputed path, each
    /// hop booked from the previous hop's arrival. Only the first hop
    /// occupies the sender.
    ///
    /// Every hop is booked now, even hops the message reaches much later,
    /// so a message that reaches a shared link earlier but is booked
    /// afterwards queues behind this one. The rack therefore books packets
    /// and switch notices one [`Fabric::hop`] per event, and calls `send`
    /// only for two background streams off the request path: a replicated
    /// store's fan-out to its other copies, and re-replication chunks.
    ///
    /// Returns `None`, booking nothing, when either endpoint is not on the
    /// fabric.
    pub fn send(
        &mut self,
        now: SimTime,
        src: Endpoint,
        dst: Endpoint,
        bytes: u64,
    ) -> Option<SimTime> {
        let path = self.topo.path(src, dst)?;
        let prop = self.cfg.link.propagation;
        Some(
            path.iter()
                .fold(now, |at, &lid| self.pipes[lid].book(at, bytes) + prop),
        )
    }

    /// Peak busy time over the links *into CPU hosts* — the downlinks
    /// RPC-style bouncing congests under incast — as a fraction of
    /// `[0, horizon]`. Not capped at 1.0: demand past a link's capacity
    /// reads above 1.0.
    pub fn cpu_downlink_demand(&self, horizon: SimTime) -> f64 {
        self.topo
            .links()
            .iter()
            .zip(&self.pipes)
            .filter(|(l, _)| matches!(l.to, TopoNode::Host(Endpoint::Cpu(_))))
            .map(|(_, p)| p.wire.demand(horizon))
            .fold(0.0, f64::max)
    }

    /// Messages queued or in service at `link`'s egress FIFO at `now`
    /// (entries whose service completes after `now`; the FIFO is pruned
    /// lazily, so stale completed entries are filtered here).
    pub fn queue_depth_at(&self, link: usize, now: SimTime) -> usize {
        self.pipes[link]
            .queue
            .iter()
            .filter(|&&end| end > now)
            .count()
    }

    /// Deepest any link's egress FIFO ever got.
    pub fn max_queue_depth(&self) -> usize {
        self.pipes.iter().map(|p| p.max_depth).max().unwrap_or(0)
    }

    /// Total payload bytes hosts injected into the fabric (each message
    /// counted once, on its origin's up-link).
    pub fn host_injected_bytes(&self) -> u64 {
        self.topo
            .links()
            .iter()
            .zip(&self.pipes)
            .filter(|(l, _)| matches!(l.from, TopoNode::Host(_)))
            .map(|(_, p)| p.wire.bytes_moved())
            .sum()
    }

    /// Total payload bytes serialized onto directed link `link`.
    pub fn link_bytes(&self, link: usize) -> u64 {
        self.pipes[link].wire.bytes_moved()
    }

    /// Serialization rate of directed link `link`: the NIC rate for a host
    /// egress, the switch port rate for a switch egress.
    pub fn link_bits_per_sec(&self, link: usize) -> u64 {
        self.pipes[link].wire.bits_per_sec()
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
    fn flat_fabric_matches_the_single_switch_hop_arithmetic() {
        // One message over an idle flat fabric costs tx serialization +
        // propagation + switch pipeline + port serialization + propagation.
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
        let up = fab.topology().uplink(Endpoint::Cpu(0)).unwrap();
        let small = fab
            .send(t0, Endpoint::Cpu(0), Endpoint::Cpu(1), 64)
            .unwrap();
        // The second (tiny, different-path) send had to wait only for the
        // first message's *up-link* serialization, not its full transit.
        let ser_big = SimTime::serialization(1 << 20, fab.link_bits_per_sec(up));
        let ser_small = SimTime::serialization(64, fab.link_bits_per_sec(up));
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
        let last = *arrivals.last().unwrap();
        assert!(fab.cpu_downlink_demand(last) > 0.0);
        assert_eq!(fab.host_injected_bytes(), 4 * 4096);
        let down = fab.topology().downlink(Endpoint::Cpu(0)).unwrap();
        assert_eq!(fab.link_bytes(down), 4 * 4096);
        let cfg = FabricConfig::default();
        assert_eq!(fab.link_bits_per_sec(down), cfg.switch.port_bits_per_sec);
        assert_eq!(fab.link_bits_per_sec(down - 1), cfg.link.bits_per_sec);
        // Demand is busy time over the horizon, uncapped: over a horizon
        // shorter than the burst's wire time it reads above 1.0.
        let wire = SimTime::serialization(4 * 4096, cfg.switch.port_bits_per_sec);
        let short = SimTime::from_picos(wire.as_picos() / 2);
        assert!((fab.cpu_downlink_demand(short) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_endpoints_do_not_route() {
        let mut fab = leaf_spine_fabric();
        assert!(fab
            .send(SimTime::ZERO, Endpoint::Cpu(0), Endpoint::Mem(9), 64)
            .is_none());
        assert_eq!(fab.link_bytes(0), 0, "a failed send books nothing");
        assert!(fab
            .send(SimTime::ZERO, Endpoint::Mem(0), Endpoint::Cpu(5), 64)
            .is_none());
    }

    #[test]
    fn default_hop_is_in_band() {
        // One-way hop should be ~1.5 us so that a memory-node crossing
        // (mem -> switch -> mem, two hops + pipeline) is 3.5-5 us.
        let us = LinkConfig::default().propagation.as_micros_f64();
        assert!((1.0..2.5).contains(&us), "propagation {us} us");
    }
}
