//! # pulse-net
//!
//! The rack network substrate: the packet format iterator offloads travel
//! in, the programmable switch that routes them by `cur_ptr` (§5), and the
//! fabric that prices every link. §4.1's retransmission is not modelled: the rack
//! has no loss model, so no packet is ever dropped.
//!
//! Requests and responses deliberately share one format ([`IterPacket`]):
//! code + `cur_ptr` + scratchpad + status. A memory node that discovers the
//! next pointer is remote simply marks the packet in-flight and sends it
//! back to the switch, which re-routes it — the distributed-continuation
//! mechanism at the heart of the paper.
//!
//! ## Fabric semantics
//!
//! One [`Fabric`] prices every rack, the single-switch rack included:
//!
//! * **Topology kinds** ([`TopologySpec`] / [`RackTopology`]): `Flat` (one
//!   switch) and `LeafSpine` (2-tier Clos with a spine chosen by a hash
//!   symmetric in the endpoint pair). [`TopologySpec::build`] computes every
//!   endpoint pair's path once; the response path is the request path
//!   reversed, hop for hop, and paths are loop-free. Link ids put host
//!   cables first (CPUs, then memory nodes, up-link before down-link), then
//!   switch cables. A host's up-link and down-link are its NIC's two
//!   directions.
//! * **Stall rules** ([`Fabric::hop`]): each directed link is a
//!   finite-bandwidth serialization pipe with a FIFO of in-flight messages.
//!   A message that reaches a link books it: a busy egress stalls the
//!   *message* (it queues behind earlier traffic on that hop), but only the
//!   first hop occupies the sender — downstream congestion never blocks the
//!   origin, so multi-hop transit is pipelined exactly like a cut-through
//!   fabric. Switch-egress hops additionally pay the switch pipeline
//!   latency. The rack books each hop when the message gets there, so every
//!   link sees its traffic in time order; [`Fabric::send`] folds `hop` over
//!   a whole path at once, for callers with no event loop.
//! * **Utilization metrics**: per-directed-link byte counts and rates
//!   ([`Fabric::link_bytes`], [`Fabric::link_bits_per_sec`]), the peak
//!   busy time over links into CPU hosts ([`Fabric::cpu_downlink_demand`] —
//!   the downlink RPC-style bouncing congests under incast), and the deepest
//!   any egress FIFO got ([`Fabric::max_queue_depth`]). All charges derive
//!   from message bytes and configured bandwidths; there are no flat
//!   per-message constants.
//!
//! # Examples
//!
//! ```
//! use pulse_mem::GlobalRangeMap;
//! use pulse_net::{
//!     Endpoint, Fabric, FabricConfig, Packet, RequestId, Route, Switch, TopologySpec,
//! };
//! use pulse_sim::SimTime;
//!
//! let table = GlobalRangeMap::new(&[(0x1000, 0x2000, 0)]);
//! let sw = Switch::new(table);
//! let spec = TopologySpec::Flat;
//! let mut fabric = Fabric::new(spec.build(1, 1), FabricConfig::default());
//! let pkt = Packet::Read { id: RequestId { cpu: 0, seq: 1 }, addr: 0x1800, len: 64 };
//! let Route::To(dst) = sw.route(&pkt) else { unreachable!() };
//! assert_eq!(dst, Endpoint::Mem(0));
//! // Book the path one hop at a time, each from the previous hop's arrival
//! // (an event loop books each at the simulated time the packet gets there).
//! let path = fabric.topology().path(Endpoint::Cpu(0), dst).unwrap().to_vec();
//! let arrive = path
//!     .into_iter()
//!     .fold(SimTime::ZERO, |at, link| fabric.hop(at, link, pkt.wire_bytes()));
//! // Alone on the wire, booking the whole path at once prices it the same.
//! let mut idle = Fabric::new(spec.build(1, 1), FabricConfig::default());
//! let sent = idle.send(SimTime::ZERO, Endpoint::Cpu(0), dst, pkt.wire_bytes());
//! assert_eq!(sent, Some(arrive));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fabric;
mod packet;
mod switch;
mod topology;
mod wire;

pub use fabric::{Fabric, FabricConfig, LinkConfig};
pub use packet::{
    CodeBlob, CpuId, Endpoint, IterPacket, IterStatus, Packet, RequestId, FRAME_HEADER_BYTES,
    PULSE_HEADER_BYTES, TOUCHED_DESCRIPTOR_BYTES,
};
pub use switch::{Route, Switch, SwitchConfig};
pub use topology::{DirectedLink, RackTopology, TopoNode, TopologySpec};
pub use wire::{decode_packet, encode_packet, WireError};
