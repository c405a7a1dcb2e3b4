//! # pulse-net
//!
//! The rack network substrate: the packet format iterator offloads travel
//! in, the programmable switch that routes them by `cur_ptr` (§5), and the
//! endpoint links. §4.1's retransmission is not modelled: the rack
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
//! Beyond the single-switch flat rack, the crate models *routed* fabrics:
//!
//! * **Topology kinds** ([`TopologySpec`] / [`RackTopology`]): `Flat` (one
//!   switch — the PR 1–5 rack), `Tor` (per-rack edge switches joined by a
//!   core), `LeafSpine` (2-tier Clos with a spine chosen by a hash symmetric
//!   in the endpoint pair), and `Ring` (edge switches on a cycle, shorter
//!   arc wins). [`TopologySpec::build`] computes every endpoint pair's path
//!   once; the response path is the request path reversed, hop for hop, and
//!   paths are loop-free. Link ids put host cables first (CPUs, then memory
//!   nodes, up-link before down-link), then switch cables.
//! * **Stall rules** ([`Fabric::send`]): a message carries a time cursor hop
//!   by hop along its precomputed path. Each directed link is a
//!   finite-bandwidth serialization pipe with a FIFO of in-flight messages;
//!   a busy egress stalls the *message* (it queues behind earlier traffic on
//!   that hop), but only the first hop occupies the sender — downstream
//!   congestion never blocks the origin, so multi-hop transit is pipelined
//!   exactly like a cut-through fabric. Switch-egress hops additionally pay
//!   the switch pipeline latency. Every hop is booked when the message is
//!   sent.
//! * **Utilization metrics**: per-directed-link busy fractions, byte counts
//!   and rates ([`Fabric::link_utilization`], [`Fabric::link_bytes`],
//!   [`Fabric::link_bits_per_sec`]), the peak utilization over links into
//!   CPU hosts ([`Fabric::cpu_downlink_peak`] — the downlink RPC-style
//!   bouncing congests under incast), and the deepest any egress FIFO got
//!   ([`Fabric::max_queue_depth`]). All charges derive from message bytes
//!   and configured bandwidths; there are no flat per-message constants.
//!
//! # Examples
//!
//! ```
//! use pulse_mem::GlobalRangeMap;
//! use pulse_net::{Endpoint, Packet, RequestId, Route, Switch, SwitchConfig};
//! use pulse_sim::SimTime;
//!
//! let table = GlobalRangeMap::new(&[(0x1000, 0x2000, 0)]);
//! let mut sw = Switch::new(SwitchConfig::default(), table);
//! let pkt = Packet::Read { id: RequestId { cpu: 0, seq: 1 }, addr: 0x1800, len: 64 };
//! match sw.route(&pkt) {
//!     Route::To(ep) => {
//!         let departed = sw.forward(SimTime::ZERO, &pkt, ep);
//!         assert_eq!(ep, Endpoint::Mem(0));
//!         assert!(departed > SimTime::ZERO);
//!     }
//!     Route::InvalidPointer { .. } => unreachable!(),
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fabric;
mod link;
mod packet;
mod switch;
mod topology;
mod wire;

pub use fabric::{Fabric, FabricConfig};
pub use link::{Link, LinkConfig};
pub use packet::{
    CodeBlob, CpuId, Endpoint, IterPacket, IterStatus, Packet, RequestId, FRAME_HEADER_BYTES,
    PULSE_HEADER_BYTES, TOUCHED_DESCRIPTOR_BYTES,
};
pub use switch::{Route, Switch, SwitchConfig};
pub use topology::{DirectedLink, RackTopology, TopoNode, TopologySpec};
pub use wire::{decode_packet, encode_packet, WireError};
