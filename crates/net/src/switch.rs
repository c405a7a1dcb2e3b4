//! The programmable switch.
//!
//! §5: "pulse leverages a programmable network switch to inspect the next
//! pointer to be traversed within iterator requests and determine the next
//! memory node to which the request should be forwarded — both at line
//! rate." Routing is a pure function of the packet (match `cur_ptr` against
//! the global range table). The switch's pipeline latency and egress-port
//! serialization are charged by [`crate::Fabric`], on the switch's egress
//! links.

use crate::packet::{Endpoint, IterStatus, Packet};
use pulse_mem::GlobalRangeMap;
use pulse_sim::SimTime;

/// Routing verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Forward to this endpoint.
    To(Endpoint),
    /// `cur_ptr` matches no range — notify the requester of the invalid
    /// pointer (§5: "or notify the CPU node if the pointer is invalid").
    InvalidPointer {
        /// Requester that must be notified.
        requester: Endpoint,
    },
}

/// Tofino-style switch model: the global range table every routing
/// decision matches against.
///
/// # Examples
///
/// ```
/// use pulse_mem::GlobalRangeMap;
/// use pulse_net::{Endpoint, Packet, RequestId, Route, Switch};
///
/// let table = GlobalRangeMap::new(&[(0x1000, 0x2000, 0), (0x2000, 0x3000, 1)]);
/// let sw = Switch::new(table);
/// let pkt = Packet::Read { id: RequestId { cpu: 0, seq: 1 }, addr: 0x2800, len: 64 };
/// assert_eq!(sw.route(&pkt), Route::To(Endpoint::Mem(1)));
/// ```
#[derive(Debug)]
pub struct Switch {
    table: GlobalRangeMap,
}

/// Switch timing/bandwidth parameters. Forwarding charges derive from the
/// message's byte count and these parameters only: an egress port
/// serializes exactly the bytes handed to it (no minimum frame size).
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// Pipeline (parse + match + action) latency per packet.
    pub pipeline_latency: SimTime,
    /// Egress port bandwidth in bits per second.
    pub port_bits_per_sec: u64,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            // Tofino-class cut-through forwarding latency.
            pipeline_latency: SimTime::from_nanos(600),
            port_bits_per_sec: 100_000_000_000,
        }
    }
}

impl Switch {
    /// Creates a switch with the given global translation table.
    pub fn new(table: GlobalRangeMap) -> Switch {
        Switch { table }
    }

    /// The routing decision for `pkt` — a pure function, no timing.
    ///
    /// * In-flight iterator packets route by `cur_ptr` through the global
    ///   range table (this is both initial dispatch and mid-traversal
    ///   reroute; the formats are identical by design).
    /// * Finished iterator packets and plain replies route to the requester.
    /// * Plain reads/writes route by their target address.
    pub fn route(&self, pkt: &Packet) -> Route {
        let requester = Endpoint::Cpu(pkt.id().cpu);
        match pkt {
            Packet::Iter(p) => match p.status {
                IterStatus::InFlight => match self.table.lookup(p.state.cur_ptr) {
                    Some(node) => Route::To(Endpoint::Mem(node)),
                    None => Route::InvalidPointer { requester },
                },
                _ => Route::To(requester),
            },
            Packet::Read { addr, .. } | Packet::Write { addr, .. } => {
                match self.table.lookup(*addr) {
                    Some(node) => Route::To(Endpoint::Mem(node)),
                    None => Route::InvalidPointer { requester },
                }
            }
            Packet::ReadReply { .. } | Packet::WriteAck { .. } => Route::To(requester),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{IterPacket, RequestId};
    use pulse_isa::{Instruction, IterState, NodeWindow, Operand, Program};
    use std::sync::Arc;

    fn table() -> GlobalRangeMap {
        GlobalRangeMap::new(&[(0x1000, 0x2000, 0), (0x2000, 0x3000, 1)])
    }

    fn iter_pkt(cur_ptr: u64, status: IterStatus) -> Packet {
        let prog = Program::new(
            "t",
            NodeWindow::from_start(8),
            vec![Instruction::Return {
                code: Operand::Imm(0),
            }],
            8,
        )
        .unwrap();
        let code = Arc::new(prog);
        let mut state = IterState::new(&code, cur_ptr);
        state.cur_ptr = cur_ptr;
        Packet::Iter(IterPacket {
            id: RequestId { cpu: 2, seq: 1 },
            code,
            state,
            status,
            piggyback_bytes: 0,
            touched: Vec::new(),
        })
    }

    #[test]
    fn inflight_routes_by_cur_ptr() {
        let sw = Switch::new(table());
        assert_eq!(
            sw.route(&iter_pkt(0x1800, IterStatus::InFlight)),
            Route::To(Endpoint::Mem(0))
        );
        assert_eq!(
            sw.route(&iter_pkt(0x2800, IterStatus::InFlight)),
            Route::To(Endpoint::Mem(1))
        );
    }

    #[test]
    fn finished_routes_to_requester() {
        let sw = Switch::new(table());
        for status in [
            IterStatus::Done { code: 0 },
            IterStatus::IterLimit,
            IterStatus::Faulted {
                fault: pulse_isa::MemFault::NotMapped { addr: 0x99 },
            },
        ] {
            assert_eq!(
                sw.route(&iter_pkt(0x1800, status)),
                Route::To(Endpoint::Cpu(2))
            );
        }
    }

    #[test]
    fn invalid_pointer_notifies_cpu() {
        let sw = Switch::new(table());
        assert_eq!(
            sw.route(&iter_pkt(0xdead_beef, IterStatus::InFlight)),
            Route::InvalidPointer {
                requester: Endpoint::Cpu(2)
            }
        );
    }

    #[test]
    fn reads_and_writes_route_by_address() {
        let sw = Switch::new(table());
        let id = RequestId { cpu: 0, seq: 9 };
        assert_eq!(
            sw.route(&Packet::Read {
                id,
                addr: 0x1100,
                len: 8
            }),
            Route::To(Endpoint::Mem(0))
        );
        assert_eq!(
            sw.route(&Packet::Write {
                id,
                addr: 0x2100,
                len: 8
            }),
            Route::To(Endpoint::Mem(1))
        );
        assert_eq!(
            sw.route(&Packet::ReadReply { id, len: 8 }),
            Route::To(Endpoint::Cpu(0))
        );
        assert_eq!(
            sw.route(&Packet::WriteAck { id }),
            Route::To(Endpoint::Cpu(0))
        );
    }
}
