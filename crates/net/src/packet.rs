//! Packet types exchanged in the rack.
//!
//! §4.2 ("Network Stack"): requests and responses share one format carrying
//! the request ID, the compiled iterator code, and the iterator state
//! (`cur_ptr`, `scratch_pad`). That symmetry is what lets a memory node hand
//! an in-flight traversal back to the switch as-is, and the switch forward
//! it to the next memory node as an ordinary request (§5 "Continuing
//! stateful iterator execution").

use pulse_isa::{IterState, MemFault, Program};
use pulse_mem::NodeId;
use std::fmt;
use std::sync::Arc;

/// Ethernet + IP + UDP framing overhead in bytes.
pub const FRAME_HEADER_BYTES: usize = 42;
/// pulse's own header: request id, kind, status, cur_ptr, iteration count.
pub const PULSE_HEADER_BYTES: usize = 32;

/// Identifies a CPU node (request originator).
pub type CpuId = usize;

/// A rack endpoint: one switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// CPU (compute) node.
    Cpu(CpuId),
    /// Memory node.
    Mem(NodeId),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Cpu(i) => write!(f, "cpu{i}"),
            Endpoint::Mem(i) => write!(f, "mem{i}"),
        }
    }
}

/// Request identity: originating CPU node + per-node sequence number
/// (§4.1 "embeds a request ID with the CPU node ID and a local request
/// counter").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId {
    /// Originating CPU node.
    pub cpu: CpuId,
    /// Local request counter at that node.
    pub seq: u64,
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}#{}", self.cpu, self.seq)
    }
}

/// Where an iterator request stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterStatus {
    /// Still traversing — route by `cur_ptr` to the owning memory node.
    InFlight,
    /// `RETURN` reached with this code — route to the CPU node.
    Done {
        /// The `RETURN` operand's value.
        code: u64,
    },
    /// Per-offload iteration budget exhausted (§3) — the CPU node may issue
    /// a continuation from the carried state.
    IterLimit,
    /// The traversal faulted (invalid pointer, protection, div-by-zero pc).
    Faulted {
        /// The memory fault, if memory-related.
        fault: MemFault,
    },
}

/// An offloaded iterator execution in flight: code + continuation state.
#[derive(Debug, Clone)]
pub struct IterPacket {
    /// Request identity.
    pub id: RequestId,
    /// The compiled traversal. Requests carry code on every hop, so its
    /// encoded size ([`Program::wire_len`], cached at validation) is part
    /// of every link-serialization time.
    pub code: Arc<Program>,
    /// `cur_ptr`, scratchpad, iterations consumed (the continuation, §5).
    pub state: IterState,
    /// Status, which also determines routing.
    pub status: IterStatus,
    /// Extra payload gathered near memory and carried by this packet
    /// (e.g. WebService's 8 KiB object riding the final response).
    pub piggyback_bytes: u32,
    /// Traversal cells (window fetch ranges) the accelerators touched
    /// while executing this packet — the fill payload a CPU-node cache
    /// consumes. Only populated when the rack runs with a front-end cache
    /// (`AccelConfig::collect_touched`); always empty otherwise, so
    /// cache-less configurations keep their exact wire sizes. Each entry
    /// rides the wire as a 12-byte descriptor (address + length) plus the
    /// cell bytes.
    pub touched: Vec<(u64, u32)>,
}

/// Wire bytes per touched-cell descriptor (u64 address + u32 length).
pub const TOUCHED_DESCRIPTOR_BYTES: usize = 12;

impl IterPacket {
    /// Wire bytes the touched-cell fill payload adds to this packet.
    pub fn touched_wire_bytes(&self) -> usize {
        self.touched
            .iter()
            .map(|&(_, len)| TOUCHED_DESCRIPTOR_BYTES + len as usize)
            .sum()
    }
}

/// Everything that can cross the rack network.
#[derive(Debug, Clone)]
pub enum Packet {
    /// An iterator offload (request, reroute, or response — same format).
    Iter(IterPacket),
    /// Plain remote read request (e.g. WebService's 8 KiB object fetch).
    Read {
        /// Request identity.
        id: RequestId,
        /// Virtual address to read.
        addr: u64,
        /// Bytes requested.
        len: u32,
    },
    /// Reply to [`Packet::Read`]; carries `len` payload bytes on the wire.
    ReadReply {
        /// Request identity.
        id: RequestId,
        /// Bytes returned.
        len: u32,
    },
    /// Plain remote write (object update path).
    Write {
        /// Request identity.
        id: RequestId,
        /// Virtual address to write.
        addr: u64,
        /// Bytes carried.
        len: u32,
    },
    /// Acknowledgement of a [`Packet::Write`].
    WriteAck {
        /// Request identity.
        id: RequestId,
    },
}

impl Packet {
    /// The request this packet belongs to.
    pub fn id(&self) -> RequestId {
        match self {
            Packet::Iter(p) => p.id,
            Packet::Read { id, .. }
            | Packet::ReadReply { id, .. }
            | Packet::Write { id, .. }
            | Packet::WriteAck { id } => *id,
        }
    }

    /// Total bytes this packet occupies on a link, headers included.
    pub fn wire_bytes(&self) -> u64 {
        let payload = match self {
            Packet::Iter(p) => {
                // scratch-length word + scratch + status-aux word + code
                // (+ any gathered object payload + any cache-fill cells).
                p.code.wire_len()
                    + p.state.scratch.len()
                    + 16
                    + p.piggyback_bytes as usize
                    + p.touched_wire_bytes()
            }
            Packet::Read { .. } => 12,
            Packet::ReadReply { len, .. } => *len as usize,
            Packet::Write { len, .. } => 12 + *len as usize,
            Packet::WriteAck { .. } => 0,
        };
        (FRAME_HEADER_BYTES + PULSE_HEADER_BYTES + payload) as u64
    }

    /// Whether this packet is the terminal reply of its request.
    pub fn is_response(&self) -> bool {
        match self {
            Packet::Iter(p) => !matches!(p.status, IterStatus::InFlight),
            Packet::ReadReply { .. } | Packet::WriteAck { .. } => true,
            Packet::Read { .. } | Packet::Write { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_isa::{Instruction, NodeWindow, Operand};

    fn tiny_program() -> Program {
        Program::new(
            "t",
            NodeWindow::from_start(16),
            vec![Instruction::Return {
                code: Operand::Imm(0),
            }],
            16,
        )
        .unwrap()
    }

    fn iter_packet(status: IterStatus) -> Packet {
        let code = Arc::new(tiny_program());
        Packet::Iter(IterPacket {
            id: RequestId { cpu: 0, seq: 7 },
            state: IterState::new(&code, 0x1000),
            code,
            status,
            piggyback_bytes: 0,
            touched: Vec::new(),
        })
    }

    #[test]
    fn wire_bytes_accounts_for_code_and_scratch() {
        let pkt = iter_packet(IterStatus::InFlight);
        let code_len = match &pkt {
            Packet::Iter(p) => p.code.wire_len(),
            _ => unreachable!(),
        };
        assert_eq!(
            pkt.wire_bytes(),
            (FRAME_HEADER_BYTES + PULSE_HEADER_BYTES + code_len + 16 + 16) as u64
        );
    }

    #[test]
    fn read_reply_scales_with_payload() {
        let id = RequestId { cpu: 1, seq: 2 };
        let small = Packet::ReadReply { id, len: 64 };
        let big = Packet::ReadReply { id, len: 8192 };
        assert_eq!(big.wire_bytes() - small.wire_bytes(), 8192 - 64);
    }

    #[test]
    fn response_classification() {
        assert!(!iter_packet(IterStatus::InFlight).is_response());
        assert!(iter_packet(IterStatus::Done { code: 0 }).is_response());
        assert!(iter_packet(IterStatus::IterLimit).is_response());
        assert!(iter_packet(IterStatus::Faulted {
            fault: MemFault::NotMapped { addr: 1 }
        })
        .is_response());
        let id = RequestId { cpu: 0, seq: 0 };
        assert!(!Packet::Read {
            id,
            addr: 0,
            len: 8
        }
        .is_response());
        assert!(Packet::ReadReply { id, len: 8 }.is_response());
        assert!(!Packet::Write {
            id,
            addr: 0,
            len: 8
        }
        .is_response());
        assert!(Packet::WriteAck { id }.is_response());
    }

    #[test]
    fn ids_and_display() {
        let pkt = iter_packet(IterStatus::InFlight);
        assert_eq!(pkt.id(), RequestId { cpu: 0, seq: 7 });
        assert_eq!(pkt.id().to_string(), "cpu0#7");
        assert_eq!(Endpoint::Cpu(2).to_string(), "cpu2");
        assert_eq!(Endpoint::Mem(3).to_string(), "mem3");
    }
}
