//! Byte-level packet serialization — the parse/deparse step of the
//! accelerator's network stack (§4.2) and the switch's header inspection.
//!
//! The simulator exchanges structured [`Packet`]s, but their on-wire form
//! matters twice: packet *sizes* drive link serialization time, and the
//! switch/accelerator must be able to parse real bytes (the deployability
//! argument of §4.1). This module implements the full round trip and is
//! exercised by property tests; [`Packet::wire_bytes`] and
//! [`encode_packet`]'s output length agree by construction.

use crate::packet::{IterPacket, IterStatus, Packet, RequestId, FRAME_HEADER_BYTES};
#[cfg(test)]
use crate::packet::{PULSE_HEADER_BYTES, TOUCHED_DESCRIPTOR_BYTES};
use bytes::{Buf, BufMut, BytesMut};
use pulse_isa::{decode_program, encode_program, IterState, MemFault};
use std::fmt;
use std::sync::Arc;

const KIND_ITER: u8 = 1;
const KIND_READ: u8 = 2;
const KIND_READ_REPLY: u8 = 3;
const KIND_WRITE: u8 = 4;
const KIND_WRITE_ACK: u8 = 5;

const ST_INFLIGHT: u8 = 0;
const ST_DONE: u8 = 1;
const ST_ITER_LIMIT: u8 = 2;
const ST_FAULT_NOT_MAPPED: u8 = 3;
const ST_FAULT_PROTECTION: u8 = 4;
const ST_FAULT_SPLIT: u8 = 5;

/// Why packet decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Byte stream ended mid-field.
    Truncated,
    /// Unknown packet kind or status tag.
    BadTag(&'static str, u8),
    /// Embedded program failed to decode/validate.
    BadProgram(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::BadTag(what, v) => write!(f, "invalid {what} tag {v:#04x}"),
            WireError::BadProgram(e) => write!(f, "embedded program invalid: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a packet to its full wire form (frame + pulse header + payload).
///
/// The output length always equals [`Packet::wire_bytes`].
pub fn encode_packet(pkt: &Packet) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(pkt.wire_bytes() as usize);
    // Frame header stand-in (Ethernet/IP/UDP): zeros of the right length.
    buf.put_bytes(0, FRAME_HEADER_BYTES);
    // pulse header: kind, status, cpu id, seq, cur_ptr/addr, aux (32 B).
    let id = pkt.id();
    match pkt {
        Packet::Iter(p) => {
            buf.put_u8(KIND_ITER);
            let (st, aux) = match p.status {
                IterStatus::InFlight => (ST_INFLIGHT, 0u64),
                IterStatus::Done { code } => (ST_DONE, code),
                IterStatus::IterLimit => (ST_ITER_LIMIT, 0),
                IterStatus::Faulted { fault } => match fault {
                    MemFault::NotMapped { addr } => (ST_FAULT_NOT_MAPPED, addr),
                    MemFault::Protection { addr } => (ST_FAULT_PROTECTION, addr),
                    MemFault::Split { addr } => (ST_FAULT_SPLIT, addr),
                },
            };
            buf.put_u8(st);
            buf.put_u16_le(id.cpu as u16);
            buf.put_u64_le(id.seq);
            buf.put_u64_le(p.state.cur_ptr);
            buf.put_u32_le(p.state.iters_done);
            buf.put_u32_le(p.piggyback_bytes);
            buf.put_u32_le(p.touched.len() as u32); // cache-fill cell count
                                                    // Payload: scratch len + scratch + status aux
                                                    // + fill cells + code + piggyback.
            buf.put_u64_le(p.state.scratch.len() as u64);
            buf.put_slice(&p.state.scratch);
            buf.put_u64_le(aux);
            // Cache-fill cells: 12-byte descriptor (addr + length) plus the
            // cell bytes (zero-filled stand-in, like the piggyback).
            for &(addr, len) in &p.touched {
                buf.put_u64_le(addr);
                buf.put_u32_le(len);
                buf.put_bytes(0, len as usize);
            }
            buf.put_slice(&encode_program(&p.code));
            // Piggybacked object bytes (zero-filled payload stand-in).
            buf.put_bytes(0, p.piggyback_bytes as usize);
        }
        Packet::Read { addr, len, .. } => {
            put_plain_header(&mut buf, KIND_READ, id, *addr, *len);
            buf.put_bytes(0, 12); // request descriptor slot
        }
        Packet::ReadReply { len, .. } => {
            put_plain_header(&mut buf, KIND_READ_REPLY, id, 0, *len);
            buf.put_bytes(0, *len as usize);
        }
        Packet::Write { addr, len, .. } => {
            put_plain_header(&mut buf, KIND_WRITE, id, *addr, *len);
            buf.put_bytes(0, 12 + *len as usize);
        }
        Packet::WriteAck { .. } => {
            put_plain_header(&mut buf, KIND_WRITE_ACK, id, 0, 0);
        }
    }
    buf.to_vec()
}

/// The fixed 32-byte pulse header; `aux` carries the plain packets' length
/// (the reserved word for iterator packets).
fn put_plain_header(buf: &mut BytesMut, kind: u8, id: RequestId, addr: u64, aux: u32) {
    buf.put_u8(kind);
    buf.put_u8(0); // status unused
    buf.put_u16_le(id.cpu as u16);
    buf.put_u64_le(id.seq);
    buf.put_u64_le(addr);
    buf.put_u32_le(0); // iterations unused
    buf.put_u32_le(0); // piggyback unused
    buf.put_u32_le(aux);
}

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.0.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.0.get_u8())
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        self.need(2)?;
        Ok(self.0.get_u16_le())
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.0.get_u32_le())
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.0.get_u64_le())
    }
    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, WireError> {
        self.need(n)?;
        let mut v = vec![0u8; n];
        self.0.copy_to_slice(&mut v);
        Ok(v)
    }
    fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.need(n)?;
        self.0.advance(n);
        Ok(())
    }
}

/// Decodes a packet from its wire form.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown tags, or an invalid
/// embedded program — a memory node must never act on a malformed packet.
pub fn decode_packet(bytes: &[u8]) -> Result<Packet, WireError> {
    let mut r = Reader(bytes);
    r.skip(FRAME_HEADER_BYTES)?;
    let kind = r.u8()?;
    let status = r.u8()?;
    let cpu = r.u16()? as usize;
    let seq = r.u64()?;
    let addr = r.u64()?;
    let iters = r.u32()?;
    let piggyback = r.u32()?;
    let aux = r.u32()?;
    let id = RequestId { cpu, seq };
    match kind {
        KIND_ITER => {
            let scratch_len = r.u64()? as usize;
            let scratch = r.bytes(scratch_len)?;
            let aux64 = r.u64()?;
            // Cache-fill cells (count carried in the header's last word).
            // Capacity is clamped: the count is untrusted wire input, and
            // a lying header must hit Truncated below, not pre-allocate.
            let mut touched = Vec::with_capacity(aux.min(1024) as usize);
            for _ in 0..aux {
                let cell_addr = r.u64()?;
                let cell_len = r.u32()?;
                r.skip(cell_len as usize)?;
                touched.push((cell_addr, cell_len));
            }
            // The program consumes the remainder minus the piggyback tail.
            let rest = r.0;
            if rest.len() < piggyback as usize {
                return Err(WireError::Truncated);
            }
            let code_bytes = &rest[..rest.len() - piggyback as usize];
            let program =
                decode_program(code_bytes).map_err(|e| WireError::BadProgram(e.to_string()))?;
            let status = match status {
                ST_INFLIGHT => IterStatus::InFlight,
                ST_DONE => IterStatus::Done { code: aux64 },
                ST_ITER_LIMIT => IterStatus::IterLimit,
                ST_FAULT_NOT_MAPPED => IterStatus::Faulted {
                    fault: MemFault::NotMapped { addr: aux64 },
                },
                ST_FAULT_PROTECTION => IterStatus::Faulted {
                    fault: MemFault::Protection { addr: aux64 },
                },
                ST_FAULT_SPLIT => IterStatus::Faulted {
                    fault: MemFault::Split { addr: aux64 },
                },
                other => return Err(WireError::BadTag("status", other)),
            };
            Ok(Packet::Iter(IterPacket {
                id,
                code: Arc::new(program),
                state: IterState {
                    cur_ptr: addr,
                    scratch,
                    iters_done: iters,
                },
                status,
                piggyback_bytes: piggyback,
                touched,
            }))
        }
        KIND_READ => Ok(Packet::Read { id, addr, len: aux }),
        KIND_READ_REPLY => Ok(Packet::ReadReply { id, len: aux }),
        KIND_WRITE => Ok(Packet::Write { id, addr, len: aux }),
        KIND_WRITE_ACK => Ok(Packet::WriteAck { id }),
        other => Err(WireError::BadTag("packet kind", other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_isa::{Instruction, NodeWindow, Operand, Program};

    fn sample_iter(status: IterStatus, scratch: &[u8], piggyback: u32) -> Packet {
        let prog = Program::new(
            "wire",
            NodeWindow::from_start(24),
            vec![Instruction::Return {
                code: Operand::Imm(3),
            }],
            scratch.len() as u16,
        )
        .unwrap();
        Packet::Iter(IterPacket {
            id: RequestId { cpu: 3, seq: 99 },
            code: Arc::new(prog),
            state: IterState {
                cur_ptr: 0xABCD_EF01,
                scratch: scratch.to_vec(),
                iters_done: 17,
            },
            status,
            piggyback_bytes: piggyback,
            touched: Vec::new(),
        })
    }

    #[test]
    fn iter_roundtrip_preserves_continuation() {
        let scratch: Vec<u8> = (0..32).collect();
        for status in [
            IterStatus::InFlight,
            IterStatus::IterLimit,
            IterStatus::Done { code: 7 },
            IterStatus::Faulted {
                fault: MemFault::NotMapped { addr: 0x5555_0001 },
            },
            IterStatus::Faulted {
                fault: MemFault::Protection { addr: 0x6666_0002 },
            },
        ] {
            let pkt = sample_iter(status, &scratch, 0);
            let bytes = encode_packet(&pkt);
            let back = decode_packet(&bytes).unwrap();
            let Packet::Iter(p) = back else { panic!() };
            assert_eq!(p.id, RequestId { cpu: 3, seq: 99 });
            assert_eq!(p.state.cur_ptr, 0xABCD_EF01);
            assert_eq!(p.state.iters_done, 17);
            assert_eq!(p.state.scratch, scratch);
            assert_eq!(p.status, status);
            assert_eq!(p.code.len(), 1);
        }
    }

    /// The cache-fill payload survives the byte codec: descriptors round
    /// trip, cell bytes are priced, and the encoded length still equals
    /// `wire_bytes` — the invariant the link model depends on.
    #[test]
    fn touched_cells_roundtrip_and_are_priced() {
        let mut pkt = sample_iter(IterStatus::Done { code: 0 }, &[2u8; 32], 64);
        let touched = vec![(0x1000u64, 24u32), (0x2040, 64), (0x9F00, 8)];
        if let Packet::Iter(p) = &mut pkt {
            p.touched = touched.clone();
        }
        let bytes = encode_packet(&pkt);
        assert_eq!(bytes.len() as u64, pkt.wire_bytes());
        let Packet::Iter(back) = decode_packet(&bytes).unwrap() else {
            panic!()
        };
        assert_eq!(back.touched, touched);
        assert_eq!(back.piggyback_bytes, 64);
        assert_eq!(back.state.scratch, vec![2u8; 32]);
        // An empty list costs nothing extra over the cache-less form.
        let empty = sample_iter(IterStatus::Done { code: 0 }, &[2u8; 32], 64);
        assert_eq!(
            pkt.wire_bytes() - empty.wire_bytes(),
            touched
                .iter()
                .map(|&(_, l)| (TOUCHED_DESCRIPTOR_BYTES + l as usize) as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn encoded_length_matches_wire_bytes() {
        let mut cached = sample_iter(IterStatus::Done { code: 1 }, &[3u8; 16], 0);
        if let Packet::Iter(p) = &mut cached {
            p.touched = vec![(0x500, 24)];
        }
        let cases = [
            sample_iter(IterStatus::InFlight, &[0u8; 16], 0),
            sample_iter(IterStatus::Done { code: 0 }, &[1u8; 48], 8192),
            cached,
            Packet::Read {
                id: RequestId { cpu: 0, seq: 1 },
                addr: 0x1000,
                len: 64,
            },
            Packet::ReadReply {
                id: RequestId { cpu: 0, seq: 1 },
                len: 8192,
            },
            Packet::Write {
                id: RequestId { cpu: 1, seq: 2 },
                addr: 0x2000,
                len: 248,
            },
            Packet::WriteAck {
                id: RequestId { cpu: 1, seq: 2 },
            },
        ];
        for pkt in cases {
            let bytes = encode_packet(&pkt);
            assert_eq!(
                bytes.len() as u64,
                pkt.wire_bytes(),
                "length mismatch for {pkt:?}"
            );
        }
    }

    #[test]
    fn plain_packets_roundtrip() {
        let id = RequestId { cpu: 7, seq: 42 };
        for pkt in [
            Packet::Read {
                id,
                addr: 0xF00,
                len: 8,
            },
            Packet::ReadReply { id, len: 512 },
            Packet::Write {
                id,
                addr: 0xBAA,
                len: 248,
            },
            Packet::WriteAck { id },
        ] {
            let back = decode_packet(&encode_packet(&pkt)).unwrap();
            assert_eq!(format!("{back:?}"), format!("{pkt:?}"));
        }
    }

    #[test]
    fn truncation_and_bad_tags_detected() {
        let pkt = sample_iter(IterStatus::InFlight, &[0u8; 8], 0);
        let bytes = encode_packet(&pkt);
        for cut in [0, 10, FRAME_HEADER_BYTES + 3, bytes.len() - 1] {
            assert!(decode_packet(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = bytes.clone();
        bad[FRAME_HEADER_BYTES] = 0xEE; // kind
        assert_eq!(
            decode_packet(&bad).unwrap_err(),
            WireError::BadTag("packet kind", 0xEE)
        );
        let mut bad = bytes;
        bad[FRAME_HEADER_BYTES + 1] = 0x77; // status
        assert!(matches!(
            decode_packet(&bad).unwrap_err(),
            WireError::BadTag("status", 0x77)
        ));
    }

    #[test]
    fn corrupt_program_rejected() {
        let scratch = [0u8; 8];
        let pkt = sample_iter(IterStatus::InFlight, &scratch, 0);
        let mut bytes = encode_packet(&pkt);
        // First instruction's opcode byte: frame + header + scratch-len
        // word + scratch + the 13-byte program header.
        let off = FRAME_HEADER_BYTES + PULSE_HEADER_BYTES + 8 + scratch.len() + 8 + 13;
        bytes[off] = 0xEE;
        let err = decode_packet(&bytes).unwrap_err();
        assert!(matches!(err, WireError::BadProgram(_)), "{err:?}");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn header_sizes_are_the_declared_constants() {
        // The fixed header region is exactly FRAME + PULSE header bytes for
        // a WriteAck (zero payload).
        let pkt = Packet::WriteAck {
            id: RequestId { cpu: 0, seq: 0 },
        };
        assert_eq!(
            encode_packet(&pkt).len(),
            FRAME_HEADER_BYTES + PULSE_HEADER_BYTES
        );
    }
}
