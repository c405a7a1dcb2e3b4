//! Failure-path integration tests: protection faults, invalid pointers,
//! request idempotence, and wire-format fidelity under the full stack —
//! all driven through the `Runtime` façade where a rack is involved.

use pulse::dispatch::DispatchEngine;
use pulse::ds::HashMapDs;
use pulse::isa::IterState;
use pulse::mem::Perms;
use pulse::net::{decode_packet, encode_packet, IterPacket, IterStatus, Packet, RequestId};
use pulse::sim::SimTime;
use pulse::workloads::StartPtr;
use pulse::{Offloaded, Placement, PulseBuilder, Runtime};

fn small_map(nodes: usize) -> (Runtime, Offloaded<HashMapDs>) {
    let (runtime, map) = PulseBuilder::new()
        .nodes(nodes)
        .placement(Placement::Striped)
        .granularity(1 << 16)
        .window(2)
        .build_with(|ctx| {
            let pairs: Vec<(u64, u64)> = (0..256).map(|k| (k, k + 1)).collect();
            HashMapDs::build(ctx, 8, &pairs)
        })
        .unwrap();
    let offloaded = Offloaded::compile(map, &DispatchEngine::default()).unwrap();
    (runtime, offloaded)
}

/// A wild pointer terminates the request with a fault, not a hang: the
/// switch's global table flags it, the CPU node is notified (§5), and the
/// completion surfaces `ok == false`.
#[test]
fn invalid_pointer_faults_cleanly() {
    let (mut runtime, offloaded) = small_map(2);
    let mut req = offloaded.request(1).unwrap();
    req.traversals[0].start = StartPtr::Fixed(0xDEAD_0000_0000);
    let ticket = runtime.submit(req).unwrap();
    let done = runtime.poll();
    assert_eq!(done.len(), 1);
    assert!(ticket.matches(&done[0]));
    assert!(!done[0].ok, "wild pointer must fault");
    let report = runtime.report();
    assert_eq!(report.completed, 0);
    assert_eq!(report.faulted, 1);
}

/// A plain object read or write aimed at an unmapped address
/// fault-completes through the façade — the switch notifies the CPU node
/// and the request surfaces `ok == false` instead of hanging forever with
/// its packet silently dropped (the pre-fix behavior).
#[test]
fn invalid_object_io_address_faults_cleanly() {
    use pulse::workloads::{AddrSource, ObjectIo};
    for write in [false, true] {
        let (mut runtime, _offloaded) = small_map(2);
        let req = pulse::AppRequest {
            traversals: Vec::new(),
            object_io: Some(ObjectIo {
                addr: AddrSource::Fixed(0xBAD0_0000_0000),
                len: 512,
                write,
            }),
            cpu_work: SimTime::ZERO,
            response_extra_bytes: 0,
            retry: None,
        };
        let ticket = runtime.submit(req).unwrap();
        let done = runtime.poll();
        assert_eq!(done.len(), 1, "write={write}: must complete, not hang");
        assert!(ticket.matches(&done[0]));
        assert!(!done[0].ok, "write={write}: unmapped object I/O must fault");
        let report = runtime.report();
        assert_eq!(report.completed, 0);
        assert_eq!(report.faulted, 1);
    }
}

/// The write-side mirror of the invalid-pointer fix: a traversal whose
/// `STORE` (or `CAS`) targets an invalid/stale address — while its
/// `cur_ptr` is valid and local — must fault-complete through the façade.
/// Rerouting it would ping-pong between the owning node and the switch
/// forever (the switch routes by `cur_ptr`), i.e. a hang.
#[test]
fn store_to_invalid_pointer_fault_completes() {
    use pulse::isa::{Operand, ProgramBuilder, Width};
    use pulse::workloads::TraversalStage;
    use std::sync::Arc;

    for cas in [false, true] {
        let (mut runtime, offloaded) = small_map(2);
        // Start at a real bucket (valid cur_ptr), then write to the wild.
        let start = {
            let req = offloaded.request(1).unwrap();
            match req.traversals[0].start {
                StartPtr::Fixed(p) => p,
                _ => unreachable!("hash plans are fixed-start"),
            }
        };
        let mut b = ProgramBuilder::new("wild-write", 24, 8);
        if cas {
            b.cas(
                pulse::isa::Reg::new(0),
                Operand::Imm(0xBAD0_0000_0000u64 as i64),
                0,
                Operand::Imm(0),
                Operand::Imm(1),
                Width::B8,
            );
        } else {
            b.store(
                Operand::Imm(0xBAD0_0000_0000u64 as i64),
                0,
                Operand::Imm(1),
                Width::B8,
            );
        }
        b.ret(Operand::Imm(0));
        let prog = Arc::new(b.finish().unwrap());
        let req = pulse::AppRequest::traversal_only(TraversalStage {
            program: prog,
            start: StartPtr::Fixed(start),
            scratch_init: vec![],
        });
        let ticket = runtime.submit(req).unwrap();
        let done = runtime.poll();
        assert_eq!(done.len(), 1, "cas={cas}: must complete, not hang");
        assert!(ticket.matches(&done[0]));
        assert!(!done[0].ok, "cas={cas}: wild write must fault");
        assert_eq!(runtime.report().faulted, 1);
    }
}

/// Revoking access after build makes the traversal's data unreadable:
/// the memory pipeline's protection check faults the request back.
#[test]
fn protection_fault_propagates_to_cpu() {
    let (mut runtime, offloaded) = small_map(1);
    // Mark every extent no-access after the structure is built.
    let ranges = runtime.memory().all_ranges();
    for (start, _end, _node) in ranges {
        assert!(runtime.memory_mut().set_perms(start, Perms::NONE));
    }
    runtime.submit(offloaded.request(3).unwrap()).unwrap();
    let report = runtime.drain();
    assert_eq!(report.completed + report.faulted, 1);
    assert_eq!(report.faulted, 1, "protection must fault, not succeed");
}

/// Request/response symmetry survives the wire: an in-flight continuation
/// encoded at one node decodes identically at the next (§5's stateful
/// continuation), including the scratchpad bytes.
#[test]
fn continuation_survives_wire_roundtrip() {
    let (_runtime, offloaded) = small_map(2);
    let prog = offloaded.programs()[0].clone();
    let mut state = IterState::new(&prog, 0x1000);
    state.set_scratch_u64(0, 9);
    state.iters_done = 5;
    let pkt = Packet::Iter(IterPacket {
        id: RequestId { cpu: 0, seq: 1234 },
        code: prog.clone(),
        state: state.clone(),
        status: IterStatus::InFlight,
        piggyback_bytes: 0,
        touched: Vec::new(),
    });
    let bytes = encode_packet(&pkt);
    assert_eq!(bytes.len() as u64, pkt.wire_bytes());
    let back = decode_packet(&bytes).unwrap();
    let Packet::Iter(p) = back else {
        panic!("kind")
    };
    assert_eq!(p.state.cur_ptr, state.cur_ptr);
    assert_eq!(p.state.scratch, state.scratch);
    assert_eq!(p.state.iters_done, 5);
    assert_eq!(p.code.insns(), prog.insns());
}

/// Executing the same read-only request twice (as a retransmission would)
/// yields identical results — the idempotence that makes §4.1's transparent
/// retransmission safe for lookups.
#[test]
fn read_requests_are_idempotent() {
    let (mut runtime, offloaded) = small_map(2);
    runtime.submit(offloaded.request(77).unwrap()).unwrap();
    runtime.submit(offloaded.request(77).unwrap()).unwrap();
    let report = runtime.drain();
    assert_eq!(report.completed, 2);
    assert_eq!(report.faulted, 0);
}
