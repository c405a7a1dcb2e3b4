//! Property-style tests for the PULSE ISA: arbitrary *valid* programs must
//! encode/decode losslessly, and the interpreter must never panic or loop —
//! the whole point of the forward-jump-only validator.
//!
//! The container image has no network access to crates.io, so instead of
//! the `proptest` crate these run the same properties over many
//! deterministic SplitMix64-generated cases.

mod common;

use common::{body_insn, cond, operand, Shape};
use pulse_isa::{
    decode_program, encode_program, Cond, Instruction, Interpreter, IterState, NodeWindow, Operand,
    Program, VecMem,
};
use pulse_sim::SplitMix64;

const CASES: usize = 256;

/// The shape every program is drawn for.
const DEFAULT: Shape = Shape {
    window: 64,
    scratch: 64,
    wide: false,
};

/// Generates a valid program: body instructions with forward jumps patched
/// in, ending in Return. Retries until the validator accepts (a handful of
/// random jump placements can be rejected).
fn program(rng: &mut SplitMix64) -> Program {
    loop {
        let n = 1 + rng.next_below(23) as usize;
        let mut body: Vec<Instruction> = (0..n).map(|_| body_insn(rng, &DEFAULT)).collect();
        let jumps = rng.next_below(4);
        for _ in 0..jumps {
            let seed = rng.next_u64() as u32;
            let pos = (seed as usize) % body.len();
            let len_after = body.len() + 1; // +1 for the return appended below
            let target = pos + 1 + (seed as usize % (len_after - pos));
            let target = target.min(len_after) as u32;
            body.insert(
                pos,
                Instruction::CmpJump {
                    cond: cond(rng),
                    a: operand(rng, &DEFAULT),
                    b: operand(rng, &DEFAULT),
                    target: target + 1, // account for this insertion
                },
            );
        }
        body.push(Instruction::Return {
            code: Operand::Imm(0),
        });
        if let Ok(p) = Program::new(
            "prop",
            NodeWindow::from_start(DEFAULT.window),
            body,
            DEFAULT.scratch,
        ) {
            return p;
        }
    }
}

#[test]
fn encode_decode_roundtrip() {
    let mut rng = SplitMix64::new(0x150_0001);
    for case in 0..CASES {
        let prog = program(&mut rng);
        let bytes = encode_program(&prog);
        let back = decode_program(&bytes).expect("decodes");
        assert_eq!(prog.insns(), back.insns(), "case {case}");
        assert_eq!(prog.window(), back.window(), "case {case}");
        assert_eq!(prog.scratch_len(), back.scratch_len(), "case {case}");
    }
}

#[test]
fn cached_wire_len_matches_real_encode() {
    // PR 7's arithmetic-length catalog property, extended over programs
    // drawn from the full ISA-v2 instruction set (including `SpecHint` with
    // every operand shape and the zero-operand `NoSpec`).
    let mut rng = SplitMix64::new(0x150_0006);
    for case in 0..CASES {
        let prog = program(&mut rng);
        assert_eq!(
            pulse_isa::encoded_len(&prog),
            encode_program(&prog).len(),
            "case {case}"
        );
    }
}

#[test]
fn interpreter_terminates_within_len() {
    let mut rng = SplitMix64::new(0x150_0002);
    for case in 0..CASES {
        let prog = program(&mut rng);
        let ptr = rng.next_below(512);
        let mut mem = VecMem::new(0, 1024);
        let mut st = IterState::new(&prog, ptr);
        let mut interp = Interpreter::new();
        // Division may fault; anything else must produce a bounded trace.
        if let Ok(trace) = interp.run_iteration(&prog, &mut st, &mut mem) {
            assert!(trace.insns_executed as usize <= prog.len(), "case {case}");
            assert!(st.scratch.len() == DEFAULT.scratch as usize, "case {case}");
        }
    }
}

#[test]
fn decoder_never_panics_on_noise() {
    let mut rng = SplitMix64::new(0x150_0003);
    for _ in 0..CASES {
        let len = rng.next_below(256) as usize;
        let noise: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_program(&noise); // must return Err, not panic
    }
}

#[test]
fn cond_total_order_consistency() {
    let mut rng = SplitMix64::new(0x150_0004);
    for _ in 0..CASES {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        // Trichotomy of the unsigned comparisons.
        let lt = Cond::LtU.eval(a, b);
        let eq = Cond::Eq.eval(a, b);
        let gt = Cond::GtU.eval(a, b);
        assert_eq!(lt as u8 + eq as u8 + gt as u8, 1);
        // Le == Lt || Eq, signed and unsigned.
        assert_eq!(Cond::LeU.eval(a, b), lt || eq);
        assert_eq!(Cond::LeS.eval(a, b), Cond::LtS.eval(a, b) || eq);
        // Equal operands compare equal (the generator rarely draws them).
        assert!(Cond::Eq.eval(a, a) && Cond::LeU.eval(a, a) && Cond::GeS.eval(a, a));
    }
}

#[test]
fn corrupted_encoding_never_yields_invalid_program() {
    let mut rng = SplitMix64::new(0x150_0005);
    for case in 0..CASES {
        let prog = program(&mut rng);
        let mut bytes = encode_program(&prog).to_vec();
        let idx = rng.next_below(bytes.len() as u64) as usize;
        let flip = 1 + rng.next_below(255) as u8;
        bytes[idx] ^= flip;
        // Either it fails to decode, or it decodes to a *valid* program —
        // the decoder must never hand the accelerator unvalidated code.
        if let Ok(p) = decode_program(&bytes) {
            let revalidated = Program::new("x", p.window(), p.insns().to_vec(), p.scratch_len());
            assert!(revalidated.is_ok(), "case {case}");
        }
    }
}
