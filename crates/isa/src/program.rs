//! PULSE programs: the instruction enum, program container, and the static
//! validator that enforces the paper's bounded-computation rules (§3, §4.1).

use crate::decoded::{decode, Code};
use crate::ops::{AluOp, Cond, Operand, Place, Width};
use std::fmt;

/// Largest coalesced per-iteration LOAD the dispatch engine may emit (§4.1).
pub const MAX_LOAD_BYTES: u32 = 256;

/// Scratchpad capacity (`MAX_SCRATCHPAD_SIZE` in Listing 1).
pub const MAX_SCRATCHPAD_BYTES: u16 = 128;

/// Upper bound on instructions per iteration; keeps `t_c` estimable and the
/// logic pipeline's instruction store small.
pub const MAX_PROGRAM_LEN: usize = 256;

/// Default `MAX_ITER` bound applied by `execute()` (Listing 1, line 8).
pub const DEFAULT_MAX_ITERS: u32 = 4096;

/// One PULSE instruction (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// `dst = a <op> b`.
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination.
        dst: Place,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = !a` (bitwise NOT).
    Not {
        /// Destination.
        dst: Place,
        /// Operand.
        a: Operand,
    },
    /// `dst = src` (Table 2 "Register" class `MOVE`).
    Move {
        /// Destination.
        dst: Place,
        /// Source.
        src: Operand,
    },
    /// Explicit memory load: `dst = mem[base + off]`.
    ///
    /// The dispatch engine coalesces loads relative to `cur_ptr` into the
    /// program's node window, so compiled traversals rarely contain this;
    /// it remains for secondary-pointer reads and costs an extra memory
    /// pipeline trip at runtime.
    Load {
        /// Destination.
        dst: Place,
        /// Base address source.
        base: Operand,
        /// Signed byte displacement.
        off: i32,
        /// Access width.
        width: Width,
    },
    /// Explicit memory store: `mem[base + off] = src`.
    Store {
        /// Base address source.
        base: Operand,
        /// Signed byte displacement.
        off: i32,
        /// Value to store.
        src: Operand,
        /// Access width.
        width: Width,
    },
    /// Remote compare-and-swap: atomically read `mem[base + off]` into
    /// `dst`; if the old value equals `expect`, write `src`. The memory
    /// pipeline executes the read-compare-write as one occupancy, which is
    /// what makes seqlock acquisition (`pulse-mutation`) race-free on a
    /// memory node shared by many in-flight iterators.
    Cas {
        /// Receives the *old* memory value (compare `dst` to `expect` to
        /// detect success).
        dst: Place,
        /// Base address source.
        base: Operand,
        /// Signed byte displacement.
        off: i32,
        /// Expected old value.
        expect: Operand,
        /// Value written on match.
        src: Operand,
        /// Access width.
        width: Width,
    },
    /// `COMPARE a, b` then `JUMP_<cond> target` — forward only (§4.1).
    CmpJump {
        /// Condition code.
        cond: Cond,
        /// Left comparand.
        a: Operand,
        /// Right comparand.
        b: Operand,
        /// Absolute instruction index; must be `> pc` and `< len`.
        target: u32,
    },
    /// Unconditional forward jump.
    Jump {
        /// Absolute instruction index; must be `> pc` and `< len`.
        target: u32,
    },
    /// ISA v2 speculation hint: tell the accelerator which pointer this
    /// iteration will most likely follow, so the memory pipeline can issue
    /// the next window fetch before the version check completes. Purely
    /// advisory — no architectural state changes; a wrong hint costs a
    /// squashed (wasted) memory trip, never a wrong answer.
    SpecHint {
        /// Predicted next `cur_ptr`.
        ptr: Operand,
    },
    /// ISA v2 speculation fence: inhibit speculative next-hop issue for the
    /// remainder of this iteration (used around seqlock-guarded reads whose
    /// next pointer is too volatile to be worth predicting).
    NoSpec,
    /// End this iteration: `cur_ptr = next`, hand back to the scheduler so
    /// the memory pipeline can begin the next fetch (§4.1 `NEXT_ITER`).
    NextIter {
        /// The next pointer value.
        next: Operand,
    },
    /// Terminate the traversal and yield the scratchpad (§4.1 `RETURN`).
    Return {
        /// Status code returned alongside the scratchpad.
        code: Operand,
    },
}

impl Instruction {
    /// Whether this instruction ends an iteration (terminal class of Table 2).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Instruction::NextIter { .. } | Instruction::Return { .. }
        )
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Alu { op, dst, a, b } => write!(f, "{op} {dst}, {a}, {b}"),
            Instruction::Not { dst, a } => write!(f, "not {dst}, {a}"),
            Instruction::Move { dst, src } => write!(f, "move {dst}, {src}"),
            Instruction::Load {
                dst,
                base,
                off,
                width,
            } => write!(f, "load.{width} {dst}, [{base}{off:+}]"),
            Instruction::Store {
                base,
                off,
                src,
                width,
            } => write!(f, "store.{width} [{base}{off:+}], {src}"),
            Instruction::Cas {
                dst,
                base,
                off,
                expect,
                src,
                width,
            } => write!(f, "cas.{width} {dst}, [{base}{off:+}], {expect}, {src}"),
            Instruction::SpecHint { ptr } => write!(f, "spec_hint {ptr}"),
            Instruction::NoSpec => write!(f, "no_spec"),
            Instruction::CmpJump { cond, a, b, target } => {
                write!(f, "cmp.j{cond} {a}, {b} -> @{target}")
            }
            Instruction::Jump { target } => write!(f, "jump @{target}"),
            Instruction::NextIter { next } => write!(f, "next_iter {next}"),
            Instruction::Return { code } => write!(f, "return {code}"),
        }
    }
}

/// The coalesced per-iteration load window relative to `cur_ptr` (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeWindow {
    /// Signed displacement of the window start from `cur_ptr`.
    pub off: i32,
    /// Window length in bytes (1..=[`MAX_LOAD_BYTES`]).
    pub len: u32,
}

impl NodeWindow {
    /// A window covering `[cur_ptr, cur_ptr + len)`.
    pub const fn from_start(len: u32) -> NodeWindow {
        NodeWindow { off: 0, len }
    }
}

/// Why a program failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no instructions.
    Empty,
    /// More than [`MAX_PROGRAM_LEN`] instructions.
    TooLong(usize),
    /// The node window is empty or exceeds [`MAX_LOAD_BYTES`].
    BadWindow(NodeWindow),
    /// Declared scratchpad exceeds [`MAX_SCRATCHPAD_BYTES`].
    ScratchTooLarge(u16),
    /// The final instruction is not `NEXT_ITER`/`RETURN`, so execution could
    /// fall off the end of an iteration.
    MissingTerminal,
    /// A jump at `pc` goes backwards or to itself — the unbounded-loop hazard
    /// §4.1 forbids (like eBPF, only forward jumps are allowed).
    BackwardJump {
        /// The offending instruction index.
        pc: u32,
        /// Its target.
        target: u32,
    },
    /// A jump at `pc` lands outside the program.
    JumpOutOfRange {
        /// The offending instruction index.
        pc: u32,
        /// Its target.
        target: u32,
    },
    /// A scratchpad access at `pc` reaches past the declared scratch length.
    ScratchOutOfRange {
        /// The offending instruction index.
        pc: u32,
        /// Byte offset of the access end.
        end: u32,
    },
    /// A node-buffer access at `pc` reaches past the load window.
    NodeOutOfRange {
        /// The offending instruction index.
        pc: u32,
        /// Byte offset of the access end.
        end: u32,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program has no instructions"),
            ProgramError::TooLong(n) => {
                write!(f, "program has {n} instructions (max {MAX_PROGRAM_LEN})")
            }
            ProgramError::BadWindow(w) => {
                write!(f, "invalid node window {w:?} (max {MAX_LOAD_BYTES} bytes)")
            }
            ProgramError::ScratchTooLarge(n) => {
                write!(f, "scratchpad {n} bytes exceeds {MAX_SCRATCHPAD_BYTES}")
            }
            ProgramError::MissingTerminal => {
                write!(f, "last instruction must be next_iter or return")
            }
            ProgramError::BackwardJump { pc, target } => {
                write!(
                    f,
                    "backward jump at @{pc} to @{target} (forward jumps only)"
                )
            }
            ProgramError::JumpOutOfRange { pc, target } => {
                write!(f, "jump at @{pc} to @{target} is out of range")
            }
            ProgramError::ScratchOutOfRange { pc, end } => {
                write!(
                    f,
                    "scratchpad access at @{pc} ends at byte {end}, past limit"
                )
            }
            ProgramError::NodeOutOfRange { pc, end } => {
                write!(
                    f,
                    "node-buffer access at @{pc} ends at byte {end}, past window"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A validated PULSE program: the per-iteration `next()`+`end()` logic the
/// dispatch engine ships to the accelerator.
///
/// Construct via [`Program::new`] (which validates) or the
/// [`ProgramBuilder`](crate::ProgramBuilder).
///
/// # Examples
///
/// ```
/// use pulse_isa::{Instruction, NodeWindow, Operand, Program};
///
/// // A degenerate traversal: immediately return code 0.
/// let prog = Program::new(
///     "noop",
///     NodeWindow::from_start(8),
///     vec![Instruction::Return { code: Operand::Imm(0) }],
///     8,
/// )?;
/// assert_eq!(prog.len(), 1);
/// # Ok::<(), pulse_isa::ProgramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    window: NodeWindow,
    insns: Vec<Instruction>,
    scratch_len: u16,
    // Cached wire-encoding size; a pure function of the fields above,
    // computed once at validation so packet sizing never re-encodes.
    wire_len: usize,
    // The interpreter's op form of `insns`, decoded once after validation.
    code: Code,
}

impl Program {
    /// Validates and constructs a program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] describing the first violated rule: empty
    /// or over-long programs, an invalid node window or scratch size, a
    /// missing terminal instruction, backward/out-of-range jumps, or static
    /// out-of-bounds scratch/node accesses.
    pub fn new(
        name: impl Into<String>,
        window: NodeWindow,
        insns: Vec<Instruction>,
        scratch_len: u16,
    ) -> Result<Program, ProgramError> {
        let mut prog = Program {
            name: name.into(),
            window,
            insns,
            scratch_len,
            wire_len: 0,
            code: Code::default(),
        };
        prog.validate()?;
        prog.wire_len = crate::encode::wire_len_of(&prog.insns);
        prog.code = decode(&prog.insns);
        Ok(prog)
    }

    fn check_operand(&self, pc: u32, op: Operand) -> Result<(), ProgramError> {
        match op {
            Operand::Sp { off, width } => {
                let end = off as u32 + width.bytes();
                if end > self.scratch_len as u32 {
                    return Err(ProgramError::ScratchOutOfRange { pc, end });
                }
            }
            Operand::Node { off, width } => {
                let end = off as u32 + width.bytes();
                if end > self.window.len {
                    return Err(ProgramError::NodeOutOfRange { pc, end });
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn check_place(&self, pc: u32, place: Place) -> Result<(), ProgramError> {
        if let Place::Sp { off, width } = place {
            let end = off as u32 + width.bytes();
            if end > self.scratch_len as u32 {
                return Err(ProgramError::ScratchOutOfRange { pc, end });
            }
        }
        Ok(())
    }

    fn check_jump(&self, pc: u32, target: u32) -> Result<(), ProgramError> {
        if target <= pc {
            return Err(ProgramError::BackwardJump { pc, target });
        }
        if target as usize >= self.insns.len() {
            return Err(ProgramError::JumpOutOfRange { pc, target });
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), ProgramError> {
        if self.insns.is_empty() {
            return Err(ProgramError::Empty);
        }
        if self.insns.len() > MAX_PROGRAM_LEN {
            return Err(ProgramError::TooLong(self.insns.len()));
        }
        if self.window.len == 0 || self.window.len > MAX_LOAD_BYTES {
            return Err(ProgramError::BadWindow(self.window));
        }
        if self.scratch_len > MAX_SCRATCHPAD_BYTES {
            return Err(ProgramError::ScratchTooLarge(self.scratch_len));
        }
        if !self.insns.last().expect("non-empty").is_terminal() {
            return Err(ProgramError::MissingTerminal);
        }
        for (pc, insn) in self.insns.iter().enumerate() {
            let pc = pc as u32;
            match *insn {
                Instruction::Alu { dst, a, b, .. } => {
                    self.check_place(pc, dst)?;
                    self.check_operand(pc, a)?;
                    self.check_operand(pc, b)?;
                }
                Instruction::Not { dst, a } => {
                    self.check_place(pc, dst)?;
                    self.check_operand(pc, a)?;
                }
                Instruction::Move { dst, src } => {
                    self.check_place(pc, dst)?;
                    self.check_operand(pc, src)?;
                }
                Instruction::Load { dst, base, .. } => {
                    self.check_place(pc, dst)?;
                    self.check_operand(pc, base)?;
                }
                Instruction::Store { base, src, .. } => {
                    self.check_operand(pc, base)?;
                    self.check_operand(pc, src)?;
                }
                Instruction::Cas {
                    dst,
                    base,
                    expect,
                    src,
                    ..
                } => {
                    self.check_place(pc, dst)?;
                    self.check_operand(pc, base)?;
                    self.check_operand(pc, expect)?;
                    self.check_operand(pc, src)?;
                }
                Instruction::SpecHint { ptr } => self.check_operand(pc, ptr)?,
                Instruction::NoSpec => {}
                Instruction::CmpJump { a, b, target, .. } => {
                    self.check_operand(pc, a)?;
                    self.check_operand(pc, b)?;
                    self.check_jump(pc, target)?;
                }
                Instruction::Jump { target } => self.check_jump(pc, target)?,
                Instruction::NextIter { next } => self.check_operand(pc, next)?,
                Instruction::Return { code } => self.check_operand(pc, code)?,
            }
        }
        Ok(())
    }

    /// Human-readable program name (e.g. `"unordered_map::find"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coalesced load window.
    pub fn window(&self) -> NodeWindow {
        self.window
    }

    /// The instruction stream.
    pub fn insns(&self) -> &[Instruction] {
        &self.insns
    }

    /// Number of instructions — also the static bound `N` used by the
    /// dispatch engine's `t_c = t_i · N` estimate, since only forward jumps
    /// exist and each instruction executes at most once per iteration.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program has no instructions (never true post-validation).
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Declared scratchpad length in bytes.
    pub fn scratch_len(&self) -> u16 {
        self.scratch_len
    }

    /// The decoded form [`crate::Interpreter`] executes.
    pub(crate) fn code(&self) -> &Code {
        &self.code
    }

    /// The id of this program's decoding: shared by its clones and by no
    /// other program, ever, in this process (ids are never reused, so a
    /// dropped program's id never names a new one). Two programs with one
    /// id run identically on every input.
    pub fn code_id(&self) -> u64 {
        self.code.id
    }

    /// The size in bytes of this program's wire encoding
    /// ([`crate::encode_program`]), cached at construction.
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// The longest execution path through one iteration, in instructions.
    ///
    /// Because jumps are forward-only, the control-flow graph is a DAG and
    /// the longest path is computable exactly — this is the sound,
    /// non-pessimistic `N` behind the dispatch engine's `t_c = t_i · N`
    /// estimate (§4.1). An if/else executes one arm, not both, so this is
    /// typically far below [`Program::len`] for branchy traversals.
    pub fn longest_path(&self) -> u32 {
        let n = self.insns.len();
        // longest[pc] = max instructions executed starting at pc.
        let mut longest = vec![0u32; n];
        for pc in (0..n).rev() {
            longest[pc] = match self.insns[pc] {
                Instruction::NextIter { .. } | Instruction::Return { .. } => 1,
                Instruction::Jump { target } => 1 + longest[target as usize],
                Instruction::CmpJump { target, .. } => {
                    1 + longest[pc + 1].max(longest[target as usize])
                }
                _ => 1 + longest[pc + 1],
            };
        }
        longest.first().copied().unwrap_or(0)
    }

    /// Whether any instruction writes memory (`STORE`/`CAS`); used by the
    /// offload analysis and the write-path experiments.
    pub fn has_stores(&self) -> bool {
        self.insns
            .iter()
            .any(|i| matches!(i, Instruction::Store { .. } | Instruction::Cas { .. }))
    }

    /// Number of explicit (non-coalesced) memory-read instructions: `LOAD`s
    /// plus the read leg of every `CAS` — matching what the interpreter
    /// books at runtime, so the offload analysis and the executed charge
    /// agree.
    pub fn extra_loads(&self) -> usize {
        self.insns
            .iter()
            .filter(|i| matches!(i, Instruction::Load { .. } | Instruction::Cas { .. }))
            .count()
    }

    /// Disassembly listing.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; {} (window {:+}..{:+}, scratch {} B)",
            self.name,
            self.window.off,
            self.window.off + self.window.len as i32,
            self.scratch_len
        );
        for (pc, insn) in self.insns.iter().enumerate() {
            let _ = writeln!(out, "@{pc:<3} {insn}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Reg;

    fn ret() -> Instruction {
        Instruction::Return {
            code: Operand::Imm(0),
        }
    }

    #[test]
    fn minimal_program_validates() {
        let p = Program::new("t", NodeWindow::from_start(16), vec![ret()], 8).unwrap();
        assert_eq!(p.name(), "t");
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert!(!p.has_stores());
        assert_eq!(p.extra_loads(), 0);
    }

    #[test]
    fn code_id_names_one_decoding() {
        let make = || Program::new("t", NodeWindow::from_start(16), vec![ret()], 8).unwrap();
        let (p, q) = (make(), make());
        assert_ne!(p.code_id(), 0);
        assert_eq!(p.clone().code_id(), p.code_id());
        assert_ne!(
            p.code_id(),
            q.code_id(),
            "equal programs, separate decodings"
        );
        let id = q.code_id();
        drop(q);
        assert_ne!(make().code_id(), id, "an id outlives its program");
    }

    #[test]
    fn empty_program_rejected() {
        let e = Program::new("t", NodeWindow::from_start(8), vec![], 0).unwrap_err();
        assert_eq!(e, ProgramError::Empty);
    }

    #[test]
    fn missing_terminal_rejected() {
        let insns = vec![Instruction::Move {
            dst: Place::Reg(Reg::new(0)),
            src: Operand::Imm(1),
        }];
        let e = Program::new("t", NodeWindow::from_start(8), insns, 0).unwrap_err();
        assert_eq!(e, ProgramError::MissingTerminal);
    }

    #[test]
    fn backward_jump_rejected() {
        let insns = vec![
            Instruction::Jump { target: 1 },
            Instruction::CmpJump {
                cond: Cond::Eq,
                a: Operand::Imm(0),
                b: Operand::Imm(0),
                target: 1, // self-jump == backward
            },
            ret(),
        ];
        let e = Program::new("t", NodeWindow::from_start(8), insns, 0).unwrap_err();
        assert_eq!(e, ProgramError::BackwardJump { pc: 1, target: 1 });
    }

    #[test]
    fn jump_out_of_range_rejected() {
        let insns = vec![Instruction::Jump { target: 5 }, ret()];
        let e = Program::new("t", NodeWindow::from_start(8), insns, 0).unwrap_err();
        assert_eq!(e, ProgramError::JumpOutOfRange { pc: 0, target: 5 });
    }

    #[test]
    fn window_limits_enforced() {
        let e = Program::new("t", NodeWindow::from_start(0), vec![ret()], 0).unwrap_err();
        assert!(matches!(e, ProgramError::BadWindow(_)));
        let e = Program::new("t", NodeWindow::from_start(257), vec![ret()], 0).unwrap_err();
        assert!(matches!(e, ProgramError::BadWindow(_)));
        // 256 exactly is fine.
        assert!(Program::new("t", NodeWindow::from_start(256), vec![ret()], 0).is_ok());
    }

    #[test]
    fn scratch_limits_enforced() {
        let e = Program::new("t", NodeWindow::from_start(8), vec![ret()], 129).unwrap_err();
        assert_eq!(e, ProgramError::ScratchTooLarge(129));
    }

    #[test]
    fn scratch_access_bounds_checked() {
        let insns = vec![
            Instruction::Move {
                dst: Place::sp_u64(4), // bytes 4..12 but scratch is 8
                src: Operand::Imm(1),
            },
            ret(),
        ];
        let e = Program::new("t", NodeWindow::from_start(8), insns, 8).unwrap_err();
        assert_eq!(e, ProgramError::ScratchOutOfRange { pc: 0, end: 12 });
    }

    #[test]
    fn node_access_bounds_checked() {
        let insns = vec![
            Instruction::Move {
                dst: Place::Reg(Reg::new(1)),
                src: Operand::node_u64(12), // bytes 12..20 but window is 16
            },
            ret(),
        ];
        let e = Program::new("t", NodeWindow::from_start(16), insns, 8).unwrap_err();
        assert_eq!(e, ProgramError::NodeOutOfRange { pc: 0, end: 20 });
    }

    #[test]
    fn too_long_rejected() {
        let mut insns = vec![
            Instruction::Move {
                dst: Place::Reg(Reg::new(0)),
                src: Operand::Imm(1),
            };
            MAX_PROGRAM_LEN
        ];
        insns.push(ret());
        let e = Program::new("t", NodeWindow::from_start(8), insns, 0).unwrap_err();
        assert!(matches!(e, ProgramError::TooLong(_)));
    }

    #[test]
    fn store_and_load_detection() {
        let insns = vec![
            Instruction::Load {
                dst: Place::Reg(Reg::new(0)),
                base: Operand::CurPtr,
                off: 0,
                width: Width::B8,
            },
            Instruction::Store {
                base: Operand::CurPtr,
                off: 8,
                src: Operand::Reg(Reg::new(0)),
                width: Width::B8,
            },
            ret(),
        ];
        let p = Program::new("t", NodeWindow::from_start(8), insns, 0).unwrap();
        assert!(p.has_stores());
        assert_eq!(p.extra_loads(), 1);
    }

    #[test]
    fn disassembly_contains_each_insn() {
        let insns = vec![
            Instruction::Alu {
                op: AluOp::Add,
                dst: Place::Reg(Reg::new(2)),
                a: Operand::Imm(1),
                b: Operand::node_u64(0),
            },
            Instruction::NextIter {
                next: Operand::Reg(Reg::new(2)),
            },
        ];
        let p = Program::new("demo", NodeWindow::from_start(8), insns, 0).unwrap();
        let asm = p.disassemble();
        assert!(asm.contains("add r2"), "{asm}");
        assert!(asm.contains("next_iter r2"), "{asm}");
        assert!(asm.contains("demo"), "{asm}");
    }

    #[test]
    fn longest_path_straight_line_equals_len() {
        let insns = vec![
            Instruction::Move {
                dst: Place::Reg(Reg::new(0)),
                src: Operand::Imm(1),
            },
            Instruction::Move {
                dst: Place::Reg(Reg::new(1)),
                src: Operand::Imm(2),
            },
            ret(),
        ];
        let p = Program::new("t", NodeWindow::from_start(8), insns, 0).unwrap();
        assert_eq!(p.longest_path(), 3);
    }

    #[test]
    fn longest_path_takes_max_branch() {
        // @0 cmp -> @4 ; @1 mov ; @2 mov ; @3 ret ; @4 ret
        // Paths: 0,1,2,3 (4 insns) or 0,4 (2 insns) -> longest 4.
        let insns = vec![
            Instruction::CmpJump {
                cond: Cond::Eq,
                a: Operand::Imm(0),
                b: Operand::Imm(0),
                target: 4,
            },
            Instruction::Move {
                dst: Place::Reg(Reg::new(0)),
                src: Operand::Imm(1),
            },
            Instruction::Move {
                dst: Place::Reg(Reg::new(1)),
                src: Operand::Imm(2),
            },
            ret(),
            ret(),
        ];
        let p = Program::new("t", NodeWindow::from_start(8), insns, 0).unwrap();
        assert_eq!(p.longest_path(), 4);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn longest_path_skips_dead_code_after_jump() {
        // @0 jump @2 ; @1 mov (dead) ; @2 ret -> longest path 2.
        let insns = vec![
            Instruction::Jump { target: 2 },
            Instruction::Move {
                dst: Place::Reg(Reg::new(0)),
                src: Operand::Imm(1),
            },
            ret(),
        ];
        let p = Program::new("t", NodeWindow::from_start(8), insns, 0).unwrap();
        assert_eq!(p.longest_path(), 2);
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<ProgramError> = vec![
            ProgramError::Empty,
            ProgramError::TooLong(999),
            ProgramError::BadWindow(NodeWindow::from_start(0)),
            ProgramError::ScratchTooLarge(200),
            ProgramError::MissingTerminal,
            ProgramError::BackwardJump { pc: 3, target: 1 },
            ProgramError::JumpOutOfRange { pc: 0, target: 9 },
            ProgramError::ScratchOutOfRange { pc: 0, end: 12 },
            ProgramError::NodeOutOfRange { pc: 0, end: 20 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
