//! Lowering: a [`Program`] becomes a flat array of pre-decoded 16-byte
//! ops that [`crate::interp::ElidedInterp`] runs.
//!
//! One pass over [`Cfg::build`]'s basic blocks emits, per block, an
//! `Op::Block` header carrying the block's pre-summed fuel and guard
//! count, then the block's instructions — with the sequences the workloads
//! actually execute collapsed into superinstructions (the table is
//! `fused`). Static branch targets are resolved to lowered indices; one
//! that leaves the program lowers to an `Op::BadJump`
//! carrying the oracle's payload. Behind the blocks sits each block's
//! *fuel tail*: the same instructions lowered one-to-one with an
//! `Op::Tick` before each, entered only when a header finds less fuel
//! than its block needs, so `OutOfSteps` lands on the oracle's exact step —
//! mid-superinstruction included.
//!
//! Lowering needs no abstract interpretation and drops no check: every
//! bounds, divisor and jump test the oracle makes is kept as the op's trap
//! path, so a wrong proof can cost nothing here. The cycles come from
//! pre-decoding, which is why every protection regime gets them.

use std::num::NonZeroU64;

use crate::analysis::{cfg::Cfg, Analysis};
use crate::bytecode::{Insn, Program, Reg, NUM_REGS};
use crate::interp::InterpError;

/// One lowered op. Register operands are pre-masked to `< NUM_REGS`.
///
/// Three-register ops are `(rd, rs1, rs2)`; branches `(rs1, rs2, target)`.
/// A memory access is `(x, rb, rs, off, mask)`: `x` is the loaded or stored
/// register and the rest is its address mode — `t = regs[rs] & mask;
/// regs[rb] = t; addr = t + off` — so a bare access (`rs == rb`, all-ones
/// mask), `mask_data rb; access` and `mov rb, rs; mask_data rb; access` are
/// one opcode. A superinstruction performs its instructions' register
/// writes in program order, which is what makes any register aliasing
/// between them behave as it does in the oracle.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// Block header: charge `fuel` steps and `guards` guard steps for the
    /// whole block, or divert to the fuel tail at `tail` if fuel is short.
    Block {
        fuel: u32,
        guards: u32,
        tail: u32,
    },
    /// Fuel tail: spend one step of the remaining budget or stop.
    Tick,
    Li(u8, u64),
    Mov(u8, u8),
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    Mul(u8, u8, u8),
    And(u8, u8, u8),
    Or(u8, u8, u8),
    Xor(u8, u8, u8),
    Shl(u8, u8, u8),
    Shr(u8, u8, u8),
    Divu(u8, u8, u8),
    /// `(r, len - 1)`: a `mask_data`/`mask_code` over a power-of-two length.
    AndI(u8, u64),
    /// `(r, len)`: a `mask_data`/`mask_code` over any other nonzero length.
    RemI(u8, NonZeroU64),
    /// `(rd, rs, s, k)`: `li s, k; add rd, rs, s` — the assembler's `addi`.
    AddI(u8, u8, u8, u64),
    /// `li s, k; add rd, rs, s; bltu a, b, target` — the counted-loop
    /// back-edge.
    AddIBltu {
        rd: u8,
        rs: u8,
        s: u8,
        a: u8,
        b: u8,
        k: u32,
        target: u32,
    },
    Ld(u8, u8, u8, i32, u64),
    LdB(u8, u8, u8, i32, u64),
    St(u8, u8, u8, i32, u64),
    StB(u8, u8, u8, i32, u64),
    /// A load followed by the accumulate `add acc, acc, x`: the first
    /// operand packs `x` (low nibble) and `acc` (high nibble), which keeps
    /// the op at 16 bytes.
    LdAdd(u8, u8, u8, i32, u64),
    LdBAdd(u8, u8, u8, i32, u64),
    Beq(u8, u8, u32),
    Bne(u8, u8, u32),
    Bltu(u8, u8, u32),
    Jmp(u32),
    Jr(u8),
    Halt,
    /// `(pc, target)`: where a static branch that leaves the program lands.
    BadJump(u32, u32),
    /// One past the last instruction: falling off the end.
    OffEnd,
}

const _: () = assert!(std::mem::size_of::<Op>() == 16);
// `LdAdd`'s nibble packing and the executor's operand mask both need this.
const _: () = assert!(NUM_REGS == 16);

/// A lowered program: what every loaded component executes.
#[derive(Clone, Debug)]
pub struct ElidedProgram {
    pub(crate) ops: Vec<Op>,
    /// Per op: the raw pc a trap raised by that op reports.
    trap_pc: Vec<u32>,
    /// Raw pc of a block's first instruction to its header's index (what
    /// an indirect jump consults; other entries are unused).
    pub(crate) entry: Vec<u32>,
    pub(crate) data_len: u32,
}

impl ElidedProgram {
    /// Lowers a program its caller has analysed. The proof map is not
    /// consulted: this is [`Self::lower`], and facts get baked into opcodes
    /// only once a workload measures a gain from dropping a check.
    ///
    /// # Panics
    ///
    /// Panics if `analysis` is not of `program` — a harness bug.
    pub fn compile(program: &Program, analysis: &Analysis) -> ElidedProgram {
        assert_eq!(
            analysis.proofs.len(),
            program.len(),
            "analysis does not match program"
        );
        Self::lower(program)
    }

    /// Lowers `program`, keeping every guard and bounds check the oracle
    /// makes. Needs no analysis, so it accepts any program, including those
    /// `analyze` rejects.
    pub fn lower(program: &Program) -> ElidedProgram {
        let code = &program.code;
        let n = code.len();
        let cfg = Cfg::build(program);
        let mut out = ElidedProgram {
            ops: Vec::with_capacity(3 * n + 2),
            trap_pc: Vec::with_capacity(3 * n + 2),
            entry: vec![0; n],
            data_len: program.data_len,
        };

        for block in &cfg.blocks {
            out.entry[block.start as usize] = out.ops.len() as u32;
            let guards = code[block.start as usize..block.end as usize]
                .iter()
                .filter(|i| matches!(i, Insn::MaskData { .. } | Insn::MaskCode { .. }))
                .count() as u32;
            let fuel = block.end - block.start;
            let header = Op::Block {
                fuel,
                guards,
                tail: 0,
            };
            out.push(header, block.start);
            let mut pc = block.start;
            while pc < block.end {
                let (op, width, trap) = fused(program, pc, block.end);
                out.push(op, pc + trap);
                pc += width;
            }
        }
        let blocks_end = out.ops.len();
        out.push(Op::OffEnd, n as u32);

        for block in &cfg.blocks {
            let here = out.ops.len() as u32;
            if let Op::Block { tail, .. } = &mut out.ops[out.entry[block.start as usize] as usize] {
                *tail = here;
            }
            // The block's last instruction never runs in the tail: fuel
            // was short of the whole block.
            for pc in block.start..block.end - 1 {
                out.push(Op::Tick, pc);
                out.push(one(program, pc), pc);
            }
            out.push(Op::Tick, block.end - 1);
        }

        for at in 0..blocks_end {
            let pc = out.trap_pc[at];
            let next = out.ops.len() as u32;
            let (Op::Beq(.., target)
            | Op::Bne(.., target)
            | Op::Bltu(.., target)
            | Op::Jmp(target)
            | Op::AddIBltu { target, .. }) = &mut out.ops[at]
            else {
                continue;
            };
            match out.entry.get(*target as usize) {
                Some(&header) => *target = header,
                None => {
                    let trap = Op::BadJump(pc, *target);
                    *target = next;
                    out.push(trap, pc);
                }
            }
        }
        out
    }

    fn push(&mut self, op: Op, trap_pc: u32) {
        self.ops.push(op);
        self.trap_pc.push(trap_pc);
    }

    #[cold]
    pub(crate) fn fault(&self, at: usize, addr: u64) -> InterpError {
        let pc = self.trap_pc[at];
        InterpError::Fault { pc, addr }
    }

    #[cold]
    pub(crate) fn bad_jump(&self, at: usize, target: u64) -> InterpError {
        let pc = self.trap_pc[at];
        InterpError::BadJump { pc, target }
    }

    #[cold]
    pub(crate) fn divide_by_zero(&self, at: usize) -> InterpError {
        let pc = self.trap_pc[at];
        InterpError::DivideByZero { pc }
    }
}

fn m(r: Reg) -> u8 {
    r.0 & (NUM_REGS as u8 - 1)
}

/// The base register of a memory access.
fn base_of(insn: &Insn) -> Option<Reg> {
    match *insn {
        Insn::Ld { base, .. }
        | Insn::LdB { base, .. }
        | Insn::St { base, .. }
        | Insn::StB { base, .. } => Some(base),
        _ => None,
    }
}

/// A masking guard over a segment of `len` bytes or instructions.
fn mask(r: Reg, len: u64) -> Op {
    match NonZeroU64::new(len) {
        None => Op::Li(m(r), 0),
        Some(_) if len.is_power_of_two() => Op::AndI(m(r), len - 1),
        Some(len) => Op::RemI(m(r), len),
    }
}

/// The access at `pc` through address mode `(rb, rs, mask)`, fused
/// with a following accumulate into `acc` if there is one.
fn access(program: &Program, pc: u32, rb: Reg, rs: Reg, mask: u64, acc: Option<Reg>) -> Op {
    let (rb, rs) = (m(rb), m(rs));
    let with = |x: Reg| acc.map_or(m(x), |acc| m(x) | m(acc) << 4);
    match (program.code[pc as usize], acc) {
        (Insn::Ld { rd, off, .. }, None) => Op::Ld(m(rd), rb, rs, off, mask),
        (Insn::Ld { rd, off, .. }, Some(_)) => Op::LdAdd(with(rd), rb, rs, off, mask),
        (Insn::LdB { rd, off, .. }, None) => Op::LdB(m(rd), rb, rs, off, mask),
        (Insn::LdB { rd, off, .. }, Some(_)) => Op::LdBAdd(with(rd), rb, rs, off, mask),
        (Insn::St { rs: x, off, .. }, _) => Op::St(m(x), rb, rs, off, mask),
        (Insn::StB { rs: x, off, .. }, _) => Op::StB(m(x), rb, rs, off, mask),
        (other, _) => unreachable!("{other:?} is not a memory access"),
    }
}

/// Lowers instruction `pc` alone. Branch targets stay raw pcs until
/// `lower` resolves them.
fn one(program: &Program, pc: u32) -> Op {
    match program.code[pc as usize] {
        Insn::Li { rd, imm } => Op::Li(m(rd), imm as u64),
        Insn::Mov { rd, rs } => Op::Mov(m(rd), m(rs)),
        Insn::Add { rd, rs1, rs2 } => Op::Add(m(rd), m(rs1), m(rs2)),
        Insn::Sub { rd, rs1, rs2 } => Op::Sub(m(rd), m(rs1), m(rs2)),
        Insn::Mul { rd, rs1, rs2 } => Op::Mul(m(rd), m(rs1), m(rs2)),
        Insn::And { rd, rs1, rs2 } => Op::And(m(rd), m(rs1), m(rs2)),
        Insn::Or { rd, rs1, rs2 } => Op::Or(m(rd), m(rs1), m(rs2)),
        Insn::Xor { rd, rs1, rs2 } => Op::Xor(m(rd), m(rs1), m(rs2)),
        Insn::Shl { rd, rs1, rs2 } => Op::Shl(m(rd), m(rs1), m(rs2)),
        Insn::Shr { rd, rs1, rs2 } => Op::Shr(m(rd), m(rs1), m(rs2)),
        Insn::Divu { rd, rs1, rs2 } => Op::Divu(m(rd), m(rs1), m(rs2)),
        Insn::Ld { base, .. }
        | Insn::LdB { base, .. }
        | Insn::St { base, .. }
        | Insn::StB { base, .. } => access(program, pc, base, base, u64::MAX, None),
        Insn::Beq { rs1, rs2, target } => Op::Beq(m(rs1), m(rs2), target),
        Insn::Bne { rs1, rs2, target } => Op::Bne(m(rs1), m(rs2), target),
        Insn::Bltu { rs1, rs2, target } => Op::Bltu(m(rs1), m(rs2), target),
        Insn::Jmp { target } => Op::Jmp(target),
        Insn::Jr { rs } => Op::Jr(m(rs)),
        Insn::MaskData { r } => mask(r, u64::from(program.data_len)),
        Insn::MaskCode { r } => mask(r, program.code.len() as u64),
        Insn::Halt => Op::Halt,
    }
}

/// Lowers the longest superinstruction that starts at `pc` and ends
/// before `end` (its block's end), or the single instruction. Returns
/// the op, how many instructions it covers, and the offset of the one
/// among them that can trap.
///
/// The table is what the workloads execute: a memory access behind a
/// power-of-two `mask_data` of its base, optionally behind the `mov`
/// that fed the mask; a load followed by `add acc, acc, loaded`;
/// `li s, k; add rd, rs, s`; and that followed by `bltu`.
fn fused(program: &Program, pc: u32, end: u32) -> (Op, u32, u32) {
    let code = &program.code[pc as usize..end as usize];
    let data_len = u64::from(program.data_len);
    let pow2 = data_len.is_power_of_two();

    let mode = match *code {
        [Insn::Mov { rd, rs }, Insn::MaskData { r }, ref a, ..]
            if pow2 && r == rd && base_of(a) == Some(rd) =>
        {
            Some((2, rd, rs, data_len - 1))
        }
        [Insn::MaskData { r }, ref a, ..] if pow2 && base_of(a) == Some(r) => {
            Some((1, r, r, data_len - 1))
        }
        [ref a, ..] => base_of(a).map(|base| (0, base, base, u64::MAX)),
        [] => None,
    };
    if let Some((prefix, rb, rs, mask)) = mode {
        let acc = match code[prefix as usize..] {
            [Insn::Ld { rd: x, .. } | Insn::LdB { rd: x, .. }, Insn::Add { rd, rs1, rs2 }, ..]
                if (rs1, rs2) == (rd, x) || (rs1, rs2) == (x, rd) =>
            {
                Some(rd)
            }
            _ => None,
        };
        let width = prefix + 1 + u32::from(acc.is_some());
        return (
            access(program, pc + prefix, rb, rs, mask, acc),
            width,
            prefix,
        );
    }

    if let [Insn::Li { rd: s, imm }, Insn::Add { rd, rs1, rs2 }, ref rest @ ..] = *code {
        if rs1 == s || rs2 == s {
            let (rd, rs, s) = (m(rd), m(if rs2 == s { rs1 } else { rs2 }), m(s));
            return match (rest.first(), u32::try_from(imm)) {
                (Some(&Insn::Bltu { rs1, rs2, target }), Ok(k)) => {
                    let (a, b) = (m(rs1), m(rs2));
                    let op = Op::AddIBltu {
                        rd,
                        rs,
                        s,
                        a,
                        b,
                        k,
                        target,
                    };
                    (op, 3, 2)
                }
                _ => (Op::AddI(rd, rs, s, imm as u64), 2, 0),
            };
        }
    }
    (one(program, pc), 1, 0)
}
