//! The bytecode interpreter.
//!
//! Executes a [`Program`] against a private data segment with deterministic
//! step accounting. The interpreter itself enforces memory safety at the
//! *simulation* level (a stray access is an [`InterpError::Fault`], never
//! undefined behaviour) — the point of the SFI/verifier/certification
//! comparison is *when* and *at what cost* each scheme guarantees that a
//! component cannot reach the fault path at all.
//!
//! There is one oracle and one executor:
//!
//! - [`Interp`] — the fully-checked oracle: fuel, fetch, bounds and jump
//!   validation on every single step. Kept byte-for-byte stable; it runs
//!   nothing but tests and benches, which judge the executor against it.
//! - [`ElidedInterp`] — what every loaded component runs: a single `match`
//!   loop over an [`ElidedProgram`], the flat pre-decoded op array that
//!   [`crate::lower`] builds once at load. It keeps every check the oracle
//!   makes — what it sheds is the per-step decode, fetch and fuel tests —
//!   so it serves every protection regime, and the conformance suite holds
//!   it bit-for-bit equal to the oracle. A counted loop (a checksum's
//!   inner loop) sheds the per-iteration dispatch too: once the whole trip
//!   is shown to stay in the segment and under the mask, the trip's loads
//!   are one slice reduction with the pointer and accumulator in host
//!   registers, and its fuel and guards one charge.

use crate::bytecode::{Insn, Program, Reg, NUM_REGS};
use crate::lower::Op;

pub use crate::lower::ElidedProgram;

/// Execution errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// A memory access left the data segment.
    Fault {
        /// Instruction index of the faulting access.
        pc: u32,
        /// Byte address that was attempted.
        addr: u64,
    },
    /// A branch or indirect jump left the program.
    BadJump {
        /// Instruction index of the jump.
        pc: u32,
        /// The attempted target.
        target: u64,
    },
    /// Unsigned division by zero.
    DivideByZero {
        /// Instruction index.
        pc: u32,
    },
    /// The step budget was exhausted before `Halt`.
    OutOfSteps,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Fault { pc, addr } => {
                write!(f, "memory fault at pc {pc}: address {addr:#x}")
            }
            InterpError::BadJump { pc, target } => {
                write!(f, "bad jump at pc {pc}: target {target}")
            }
            InterpError::DivideByZero { pc } => write!(f, "divide by zero at pc {pc}"),
            InterpError::OutOfSteps => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for InterpError {}

/// The result of a completed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Value of `r0` at `Halt`.
    pub result: u64,
    /// Instructions executed (the run-time cost in VM cycles).
    pub steps: u64,
    /// How many of those steps were guard instructions
    /// (`MaskData`/`MaskCode`) — the measurable SFI overhead.
    pub guard_steps: u64,
}

/// An interpreter instance: registers plus the data segment.
pub struct Interp {
    code: Vec<Insn>,
    regs: [u64; NUM_REGS],
    data: Vec<u8>,
}

impl Interp {
    /// Creates an interpreter for `program` with a zeroed data segment.
    pub fn new(program: &Program) -> Self {
        Interp {
            code: program.code.clone(),
            regs: [0; NUM_REGS],
            data: vec![0; program.data_len as usize],
        }
    }

    /// Pre-loads bytes into the data segment at `offset` (e.g. a packet for
    /// a protocol-processing component).
    ///
    /// # Panics
    ///
    /// Panics if the bytes do not fit — a harness bug.
    pub fn load_data(&mut self, offset: usize, bytes: &[u8]) {
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Reads back the data segment (to inspect component output).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Sets an input register before the run.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.0 as usize] = v;
    }

    /// Reads back the register file (for differential comparison).
    pub fn regs(&self) -> &[u64; NUM_REGS] {
        &self.regs
    }

    /// Runs until `Halt`, error, or `max_steps`.
    pub fn run(&mut self, max_steps: u64) -> Result<ExecOutcome, InterpError> {
        let mut pc: u32 = 0;
        let mut steps: u64 = 0;
        let mut guard_steps: u64 = 0;
        let code_len = self.code.len() as u64;
        let data_len = self.data.len() as u64;

        macro_rules! reg {
            ($r:expr) => {
                self.regs[$r.0 as usize]
            };
        }

        loop {
            if steps >= max_steps {
                return Err(InterpError::OutOfSteps);
            }
            let insn = match self.code.get(pc as usize) {
                Some(i) => *i,
                None => {
                    return Err(InterpError::BadJump {
                        pc,
                        target: u64::from(pc),
                    });
                }
            };
            steps += 1;
            let mut next = pc + 1;
            match insn {
                Insn::Li { rd, imm } => reg!(rd) = imm as u64,
                Insn::Mov { rd, rs } => reg!(rd) = reg!(rs),
                Insn::Add { rd, rs1, rs2 } => reg!(rd) = reg!(rs1).wrapping_add(reg!(rs2)),
                Insn::Sub { rd, rs1, rs2 } => reg!(rd) = reg!(rs1).wrapping_sub(reg!(rs2)),
                Insn::Mul { rd, rs1, rs2 } => reg!(rd) = reg!(rs1).wrapping_mul(reg!(rs2)),
                Insn::Divu { rd, rs1, rs2 } => {
                    let d = reg!(rs2);
                    if d == 0 {
                        return Err(InterpError::DivideByZero { pc });
                    }
                    reg!(rd) = reg!(rs1) / d;
                }
                Insn::And { rd, rs1, rs2 } => reg!(rd) = reg!(rs1) & reg!(rs2),
                Insn::Or { rd, rs1, rs2 } => reg!(rd) = reg!(rs1) | reg!(rs2),
                Insn::Xor { rd, rs1, rs2 } => reg!(rd) = reg!(rs1) ^ reg!(rs2),
                Insn::Shl { rd, rs1, rs2 } => reg!(rd) = reg!(rs1) << (reg!(rs2) & 63),
                Insn::Shr { rd, rs1, rs2 } => reg!(rd) = reg!(rs1) >> (reg!(rs2) & 63),
                Insn::Ld { rd, base, off } => {
                    let addr = effective(reg!(base), off);
                    let a = addr as usize;
                    if addr.checked_add(8).is_none() || addr + 8 > data_len {
                        return Err(InterpError::Fault { pc, addr });
                    }
                    reg!(rd) = u64::from_le_bytes(self.data[a..a + 8].try_into().expect("8 bytes"));
                }
                Insn::LdB { rd, base, off } => {
                    let addr = effective(reg!(base), off);
                    if addr >= data_len {
                        return Err(InterpError::Fault { pc, addr });
                    }
                    reg!(rd) = u64::from(self.data[addr as usize]);
                }
                Insn::St { rs, base, off } => {
                    let addr = effective(reg!(base), off);
                    let a = addr as usize;
                    if addr.checked_add(8).is_none() || addr + 8 > data_len {
                        return Err(InterpError::Fault { pc, addr });
                    }
                    let v = reg!(rs).to_le_bytes();
                    self.data[a..a + 8].copy_from_slice(&v);
                }
                Insn::StB { rs, base, off } => {
                    let addr = effective(reg!(base), off);
                    if addr >= data_len {
                        return Err(InterpError::Fault { pc, addr });
                    }
                    let v = reg!(rs) as u8;
                    self.data[addr as usize] = v;
                }
                Insn::Beq { rs1, rs2, target } => {
                    if reg!(rs1) == reg!(rs2) {
                        next = check_jump(pc, u64::from(target), code_len)?;
                    }
                }
                Insn::Bne { rs1, rs2, target } => {
                    if reg!(rs1) != reg!(rs2) {
                        next = check_jump(pc, u64::from(target), code_len)?;
                    }
                }
                Insn::Bltu { rs1, rs2, target } => {
                    if reg!(rs1) < reg!(rs2) {
                        next = check_jump(pc, u64::from(target), code_len)?;
                    }
                }
                Insn::Jmp { target } => {
                    next = check_jump(pc, u64::from(target), code_len)?;
                }
                Insn::Jr { rs } => {
                    next = check_jump(pc, reg!(rs), code_len)?;
                }
                Insn::MaskData { r } => {
                    guard_steps += 1;
                    if data_len > 0 {
                        reg!(r) %= data_len;
                    } else {
                        reg!(r) = 0;
                    }
                }
                Insn::MaskCode { r } => {
                    guard_steps += 1;
                    if code_len > 0 {
                        reg!(r) %= code_len;
                    }
                }
                Insn::Halt => {
                    return Ok(ExecOutcome {
                        result: self.regs[0],
                        steps,
                        guard_steps,
                    });
                }
            }
            pc = next;
        }
    }
}

/// Effective address of a base+offset access (wrapping, like hardware).
fn effective(base: u64, off: i32) -> u64 {
    base.wrapping_add(off as i64 as u64)
}

/// Validates a jump target.
fn check_jump(pc: u32, target: u64, code_len: u64) -> Result<u32, InterpError> {
    if target >= code_len {
        Err(InterpError::BadJump { pc, target })
    } else {
        Ok(target as u32)
    }
}

/// A lowered program with an execution context of its own: register file
/// and data segment, allocated once.
pub struct ElidedInterp<'a> {
    prog: &'a ElidedProgram,
    regs: [u64; NUM_REGS],
    data: Vec<u8>,
}

/// Register-file index of an operand. Lowering pre-masked it; masking again
/// is what lets the compiler drop the bounds check.
#[inline(always)]
fn ix(r: u8) -> usize {
    (r & (NUM_REGS as u8 - 1)) as usize
}

/// Data-segment (or jump-table) index of a 64-bit machine value: one that
/// does not fit `usize` maps to `usize::MAX`, which is never in bounds.
#[inline(always)]
fn seg(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Applies an access's address mode — `t = regs[rs] & mask; regs[rb] = t` —
/// and returns the effective address `t + off`.
#[inline(always)]
fn address(r: &mut [u64; NUM_REGS], rb: u8, rs: u8, off: i32, mask: u64) -> u64 {
    let t = r[ix(rs)] & mask;
    r[ix(rb)] = t;
    effective(t, off)
}

/// Loads a byte or (`WIDE`) a word through an address mode; `Err` is the
/// faulting address.
#[inline(always)]
fn load<const WIDE: bool>(
    r: &mut [u64; NUM_REGS],
    data: &[u8],
    (rb, rs, off, mask): (u8, u8, i32, u64),
) -> Result<u64, u64> {
    let addr = address(r, rb, rs, off, mask);
    let (a, n) = (seg(addr), if WIDE { 8 } else { 1 });
    let bytes = a
        .checked_add(n)
        .and_then(|end| data.get(a..end))
        .ok_or(addr)?;
    let mut word = [0; 8];
    word[..n].copy_from_slice(bytes);
    Ok(u64::from_le_bytes(word))
}

/// Stores the low byte or (`WIDE`) all of `regs[x]` through an address
/// mode; `Err` is the faulting address.
#[inline(always)]
fn store<const WIDE: bool>(
    r: &mut [u64; NUM_REGS],
    data: &mut [u8],
    x: u8,
    (rb, rs, off, mask): (u8, u8, i32, u64),
) -> Result<(), u64> {
    let addr = address(r, rb, rs, off, mask);
    let (a, n) = (seg(addr), if WIDE { 8 } else { 1 });
    let bytes = a
        .checked_add(n)
        .and_then(|end| data.get_mut(a..end))
        .ok_or(addr)?;
    bytes.copy_from_slice(&r[ix(x)].to_le_bytes()[..n]);
    Ok(())
}

impl<'a> ElidedInterp<'a> {
    /// Creates a context for `prog` with a zeroed data segment.
    pub fn new(prog: &'a ElidedProgram) -> Self {
        ElidedInterp {
            prog,
            regs: [0; NUM_REGS],
            data: vec![0; prog.data_len as usize],
        }
    }

    /// Pre-loads bytes into the data segment at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the bytes do not fit — a harness bug.
    pub fn load_data(&mut self, offset: usize, bytes: &[u8]) {
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Reads back the data segment.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Sets an input register before the run.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.0 as usize] = v;
    }

    /// Reads back the register file (for differential comparison).
    pub fn regs(&self) -> &[u64; NUM_REGS] {
        &self.regs
    }

    /// Runs until `Halt`, error, or `max_steps`; see [`ElidedProgram::run`].
    pub fn run(&mut self, max_steps: u64) -> Result<ExecOutcome, InterpError> {
        self.prog.run(&mut self.regs, &mut self.data, max_steps)
    }
}

impl ElidedProgram {
    /// The executor: one `match` loop over the lowered ops, from the first
    /// block, over the caller's register file and data segment (which must
    /// be `data_len` bytes) until `Halt`, error, or `max_steps`. Observable
    /// behaviour — result, step and guard counts, error variant and
    /// payload, final registers and memory — is identical to
    /// [`Interp::run`] on the program this was lowered from.
    pub fn run(
        &self,
        regs: &mut [u64; NUM_REGS],
        data: &mut [u8],
        max_steps: u64,
    ) -> Result<ExecOutcome, InterpError> {
        assert_eq!(
            data.len(),
            self.data_len as usize,
            "not this program's segment"
        );
        let ops = self.ops.as_slice();
        // The register file stays in a local for the run, where the compiler
        // can see nothing else aliases it.
        let mut r = *regs;
        // The ops still ahead of the one being executed; its own index is
        // recovered from this only when a trap needs to report a pc.
        let mut rest = ops;
        let index = |rest: &[Op]| ops.len() - rest.len() - 1;
        // Fuel counts down; `steps` is what has been spent.
        let mut left = max_steps;
        let mut guard_steps: u64 = 0;
        let outcome = loop {
            let here = rest;
            let Some((op, next)) = here.split_first() else {
                unreachable!("every lowered path ends in a halt, a trap or a jump");
            };
            rest = next;
            match *op {
                Op::Block { .. } => rest = enter(ops, here, &mut left, &mut guard_steps),
                Op::Tick => {
                    if left == 0 {
                        break Err(InterpError::OutOfSteps);
                    }
                    left -= 1;
                }
                Op::CountedLoop => {
                    if let Some((next, steps, guards)) =
                        counted_loop(ops, index(rest), &mut r, data, left)
                    {
                        rest = next;
                        left -= steps;
                        guard_steps += guards;
                    }
                }
                Op::Li(rd, imm) => r[ix(rd)] = imm,
                Op::Mov(rd, rs) => r[ix(rd)] = r[ix(rs)],
                Op::Add(rd, a, b) => r[ix(rd)] = r[ix(a)].wrapping_add(r[ix(b)]),
                Op::Sub(rd, a, b) => r[ix(rd)] = r[ix(a)].wrapping_sub(r[ix(b)]),
                Op::Mul(rd, a, b) => r[ix(rd)] = r[ix(a)].wrapping_mul(r[ix(b)]),
                Op::And(rd, a, b) => r[ix(rd)] = r[ix(a)] & r[ix(b)],
                Op::Or(rd, a, b) => r[ix(rd)] = r[ix(a)] | r[ix(b)],
                Op::Xor(rd, a, b) => r[ix(rd)] = r[ix(a)] ^ r[ix(b)],
                Op::Shl(rd, a, b) => r[ix(rd)] = r[ix(a)] << (r[ix(b)] & 63),
                Op::Shr(rd, a, b) => r[ix(rd)] = r[ix(a)] >> (r[ix(b)] & 63),
                Op::Divu(rd, a, b) => {
                    let d = r[ix(b)];
                    if d == 0 {
                        break Err(self.divide_by_zero(index(rest)));
                    }
                    r[ix(rd)] = r[ix(a)] / d;
                }
                Op::AndI(x, k) => r[ix(x)] &= k,
                Op::RemI(x, k) => r[ix(x)] %= k,
                Op::AddI(rd, rs, s, k) => {
                    r[ix(s)] = k;
                    r[ix(rd)] = r[ix(rs)].wrapping_add(k);
                }
                Op::AddIBltu {
                    rd,
                    rs,
                    s,
                    a,
                    b,
                    k,
                    target,
                } => {
                    r[ix(s)] = u64::from(k);
                    r[ix(rd)] = r[ix(rs)].wrapping_add(u64::from(k));
                    if r[ix(a)] < r[ix(b)] {
                        rest = enter(ops, &ops[target as usize..], &mut left, &mut guard_steps);
                    }
                }
                Op::Ld(x, rb, rs, off, mask) => {
                    match load::<true>(&mut r, data, (rb, rs, off, mask)) {
                        Ok(v) => r[ix(x)] = v,
                        Err(addr) => break Err(self.fault(index(rest), addr)),
                    }
                }
                Op::LdB(x, rb, rs, off, mask) => {
                    match load::<false>(&mut r, data, (rb, rs, off, mask)) {
                        Ok(v) => r[ix(x)] = v,
                        Err(addr) => break Err(self.fault(index(rest), addr)),
                    }
                }
                Op::LdAdd(xa, rb, rs, off, mask) => {
                    match load::<true>(&mut r, data, (rb, rs, off, mask)) {
                        Ok(v) => accumulate(&mut r, xa, v),
                        Err(addr) => break Err(self.fault(index(rest), addr)),
                    }
                }
                Op::LdBAdd(xa, rb, rs, off, mask) => {
                    match load::<false>(&mut r, data, (rb, rs, off, mask)) {
                        Ok(v) => accumulate(&mut r, xa, v),
                        Err(addr) => break Err(self.fault(index(rest), addr)),
                    }
                }
                Op::St(x, rb, rs, off, mask) => {
                    if let Err(addr) = store::<true>(&mut r, data, x, (rb, rs, off, mask)) {
                        break Err(self.fault(index(rest), addr));
                    }
                }
                Op::StB(x, rb, rs, off, mask) => {
                    if let Err(addr) = store::<false>(&mut r, data, x, (rb, rs, off, mask)) {
                        break Err(self.fault(index(rest), addr));
                    }
                }
                Op::Beq(a, b, target) => {
                    if r[ix(a)] == r[ix(b)] {
                        rest = enter(ops, &ops[target as usize..], &mut left, &mut guard_steps);
                    }
                }
                Op::Bne(a, b, target) => {
                    if r[ix(a)] != r[ix(b)] {
                        rest = enter(ops, &ops[target as usize..], &mut left, &mut guard_steps);
                    }
                }
                Op::Bltu(a, b, target) => {
                    if r[ix(a)] < r[ix(b)] {
                        rest = enter(ops, &ops[target as usize..], &mut left, &mut guard_steps);
                    }
                }
                Op::Jmp(target) => {
                    rest = enter(ops, &ops[target as usize..], &mut left, &mut guard_steps)
                }
                Op::Jr(rs) => match self.entry.get(seg(r[ix(rs)])) {
                    Some(&header) => {
                        rest = enter(ops, &ops[header as usize..], &mut left, &mut guard_steps)
                    }
                    None => break Err(self.bad_jump(index(rest), r[ix(rs)])),
                },
                Op::Halt => {
                    break Ok(ExecOutcome {
                        result: r[0],
                        steps: max_steps - left,
                        guard_steps,
                    });
                }
                Op::BadJump(pc, target) => {
                    let target = u64::from(target);
                    break Err(InterpError::BadJump { pc, target });
                }
                // Like the oracle, check fuel before fetching past the end.
                Op::OffEnd if left == 0 => break Err(InterpError::OutOfSteps),
                Op::OffEnd => break Err(self.bad_jump(index(rest), self.entry.len() as u64)),
            }
        };
        *regs = r;
        outcome
    }
}

/// Enters `block`, a suffix of `ops` that starts at a block header: charges
/// the block's pre-summed fuel and guard steps and returns what follows the
/// header — or, when fuel is short of the whole block, the block's fuel
/// tail. A suffix that starts at a non-header (the trap a bad static target
/// lowered to) is returned as is, to be dispatched.
///
/// Every control transfer calls this rather than dispatching the header:
/// one dispatch fewer per loop iteration, and a taken branch compiles to a
/// predicted branch instead of a select the next fetch must wait for.
#[inline(always)]
fn enter<'a>(ops: &'a [Op], block: &'a [Op], left: &mut u64, guard_steps: &mut u64) -> &'a [Op] {
    let [Op::Block { fuel, guards, tail }, body @ ..] = block else {
        return block;
    };
    match left.checked_sub(u64::from(*fuel)) {
        Some(rest) => {
            *left = rest;
            *guard_steps += u64::from(*guards);
            body
        }
        None => &ops[*tail as usize..],
    }
}

/// Runs the rest of a counted loop's trip in one step, from its marker at
/// `ops[at]` (the header before it has charged the first iteration), with
/// `left` fuel in hand. Returns where execution goes on and the steps and
/// guard steps to charge. `None` — some iteration might trap, the mask
/// might move a pointer, or the arithmetic would overflow — leaves the
/// registers as they were for the loop's own two ops to run.
///
/// The step takes `n` iterations: the whole trip, or as many as the fuel
/// pays for. It leaves the registers as the `n`th iteration does, charges
/// the `n - 1` iterations after the first, and goes on after the back
/// edge, or at the block's fuel tail when fuel cut the trip short. The
/// charges come back by value so the executor's fuel stays in a register.
#[inline(never)]
fn counted_loop<'a>(
    ops: &'a [Op],
    at: usize,
    r: &mut [u64; NUM_REGS],
    data: &[u8],
    left: u64,
) -> Option<(&'a [Op], u64, u64)> {
    let [Op::Block { fuel, guards, tail }, Op::CountedLoop, access, Op::AddIBltu { rd: p, s, b, k, .. }, ..] =
        &ops[at - 1..]
    else {
        return None;
    };
    let (width, xa, rb, off, mask) = match *access {
        Op::LdBAdd(xa, rb, _, off, mask) => (1, xa, rb, off, mask),
        Op::LdAdd(xa, rb, _, off, mask) => (8, xa, rb, off, mask),
        _ => return None,
    };
    let (p0, bound, k) = (r[ix(*p)], r[ix(*b)], u64::from(*k));
    // The trip ends at the first increment that reaches the bound; with a
    // zero stride, one that starts below it never ends.
    let trip = if p0 < bound {
        (bound - p0 - 1).checked_div(k)? + 1
    } else {
        1
    };
    let n = trip.min(left.checked_div(u64::from(*fuel))?.checked_add(1)?);
    let last = (n - 1).checked_mul(k)?.checked_add(p0)?;
    let next = last.checked_add(k)?;
    // A mask is all ones below a power of two, so it leaves every pointer
    // of the trip as it is exactly when it leaves the last one.
    if last > mask {
        return None;
    }
    let from = p0.checked_add_signed(i64::from(off))?;
    let to = last
        .checked_add_signed(i64::from(off))?
        .checked_add(width)?;
    let span = data.get(seg(from)..seg(to))?;
    // A trip of one may have a zero stride.
    let step = usize::try_from(k.max(1)).ok()?;
    let word = |w: &[u8]| {
        let mut le = [0; 8];
        le[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(le)
    };
    let sum = match (width, step) {
        // Unit-stride bytes on their own: that sum vectorises.
        (1, 1) => span.iter().map(|&v| u64::from(v)).sum(),
        (1, _) => span.iter().step_by(step).map(|&v| u64::from(v)).sum(),
        _ => {
            let words = span.windows(8).step_by(step).map(word);
            words.fold(0, u64::wrapping_add)
        }
    };

    r[ix(rb)] = last;
    r[ix(xa)] = word(&span[span.len() - width as usize..]);
    r[ix(xa >> 4)] = r[ix(xa >> 4)].wrapping_add(sum);
    r[ix(*s)] = k;
    r[ix(*p)] = next;
    let next = if n == trip {
        &ops[at + 3..]
    } else {
        &ops[*tail as usize..]
    };
    let more = n - 1;
    Some((next, more * u64::from(*fuel), more * u64::from(*guards)))
}

/// The tail of a fused load-and-accumulate: `regs[x] = v; regs[acc] +=
/// regs[x]`, with `x` and `acc` packed into `xa`. In program order, so
/// `x == acc` doubles the loaded value as it does in the oracle.
#[inline(always)]
fn accumulate(r: &mut [u64; NUM_REGS], xa: u8, v: u64) {
    r[ix(xa)] = v;
    r[ix(xa >> 4)] = r[ix(xa >> 4)].wrapping_add(r[ix(xa)]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn arithmetic_loop() {
        // Sum 1..=100 = 5050.
        let mut a = Asm::new(0);
        a.li(r(0), 0).li(r(1), 1).li(r(2), 101);
        a.label("loop");
        a.add(r(0), r(0), r(1));
        a.addi(r(1), r(1), 1);
        a.bltu(r(1), r(2), "loop");
        a.halt();
        let p = a.finish().unwrap();
        let out = Interp::new(&p).run(10_000).unwrap();
        assert_eq!(out.result, 5050);
        assert_eq!(out.guard_steps, 0);
    }

    #[test]
    fn memory_roundtrip_and_bounds() {
        let mut a = Asm::new(64);
        a.li(r(1), 16);
        a.li(r(2), 0xABCD);
        a.st(r(2), r(1), 0);
        a.ld(r(0), r(1), 0);
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(Interp::new(&p).run(100).unwrap().result, 0xABCD);
    }

    #[test]
    fn out_of_bounds_load_faults() {
        let mut a = Asm::new(8);
        a.li(r(1), 8); // One past: 8..16 > 8.
        a.ld(r(0), r(1), 0);
        a.halt();
        let p = a.finish().unwrap();
        assert!(matches!(
            Interp::new(&p).run(100),
            Err(InterpError::Fault { addr: 8, .. })
        ));
    }

    #[test]
    fn negative_offset_wraps_and_faults() {
        let mut a = Asm::new(8);
        a.li(r(1), 0);
        a.ldb(r(0), r(1), -1);
        a.halt();
        let p = a.finish().unwrap();
        assert!(matches!(
            Interp::new(&p).run(100),
            Err(InterpError::Fault { .. })
        ));
    }

    #[test]
    fn bad_indirect_jump_is_caught() {
        let mut a = Asm::new(0);
        a.li(r(1), 1_000_000);
        a.jr(r(1));
        a.halt();
        let p = a.finish().unwrap();
        assert!(matches!(
            Interp::new(&p).run(100),
            Err(InterpError::BadJump { .. })
        ));
    }

    #[test]
    fn divide_by_zero_traps() {
        let mut a = Asm::new(0);
        a.li(r(1), 5).li(r(2), 0);
        a.raw(Insn::Divu {
            rd: r(0),
            rs1: r(1),
            rs2: r(2),
        });
        a.halt();
        let p = a.finish().unwrap();
        assert!(matches!(
            Interp::new(&p).run(100),
            Err(InterpError::DivideByZero { pc: 2 })
        ));
    }

    #[test]
    fn step_budget_is_enforced() {
        let mut a = Asm::new(0);
        a.label("spin");
        a.jmp("spin");
        let p = a.finish().unwrap();
        assert_eq!(Interp::new(&p).run(1000), Err(InterpError::OutOfSteps));
    }

    #[test]
    fn mask_data_confines_addresses() {
        let mut a = Asm::new(16);
        a.li(r(1), 1000); // Way out of bounds.
        a.mask_data(r(1)); // Confined to 0..16 → 1000 % 16 = 8.
        a.ldb(r(0), r(1), 0);
        a.halt();
        let p = a.finish().unwrap();
        let out = Interp::new(&p).run(100).unwrap();
        assert_eq!(out.guard_steps, 1);
        assert_eq!(out.result, 0);
    }

    #[test]
    fn falling_off_the_end_is_a_bad_jump() {
        let p = Program::new(vec![Insn::Li { rd: r(0), imm: 1 }], 0);
        assert!(matches!(
            Interp::new(&p).run(10),
            Err(InterpError::BadJump { .. })
        ));
    }

    #[test]
    fn input_registers_and_data_loading() {
        let mut a = Asm::new(32);
        // r0 = mem8[r1].
        a.ldb(r(0), r(1), 0);
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        i.load_data(5, &[42]);
        i.set_reg(r(1), 5);
        assert_eq!(i.run(10).unwrap().result, 42);
    }
}
