//! Static analysis over verified bytecode: CFG, abstract interpretation,
//! and a per-instruction proof map.
//!
//! This is the load-time machinery behind the paper's software-protection
//! bet: prove safety *once*, at load time, so the hot path pays nothing at
//! run time. The pipeline is
//!
//! 1. [`cfg::Cfg::build`] — basic blocks, successor/predecessor edges,
//!    reachability;
//! 2. a worklist fixpoint over [`domain::AbsVal`] states (intervals +
//!    known bits per register). Both views are widened at loop heads
//!    (`domain::AbsVal::widen`), so a loop costs a few visits per nesting
//!    level rather than one per bit of its widest accumulator: every
//!    program in the tree converges in under a quarter of the
//!    `TooComplex` budget, which the `convergence` test pins;
//! 3. a final facts pass producing the [`ProofMap`]: for each reachable
//!    instruction, which run-time checks are statically discharged —
//!    loads/stores proven in-bounds, divisors proven nonzero, jumps proven
//!    in-range, branches proven one-sided, instructions proven
//!    unreachable or proven to always trap.
//!
//! The [`crate::verifier`] turns missing proofs into load-time rejection.
//! The executor does not consume them: [`crate::lower`] keeps every
//! run-time check.

pub mod cfg;
#[cfg(test)]
mod convergence;
pub mod domain;

use crate::bytecode::{Insn, Program, Reg, NUM_REGS};
use crate::verifier::{VerifyError, VerifyReport};
use cfg::Cfg;
use domain::AbsVal;

/// Abstract machine state: one [`AbsVal`] per register.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbsState {
    /// Per-register abstract value.
    pub regs: [AbsVal; NUM_REGS],
}

impl AbsState {
    fn entry() -> AbsState {
        AbsState {
            regs: [AbsVal::TOP; NUM_REGS],
        }
    }

    /// Merges `other` into `self` register by register: `merge_val` is
    /// the value lattice's join or widening.
    fn merge(&self, other: &AbsState, merge_val: impl Fn(AbsVal, AbsVal) -> AbsVal) -> AbsState {
        let mut out = *self;
        for i in 0..NUM_REGS {
            out.regs[i] = merge_val(self.regs[i], other.regs[i]);
        }
        out
    }

    /// Abstract value of a register.
    pub fn reg(&self, r: Reg) -> AbsVal {
        self.regs[r.0 as usize]
    }
}

/// Facts discharged for one instruction (bitflags).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Facts(u16);

impl Facts {
    /// The instruction can execute (some state reaches it).
    pub const REACHABLE: Facts = Facts(1);
    /// Memory access proven in-bounds on every execution.
    pub const MEM_SAFE: Facts = Facts(2);
    /// Divisor proven nonzero on every execution.
    pub const DIV_NONZERO: Facts = Facts(4);
    /// Jump target proven a valid instruction index on every execution.
    pub const JUMP_SAFE: Facts = Facts(8);
    /// Conditional branch proven to always take its target.
    pub const ALWAYS_TAKEN: Facts = Facts(16);
    /// Conditional branch proven to never take its target.
    pub const NEVER_TAKEN: Facts = Facts(32);
    /// The instruction traps on every execution.
    pub const ALWAYS_TRAPS: Facts = Facts(64);

    /// Set union.
    #[must_use]
    pub fn with(self, other: Facts) -> Facts {
        Facts(self.0 | other.0)
    }

    /// True if every flag of `other` is present.
    pub fn has(self, other: Facts) -> bool {
        self.0 & other.0 == other.0
    }
}

/// The per-instruction proof map: what the analysis discharged.
#[derive(Clone, Debug)]
pub struct ProofMap {
    facts: Vec<Facts>,
}

impl ProofMap {
    /// Facts for instruction `pc`.
    pub fn at(&self, pc: u32) -> Facts {
        self.facts[pc as usize]
    }

    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True if the program had no instructions.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Counts instructions carrying `fact`.
    pub fn count(&self, fact: Facts) -> usize {
        self.facts.iter().filter(|f| f.has(fact)).count()
    }
}

/// The full analysis result.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Per-instruction discharged facts.
    pub proofs: ProofMap,
    /// Abstract state *before* each reachable instruction.
    pub pc_states: Vec<Option<AbsState>>,
    /// Load-time cost statistics.
    pub report: VerifyReport,
    data_len: u32,
}

impl Analysis {
    /// Declared data-segment size of the analyzed program.
    pub fn data_len(&self) -> u32 {
        self.data_len
    }

    /// The verifier's accept/reject decision over the proof map: every
    /// reachable memory access must be proven in-bounds and every
    /// reachable indirect jump must be proven in-range or through a known
    /// constant (a constant target at worst traps, contained, at run
    /// time — the same containment argument as falling off the end).
    pub fn verdict(&self, program: &Program) -> Result<(), VerifyError> {
        for pc in self.cfg.reachable_pcs() {
            let f = self.proofs.at(pc);
            if !f.has(Facts::REACHABLE) {
                continue; // Pruned by a decided branch.
            }
            match program.code[pc as usize] {
                Insn::Ld { .. } | Insn::LdB { .. } | Insn::St { .. } | Insn::StB { .. }
                    if !f.has(Facts::MEM_SAFE) =>
                {
                    return Err(VerifyError::UnsafeMemoryAccess { pc });
                }
                Insn::Jr { rs } => {
                    let known = self.pc_states[pc as usize]
                        .as_ref()
                        .is_some_and(|s| s.reg(rs).as_const().is_some());
                    if !f.has(Facts::JUMP_SAFE) && !known {
                        return Err(VerifyError::UnguardedIndirectJump { pc });
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// How a memory access relates to the data segment in a given state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MemVerdict {
    /// In-bounds on every execution.
    Safe,
    /// Out-of-bounds on every execution.
    AlwaysTraps,
    /// Not provable either way.
    Unknown,
}

/// Classifies `base + off .. base + off + size` against `data_len`.
fn classify_access(base: AbsVal, off: i32, size: u64, data_len: u64) -> MemVerdict {
    if off >= 0 {
        let delta = off as u64 + size; // <= i32::MAX + 8, never overflows.
        match (base.lo.checked_add(delta), base.hi.checked_add(delta)) {
            (Some(_), Some(hi_end)) if hi_end <= data_len => MemVerdict::Safe,
            (Some(lo_end), Some(_)) if lo_end > data_len => MemVerdict::AlwaysTraps,
            _ => MemVerdict::Unknown,
        }
    } else {
        let m = off.unsigned_abs() as u64;
        if base.lo >= m {
            // No member wraps below zero; an access whose end overflows
            // the address space traps like any other out-of-bounds one.
            let hi_end = (base.hi - m).checked_add(size);
            let lo_end = (base.lo - m).checked_add(size);
            if hi_end.is_some_and(|end| end <= data_len) {
                MemVerdict::Safe
            } else if lo_end.is_none_or(|end| end > data_len) {
                MemVerdict::AlwaysTraps
            } else {
                MemVerdict::Unknown
            }
        } else if base.hi < m {
            // Every member wraps to the top of the address space — far
            // beyond any 32-bit data segment.
            MemVerdict::AlwaysTraps
        } else {
            MemVerdict::Unknown
        }
    }
}

/// The static target of a branch or jump.
fn static_target(insn: &Insn) -> Option<u32> {
    match *insn {
        Insn::Beq { target, .. }
        | Insn::Bne { target, .. }
        | Insn::Bltu { target, .. }
        | Insn::Jmp { target } => Some(target),
        _ => None,
    }
}

/// Statically decides a conditional branch, if the state allows.
fn decide_branch(insn: &Insn, state: &AbsState) -> Option<bool> {
    let (a, b, kind) = match *insn {
        Insn::Beq { rs1, rs2, .. } => (state.reg(rs1), state.reg(rs2), 0u8),
        Insn::Bne { rs1, rs2, .. } => (state.reg(rs1), state.reg(rs2), 1),
        Insn::Bltu { rs1, rs2, .. } => (state.reg(rs1), state.reg(rs2), 2),
        _ => return None,
    };
    // Can the two values be equal / unequal / ordered?
    let disjoint = a.hi < b.lo || b.hi < a.lo || (a.ones & b.zeros) | (b.ones & a.zeros) != 0;
    let both_same_const = matches!((a.as_const(), b.as_const()), (Some(x), Some(y)) if x == y);
    match kind {
        0 => {
            // Beq: taken iff equal.
            if both_same_const {
                Some(true)
            } else if disjoint {
                Some(false)
            } else {
                None
            }
        }
        1 => {
            // Bne: taken iff unequal.
            if both_same_const {
                Some(false)
            } else if disjoint {
                Some(true)
            } else {
                None
            }
        }
        _ => {
            // Bltu: taken iff a < b.
            if a.hi < b.lo {
                Some(true)
            } else if a.lo >= b.hi {
                Some(false)
            } else {
                None
            }
        }
    }
}

/// Applies one instruction's abstract transfer to `state`.
fn transfer(insn: &Insn, state: &mut AbsState, data_len: u64, code_len: u64) {
    let get = |state: &AbsState, r: Reg| state.regs[r.0 as usize];
    let set = |state: &mut AbsState, r: Reg, v: AbsVal| state.regs[r.0 as usize] = v;
    match *insn {
        Insn::Li { rd, imm } => set(state, rd, AbsVal::constant(imm as u64)),
        Insn::Mov { rd, rs } => {
            let v = get(state, rs);
            set(state, rd, v);
        }
        Insn::Add { rd, rs1, rs2 } => {
            let v = get(state, rs1).add(get(state, rs2));
            set(state, rd, v);
        }
        Insn::Sub { rd, rs1, rs2 } => {
            let v = get(state, rs1).sub(get(state, rs2));
            set(state, rd, v);
        }
        Insn::Mul { rd, rs1, rs2 } => {
            let v = get(state, rs1).mul(get(state, rs2));
            set(state, rd, v);
        }
        Insn::Divu { rd, rs1, rs2 } => {
            let v = get(state, rs1).divu(get(state, rs2));
            set(state, rd, v);
        }
        Insn::And { rd, rs1, rs2 } => {
            let v = get(state, rs1).and(get(state, rs2));
            set(state, rd, v);
        }
        Insn::Or { rd, rs1, rs2 } => {
            let v = get(state, rs1).or(get(state, rs2));
            set(state, rd, v);
        }
        Insn::Xor { rd, rs1, rs2 } => {
            let v = get(state, rs1).xor(get(state, rs2));
            set(state, rd, v);
        }
        Insn::Shl { rd, rs1, rs2 } => {
            let v = get(state, rs1).shl(get(state, rs2));
            set(state, rd, v);
        }
        Insn::Shr { rd, rs1, rs2 } => {
            let v = get(state, rs1).shr(get(state, rs2));
            set(state, rd, v);
        }
        Insn::Ld { rd, .. } => set(state, rd, AbsVal::TOP),
        Insn::LdB { rd, .. } => set(state, rd, AbsVal::range(0, 255)),
        Insn::St { .. } | Insn::StB { .. } => {}
        Insn::MaskData { r } => {
            let v = if data_len > 0 {
                AbsVal::range(0, data_len - 1)
            } else {
                AbsVal::constant(0)
            };
            set(state, r, v);
        }
        Insn::MaskCode { r } => {
            // code_len >= 1 whenever an instruction executes.
            let v = AbsVal::range(0, code_len.saturating_sub(1));
            set(state, r, v);
        }
        Insn::Beq { .. }
        | Insn::Bne { .. }
        | Insn::Bltu { .. }
        | Insn::Jmp { .. }
        | Insn::Jr { .. }
        | Insn::Halt => {}
    }
}

/// Computes the facts for one instruction in `state`.
fn facts_for(insn: &Insn, state: &AbsState, data_len: u64, code_len: u64) -> Facts {
    let mut f = Facts::REACHABLE;
    let mem =
        |base: Reg, off: i32, size: u64| classify_access(state.reg(base), off, size, data_len);
    match *insn {
        Insn::Ld { base, off, .. } | Insn::St { base, off, .. } => match mem(base, off, 8) {
            MemVerdict::Safe => f = f.with(Facts::MEM_SAFE),
            MemVerdict::AlwaysTraps => f = f.with(Facts::ALWAYS_TRAPS),
            MemVerdict::Unknown => {}
        },
        Insn::LdB { base, off, .. } | Insn::StB { base, off, .. } => match mem(base, off, 1) {
            MemVerdict::Safe => f = f.with(Facts::MEM_SAFE),
            MemVerdict::AlwaysTraps => f = f.with(Facts::ALWAYS_TRAPS),
            MemVerdict::Unknown => {}
        },
        Insn::Divu { rs2, .. } => {
            let d = state.reg(rs2);
            if d.lo >= 1 {
                f = f.with(Facts::DIV_NONZERO);
            } else if d.as_const() == Some(0) {
                f = f.with(Facts::ALWAYS_TRAPS);
            }
        }
        Insn::Jr { rs } => {
            let t = state.reg(rs);
            if t.hi < code_len {
                f = f.with(Facts::JUMP_SAFE);
            } else if t.lo >= code_len {
                f = f.with(Facts::ALWAYS_TRAPS);
            }
        }
        // Static branch and jump targets were range-checked up front.
        Insn::Jmp { .. } => f = f.with(Facts::JUMP_SAFE),
        Insn::Beq { .. } | Insn::Bne { .. } | Insn::Bltu { .. } => {
            f = f.with(Facts::JUMP_SAFE);
            match decide_branch(insn, state) {
                Some(true) => f = f.with(Facts::ALWAYS_TAKEN),
                Some(false) => f = f.with(Facts::NEVER_TAKEN),
                None => {}
            }
        }
        _ => {}
    }
    f
}

/// Runs the full analysis: CFG, abstract-interpretation fixpoint, proof
/// map. Fails only on structural problems (out-of-range static branch
/// targets) or a blown iteration budget.
pub fn analyze(program: &Program) -> Result<Analysis, VerifyError> {
    analyze_with_budget(program, default_budget(program))
}

/// The evaluation budget [`analyze`] allows `program` before it gives up
/// with [`VerifyError::TooComplex`].
pub fn default_budget(program: &Program) -> u64 {
    (program.code.len() as u64 + 1) * 64
}

/// [`analyze`] with an explicit evaluation budget (exposed for tests).
pub(crate) fn analyze_with_budget(program: &Program, budget: u64) -> Result<Analysis, VerifyError> {
    analyze_widening(program, budget, AbsVal::widen)
}

/// The analysis over a given widening operator: [`AbsVal::widen`], or the
/// reference it is tested against.
fn analyze_widening(
    program: &Program,
    budget: u64,
    widen: impl Fn(AbsVal, AbsVal, &[u64]) -> AbsVal,
) -> Result<Analysis, VerifyError> {
    let code = &program.code;
    let code_len = code.len() as u32;
    let data_len = u64::from(program.data_len);

    // Pass 0: static branch targets.
    for (pc, insn) in code.iter().enumerate() {
        if let Some(t) = static_target(insn) {
            if t >= code_len {
                return Err(VerifyError::BadBranchTarget {
                    pc: pc as u32,
                    target: t,
                });
            }
        }
    }

    let cfg = Cfg::build(program);
    let mut report = VerifyReport::default();
    if code.is_empty() {
        return Ok(Analysis {
            cfg,
            proofs: ProofMap { facts: Vec::new() },
            pc_states: Vec::new(),
            report,
            data_len: program.data_len,
        });
    }

    // Widening thresholds: the segment bounds, so a masked value stays
    // provably in-segment across a back edge instead of blowing to MAX.
    // `widen` takes the least one that fits, in any order.
    let thresholds = [
        data_len.saturating_sub(8),
        data_len.saturating_sub(1),
        data_len,
        u64::from(code_len) - 1,
        u64::from(code_len),
        255,
        u64::MAX,
    ];

    let nb = cfg.blocks.len();
    let mut entry: Vec<Option<AbsState>> = vec![None; nb];
    let mut join_count: Vec<u32> = vec![0; nb];
    entry[0] = Some(AbsState::entry());
    let mut worklist: Vec<u32> = vec![0];

    // Fixpoint over block entry states.
    while let Some(b) = worklist.pop() {
        report.iterations += 1;
        let mut state = entry[b as usize].expect("worklist entries have states");
        let block = &cfg.blocks[b as usize];
        let mut decided: Option<bool> = None;
        for pc in block.start..block.end {
            report.evaluations += 1;
            if report.evaluations > budget {
                return Err(VerifyError::TooComplex {
                    pc,
                    evaluations: report.evaluations,
                });
            }
            let insn = &code[pc as usize];
            if pc + 1 == block.end {
                decided = decide_branch(insn, &state);
            }
            transfer(insn, &mut state, data_len, u64::from(code_len));
        }

        // Propagate along live edges: all of them, or the one a decided
        // branch takes (none if that is one past the end of the program: a
        // contained run-time trap).
        let taken: Option<u32>;
        let live: &[u32] = match (static_target(&code[(block.end - 1) as usize]), decided) {
            (Some(target), Some(jumps)) => {
                let next = if jumps { target } else { block.end };
                taken = cfg.block_of.get(next as usize).copied();
                debug_assert!(taken.is_none_or(|tb| cfg.blocks[tb as usize].start == next));
                taken.as_slice()
            }
            _ => &block.succs,
        };
        for &tb in live {
            let tb = tb as usize;
            let merged = match &entry[tb] {
                None => state,
                Some(old) if cfg.is_loop_head(tb as u32) && join_count[tb] >= 2 => {
                    old.merge(&state, |a, b| widen(a, b, &thresholds))
                }
                Some(old) => old.merge(&state, AbsVal::join),
            };
            if entry[tb].as_ref() != Some(&merged) {
                entry[tb] = Some(merged);
                join_count[tb] += 1;
                if !worklist.contains(&(tb as u32)) {
                    worklist.push(tb as u32);
                }
            }
        }
    }

    // Final pass: per-instruction states and facts at the fixpoint.
    let mut pc_states: Vec<Option<AbsState>> = vec![None; code.len()];
    let mut facts = vec![Facts::default(); code.len()];
    for (b, block) in cfg.blocks.iter().enumerate() {
        let Some(mut state) = entry[b] else { continue };
        for pc in block.start..block.end {
            report.evaluations += 1;
            let insn = &code[pc as usize];
            facts[pc as usize] = facts_for(insn, &state, data_len, u64::from(code_len));
            pc_states[pc as usize] = Some(state);
            transfer(insn, &mut state, data_len, u64::from(code_len));
        }
    }

    Ok(Analysis {
        cfg,
        proofs: ProofMap { facts },
        pc_states,
        report,
        data_len: program.data_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn masked_loop_keeps_bounds_across_back_edge() {
        let p = crate::workloads::checksum_loop_verified(64, 2);
        let a = analyze(&p).unwrap();
        assert!(a.verdict(&p).is_ok());
        // Every memory access carries a proof.
        for (pc, insn) in p.code.iter().enumerate() {
            if matches!(insn, Insn::LdB { .. }) {
                assert!(
                    a.proofs.at(pc as u32).has(Facts::MEM_SAFE),
                    "no proof at pc {pc}"
                );
            }
        }
    }

    #[test]
    fn proofs_cover_divisors_and_jumps() {
        let mut asm = Asm::new(0);
        asm.li(r(1), 10).li(r(2), 5);
        asm.raw(Insn::Divu {
            rd: r(0),
            rs1: r(1),
            rs2: r(2),
        });
        asm.halt();
        let p = asm.finish().unwrap();
        let a = analyze(&p).unwrap();
        assert!(a.proofs.at(2).has(Facts::DIV_NONZERO));
    }

    #[test]
    fn decided_branch_prunes_dead_edge() {
        let mut asm = Asm::new(0);
        asm.li(r(1), 3).li(r(2), 3);
        asm.bne(r(1), r(2), "dead");
        asm.li(r(0), 1);
        asm.halt();
        asm.label("dead");
        asm.li(r(0), 99);
        asm.halt();
        let p = asm.finish().unwrap();
        let a = analyze(&p).unwrap();
        assert!(a.proofs.at(2).has(Facts::NEVER_TAKEN));
        // The dead target never received a state.
        assert!(a.pc_states[5].is_none());
        assert!(!a.proofs.at(5).has(Facts::REACHABLE));
    }

    #[test]
    fn always_trapping_store_is_flagged_not_proven() {
        let p = crate::workloads::wild_writer();
        let a = analyze(&p).unwrap();
        // The wild store: pc 2 in wild_writer.
        assert!(a.proofs.at(2).has(Facts::ALWAYS_TRAPS));
        assert!(!a.proofs.at(2).has(Facts::MEM_SAFE));
        assert!(a.verdict(&p).is_err());
    }

    /// Asserts that each of `pcs` has every fact of `has` and no fact of
    /// `lacks`.
    fn assert_facts(p: &Program, pcs: &[u32], has: Facts, lacks: Facts) {
        let a = analyze(p).unwrap();
        for &pc in pcs {
            let f = a.proofs.at(pc);
            assert!(f.has(has) && !f.has(lacks), "pc {pc}: {f:?}");
        }
    }

    #[test]
    fn wild_writer_traps_only_at_its_wild_store() {
        let p = crate::workloads::wild_writer();
        let a = analyze(&p).unwrap();
        let trapping: Vec<usize> = (0..a.proofs.len())
            .filter(|&pc| a.proofs.at(pc as u32).has(Facts::ALWAYS_TRAPS))
            .collect();
        assert_eq!(trapping, [2]);
    }

    #[test]
    fn divide_by_constant_zero_always_traps() {
        let mut asm = Asm::new(0);
        asm.li(r(1), 9).li(r(2), 0);
        asm.raw(Insn::Divu {
            rd: r(0),
            rs1: r(1),
            rs2: r(2),
        });
        asm.halt();
        let p = asm.finish().unwrap();
        assert_facts(&p, &[2], Facts::ALWAYS_TRAPS, Facts::DIV_NONZERO);
    }

    #[test]
    fn code_after_halt_is_unreachable() {
        let mut asm = Asm::new(0);
        asm.li(r(0), 1).halt();
        asm.li(r(0), 2).li(r(0), 3).halt();
        let p = asm.finish().unwrap();
        assert_facts(&p, &[2, 3, 4], Facts::default(), Facts::REACHABLE);
    }

    #[test]
    fn unguarded_jumps_are_not_jump_safe() {
        // Through an input register.
        let mut asm = Asm::new(0);
        asm.jr(r(3)).halt();
        let p = asm.finish().unwrap();
        assert_facts(&p, &[0], Facts::REACHABLE, Facts::JUMP_SAFE);
        // r2 = byte + byte lies in [0, 510], past the program's end.
        let mut asm = Asm::new(64);
        asm.ld(r(2), r(1), 0).mask_data(r(1)).ldb(r(2), r(1), 0);
        asm.add(r(2), r(2), r(2)).jr(r(2)).halt();
        let p = asm.finish().unwrap();
        assert_facts(&p, &[4], Facts::REACHABLE, Facts::JUMP_SAFE);
    }

    #[test]
    fn access_whose_end_wraps_the_address_space_is_not_proven() {
        // `base - 1 + 8` overflows u64: in a release build the sum used to
        // wrap to 6, inside the segment, and earn the load a MEM_SAFE.
        let mut asm = Asm::new(16);
        asm.li(r(1), -1).ld(r(0), r(1), -1).halt();
        let p = asm.finish().unwrap();
        let a = analyze(&p).unwrap();
        assert!(a.proofs.at(1).has(Facts::ALWAYS_TRAPS));
        assert!(!a.proofs.at(1).has(Facts::MEM_SAFE));
        assert!(a.verdict(&p).is_err());
    }

    #[test]
    fn too_complex_carries_location_and_count() {
        let p = crate::workloads::checksum_loop_verified(64, 2);
        let err = analyze_with_budget(&p, 3).unwrap_err();
        match err {
            VerifyError::TooComplex { evaluations, .. } => assert_eq!(evaluations, 4),
            other => panic!("expected TooComplex, got {other:?}"),
        }
    }
}
