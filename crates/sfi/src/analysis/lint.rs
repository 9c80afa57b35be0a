//! Bytecode diagnostics on top of the analysis.
//!
//! The same CFG and proof map that decide verification double as an audit
//! surface (the VMI observation from PAPERS.md: analysis artifacts are
//! also diagnostics). The lint pass reports:
//!
//! - **unreachable code** — instructions no abstract state reaches, via
//!   CFG reachability plus decided-branch pruning;
//! - **dead stores** — register writes never read on any path (backward
//!   liveness over the CFG; `Halt` publishes `r0`);
//! - **always-trapping instructions** — accesses proven out-of-bounds on
//!   every execution, constant zero divisors, constant out-of-range
//!   indirect jumps;
//! - **unguarded indirect jumps** — with register provenance: where the
//!   offending register was last defined.
//!
//! A well-formed compiler output produces zero diagnostics; CI lints every
//! benign workload.

use crate::bytecode::{Insn, Program, Reg, NUM_REGS};
use crate::verifier::VerifyError;

use super::{analyze, Analysis, Facts, DEF_ENTRY, DEF_MANY};

/// The category of a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintKind {
    /// No execution reaches this instruction.
    UnreachableCode,
    /// A register write that is never read.
    DeadStore,
    /// The instruction traps on every execution that reaches it.
    AlwaysTraps,
    /// An indirect jump through a register the analysis cannot bound.
    UnguardedIndirectJump,
}

/// One diagnostic, anchored at an instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Instruction index the diagnostic is anchored at.
    pub pc: u32,
    /// Category.
    pub kind: LintKind,
    /// Human-readable explanation (includes provenance where relevant).
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pc {}: {:?}: {}", self.pc, self.kind, self.message)
    }
}

/// Registers an instruction reads.
fn uses(insn: &Insn) -> u16 {
    let bit = |r: Reg| 1u16 << (r.0 as usize % NUM_REGS);
    match *insn {
        Insn::Li { .. } => 0,
        Insn::Mov { rs, .. } => bit(rs),
        Insn::Add { rs1, rs2, .. }
        | Insn::Sub { rs1, rs2, .. }
        | Insn::Mul { rs1, rs2, .. }
        | Insn::Divu { rs1, rs2, .. }
        | Insn::And { rs1, rs2, .. }
        | Insn::Or { rs1, rs2, .. }
        | Insn::Xor { rs1, rs2, .. }
        | Insn::Shl { rs1, rs2, .. }
        | Insn::Shr { rs1, rs2, .. }
        | Insn::Beq { rs1, rs2, .. }
        | Insn::Bne { rs1, rs2, .. }
        | Insn::Bltu { rs1, rs2, .. } => bit(rs1) | bit(rs2),
        Insn::Ld { base, .. } | Insn::LdB { base, .. } => bit(base),
        Insn::St { rs, base, .. } | Insn::StB { rs, base, .. } => bit(rs) | bit(base),
        Insn::Jmp { .. } => 0,
        Insn::Jr { rs } => bit(rs),
        Insn::MaskData { r } | Insn::MaskCode { r } => bit(r),
        // Halt publishes r0 as the component's result.
        Insn::Halt => 1,
    }
}

/// Register an instruction writes, if any.
fn def(insn: &Insn) -> Option<Reg> {
    match *insn {
        Insn::Li { rd, .. }
        | Insn::Mov { rd, .. }
        | Insn::Add { rd, .. }
        | Insn::Sub { rd, .. }
        | Insn::Mul { rd, .. }
        | Insn::Divu { rd, .. }
        | Insn::And { rd, .. }
        | Insn::Or { rd, .. }
        | Insn::Xor { rd, .. }
        | Insn::Shl { rd, .. }
        | Insn::Shr { rd, .. }
        | Insn::Ld { rd, .. }
        | Insn::LdB { rd, .. } => Some(rd),
        Insn::MaskData { r } | Insn::MaskCode { r } => Some(r),
        _ => None,
    }
}

/// Renders where a register was last defined, for provenance messages.
fn provenance(def_site: u32) -> String {
    match def_site {
        DEF_ENTRY => "an input: never defined by the component".to_owned(),
        DEF_MANY => "defined at multiple sites".to_owned(),
        pc => format!("last defined at pc {pc}"),
    }
}

/// Lints `program`, running the analysis first. Fails only where the
/// analysis itself fails (bad static branch target, blown budget).
pub fn lint(program: &Program) -> Result<Vec<Diagnostic>, VerifyError> {
    let a = analyze(program)?;
    Ok(lint_with(program, &a))
}

/// Lints `program` against an already-computed analysis.
pub fn lint_with(program: &Program, a: &Analysis) -> Vec<Diagnostic> {
    let code = &program.code;
    let mut out: Vec<Diagnostic> = Vec::new();
    if code.is_empty() {
        return out;
    }

    // Unreachable code: instructions with no abstract state, reported as
    // maximal contiguous ranges.
    let mut pc = 0usize;
    while pc < code.len() {
        if a.pc_states[pc].is_none() {
            let start = pc;
            while pc < code.len() && a.pc_states[pc].is_none() {
                pc += 1;
            }
            let end = pc - 1;
            let range = if start == end {
                format!("instruction {start}")
            } else {
                format!("instructions {start}..={end}")
            };
            out.push(Diagnostic {
                pc: start as u32,
                kind: LintKind::UnreachableCode,
                message: format!("{range} can never execute"),
            });
        } else {
            pc += 1;
        }
    }

    // Backward liveness over the CFG for dead-store detection.
    let nb = a.cfg.blocks.len();
    let mut live_in = vec![0u16; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let block = &a.cfg.blocks[b];
            let mut live: u16 = block
                .succs
                .iter()
                .fold(0, |acc, &s| acc | live_in[s as usize]);
            for p in (block.start..block.end).rev() {
                let insn = &code[p as usize];
                if let Some(rd) = def(insn) {
                    live &= !(1u16 << (rd.0 as usize % NUM_REGS));
                }
                live |= uses(insn);
            }
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
    }

    // Walk reachable blocks backward, flagging writes to dead registers.
    for block in &a.cfg.blocks {
        if a.pc_states[block.start as usize].is_none() {
            continue; // Covered by the unreachable diagnostic.
        }
        let mut live: u16 = block
            .succs
            .iter()
            .fold(0, |acc, &s| acc | live_in[s as usize]);
        let mut dead_here: Vec<Diagnostic> = Vec::new();
        for p in (block.start..block.end).rev() {
            let insn = &code[p as usize];
            if let Some(rd) = def(insn) {
                let bit = 1u16 << (rd.0 as usize % NUM_REGS);
                if live & bit == 0 {
                    dead_here.push(Diagnostic {
                        pc: p,
                        kind: LintKind::DeadStore,
                        message: format!("value written to r{} is never read", rd.0),
                    });
                }
                live &= !bit;
            }
            live |= uses(insn);
        }
        out.extend(dead_here.into_iter().rev());
    }

    // Always-trapping instructions and unguarded indirect jumps, straight
    // from the proof map.
    for (p, insn) in code.iter().enumerate() {
        let f = a.proofs.at(p as u32);
        if !f.has(Facts::REACHABLE) {
            continue;
        }
        if f.has(Facts::ALWAYS_TRAPS) {
            let what = match insn {
                Insn::Ld { .. } | Insn::LdB { .. } => "load is out of bounds",
                Insn::St { .. } | Insn::StB { .. } => "store is out of bounds",
                Insn::Divu { .. } => "divisor is always zero",
                Insn::Jr { .. } => "jump target is outside the program",
                _ => "instruction traps",
            };
            out.push(Diagnostic {
                pc: p as u32,
                kind: LintKind::AlwaysTraps,
                message: format!("{what} on every execution"),
            });
        }
        if let Insn::Jr { rs } = insn {
            let state = a.pc_states[p].as_ref().expect("reachable pc has a state");
            let bounded = f.has(Facts::JUMP_SAFE) || state.reg(*rs).as_const().is_some();
            if !bounded {
                out.push(Diagnostic {
                    pc: p as u32,
                    kind: LintKind::UnguardedIndirectJump,
                    message: format!(
                        "indirect jump through unbounded r{} ({})",
                        rs.0,
                        provenance(state.defs[rs.0 as usize % NUM_REGS])
                    ),
                });
            }
        }
    }

    out.sort_by_key(|d| d.pc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let p = crate::workloads::checksum_loop_verified(64, 2);
        assert_eq!(lint(&p).unwrap(), vec![]);
    }

    #[test]
    fn unreachable_code_is_ranged() {
        let mut a = Asm::new(0);
        a.li(r(0), 1);
        a.halt();
        a.li(r(0), 2); // Dead.
        a.li(r(0), 3); // Dead.
        a.halt(); // Dead.
        let p = a.finish().unwrap();
        let diags = lint(&p).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::UnreachableCode);
        assert_eq!(diags[0].pc, 2);
        assert!(diags[0].message.contains("2..=4"), "{}", diags[0].message);
    }

    #[test]
    fn dead_store_is_flagged() {
        let mut a = Asm::new(0);
        a.li(r(1), 42); // Never read.
        a.li(r(0), 7);
        a.halt();
        let p = a.finish().unwrap();
        let diags = lint(&p).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, LintKind::DeadStore);
        assert_eq!(diags[0].pc, 0);
        assert!(diags[0].message.contains("r1"), "{}", diags[0].message);
    }

    #[test]
    fn overwritten_register_is_a_dead_store() {
        let mut a = Asm::new(0);
        a.li(r(0), 1); // Overwritten before any read.
        a.li(r(0), 2);
        a.halt();
        let diags = lint(&a.finish().unwrap()).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].pc, 0);
        assert_eq!(diags[0].kind, LintKind::DeadStore);
    }

    #[test]
    fn loop_carried_values_are_not_dead() {
        // r0 accumulates across the back edge; no false positive.
        let p = crate::workloads::alu_loop(3);
        assert_eq!(lint(&p).unwrap(), vec![]);
    }

    #[test]
    fn wild_writer_always_traps() {
        let diags = lint(&crate::workloads::wild_writer()).unwrap();
        assert!(diags
            .iter()
            .any(|d| d.kind == LintKind::AlwaysTraps && d.pc == 2));
    }

    #[test]
    fn unguarded_jump_reports_provenance() {
        // Through an entry register.
        let mut a = Asm::new(0);
        a.jr(r(3));
        a.halt();
        let diags = lint(&a.finish().unwrap()).unwrap();
        let d = diags
            .iter()
            .find(|d| d.kind == LintKind::UnguardedIndirectJump)
            .expect("diagnostic");
        assert!(d.message.contains("r3"), "{}", d.message);
        assert!(d.message.contains("input"), "{}", d.message);

        // Through a register defined in the program (but unbounded).
        let mut a = Asm::new(64);
        a.ld(r(2), r(1), 0); // Rejected anyway, but lint still explains.
        a.mask_data(r(1));
        a.ldb(r(2), r(1), 0); // r2 unbounded (loaded byte is [0,255], fine)…
        a.add(r(2), r(2), r(2));
        a.jr(r(2));
        a.halt();
        let p = a.finish().unwrap();
        let diags = lint(&p).unwrap();
        let d = diags
            .iter()
            .find(|d| d.kind == LintKind::UnguardedIndirectJump);
        // r2 = byte+byte in [0,510]; program len is 6 < 510, so unbounded.
        let d = d.expect("diagnostic");
        assert!(d.message.contains("last defined at pc 3"), "{}", d.message);
    }

    #[test]
    fn divide_by_constant_zero_always_traps() {
        let mut a = Asm::new(0);
        a.li(r(1), 9).li(r(2), 0);
        a.raw(Insn::Divu {
            rd: r(0),
            rs1: r(1),
            rs2: r(2),
        });
        a.halt();
        let diags = lint(&a.finish().unwrap()).unwrap();
        assert!(diags
            .iter()
            .any(|d| d.kind == LintKind::AlwaysTraps && d.pc == 2));
    }

    #[test]
    fn every_benign_workload_is_lint_clean() {
        for (name, p) in crate::workloads::benign_suite() {
            let diags = lint(&p).unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
            assert!(diags.is_empty(), "{name}: {:?}", diags);
        }
    }
}
