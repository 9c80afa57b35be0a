//! Load-time static verification.
//!
//! Models the SPIN approach: "the ability to down-load application code,
//! written in a special type-safe language, into the kernel protection
//! domain" (paper, section 5). A type-safe compiler emits code that is safe
//! *by construction*; the kernel re-checks that claim with an abstract
//! interpretation at load time. Verified programs run with only the guards
//! the compiler itself emitted (which it can hoist and coarsen), unlike
//! SFI rewriting which guards every single access.
//!
//! Since the analysis rework, `verify` is a thin acceptance policy over
//! [`crate::analysis`]: the heavy lifting — CFG construction, an interval +
//! known-bits fixpoint, the per-instruction [`crate::analysis::ProofMap`] —
//! lives there, and this module merely demands that every reachable memory
//! access and indirect jump carry a proof. The verifier is still
//! deliberately conservative: it proves memory safety for the idioms our
//! "trusted compiler" (see [`crate::workloads`]) generates and rejects
//! anything else — exactly the trade-off the paper ascribes to software
//! protection ("restricted, type safe languages").

use crate::analysis;
use crate::bytecode::Program;

/// Why verification rejected a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// A static branch target is outside the program.
    BadBranchTarget {
        /// Instruction index of the branch.
        pc: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// A memory access could not be proven in-bounds.
    UnsafeMemoryAccess {
        /// Instruction index of the access.
        pc: u32,
    },
    /// An indirect jump whose target register is neither bounded nor
    /// constant.
    UnguardedIndirectJump {
        /// Instruction index of the jump.
        pc: u32,
    },
    /// The dataflow analysis did not converge within budget.
    TooComplex {
        /// Instruction being evaluated when the budget blew.
        pc: u32,
        /// Evaluations performed up to that point.
        evaluations: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BadBranchTarget { pc, target } => {
                write!(f, "branch at pc {pc} targets {target}, outside the program")
            }
            VerifyError::UnsafeMemoryAccess { pc } => {
                write!(f, "cannot prove memory access at pc {pc} in-bounds")
            }
            VerifyError::UnguardedIndirectJump { pc } => {
                write!(f, "indirect jump at pc {pc} through unbounded register")
            }
            VerifyError::TooComplex { pc, evaluations } => write!(
                f,
                "analysis exceeded its budget at pc {pc} after {evaluations} evaluations"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verification statistics — the measurable load-time cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Instruction-state evaluations performed (linear-ish in program
    /// size; this is what the load-time cost model charges).
    pub evaluations: u64,
    /// Number of worklist passes until fixpoint.
    pub iterations: u64,
}

/// Verifies `program`, returning load-time cost statistics on success.
///
/// Equivalent to [`analysis::analyze`] followed by
/// [`analysis::Analysis::verdict`]; use the analysis directly when the
/// [`analysis::ProofMap`] itself is wanted.
pub fn verify(program: &Program) -> Result<VerifyReport, VerifyError> {
    let a = analysis::analyze(program)?;
    a.verdict(program)?;
    Ok(a.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Reg;
    use crate::{asm::Asm, interp::Interp};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn pure_alu_program_verifies() {
        let p = crate::workloads::alu_loop(10);
        assert!(verify(&p).is_ok());
    }

    #[test]
    fn constant_address_access_verifies() {
        let mut a = Asm::new(64);
        a.li(r(1), 32);
        a.ld(r(0), r(1), 16); // 32+16+8 = 56 <= 64.
        a.halt();
        assert!(verify(&a.finish().unwrap()).is_ok());
    }

    #[test]
    fn constant_address_overflow_rejected() {
        let mut a = Asm::new(64);
        a.li(r(1), 60);
        a.ld(r(0), r(1), 0); // 60+8 > 64.
        a.halt();
        assert_eq!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::UnsafeMemoryAccess { pc: 1 })
        );
    }

    #[test]
    fn unknown_address_rejected_without_mask() {
        let mut a = Asm::new(64);
        // r1 comes in as an argument: unknown.
        a.ldb(r(0), r(1), 0);
        a.halt();
        assert_eq!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::UnsafeMemoryAccess { pc: 0 })
        );
    }

    #[test]
    fn masked_byte_access_verifies() {
        let mut a = Asm::new(64);
        a.mask_data(r(1));
        a.ldb(r(0), r(1), 0);
        a.halt();
        assert!(verify(&a.finish().unwrap()).is_ok());
    }

    #[test]
    fn masked_word_access_needs_alignment() {
        // Masked (unaligned) word access is rejected…
        let mut a = Asm::new(64);
        a.mask_data(r(1));
        a.ld(r(0), r(1), 0);
        a.halt();
        assert!(verify(&a.finish().unwrap()).is_err());

        // …but the mask-then-align idiom is accepted.
        let mut a = Asm::new(64);
        a.mask_data(r(1));
        a.li(r(2), !7i64);
        a.and(r(1), r(1), r(2));
        a.ld(r(0), r(1), 0);
        a.halt();
        assert!(verify(&a.finish().unwrap()).is_ok());
    }

    #[test]
    fn mask_invalidated_by_arithmetic() {
        let mut a = Asm::new(64);
        a.mask_data(r(1));
        a.addi(r(1), r(1), 1); // [1, 64]: byte 64 would be out of bounds.
        a.ldb(r(0), r(1), 0);
        a.halt();
        assert!(verify(&a.finish().unwrap()).is_err());
    }

    // The old 5-value lattice (`Known/Masked/MaskedAligned/...`) rejected
    // every program in this block; the interval + known-bits domain proves
    // them. They pin the precision gained by the analysis rework.

    #[test]
    fn and_bounded_base_with_offset_now_verifies() {
        // An `and`-bounded base plus a constant offset. The old lattice
        // required `off == 0` for masked accesses and only understood the
        // literal `& !7` idiom.
        let mut a = Asm::new(64);
        a.li(r(2), 15);
        a.and(r(1), r(1), r(2)); // r1 in [0, 15].
        a.ldb(r(0), r(1), 7); // 15+7+1 = 23 <= 64.
        a.halt();
        assert!(verify(&a.finish().unwrap()).is_ok());
    }

    #[test]
    fn and_bounded_word_access_in_padded_segment_now_verifies() {
        // A word access off a bounded base needs no alignment when the
        // segment leaves slack: [0,15] + 8 bytes ends at 23 <= 64.
        let mut a = Asm::new(64);
        a.li(r(2), 15);
        a.and(r(1), r(1), r(2));
        a.ld(r(0), r(1), 0);
        a.halt();
        assert!(verify(&a.finish().unwrap()).is_ok());
    }

    #[test]
    fn shift_bounded_base_now_verifies() {
        // A mask-then-shift-derived bound: r1 in [0,63] >> 3 = [0,7].
        let mut a = Asm::new(64);
        a.mask_data(r(1));
        a.li(r(2), 3);
        a.raw(crate::bytecode::Insn::Shr {
            rd: r(1),
            rs1: r(1),
            rs2: r(2),
        });
        a.ld(r(0), r(1), 0); // 7+8 = 15 <= 64.
        a.halt();
        assert!(verify(&a.finish().unwrap()).is_ok());
    }

    #[test]
    fn arithmetic_after_mask_within_slack_now_verifies() {
        // Adding to a masked base stays provable while the interval still
        // fits: [0,63] + 8 = [8,71], and 71+1 = 72 <= 128.
        let mut a = Asm::new(128);
        a.li(r(2), 63);
        a.and(r(1), r(1), r(2));
        a.addi(r(1), r(1), 8);
        a.ldb(r(0), r(1), 0);
        a.halt();
        assert!(verify(&a.finish().unwrap()).is_ok());
    }

    #[test]
    fn too_complex_reports_pc_and_evaluations() {
        let p = crate::workloads::checksum_loop_verified(64, 2);
        let err = analysis::analyze_with_budget(&p, 2).unwrap_err();
        let VerifyError::TooComplex { pc, evaluations } = err else {
            panic!("expected TooComplex");
        };
        assert_eq!(evaluations, 3);
        let msg = VerifyError::TooComplex { pc, evaluations }.to_string();
        assert!(msg.contains("pc"), "{msg}");
        assert!(msg.contains("3 evaluations"), "{msg}");
    }

    #[test]
    fn bad_branch_target_rejected() {
        let p = crate::bytecode::Program::new(vec![crate::bytecode::Insn::Jmp { target: 99 }], 0);
        assert_eq!(
            verify(&p),
            Err(VerifyError::BadBranchTarget { pc: 0, target: 99 })
        );
    }

    #[test]
    fn unguarded_indirect_jump_rejected() {
        let mut a = Asm::new(0);
        a.jr(r(1));
        a.halt();
        assert_eq!(
            verify(&a.finish().unwrap()),
            Err(VerifyError::UnguardedIndirectJump { pc: 0 })
        );
    }

    #[test]
    fn code_masked_indirect_jump_verifies() {
        let mut a = Asm::new(0);
        a.raw(crate::bytecode::Insn::MaskCode { r: r(1) });
        a.jr(r(1));
        a.halt();
        assert!(verify(&a.finish().unwrap()).is_ok());
    }

    #[test]
    fn loop_with_join_converges() {
        // A loop whose body re-masks each iteration: requires a fixpoint
        // over the back edge.
        let p = crate::workloads::checksum_loop_verified(64, 4);
        let report = verify(&p).expect("verified workload must verify");
        assert!(report.iterations > 0);
        // And it actually runs correctly.
        let mut i = Interp::new(&p);
        i.load_data(0, &[1u8; 64]);
        assert!(i.run(1_000_000).is_ok());
    }

    #[test]
    fn verified_program_never_faults_at_runtime() {
        // The meta-property: anything the verifier accepts runs without
        // memory faults for arbitrary inputs.
        let p = crate::workloads::checksum_loop_verified(64, 8);
        verify(&p).unwrap();
        for seed in 0..16u64 {
            let mut i = Interp::new(&p);
            let data: Vec<u8> = (0..64).map(|x| (x as u64 * seed) as u8).collect();
            i.load_data(0, &data);
            i.set_reg(r(1), seed.wrapping_mul(0x9E3779B97F4A7C15));
            match i.run(1_000_000) {
                Ok(_) | Err(crate::interp::InterpError::OutOfSteps) => {}
                Err(e) => panic!("verified program faulted: {e}"),
            }
        }
    }

    #[test]
    fn malicious_wild_writer_rejected() {
        assert!(verify(&crate::workloads::wild_writer()).is_err());
    }

    #[test]
    fn empty_program_verifies_trivially() {
        let p = crate::bytecode::Program::new(vec![], 0);
        assert!(verify(&p).is_ok());
    }
}
