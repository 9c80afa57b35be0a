//! How fast the fixpoint converges, and what converging fast costs.
//!
//! [`AbsVal::widen`] drops known bits that the widening before it kept for
//! another trip round the loop. These tests pin both sides of that trade.
//! Speed: every program in the tree converges in under a quarter of its
//! `TooComplex` budget (the slowest, `checksum_bytes`, in 18 %; bit-passing
//! took 88–93 % on two of them). Precision: against the old operator, kept
//! as the test-only [`AbsVal::widen_bits_passing`], the analysis proves
//! nothing new anywhere, and on the corpus nothing less either.

use super::*;
use crate::asm::Asm;
use crate::interp::{Interp, InterpError};
use crate::sandbox_rewrite;
use crate::workloads;
use proptest::prelude::*;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Every bytecode program the tree builds outside `netstack` (whose two
/// filters pin their own convergence), and the sandboxed form of each.
fn corpus() -> Vec<(String, Program)> {
    let mut programs: Vec<(String, Program)> = workloads::benign_suite()
        .into_iter()
        .map(|(name, p)| (name.to_owned(), p))
        .collect();
    // `kernel_ext` loads this pair on every lifecycle.
    programs.push((
        "kernel_ext certified".into(),
        workloads::checksum_loop_verified(256, 1),
    ));
    programs.push((
        "kernel_ext softened".into(),
        workloads::checksum_loop(256, 1),
    ));
    programs.push(("table_fill".into(), workloads::table_fill(128, 3)));
    programs.push(("alu_loop".into(), workloads::alu_loop(100)));
    programs.push(("wild_writer".into(), workloads::wild_writer()));
    let rewritten: Vec<_> = programs
        .iter()
        .map(|(name, p)| (format!("{name}, sandboxed"), sandbox_rewrite(p).0))
        .collect();
    programs.extend(rewritten);
    programs
}

fn reference(program: &Program) -> Analysis {
    analyze_widening(program, u64::MAX, AbsVal::widen_bits_passing).expect("unbounded budget")
}

/// Asserts that `new` proves nothing `reference` does not: it reaches every
/// pc the reference reaches, and its other facts there are a subset.
fn assert_no_new_proofs(program: &Program, new: &Analysis, reference: &Analysis) {
    for pc in 0..program.len() as u32 {
        let (n, r) = (new.proofs.at(pc), reference.proofs.at(pc));
        if !r.has(Facts::REACHABLE) {
            continue; // Pruned by a branch only the reference decides.
        }
        assert!(
            r.has(n) && n.has(Facts::REACHABLE),
            "pc {pc}: {n:?} is not within the reference's {r:?} on {program:?}"
        );
    }
}

#[test]
fn corpus_converges_within_a_quarter_of_its_budget() {
    for (name, program) in corpus() {
        let report = analyze(&program)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .report;
        assert!(
            report.evaluations <= default_budget(&program) / 4,
            "{name}: {} evaluations of a budget of {}",
            report.evaluations,
            default_budget(&program)
        );
    }
    // The program `kernel_ext` certifies and loads: five blocks, two loops.
    let report = analyze(&workloads::checksum_loop_verified(256, 1))
        .unwrap()
        .report;
    assert!(report.iterations <= 25, "{report:?}");
}

#[test]
fn corpus_verdicts_and_facts_equal_the_reference() {
    for (name, program) in corpus() {
        let new = analyze(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        let reference = reference(&program);
        assert_no_new_proofs(&program, &new, &reference);
        assert_eq!(
            new.verdict(&program),
            reference.verdict(&program),
            "{name}: verdict"
        );
        for fact in [
            Facts::REACHABLE,
            Facts::MEM_SAFE,
            Facts::DIV_NONZERO,
            Facts::JUMP_SAFE,
            Facts::ALWAYS_TAKEN,
            Facts::NEVER_TAKEN,
            Facts::ALWAYS_TRAPS,
        ] {
            assert_eq!(
                new.proofs.count(fact),
                reference.proofs.count(fact),
                "{name}: count of {fact:?}"
            );
        }
        assert!(
            new.report.evaluations <= reference.report.evaluations,
            "{name}: {:?} vs the reference's {:?}",
            new.report,
            reference.report
        );
    }
}

/// A loop nest from a byte string: up to three counted loops, four
/// accumulators that feed each other, and the pointer idioms the verifier
/// knows (mask, mask-and-align, `and` with a constant) next to ones it
/// cannot prove (a raw counter or accumulator as the base).
fn loop_nest(spec: &[u8]) -> Program {
    let data_len = [16u32, 64, 100, 256, 1024][spec[0] as usize % 5];
    let depth = 1 + spec[1] as usize % 3;
    let mut a = Asm::new(data_len);
    // r0-r3 accumulators, r4-r6 counters, r7-r9 limits, r10 pointer,
    // r11 alignment mask, r12 loaded value, r13 constant operand.
    for acc in 0..4 {
        a.li(r(acc), i64::from(spec[2 + acc as usize] % 4));
    }
    a.li(r(11), [!7i64, !3, !1, !15][spec[6] as usize % 4]);
    let mut stmts = spec[10..].chunks_exact(4);
    let mut body = |a: &mut Asm, level: usize, skip: usize| {
        for (i, s) in stmts.by_ref().take(2).enumerate() {
            let (acc, other) = (r(s[1] % 4), r(s[2] % 4));
            let counter = r(4 + (s[2] as usize % (level + 1)) as u8);
            match s[0] % 10 {
                0 => {
                    a.mov(r(10), counter).mask_data(r(10));
                    a.ldb(r(12), r(10), 0).add(acc, acc, r(12));
                }
                1 => {
                    a.mov(r(10), counter).mask_data(r(10));
                    a.and(r(10), r(10), r(11));
                    a.ld(r(12), r(10), 0).xor(acc, acc, r(12));
                }
                2 => {
                    a.add(acc, acc, other);
                }
                3 => {
                    a.li(r(13), i64::from(s[3] % 5));
                    a.mul(acc, acc, r(13));
                }
                4 => {
                    a.li(r(13), i64::from(s[3] % 9));
                    a.shl(acc, acc, r(13));
                }
                5 => {
                    a.mov(r(10), acc).mask_data(r(10));
                    a.stb(other, r(10), 0);
                }
                6 => {
                    a.ldb(r(12), counter, i32::from(s[3] % 4));
                    a.add(acc, acc, r(12));
                }
                7 => {
                    a.li(r(13), i64::from(data_len.next_power_of_two() / 2 - 1) & !7);
                    a.and(r(10), acc, r(13));
                    a.ld(r(12), r(10), 0).add(acc, acc, r(12));
                }
                8 => {
                    a.li(r(13), 1).raw(Insn::Or {
                        rd: r(12),
                        rs1: counter,
                        rs2: r(13),
                    });
                    a.raw(Insn::Divu {
                        rd: acc,
                        rs1: acc,
                        rs2: r(12),
                    });
                }
                _ => {
                    // A branch over the next statement (or over nothing).
                    let label = format!("skip{level}.{skip}.{i}");
                    a.bltu(acc, other, &label).addi(acc, acc, 1).label(&label);
                }
            }
        }
    };
    for level in 0..depth {
        let geometry = spec[7 + level] as usize;
        let limit = [
            i64::from(data_len),
            i64::from(data_len / 2),
            7,
            i64::from(data_len) + 8,
        ][geometry / 4 % 4];
        a.li(r(4 + level as u8), 0).li(r(7 + level as u8), limit);
        a.label(&format!("head{level}"));
        body(&mut a, level, 0);
    }
    for level in (0..depth).rev() {
        body(&mut a, level, 1);
        let (counter, limit) = (r(4 + level as u8), r(7 + level as u8));
        a.addi(counter, counter, [1, 2, 4, 8][spec[7 + level] as usize % 4]);
        a.bltu(counter, limit, &format!("head{level}"));
    }
    a.halt();
    a.finish().expect("static labels")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On generated loop nests the new widening converges within budget,
    /// proves nothing the reference does not, and what it proves holds on
    /// a concrete run: no proof on a pc that trapped, and the final
    /// registers inside the state computed for the `halt`.
    #[test]
    fn generated_loop_nests_stay_within_the_reference(
        spec in proptest::collection::vec(any::<u8>(), 58..=58),
        seed in any::<u8>(),
    ) {
        let program = loop_nest(&spec);
        let new = analyze(&program).expect("a loop nest converges within budget");
        assert_no_new_proofs(&program, &new, &reference(&program));

        let data: Vec<u8> = (0..program.data_len).map(|i| (i as u8).wrapping_mul(seed)).collect();
        let mut it = Interp::new(&program);
        it.load_data(0, &data);
        match it.run(50_000) {
            Ok(_) => {
                let halt = new.pc_states[program.len() - 1].expect("a halted run reached it");
                for (reg, v) in it.regs().iter().enumerate() {
                    prop_assert!(halt.regs[reg].contains(*v), "r{reg} = {v} outside {:?}", halt.regs[reg]);
                }
            }
            Err(InterpError::Fault { pc, .. }) => {
                prop_assert!(!new.proofs.at(pc).has(Facts::MEM_SAFE), "MEM_SAFE at trapping pc {pc}");
            }
            Err(_) => {}
        }
    }
}
