//! Differential property suite: the lowered executor must be
//! observationally identical to the fully-checked oracle.
//!
//! The test generates random programs — mostly from verifier-friendly
//! building blocks (masked and constant-address memory accesses, guarded
//! indirect jumps, arbitrary ALU soup, forward branches and back-edges),
//! with the occasional raw access or unguarded jump — and runs each through
//! the oracle and the lowering with the same inputs. Registers, data memory, traps (variant and payload), and fuel accounting
//! (`steps`/`guard_steps`) must agree exactly — at full fuel, at the
//! exact-fuel boundary (`S` and `S - 1` around a run that halts in `S`
//! steps), and at every step boundary of the first [`SWEEP`] steps, so an
//! exhausted run stops where the oracle stops even inside a
//! superinstruction.
//!
//! The same runs cross-check the proof map, which the lowering does not
//! consult: a `MEM_SAFE`, `DIV_NONZERO` or `JUMP_SAFE` fact on a pc at which
//! the oracle traps is a verifier bug, whether or not the final states
//! happen to agree — the gate any future facts-driven opcode must pass.
//!
//! Profiles: debug (tier-1) and release (CI's workspace step) both matter —
//! the lowered executor's wrapping arithmetic and casts are
//! optimisation-sensitive (`classify_access` wrapped only in release).

use paramecium_sfi::analysis::{self, Analysis, Facts};
use paramecium_sfi::bytecode::{Insn, Program, Reg};
use paramecium_sfi::interp::{ElidedInterp, ElidedProgram, ExecOutcome, Interp, InterpError};
use paramecium_sfi::{sandbox_rewrite, verifier, workloads};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many verified programs the differential sweep must cover.
const PROGRAMS: usize = 256;
/// Generation attempts allowed before we call the generator broken.
const MAX_ATTEMPTS: usize = 20_000;
/// Default fuel for the unconstrained run.
const FUEL: u64 = 10_000;
/// Every fuel from 0 to this is tried, landing `OutOfSteps` on each step
/// boundary of a run's first steps.
const SWEEP: u64 = 64;

fn reg(rng: &mut StdRng) -> Reg {
    Reg(rng.gen_range(0u8..16))
}

/// Emits one random snippet. Memory accesses are nearly always masked or
/// constant-address so most generated programs pass the verifier; the rare
/// raw access or unguarded jump is there to trap, which is what the
/// soundness cross-check needs to see.
fn push_snippet(rng: &mut StdRng, code: &mut Vec<Insn>, data_len: u32) {
    match rng.gen_range(0u32..25) {
        24 => {
            let (r, base, off) = (reg(rng), reg(rng), rng.gen_range(-16i32..16));
            code.push(match rng.gen_range(0u32..3) {
                0 => Insn::Ld { rd: r, base, off },
                1 => Insn::StB { rs: r, base, off },
                _ => Insn::Jr { rs: r },
            });
        }
        n => push_safe_snippet(rng, code, data_len, n % 12),
    }
}

fn push_safe_snippet(rng: &mut StdRng, code: &mut Vec<Insn>, data_len: u32, kind: u32) {
    match kind {
        0 | 1 => {
            // Constant load: small constants keep masked arithmetic
            // provable; occasional huge ones exercise wrap analysis.
            let imm = if rng.gen_bool(0.2) {
                rng.gen::<u64>() as i64
            } else {
                rng.gen_range(0i64..2 * i64::from(data_len).max(1))
            };
            code.push(Insn::Li { rd: reg(rng), imm });
        }
        2 | 3 => {
            let (rd, rs1, rs2) = (reg(rng), reg(rng), reg(rng));
            code.push(match rng.gen_range(0u32..8) {
                0 => Insn::Add { rd, rs1, rs2 },
                1 => Insn::Sub { rd, rs1, rs2 },
                2 => Insn::Mul { rd, rs1, rs2 },
                3 => Insn::And { rd, rs1, rs2 },
                4 => Insn::Or { rd, rs1, rs2 },
                5 => Insn::Xor { rd, rs1, rs2 },
                6 => Insn::Shl { rd, rs1, rs2 },
                _ => Insn::Shr { rd, rs1, rs2 },
            });
        }
        4 => {
            // Division runs checked unless the divisor is provably
            // nonzero — both zero and nonzero divisors must agree.
            code.push(Insn::Divu {
                rd: reg(rng),
                rs1: reg(rng),
                rs2: reg(rng),
            });
        }
        5 | 6 => {
            // Masked access: the bread-and-butter provable idiom.
            let base = reg(rng);
            code.push(Insn::MaskData { r: base });
            for _ in 0..rng.gen_range(1u32..3) {
                code.push(match rng.gen_range(0u32..4) {
                    0 => Insn::Ld {
                        rd: reg(rng),
                        base,
                        off: 0,
                    },
                    1 => Insn::LdB {
                        rd: reg(rng),
                        base,
                        off: 0,
                    },
                    2 => Insn::St {
                        rs: reg(rng),
                        base,
                        off: 0,
                    },
                    _ => Insn::StB {
                        rs: reg(rng),
                        base,
                        off: 0,
                    },
                });
            }
        }
        7 => {
            // Constant-address access (satellite precision fix).
            if data_len >= 8 {
                let base = reg(rng);
                let addr = rng.gen_range(0i64..i64::from(data_len - 7));
                code.push(Insn::Li {
                    rd: base,
                    imm: addr,
                });
                code.push(if rng.gen_bool(0.5) {
                    Insn::Ld {
                        rd: reg(rng),
                        base,
                        off: 0,
                    }
                } else {
                    Insn::StB {
                        rs: reg(rng),
                        base,
                        off: 0,
                    }
                });
            }
        }
        8 => {
            // Guarded indirect jump: may loop forever (fuel equivalence).
            let r = reg(rng);
            code.push(Insn::MaskCode { r });
            code.push(Insn::Jr { rs: r });
        }
        9 => {
            // Forward conditional branch; target patched in `fixup`.
            let (rs1, rs2) = (reg(rng), reg(rng));
            code.push(match rng.gen_range(0u32..3) {
                0 => Insn::Beq {
                    rs1,
                    rs2,
                    target: u32::MAX,
                },
                1 => Insn::Bne {
                    rs1,
                    rs2,
                    target: u32::MAX,
                },
                _ => Insn::Bltu {
                    rs1,
                    rs2,
                    target: u32::MAX,
                },
            });
        }
        10 => {
            // Back-edge; target patched in `fixup`. Often an infinite
            // loop — exactly what the fuel-accounting check wants.
            code.push(Insn::Jmp { target: u32::MAX });
        }
        _ => code.push(Insn::Halt),
    }
}

/// Patches placeholder branch targets: conditional branches go forward,
/// `Jmp` placeholders go backward (or to themselves).
fn fixup(rng: &mut StdRng, code: &mut [Insn]) {
    let len = code.len() as u32;
    for (pc, insn) in code.iter_mut().enumerate() {
        let at = pc as u32;
        match insn {
            Insn::Beq { target, .. } | Insn::Bne { target, .. } | Insn::Bltu { target, .. }
                if *target == u32::MAX =>
            {
                *target = rng.gen_range(at + 1..len);
            }
            Insn::Jmp { target } if *target == u32::MAX => {
                *target = rng.gen_range(0..at + 1);
            }
            _ => {}
        }
    }
}

fn random_program(rng: &mut StdRng) -> Program {
    let data_len = [16u32, 32, 64, 100, 128, 256][rng.gen_range(0usize..6)];
    let budget = rng.gen_range(6usize..28);
    let mut code = Vec::new();
    while code.len() < budget {
        push_snippet(rng, &mut code, data_len);
    }
    code.push(Insn::Halt);
    fixup(rng, &mut code);
    Program::new(code, data_len)
}

struct RunResult {
    outcome: Result<ExecOutcome, InterpError>,
    regs: [u64; 16],
    data: Vec<u8>,
}

fn run_checked(program: &Program, data: &[u8], r1: u64, fuel: u64) -> RunResult {
    let mut it = Interp::new(program);
    it.load_data(0, data);
    it.set_reg(Reg(1), r1);
    let outcome = it.run(fuel);
    RunResult {
        outcome,
        regs: *it.regs(),
        data: it.data().to_vec(),
    }
}

fn run_lowered(prog: &ElidedProgram, data: &[u8], r1: u64, fuel: u64) -> RunResult {
    let mut it = ElidedInterp::new(prog);
    it.load_data(0, data);
    it.set_reg(Reg(1), r1);
    let outcome = it.run(fuel);
    RunResult {
        outcome,
        regs: *it.regs(),
        data: it.data().to_vec(),
    }
}

/// One program under test: the oracle's input, its lowering, and its
/// analysis when the program's structure admits one.
struct Subject<'a> {
    program: &'a Program,
    analysis: Option<Analysis>,
    lowered: ElidedProgram,
}

impl<'a> Subject<'a> {
    fn new(program: &'a Program) -> Self {
        Subject {
            program,
            analysis: analysis::analyze(program).ok(),
            lowered: ElidedProgram::lower(program),
        }
    }

    /// Runs the oracle and the lowering on one input and fuel: no fact may
    /// sit on a pc where the oracle trapped, and outcome, registers and
    /// memory must agree. Returns the oracle's outcome.
    fn check(&self, data: &[u8], r1: u64, fuel: u64) -> Result<ExecOutcome, InterpError> {
        let program = self.program;
        let slow = run_checked(program, data, r1, fuel);
        if let (Some(a), Err(trap)) = (&self.analysis, &slow.outcome) {
            let refuted = match *trap {
                InterpError::Fault { pc, .. } => Some((pc, Facts::MEM_SAFE)),
                InterpError::DivideByZero { pc } => Some((pc, Facts::DIV_NONZERO)),
                // Falling off the end reports the pc one past the program.
                InterpError::BadJump { pc, .. } if (pc as usize) < program.len() => {
                    Some((pc, Facts::JUMP_SAFE))
                }
                _ => None,
            };
            if let Some((pc, fact)) = refuted {
                assert!(
                    !a.proofs.at(pc).has(fact),
                    "unsound {fact:?} at pc {pc}: the oracle raised {trap:?} on {program:?}"
                );
            }
        }
        let fast = run_lowered(&self.lowered, data, r1, fuel);
        assert_eq!(
            slow.outcome, fast.outcome,
            "outcome diverged (fuel {fuel}) on {program:?}"
        );
        assert_eq!(
            slow.regs, fast.regs,
            "registers diverged (fuel {fuel}) on {program:?}"
        );
        assert_eq!(
            slow.data, fast.data,
            "memory diverged (fuel {fuel}) on {program:?}"
        );
        slow.outcome
    }

    /// [`Self::check`] at full fuel, at every fuel up to `sweep`, and at
    /// the exact-fuel boundary of a run that halts.
    fn check_all_fuels(
        &self,
        data: &[u8],
        r1: u64,
        full: u64,
        sweep: u64,
    ) -> Result<ExecOutcome, InterpError> {
        for fuel in 0..=sweep {
            let _ = self.check(data, r1, fuel);
        }
        let outcome = self.check(data, r1, full);
        if let Ok(out) = &outcome {
            let _ = self.check(data, r1, out.steps);
            let _ = self.check(data, r1, out.steps.saturating_sub(1));
        }
        outcome
    }
}

#[test]
fn differential_random_programs_agree_exactly() {
    let mut rng = StdRng::seed_from_u64(0x5f1_a9a1);
    let mut accepted = 0usize;
    let mut halted = 0usize;
    let mut trapped = 0usize;
    let mut exhausted = 0usize;
    let mut attempts = 0usize;

    while accepted < PROGRAMS {
        attempts += 1;
        assert!(
            attempts < MAX_ATTEMPTS,
            "generator acceptance rate collapsed: {accepted}/{attempts}"
        );
        let program = random_program(&mut rng);
        let subject = Subject::new(&program);
        // The 256 are the programs the verifier accepts; the ones it turns
        // away still run (checked where unproven), so they are compared
        // and cross-checked too.
        if let Some(a) = &subject.analysis {
            accepted += usize::from(a.verdict(&program).is_ok());
        }

        let mut data = vec![0u8; program.data_len as usize];
        rng.fill(&mut data[..]);
        let r1: u64 = rng.gen();
        match subject.check_all_fuels(&data, r1, FUEL, SWEEP) {
            Ok(_) => halted += 1,
            Err(InterpError::OutOfSteps) => {
                exhausted += 1;
                let _ = subject.check(&data, r1, FUEL / 2);
            }
            Err(_) => trapped += 1,
        }
        // "Ever traps" needs more than one input: small register values
        // steer raw accesses and jumps into and just past their segments.
        for _ in 0..3 {
            rng.fill(&mut data[..]);
            let _ = subject.check(&data, rng.gen_range(0u64..64), FUEL);
        }
    }

    // The sweep must exercise all three outcome classes, otherwise the
    // generator has quietly stopped covering the interesting paths.
    assert!(halted > 0, "no generated program halted normally");
    assert!(trapped > 0, "no generated program trapped");
    assert!(exhausted > 0, "no generated program ran out of fuel");
}

#[test]
fn differential_benign_suite_multiple_inputs() {
    let mut rng = StdRng::seed_from_u64(2026);
    for (name, program) in workloads::benign_suite() {
        verifier::verify(&program).unwrap_or_else(|e| panic!("{name} failed to verify: {e}"));
        let subject = Subject::new(&program);
        // `compile`, for callers that hold an analysis, is the same lowering.
        let analysis = subject.analysis.as_ref().expect("verified");
        let compiled = ElidedProgram::compile(&program, analysis);
        for _ in 0..16 {
            let mut data = vec![0u8; program.data_len as usize];
            rng.fill(&mut data[..]);
            let r1: u64 = rng.gen_range(0u64..1 << 20);
            let expected = subject
                .check_all_fuels(&data, r1, FUEL, SWEEP)
                .unwrap_or_else(|e| panic!("{name} did not halt: {e}"));
            assert_eq!(
                run_lowered(&compiled, &data, r1, FUEL).outcome,
                Ok(expected)
            );
        }
    }
}

/// What the pre-PR-16 engine, which needed an `Analysis`, could never be
/// given: programs the analysis rejects outright.
#[test]
fn programs_the_analysis_rejects_lower_and_agree() {
    let r = Reg;
    let li = |rd: u8, imm: i64| Insn::Li { rd: r(rd), imm };
    let far = 99;
    let mut subjects: Vec<(Program, bool)> = Vec::new();

    // Static targets that leave the program: taken, never taken, behind an
    // unconditional jump, and inside the counted-loop superinstruction.
    for branch in [
        Insn::Beq {
            rs1: r(1),
            rs2: r(1),
            target: far,
        },
        Insn::Bne {
            rs1: r(1),
            rs2: r(1),
            target: far,
        },
        Insn::Bltu {
            rs1: r(2),
            rs2: r(1),
            target: far,
        },
        Insn::Jmp { target: far },
    ] {
        subjects.push((Program::new(vec![li(0, 7), branch, Insn::Halt], 16), true));
    }
    let add = Insn::Add {
        rd: r(2),
        rs1: r(2),
        rs2: r(15),
    };
    let back = Insn::Bltu {
        rs1: r(2),
        rs2: r(3),
        target: far,
    };
    let counted = vec![li(3, 5), li(15, 1), add, back, Insn::Halt];
    subjects.push((Program::new(counted, 16), true));

    // The one-past-the-end branch, which `sandbox_rewrite` preserves as
    // one-past-the-end of the rewritten program.
    let ldb = Insn::LdB {
        rd: r(0),
        base: r(2),
        off: 0,
    };
    let past = Program::new(vec![ldb, Insn::Jmp { target: 2 }], 16);
    let (rewritten, _) = sandbox_rewrite(&past);
    assert_eq!(rewritten.code.last(), Some(&Insn::Jmp { target: 3 }));
    subjects.push((past, true));
    subjects.push((rewritten, true));

    // Empty, and falling off the end.
    subjects.push((Program::new(vec![], 16), false));
    subjects.push((Program::new(vec![li(0, 1)], 0), false));
    subjects.push((Program::new(vec![li(0, 1), li(1, 2), li(2, 3)], 0), false));

    for (program, rejected) in &subjects {
        assert_eq!(
            analysis::analyze(program).is_err(),
            *rejected,
            "{program:?}"
        );
        let subject = Subject::new(program);
        for r1 in [0, 1, 5] {
            let _ = subject.check_all_fuels(&[9; 16][..program.data_len as usize], r1, 100, 16);
        }
    }

    // An unguarded `jr` into every pc, and past both ends of the program.
    let jr = Program::new(
        vec![
            Insn::Jr { rs: r(1) },
            li(0, 1),
            li(0, 2),
            Insn::Halt,
            li(0, 3),
            Insn::Halt,
        ],
        0,
    );
    let subject = Subject::new(&jr);
    for target in (0..8).chain([u64::from(u32::MAX) + 1, u64::MAX]) {
        let _ = subject.check_all_fuels(&[], target, 100, 16);
    }
}

/// Registers drawn from a pool of four, so the operands of a fused
/// sequence collide in every way they can: scratch == `rd`, loaded
/// register == accumulator, `base` == `rd`, counter == limit.
fn aliasing_program(b: &[u8]) -> Program {
    let reg = |x: u8| Reg(x % 4);
    let imm = |x: u8| [0, 1, 3, 255, (1 << 32) - 1, 1 << 32, i64::MAX, -1, -8][x as usize % 9];
    // Mostly powers of two (the fused forms), small enough that the mask
    // changes the seeded register values below.
    let data_len = [0u32, 1, 16, 16, 24, 100, 256, 256][b[0] as usize % 8];
    let mut code: Vec<Insn> = (0..4)
        .map(|i| Insn::Li {
            rd: Reg(i),
            imm: i64::from(b[1 + i as usize] % 40),
        })
        .collect();
    for s in b[5..].chunks_exact(8) {
        let start = code.len() as u32;
        let (x, base, off) = (reg(s[1]), reg(s[2]), i32::from(s[3] % 24) - 8);
        let access = match s[4] % 4 {
            0 => Insn::Ld { rd: x, base, off },
            1 => Insn::LdB { rd: x, base, off },
            2 => Insn::St { rs: x, base, off },
            _ => Insn::StB { rs: x, base, off },
        };
        // The accumulate, in either operand order.
        let acc = reg(s[5]);
        let accumulate = if s[6] % 2 == 0 {
            Insn::Add {
                rd: acc,
                rs1: acc,
                rs2: x,
            }
        } else {
            Insn::Add {
                rd: acc,
                rs1: x,
                rs2: acc,
            }
        };
        match s[0] % 6 {
            0 => code.extend([Insn::MaskData { r: base }, access]),
            1 => code.extend([
                Insn::Mov {
                    rd: base,
                    rs: reg(s[5]),
                },
                Insn::MaskData { r: base },
                access,
            ]),
            2 => code.extend([Insn::MaskData { r: base }, access, accumulate]),
            3 => code.extend([access, accumulate]),
            kind => {
                // `li s, k; add rd, rs, s`, alone or closing a loop that
                // goes back to itself, forward, or out of the program.
                let scratch = reg(s[1]);
                code.push(Insn::Li {
                    rd: scratch,
                    imm: imm(s[3]),
                });
                code.push(Insn::Add {
                    rd: reg(s[2]),
                    rs1: reg(s[4]),
                    rs2: scratch,
                });
                if kind == 5 {
                    code.push(Insn::Bltu {
                        rs1: reg(s[5]),
                        rs2: reg(s[6]),
                        target: [start, start + 3, 1000][s[7] as usize % 3],
                    });
                }
            }
        }
    }
    code.push(Insn::Halt);
    Program::new(code, data_len)
}

/// A self-looping counted block behind the two `li`s that set its pointer
/// and bound: `[mask_data | mov; mask_data]? ld|ldb; add acc; li s, k;
/// add p, p, s; bltu p, b, start`.
///
/// Its six registers are a shuffle of a pool of six, half the time with one
/// role folded onto another, so some loops qualify for the executor's
/// whole-trip step and the rest break each part of its no-alias rule.
/// Strides reach `2³² − 1` and offsets run `−8..16`; starts lie inside the
/// segment, just above its mask (where a negative offset reaches back in)
/// and near `u64::MAX`; bounds lie below the start, inside the segment and
/// past it, where the trip faults midway.
fn counted_loop_program(b: &[u8]) -> Program {
    let mut pool = [0u8, 1, 2, 3, 4, 5];
    for i in (1..pool.len()).rev() {
        pool.swap(i, usize::from(b[i]) % (i + 1));
    }
    if b[6].is_multiple_of(2) {
        pool[usize::from(b[7]) % 6] = pool[usize::from(b[8]) % 6];
    }
    let [p, bound, acc, x, s, base] = pool.map(Reg);
    // The sandboxed shape reads through the pointer itself.
    let base = if b[9].is_multiple_of(3) { p } else { base };
    let data_len = [8u32, 16, 64, 256, 100][usize::from(b[10]) % 5];
    let len = u64::from(data_len);
    let k = [1, 2, 8, 255, (1 << 32) - 1][usize::from(b[11]) % 5];
    let off = i32::from(b[12] % 24) - 8;
    let (near, far) = (u64::from(b[13]), u64::from(b[14]));
    let start = [near % len, len + near % 16, u64::MAX - near][usize::from(b[15]) % 3];
    let end = [start.saturating_sub(far), far % len, len + far][usize::from(b[16]) % 3];

    let mut code = vec![
        Insn::Li {
            rd: p,
            imm: start as i64,
        },
        Insn::Li {
            rd: bound,
            imm: end as i64,
        },
    ];
    let top = code.len() as u32;
    match b[17] % 3 {
        0 => {}
        1 => code.push(Insn::MaskData { r: base }),
        _ => code.extend([Insn::Mov { rd: base, rs: p }, Insn::MaskData { r: base }]),
    }
    code.push(if b[18].is_multiple_of(2) {
        Insn::LdB { rd: x, base, off }
    } else {
        Insn::Ld { rd: x, base, off }
    });
    let (rs1, rs2) = if b[19].is_multiple_of(2) {
        (acc, x)
    } else {
        (x, acc)
    };
    code.extend([
        Insn::Add { rd: acc, rs1, rs2 },
        Insn::Li { rd: s, imm: k },
        Insn::Add {
            rd: p,
            rs1: p,
            rs2: s,
        },
        Insn::Bltu {
            rs1: p,
            rs2: bound,
            target: top,
        },
        Insn::Halt,
    ]);
    Program::new(code, data_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Superinstructions under register aliasing, immediates that do not
    /// fit the fused form, and data segments whose mask is not an `and`.
    #[test]
    fn superinstructions_agree_under_aliasing(
        spec in proptest::collection::vec(any::<u8>(), 29..=29),
        r1 in any::<u64>(),
    ) {
        let program = aliasing_program(&spec);
        let data: Vec<u8> = (0..program.data_len).map(|i| (i as u8).wrapping_mul(37)).collect();
        let subject = Subject::new(&program);
        let _ = subject.check_all_fuels(&data, r1, 400, 48);
    }

    /// Counted loops, run a whole trip at a time where that cannot trap and
    /// an iteration at a time where it might, at every fuel that cuts a trip.
    #[test]
    fn counted_loops_agree(
        spec in proptest::collection::vec(any::<u8>(), 20..=20),
        r1 in any::<u64>(),
    ) {
        let program = counted_loop_program(&spec);
        let data: Vec<u8> = (0..program.data_len).map(|i| (i as u8).wrapping_mul(37)).collect();
        let subject = Subject::new(&program);
        let _ = subject.check_all_fuels(&data, r1, 1 << 12, 48);
    }
}

#[test]
fn analysis_discharges_checks_on_the_benign_suite() {
    // What facts-driven opcodes would have to work with: on every benign
    // program that has checkable instructions, the proof map discharges
    // some. Pure-ALU programs have no checks to begin with.
    for (name, program) in workloads::benign_suite() {
        let has_checks = program.code.iter().any(|i| {
            matches!(
                i,
                Insn::Ld { .. }
                    | Insn::LdB { .. }
                    | Insn::St { .. }
                    | Insn::StB { .. }
                    | Insn::Divu { .. }
                    | Insn::Jr { .. }
            )
        });
        let proofs = analysis::analyze(&program).unwrap().proofs;
        let discharged = [Facts::MEM_SAFE, Facts::DIV_NONZERO, Facts::JUMP_SAFE]
            .map(|fact| proofs.count(fact))
            .iter()
            .sum::<usize>();
        assert!(
            !has_checks || discharged > 0,
            "{name}: no checks were discharged despite full verification"
        );
    }
}
