//! Component bytecode and software-protection baselines.
//!
//! The paper positions certification *against* the software protection used
//! by the Exokernel and SPIN: "restricted, type safe languages and
//! sandboxing … to prevent it from causing harm" (section 1), and claims
//! that "verifying a certificate at load-time obviates the need for run
//! time fault checks thus allowing components to be more efficient"
//! (section 5). To measure that claim we need downloadable components with
//! real code in them, so this crate provides:
//!
//! - [`bytecode`] — a small register-machine instruction set; a component's
//!   *image* is its encoded program, which is what certificates digest,
//! - [`asm`] — a tiny assembler for building programs with labels,
//! - [`interp`] — the checked oracle, with deterministic step/cycle
//!   accounting, and the one executor every loaded component runs,
//! - [`lower`] — the load-time lowering of a program into the flat
//!   pre-decoded op array that executor runs,
//! - [`sandbox`] — Wahbe-style software fault isolation: rewrites a program
//!   so every memory access and indirect jump is masked into the sandbox
//!   segment (run-time overhead on every access),
//! - [`analysis`] — the static-analysis framework: CFG construction, an
//!   interval + known-bits abstract domain with widening, and the
//!   per-instruction [`analysis::ProofMap`] of discharged facts,
//! - [`verifier`] — a SPIN-style load-time verifier: an acceptance policy
//!   over the analysis that admits a program only if every access is
//!   provably safe (load-time cost, zero run-time overhead, but rejects
//!   programs it cannot prove),
//! - [`workloads`] — parameterised benchmark programs (checksum loops,
//!   memory-walking kernels) shared by tests and benches.
//!
//! # The verify → analyze → prove → lower pipeline
//!
//! The software-protection claim the paper makes — "verifying a
//! certificate at load-time obviates the need for run time fault checks" —
//! is realised here in four stages:
//!
//! 1. **verify**: [`verifier::verify`] rejects any program with a memory
//!    access or indirect jump it cannot prove safe. This is the trust
//!    decision; everything after it is optimisation.
//! 2. **analyze**: [`analysis::analyze`] runs the underlying machinery —
//!    basic blocks and edges ([`analysis::cfg::Cfg`]), then a worklist
//!    fixpoint where every register carries an interval plus known-bit
//!    masks ([`analysis::domain::AbsVal`]), widened at loop heads against
//!    the segment bounds so back edges converge without losing the very
//!    facts the guards establish.
//! 3. **prove**: a final pass over the converged states fills the
//!    [`analysis::ProofMap`]: per instruction, whether the load/store is
//!    in-bounds, the divisor nonzero, the jump target in-range, a branch
//!    one-sided, or the instruction unreachable.
//! 4. **lower**: [`interp::ElidedProgram::lower`] turns the program, once,
//!    at load, into a flat array of 16-byte pre-decoded ops — per-block
//!    fuel pre-summed into a header, static branch targets resolved,
//!    power-of-two masks reduced to `and`, the workloads' hot sequences
//!    fused into superinstructions — and that array is run by a single
//!    `match` loop. One lowering, one executor, for every protection
//!    regime: it needs no analysis (so *certified*, *sandboxed* and
//!    hardware-isolated components get it too) and it keeps every check
//!    the oracle makes as the op's trap path, so the proof map is not
//!    trusted at run time; what it sheds is the per-step decode, fetch and
//!    fuel tests. The fully-checked [`Interp`] is kept verbatim as the
//!    differential oracle — it executes no loaded component — and the
//!    conformance suite holds the lowering bit-for-bit equal to it on
//!    registers, memory, traps and fuel, and fails any proof-map fact that
//!    sits on a pc where the oracle traps (the gate a facts-driven opcode
//!    would have to pass before one is added).
//!
//! Certified-native execution (the Paramecium path) runs the *original*
//! program, lowered as is with no analysis at all: the trust was
//! established by signature at load time, and the simulation-level bounds
//! checks remain only as the path a trap would take.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod asm;
pub mod bytecode;
pub mod interp;
pub mod lower;
pub mod sandbox;
pub mod verifier;
pub mod workloads;

pub use asm::Asm;
pub use bytecode::{Insn, Program, Reg};
pub use interp::{ElidedInterp, ElidedProgram, ExecOutcome, Interp, InterpError};
pub use sandbox::sandbox_rewrite;
pub use verifier::{verify, VerifyError};

/// Errors common to loading bytecode images.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageError {
    /// The encoded image was malformed.
    Malformed(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Malformed(m) => write!(f, "malformed image: {m}"),
        }
    }
}

impl std::error::Error for ImageError {}
