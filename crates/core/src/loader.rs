//! The component loader: placement policy and protection selection.
//!
//! "Determining which components reside in user and kernel space is up to
//! the user. An authority certifies which components are trustworthy and
//! are therefore permitted to run in the kernel address space." (paper,
//! section 1).
//!
//! The loader implements that split: the *user* asks for a placement; the
//! *certification service* decides whether the kernel placement is
//! permitted; and — because Paramecium generalises the Exokernel/SPIN
//! approaches — an uncertified bytecode component may still enter the
//! kernel domain under *software* protection (load-time verification or
//! SFI rewriting) when the load options allow it.

use std::sync::Arc;

use parking_lot::Mutex;

use paramecium_machine::{
    cost::{CostModel, Cycles},
    Machine,
};
use paramecium_obj::{ObjRef, ObjectBuilder, TypeTag, Value};
use paramecium_sfi::{
    analysis,
    bytecode::{Program, NUM_REGS},
    interp::ElidedProgram,
    sandbox::sandbox_rewrite,
};

use crate::domain::DomainId;

/// Where the user asks for a component to live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Inside the kernel protection domain.
    Kernel,
    /// In the given (user) protection domain.
    Domain(DomainId),
}

/// How the loaded component is protected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protection {
    /// Hardware: it lives in its own MMU context; stray accesses fault.
    Hardware,
    /// A valid certificate was checked at load time — the Paramecium way.
    /// Trust came from the signature, so the load runs no abstract
    /// interpretation: the program is lowered once, as is, and the
    /// simulation-level bounds checks stay only as the trap path.
    CertifiedNative,
    /// Statically verified at load time; runs with only its own compiler-
    /// emitted guards — the SPIN way.
    Verified,
    /// Rewritten with SFI guards on every access — the Exokernel way.
    Sandboxed,
}

/// Options controlling a load.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Requested placement.
    pub placement: Placement,
    /// Instance path to register in the name space.
    pub register_as: String,
    /// If the component is uncertified bytecode, may the loader fall back
    /// to software protection (verify, then sandbox) for kernel placement?
    pub allow_software_protection: bool,
    /// Require certificates even for user-domain placement.
    pub require_user_cert: bool,
    /// Skip certification and verification entirely and force SFI
    /// rewriting (the pure-Exokernel baseline, used by ablations).
    pub force_sandbox: bool,
}

impl LoadOptions {
    /// Standard options: kernel placement, software fallback allowed.
    pub fn kernel(register_as: impl Into<String>) -> Self {
        LoadOptions {
            placement: Placement::Kernel,
            register_as: register_as.into(),
            allow_software_protection: true,
            require_user_cert: false,
            force_sandbox: false,
        }
    }

    /// Standard options: placement in a user domain.
    pub fn user(domain: DomainId, register_as: impl Into<String>) -> Self {
        LoadOptions {
            placement: Placement::Domain(domain),
            register_as: register_as.into(),
            allow_software_protection: false,
            require_user_cert: false,
            force_sandbox: false,
        }
    }

    /// Disables the software-protection fallback (strict certification).
    pub fn strict(mut self) -> Self {
        self.allow_software_protection = false;
        self
    }

    /// Forces SFI rewriting regardless of certificates or verifiability.
    pub fn sandboxed(mut self) -> Self {
        self.force_sandbox = true;
        self
    }
}

/// The outcome of a load.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Instance path the component was registered under.
    pub path: String,
    /// Domain it was placed in.
    pub domain: DomainId,
    /// Protection regime selected.
    pub protection: Protection,
    /// Simulated cycles the load itself cost (certificate validation,
    /// verification or rewriting).
    pub load_cycles: Cycles,
}

/// Instance state of a loaded bytecode component object.
struct BcState {
    /// The program as lowered at load: every regime runs the one executor.
    program: ElidedProgram,
    /// Its data segment, allocated at load and reused by every run.
    data: Vec<u8>,
    machine: Arc<Mutex<Machine>>,
    protection: Protection,
    step_budget: u64,
    last_steps: u64,
}

/// Cost charged per interpreted VM step, in simulated cycles.
const VM_STEP_COST: Cycles = 1;

/// Wraps a bytecode program as an object exporting the `component`
/// interface:
///
/// - `run(data: bytes, r1: int) -> int` — load `data` at offset 0, set
///   register r1, execute, return r0;
/// - `steps() -> int` — VM steps of the most recent run;
/// - `protection() -> str` — the protection regime in force.
pub fn make_bytecode_object(
    class: impl Into<String>,
    program: Program,
    protection: Protection,
    machine: Arc<Mutex<Machine>>,
    step_budget: u64,
) -> ObjRef {
    ObjectBuilder::new(class)
        .state(BcState {
            program: ElidedProgram::lower(&program),
            data: vec![0; program.data_len as usize],
            machine,
            protection,
            step_budget,
            last_steps: 0,
        })
        .interface("component", |i| {
            i.method(
                "run",
                &[TypeTag::Bytes, TypeTag::Int],
                TypeTag::Int,
                |this, args| {
                    let data = args[0].as_bytes()?.clone();
                    let r1 = args[1].as_int()?;
                    this.with_state(|s: &mut BcState| {
                        // A run is: copy the frame in, zero the rest, go.
                        let n = data.len().min(s.data.len());
                        s.data[..n].copy_from_slice(&data[..n]);
                        s.data[n..].fill(0);
                        let mut regs = [0; NUM_REGS];
                        regs[1] = r1 as u64;
                        let out = s
                            .program
                            .run(&mut regs, &mut s.data, s.step_budget)
                            .map_err(|e| paramecium_obj::ObjError::failed(e.to_string()))?;
                        s.last_steps = out.steps;
                        s.machine.lock().charge(out.steps * VM_STEP_COST);
                        Ok(Value::Int(out.result as i64))
                    })
                },
            )
            .method("steps", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut BcState| Ok(Value::Int(s.last_steps as i64)))
            })
            .method("protection", &[], TypeTag::Str, |this, _| {
                this.with_state(|s: &mut BcState| Ok(Value::Str(format!("{:?}", s.protection))))
            })
        })
        .build()
}

/// Chooses the software-protection regime for uncertified bytecode headed
/// into the kernel domain: verification if it passes, else SFI rewriting.
///
/// Returns the (possibly rewritten) program, the regime, and the simulated
/// load-time cost of making it safe. The cost model prices each
/// abstract-interpretation evaluation ([`CostModel::analysis_eval`]); a
/// failed verification still charges the evaluations it burned before the
/// loader fell back to rewriting.
pub fn soften(program: Program, cost_model: &CostModel) -> (Program, Protection, Cycles) {
    let analysis = analysis::analyze(&program);
    let analysis_cycles = analysis
        .as_ref()
        .map(|a| a.report.evaluations * cost_model.analysis_eval)
        .unwrap_or(0);
    if let Ok(a) = &analysis {
        if a.verdict(&program).is_ok() {
            return (program, Protection::Verified, analysis_cycles);
        }
    }
    let original_len = program.len() as Cycles;
    let (rewritten, stats) = sandbox_rewrite(&program);
    // Rewriting is linear in program size, on top of the evaluations the
    // failed verification attempt already spent.
    let cost = analysis_cycles + (original_len + stats.rewritten_len as Cycles) * 2;
    (rewritten, Protection::Sandboxed, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paramecium_sfi::workloads;

    fn machine() -> Arc<Mutex<Machine>> {
        Arc::new(Mutex::new(Machine::new()))
    }

    #[test]
    fn bytecode_object_runs_and_reports() {
        let m = machine();
        let obj = make_bytecode_object(
            "csum",
            workloads::checksum_loop(64, 1),
            Protection::Hardware,
            m.clone(),
            1 << 20,
        );
        let data = bytes::Bytes::from((0..64u8).collect::<Vec<_>>());
        let expected: i64 = (0..64i64).sum();
        let r = obj
            .invoke("component", "run", &[Value::Bytes(data), Value::Int(0)])
            .unwrap();
        assert_eq!(r, Value::Int(expected));
        let steps = obj.invoke("component", "steps", &[]).unwrap();
        assert!(steps.as_int().unwrap() > 64);
        assert_eq!(
            obj.invoke("component", "protection", &[]).unwrap(),
            Value::Str("Hardware".into())
        );
    }

    #[test]
    fn running_charges_simulated_time() {
        let m = machine();
        let obj = make_bytecode_object(
            "alu",
            workloads::alu_loop(100),
            Protection::CertifiedNative,
            m.clone(),
            1 << 20,
        );
        let before = m.lock().now();
        obj.invoke(
            "component",
            "run",
            &[Value::Bytes(bytes::Bytes::new()), Value::Int(0)],
        )
        .unwrap();
        assert!(m.lock().now() > before);
    }

    #[test]
    fn faulting_component_reports_failure() {
        let m = machine();
        let obj = make_bytecode_object(
            "wild",
            workloads::wild_writer(),
            Protection::Hardware,
            m,
            1 << 20,
        );
        let r = obj.invoke(
            "component",
            "run",
            &[Value::Bytes(bytes::Bytes::new()), Value::Int(0)],
        );
        assert!(r.is_err());
    }

    #[test]
    fn soften_verifies_when_possible() {
        let cm = CostModel::default();
        let (p, prot, cost) = soften(workloads::checksum_loop_verified(64, 1), &cm);
        assert_eq!(prot, Protection::Verified);
        assert!(cost > 0);
        // Program untouched.
        assert_eq!(p, workloads::checksum_loop_verified(64, 1));
    }

    #[test]
    fn soften_charges_per_the_cost_model() {
        let p = workloads::checksum_loop_verified(64, 1);
        let (_, _, default_cost) = soften(p.clone(), &CostModel::default());
        let (_, _, free_cost) = soften(p.clone(), &CostModel::free());
        let mut doubled = CostModel::default();
        doubled.analysis_eval *= 2;
        let (_, _, doubled_cost) = soften(p, &doubled);
        assert_eq!(free_cost, 0);
        assert_eq!(doubled_cost, default_cost * 2);
    }

    #[test]
    fn soften_sandboxes_unverifiable_code() {
        let original = workloads::checksum_loop(64, 1);
        let (p, prot, cost) = soften(original.clone(), &CostModel::default());
        assert_eq!(prot, Protection::Sandboxed);
        assert!(cost > 0);
        assert!(p.len() > original.len());
    }

    #[test]
    fn failed_verification_still_charges_its_evaluations() {
        let original = workloads::checksum_loop(64, 1);
        let (_, _, with_eval) = soften(original.clone(), &CostModel::default());
        let no_eval = CostModel {
            analysis_eval: 0,
            ..CostModel::default()
        };
        let (_, _, without_eval) = soften(original, &no_eval);
        assert!(with_eval > without_eval);
    }

    #[test]
    fn every_regime_matches_the_oracle_through_the_object() {
        // Same result and the same step count as the checked interpreter —
        // the virtual charge rides on `steps` — whatever the regime.
        let data: Vec<u8> = (0..64u8).collect();
        let verified = workloads::checksum_loop_verified(64, 1);
        let (sandboxed, _) = sandbox_rewrite(&workloads::checksum_loop(64, 1));
        for (program, protection) in [
            (&verified, Protection::Verified),
            (&verified, Protection::CertifiedNative),
            (&sandboxed, Protection::Sandboxed),
        ] {
            let mut oracle = paramecium_sfi::Interp::new(program);
            oracle.load_data(0, &data);
            let expected = oracle.run(1 << 20).unwrap();

            let obj = make_bytecode_object("csum", program.clone(), protection, machine(), 1 << 20);
            let frame = Value::Bytes(bytes::Bytes::from(data.clone()));
            let r = obj
                .invoke("component", "run", &[frame, Value::Int(0)])
                .unwrap();
            assert_eq!(r, Value::Int(expected.result as i64));
            let steps = obj.invoke("component", "steps", &[]).unwrap();
            assert_eq!(steps.as_int().unwrap() as u64, expected.steps);
            assert_eq!(
                obj.invoke("component", "protection", &[]).unwrap(),
                Value::Str(format!("{protection:?}"))
            );
        }
    }

    #[test]
    fn step_budget_is_enforced_through_the_object() {
        let m = machine();
        let obj = make_bytecode_object(
            "big",
            workloads::alu_loop(1_000_000),
            Protection::Hardware,
            m,
            100, // Tiny budget.
        );
        assert!(obj
            .invoke(
                "component",
                "run",
                &[Value::Bytes(bytes::Bytes::new()), Value::Int(0)]
            )
            .is_err());
    }
}
