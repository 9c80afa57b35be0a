//! Certifier subordinates.
//!
//! "These subordinates may include programs, like type-safe language
//! compilers or automated correctness provers, software test teams, system
//! administrators, and even graduate students." (paper, section 4).
//!
//! Each certifier holds its own [`Authority`] key (empowered by a
//! delegation chain elsewhere) and applies a *different trust technique*
//! before signing. A certifier can also *decline* — the signal the policy
//! layer's escape hatch reacts to.

use paramecium_sfi::{bytecode::Program, verifier, ElidedInterp, ElidedProgram};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{
    authority::Authority,
    certificate::{Certificate, CertifyMethod, Right},
};

/// The result of asking a certifier to certify a component.
#[derive(Clone, Debug)]
pub enum CertifyOutcome {
    /// Signed: here is the certificate.
    Certified(Certificate),
    /// This certifier cannot establish trust (try the next subordinate).
    Declined {
        /// Why, for the audit trail.
        reason: String,
    },
}

/// A certification subordinate.
pub trait Certifier: Send + Sync {
    /// The subordinate's name (matches its delegation certificate).
    fn name(&self) -> &str;

    /// The authority (key holder) this certifier signs with.
    fn authority(&self) -> &Authority;

    /// Attempts to certify `image` for `rights`.
    fn try_certify(&self, component: &str, image: &[u8], rights: &[Right]) -> CertifyOutcome;

    /// Simulated effort in cycles the *most recent* attempt cost. The
    /// paper notes certification "will usually be done off-line", so this
    /// is reported separately from load-time validation cost.
    fn last_effort(&self) -> u64;
}

/// A system administrator: signs exactly the images on a hand-checked
/// allowlist (by digest).
pub struct AdminCertifier {
    authority: Authority,
    allowlist: Vec<paramecium_crypto::sha256::Digest>,
    effort: std::sync::atomic::AtomicU64,
}

impl AdminCertifier {
    /// Creates an administrator who has hand-checked the given images.
    pub fn new(authority: Authority, checked_images: &[&[u8]]) -> Self {
        AdminCertifier {
            authority,
            allowlist: checked_images
                .iter()
                .map(|i| paramecium_crypto::sha256(i))
                .collect(),
            effort: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl Certifier for AdminCertifier {
    fn name(&self) -> &str {
        &self.authority.name
    }

    fn authority(&self) -> &Authority {
        &self.authority
    }

    fn try_certify(&self, component: &str, image: &[u8], rights: &[Right]) -> CertifyOutcome {
        // A human decision is ~free in machine cycles.
        self.effort.store(1, std::sync::atomic::Ordering::Relaxed);
        if !self.allowlist.contains(&paramecium_crypto::sha256(image)) {
            return CertifyOutcome::Declined {
                reason: format!("{}: image not on my hand-checked list", self.name()),
            };
        }
        match self.authority.certify(
            component,
            image,
            rights.to_vec(),
            CertifyMethod::Administrator,
        ) {
            Ok(c) => CertifyOutcome::Certified(c),
            Err(e) => CertifyOutcome::Declined {
                reason: e.to_string(),
            },
        }
    }

    fn last_effort(&self) -> u64 {
        self.effort.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A trusted type-safe compiler: certifies any image that passes the
/// load-time verifier (its own output always does).
///
/// This is exactly the paper's SPIN integration: "delegating the
/// certification authority to a trusted compiler for that language.
/// Everything compiled by that compiler would then be automatically
/// certified" (section 5).
pub struct CompilerCertifier {
    authority: Authority,
    effort: std::sync::atomic::AtomicU64,
}

impl CompilerCertifier {
    /// Creates the compiler certifier.
    pub fn new(authority: Authority) -> Self {
        CompilerCertifier {
            authority,
            effort: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl Certifier for CompilerCertifier {
    fn name(&self) -> &str {
        &self.authority.name
    }

    fn authority(&self) -> &Authority {
        &self.authority
    }

    fn try_certify(&self, component: &str, image: &[u8], rights: &[Right]) -> CertifyOutcome {
        let program = match Program::decode(image) {
            Ok(p) => p,
            Err(e) => {
                return CertifyOutcome::Declined {
                    reason: format!("{}: not bytecode I can check: {e}", self.name()),
                }
            }
        };
        match verifier::verify(&program) {
            Ok(report) => {
                self.effort
                    .store(report.evaluations * 4, std::sync::atomic::Ordering::Relaxed);
                match self.authority.certify(
                    component,
                    image,
                    rights.to_vec(),
                    CertifyMethod::TypeSafeCompiler,
                ) {
                    Ok(c) => CertifyOutcome::Certified(c),
                    Err(e) => CertifyOutcome::Declined {
                        reason: e.to_string(),
                    },
                }
            }
            Err(e) => CertifyOutcome::Declined {
                reason: format!("{}: verification failed: {e}", self.name()),
            },
        }
    }

    fn last_effort(&self) -> u64 {
        self.effort.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// An automated correctness prover with a bounded effort budget.
///
/// "A certifier may take an arbitrary amount of time to validate a given
/// component … when the automatic program correctness prover decides that
/// it cannot complete the proof, it might turn the problem over to the
/// system administrator." (section 4). The proof effort here is modelled
/// as quadratic in program size; the prover gives up beyond its budget —
/// which is what exercises the escape hatch.
pub struct ProverCertifier {
    authority: Authority,
    /// Maximum proof effort before giving up.
    pub effort_budget: u64,
    effort: std::sync::atomic::AtomicU64,
}

impl ProverCertifier {
    /// Creates a prover with an effort budget.
    pub fn new(authority: Authority, effort_budget: u64) -> Self {
        ProverCertifier {
            authority,
            effort_budget,
            effort: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl Certifier for ProverCertifier {
    fn name(&self) -> &str {
        &self.authority.name
    }

    fn authority(&self) -> &Authority {
        &self.authority
    }

    fn try_certify(&self, component: &str, image: &[u8], rights: &[Right]) -> CertifyOutcome {
        let program = match Program::decode(image) {
            Ok(p) => p,
            Err(e) => {
                return CertifyOutcome::Declined {
                    reason: format!("{}: cannot parse: {e}", self.name()),
                }
            }
        };
        // Proof effort: quadratic in program size (object-code provers are
        // expensive — the paper cites Yu's multi-hour proofs).
        let effort = (program.len() as u64).pow(2).max(1);
        self.effort.store(
            effort.min(self.effort_budget),
            std::sync::atomic::Ordering::Relaxed,
        );
        if effort > self.effort_budget {
            return CertifyOutcome::Declined {
                reason: format!(
                    "{}: proof needs {effort} effort, budget is {}; handing over",
                    self.name(),
                    self.effort_budget
                ),
            };
        }
        // Within budget the prover is as strong as the verifier.
        match verifier::verify(&program) {
            Ok(_) => match self.authority.certify(
                component,
                image,
                rights.to_vec(),
                CertifyMethod::Prover,
            ) {
                Ok(c) => CertifyOutcome::Certified(c),
                Err(e) => CertifyOutcome::Declined {
                    reason: e.to_string(),
                },
            },
            Err(e) => CertifyOutcome::Declined {
                reason: format!("{}: proof refuted: {e}", self.name()),
            },
        }
    }

    fn last_effort(&self) -> u64 {
        self.effort.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A software test team: runs the component on random inputs and certifies
/// if nothing faults.
///
/// Deliberately the weakest technique — testing can miss input-dependent
/// escapes, which the security tests demonstrate.
pub struct TestTeamCertifier {
    authority: Authority,
    /// Number of random test runs.
    pub test_runs: u32,
    /// Step budget per run.
    pub step_budget: u64,
    seed: u64,
    effort: std::sync::atomic::AtomicU64,
}

impl TestTeamCertifier {
    /// Creates a test team with a deterministic seed.
    pub fn new(authority: Authority, test_runs: u32, step_budget: u64, seed: u64) -> Self {
        TestTeamCertifier {
            authority,
            test_runs,
            step_budget,
            seed,
            effort: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl Certifier for TestTeamCertifier {
    fn name(&self) -> &str {
        &self.authority.name
    }

    fn authority(&self) -> &Authority {
        &self.authority
    }

    fn try_certify(&self, component: &str, image: &[u8], rights: &[Right]) -> CertifyOutcome {
        let program = match Program::decode(image) {
            Ok(p) => p,
            Err(e) => {
                return CertifyOutcome::Declined {
                    reason: format!("{}: cannot parse: {e}", self.name()),
                }
            }
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut effort = 0u64;
        let lowered = ElidedProgram::lower(&program);
        for run in 0..self.test_runs {
            let mut interp = ElidedInterp::new(&lowered);
            // Randomise the input registers and data segment.
            for r in 1..4u8 {
                interp.set_reg(paramecium_sfi::Reg::new(r), rng.gen());
            }
            let data: Vec<u8> = (0..program.data_len.min(256)).map(|_| rng.gen()).collect();
            interp.load_data(0, &data);
            match interp.run(self.step_budget) {
                Ok(out) => effort += out.steps,
                Err(paramecium_sfi::InterpError::OutOfSteps) => {
                    effort += self.step_budget;
                }
                Err(e) => {
                    self.effort
                        .store(effort, std::sync::atomic::Ordering::Relaxed);
                    return CertifyOutcome::Declined {
                        reason: format!("{}: run {run} faulted: {e}", self.name()),
                    };
                }
            }
        }
        self.effort
            .store(effort, std::sync::atomic::Ordering::Relaxed);
        match self
            .authority
            .certify(component, image, rights.to_vec(), CertifyMethod::TestTeam)
        {
            Ok(c) => CertifyOutcome::Certified(c),
            Err(e) => CertifyOutcome::Declined {
                reason: e.to_string(),
            },
        }
    }

    fn last_effort(&self) -> u64 {
        self.effort.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkeys::authority;
    use paramecium_sfi::workloads;

    #[test]
    fn admin_signs_only_allowlisted_images() {
        let image = workloads::checksum_loop(64, 1).encode();
        let admin = AdminCertifier::new(authority("alice", 1), &[&image]);
        match admin.try_certify("csum", &image, &[Right::RunKernel]) {
            CertifyOutcome::Certified(c) => {
                assert!(c.matches_image(&image));
                assert_eq!(c.method, CertifyMethod::Administrator);
            }
            CertifyOutcome::Declined { reason } => panic!("declined: {reason}"),
        }
        assert!(matches!(
            admin.try_certify("other", b"unknown image", &[Right::RunUser]),
            CertifyOutcome::Declined { .. }
        ));
    }

    #[test]
    fn compiler_certifies_verifiable_code_only() {
        let compiler = CompilerCertifier::new(authority("m3c", 2));
        let good = workloads::checksum_loop_verified(64, 1).encode();
        assert!(matches!(
            compiler.try_certify("good", &good, &[Right::RunKernel]),
            CertifyOutcome::Certified(_)
        ));
        assert!(compiler.last_effort() > 0);
        let bad = workloads::wild_writer().encode();
        assert!(matches!(
            compiler.try_certify("bad", &bad, &[Right::RunKernel]),
            CertifyOutcome::Declined { .. }
        ));
        assert!(matches!(
            compiler.try_certify("garbage", b"not bytecode", &[Right::RunUser]),
            CertifyOutcome::Declined { .. }
        ));
    }

    #[test]
    fn prover_gives_up_on_big_programs() {
        let small = workloads::checksum_loop_verified(64, 1).encode();
        let prover = ProverCertifier::new(authority("prover", 3), 100_000);
        assert!(matches!(
            prover.try_certify("small", &small, &[Right::RunKernel]),
            CertifyOutcome::Certified(_)
        ));
        // Tiny budget: must hand the problem over.
        let tired = ProverCertifier::new(authority("prover2", 4), 10);
        assert!(matches!(
            tired.try_certify("small", &small, &[Right::RunKernel]),
            CertifyOutcome::Declined { .. }
        ));
    }

    #[test]
    fn test_team_passes_safe_rejects_faulty() {
        let team = TestTeamCertifier::new(authority("qa", 5), 8, 1 << 16, 42);
        let safe = workloads::alu_loop(10).encode();
        assert!(matches!(
            team.try_certify("alu", &safe, &[Right::RunUser]),
            CertifyOutcome::Certified(_)
        ));
        assert!(team.last_effort() > 0);
        let faulty = workloads::wild_writer().encode();
        assert!(matches!(
            team.try_certify("wild", &faulty, &[Right::RunUser]),
            CertifyOutcome::Declined { .. }
        ));
    }

    #[test]
    fn certificates_verify_against_certifier_key() {
        let compiler = CompilerCertifier::new(authority("m3c", 6));
        let image = workloads::alu_loop(3).encode();
        if let CertifyOutcome::Certified(c) = compiler.try_certify("alu", &image, &[Right::RunUser])
        {
            c.verify_signature(compiler.authority().public()).unwrap();
        } else {
            panic!("expected certification");
        }
    }
}
