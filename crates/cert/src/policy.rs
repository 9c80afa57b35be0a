//! Ordered subordinates with the escape hatch.
//!
//! "These subordinates may be ordered in preference and provide an escape
//! hatch if one of the subordinates fails to certify. For example, when the
//! automatic program correctness prover decides that it cannot complete the
//! proof, it might turn the problem over to the system administrator."
//! (paper, section 4).

use crate::{
    authority::Authority,
    certificate::{Certificate, DelegationCert, Right},
    certifier::{Certifier, CertifyOutcome},
    CertError,
};

/// One subordinate registered with the policy: the certifier plus the
/// delegation chain that empowers its key.
pub struct Subordinate {
    /// The certifier implementation.
    pub certifier: Box<dyn Certifier>,
    /// Delegation chain from the root to this certifier's key.
    pub chain: Vec<DelegationCert>,
}

/// The result of running the policy on a component.
#[derive(Clone, Debug)]
pub struct PolicyOutcome {
    /// The certificate, if anyone signed.
    pub certificate: Certificate,
    /// The delegation chain for the signer.
    pub chain: Vec<DelegationCert>,
    /// Index of the subordinate that signed.
    pub signer_index: usize,
    /// Audit trail: one line per subordinate tried before success.
    pub attempts: Vec<String>,
    /// Total simulated certification effort across all attempts.
    pub total_effort: u64,
}

/// The ordered subordinate list.
pub struct CertificationPolicy {
    subordinates: Vec<Subordinate>,
}

impl Default for CertificationPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl CertificationPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        CertificationPolicy {
            subordinates: Vec::new(),
        }
    }

    /// Appends a subordinate (lowest index = highest preference).
    pub fn add(&mut self, certifier: Box<dyn Certifier>, chain: Vec<DelegationCert>) {
        self.subordinates.push(Subordinate { certifier, chain });
    }

    /// Number of registered subordinates.
    pub fn len(&self) -> usize {
        self.subordinates.len()
    }

    /// True if no subordinates are registered.
    pub fn is_empty(&self) -> bool {
        self.subordinates.is_empty()
    }

    /// Builds the standard three-tier policy from the paper's narrative:
    /// compiler first (cheap, automatic), then prover, then administrator.
    pub fn standard(
        root: &Authority,
        compiler: crate::certifier::CompilerCertifier,
        prover: crate::certifier::ProverCertifier,
        admin: crate::certifier::AdminCertifier,
        powers: Vec<Right>,
    ) -> Result<Self, CertError> {
        let mut policy = CertificationPolicy::new();
        for certifier in [
            Box::new(compiler) as Box<dyn Certifier>,
            Box::new(prover),
            Box::new(admin),
        ] {
            let chain = vec![root.delegate(
                certifier.name().to_owned(),
                certifier.authority().public(),
                powers.clone(),
            )?];
            policy.add(certifier, chain);
        }
        Ok(policy)
    }

    /// Tries each subordinate in preference order until one certifies —
    /// the escape hatch. Returns the full audit trail either way.
    pub fn certify(
        &self,
        component: &str,
        image: &[u8],
        rights: &[Right],
    ) -> Result<PolicyOutcome, CertError> {
        let mut attempts = Vec::new();
        let mut total_effort = 0u64;
        for (i, sub) in self.subordinates.iter().enumerate() {
            match sub.certifier.try_certify(component, image, rights) {
                CertifyOutcome::Certified(certificate) => {
                    total_effort += sub.certifier.last_effort();
                    attempts.push(format!("{}: certified", sub.certifier.name()));
                    return Ok(PolicyOutcome {
                        certificate,
                        chain: sub.chain.clone(),
                        signer_index: i,
                        attempts,
                        total_effort,
                    });
                }
                CertifyOutcome::Declined { reason } => {
                    total_effort += sub.certifier.last_effort();
                    attempts.push(reason);
                }
            }
        }
        Err(CertError::AllCertifiersDeclined(attempts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifier::{AdminCertifier, CompilerCertifier, ProverCertifier};
    use crate::testkeys::authority;
    use paramecium_sfi::workloads;

    fn standard_policy(admin_images: &[&[u8]]) -> (Authority, CertificationPolicy) {
        let root = authority("root", 1);
        let policy = CertificationPolicy::standard(
            &root,
            CompilerCertifier::new(authority("compiler", 2), 4),
            ProverCertifier::new(authority("prover", 3), 2_000),
            AdminCertifier::new(authority("admin", 4), admin_images),
            vec![Right::RunKernel, Right::RunUser, Right::DeviceAccess],
        )
        .unwrap();
        (root, policy)
    }

    #[test]
    fn verifiable_code_certified_by_first_subordinate() {
        let image = workloads::checksum_loop_verified(64, 1).encode();
        let (root, policy) = standard_policy(&[]);
        let out = policy.certify("csum", &image, &[Right::RunKernel]).unwrap();
        assert_eq!(out.signer_index, 0);
        assert_eq!(out.attempts.len(), 1);
        // And the produced chain validates against the root.
        crate::authority::validate_chain(root.public(), &out.chain, &out.certificate).unwrap();
    }

    #[test]
    fn escape_hatch_falls_through_to_admin() {
        // Raw pointer arithmetic: compiler declines; program is large
        // enough that the prover gives up; admin has hand-checked it.
        let image = workloads::checksum_loop(64, 4).encode();
        let (root, policy) = standard_policy(&[&image]);
        let out = policy.certify("raw", &image, &[Right::RunKernel]).unwrap();
        assert_eq!(out.signer_index, 2, "trail: {:?}", out.attempts);
        assert_eq!(out.attempts.len(), 3);
        crate::authority::validate_chain(root.public(), &out.chain, &out.certificate).unwrap();
    }

    #[test]
    fn hatch_exhaustion_reports_full_trail() {
        let image = workloads::wild_writer().encode();
        let (_, policy) = standard_policy(&[]); // Admin has checked nothing.
        match policy.certify("wild", &image, &[Right::RunKernel]) {
            Err(CertError::AllCertifiersDeclined(trail)) => {
                assert_eq!(trail.len(), 3);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn effort_accumulates_across_attempts() {
        let image = workloads::checksum_loop(64, 4).encode();
        let (_, policy) = standard_policy(&[&image]);
        let out = policy.certify("raw", &image, &[Right::RunKernel]).unwrap();
        // The prover at least burned its budget before handing over.
        assert!(out.total_effort > 0);
    }

    #[test]
    fn empty_policy_declines_everything() {
        let policy = CertificationPolicy::new();
        assert!(policy.is_empty());
        assert!(matches!(
            policy.certify("x", b"i", &[Right::RunUser]),
            Err(CertError::AllCertifiersDeclined(t)) if t.is_empty()
        ));
    }
}
