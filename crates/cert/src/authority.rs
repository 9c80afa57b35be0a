//! The certification authority and chain validation.
//!
//! The kernel trusts exactly one root key. Everything else — system
//! administrators, trusted compilers, provers, test teams — holds a
//! delegation chain rooted there, with rights attenuating at every link
//! (a subordinate can never grant more than it was granted). This mirrors
//! the Taos "speaks-for" discipline the paper cites.

use paramecium_crypto::{
    keys::{KeyPair, PublicKey},
    rsa,
};
use rand::Rng;

use crate::{
    certificate::{Certificate, DelegationCert, Right},
    CertError,
};

/// A key-holding principal that can issue delegations and certificates.
///
/// Used for the root authority and for every subordinate.
#[derive(Clone, Debug)]
pub struct Authority {
    /// Principal name (audit only).
    pub name: String,
    /// The key pair.
    pub keys: KeyPair,
}

impl Authority {
    /// Creates an authority with a fresh key pair.
    pub fn new<R: Rng + ?Sized>(name: impl Into<String>, rng: &mut R, bits: u32) -> Self {
        Authority {
            name: name.into(),
            keys: rsa::generate(rng, bits),
        }
    }

    /// Creates an authority around an existing key pair (shared or cached
    /// key material — key generation dominates everything else an
    /// authority does).
    #[cfg(test)]
    pub(crate) fn from_keys(name: impl Into<String>, keys: KeyPair) -> Self {
        Authority {
            name: name.into(),
            keys,
        }
    }

    /// The public key.
    pub fn public(&self) -> &PublicKey {
        &self.keys.public
    }

    /// This principal's key fingerprint.
    pub fn fingerprint(&self) -> &str {
        self.keys.public.fingerprint()
    }

    /// Issues a delegation empowering `subject` to grant `powers`.
    pub fn delegate(
        &self,
        subject_name: impl Into<String>,
        subject: &PublicKey,
        powers: Vec<Right>,
    ) -> Result<DelegationCert, CertError> {
        DelegationCert::issue(
            subject_name,
            subject.clone(),
            powers,
            &self.keys.public,
            &self.keys.private,
        )
    }

    /// Signs a component certificate with this principal's key.
    pub fn certify(
        &self,
        component: impl Into<String>,
        image: &[u8],
        rights: Vec<Right>,
        method: crate::certificate::CertifyMethod,
    ) -> Result<Certificate, CertError> {
        Certificate::issue(
            component,
            image,
            rights,
            method,
            &self.keys.public,
            &self.keys.private,
        )
    }
}

/// Validates a certificate against the trusted `root` key through a chain
/// of delegations.
///
/// Checks, in order:
/// 1. every delegation signature, starting from the root key;
/// 2. issuer/subject linkage (each link signed by the previous key);
/// 3. rights attenuation (no link grants powers its issuer lacked —
///    the root holds all powers by definition);
/// 4. the component certificate's signature by the final key;
/// 5. that the certificate's rights are within the final key's powers.
///
/// An empty chain means the root signed the certificate directly.
///
/// Returns the number of signature verifications performed (the dominant
/// validation cost, reported for the delegation-depth experiment).
pub fn validate_chain(
    root: &PublicKey,
    chain: &[DelegationCert],
    cert: &Certificate,
) -> Result<u32, CertError> {
    let mut sig_checks = 0u32;
    let mut signer_key = root;
    // The root may grant anything.
    let mut signer_powers: Option<&[Right]> = None;

    for (i, link) in chain.iter().enumerate() {
        link.verify_signature(signer_key)?;
        sig_checks += 1;
        if let Some(powers) = signer_powers {
            if link.powers.iter().any(|p| !powers.contains(p)) {
                return Err(CertError::RightsEscalation {
                    at: format!("link {i} (`{}`)", link.subject_name),
                });
            }
        }
        signer_powers = Some(&link.powers);
        signer_key = &link.subject_key;
    }

    cert.verify_signature(signer_key)?;
    sig_checks += 1;
    if let Some(powers) = signer_powers {
        if let Some(r) = cert.rights.iter().find(|r| !powers.contains(r)) {
            return Err(CertError::InsufficientRights(*r));
        }
    }
    Ok(sig_checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::CertifyMethod;
    use crate::testkeys::authority;

    #[test]
    fn root_signed_certificate_validates_with_empty_chain() {
        let root = authority("root", 1);
        let cert = root
            .certify(
                "svc",
                b"image",
                vec![Right::RunKernel],
                CertifyMethod::Administrator,
            )
            .unwrap();
        assert_eq!(validate_chain(root.public(), &[], &cert).unwrap(), 1);
    }

    #[test]
    fn two_link_chain_validates() {
        let root = authority("root", 1);
        let admin = authority("admin", 2);
        let compiler = authority("compiler", 3);
        let d1 = root
            .delegate(
                "admin",
                admin.public(),
                vec![Right::RunKernel, Right::RunUser],
            )
            .unwrap();
        let d2 = admin
            .delegate("compiler", compiler.public(), vec![Right::RunUser])
            .unwrap();
        let cert = compiler
            .certify(
                "lib",
                b"image",
                vec![Right::RunUser],
                CertifyMethod::TypeSafeCompiler,
            )
            .unwrap();
        let checks = validate_chain(root.public(), &[d1, d2], &cert).unwrap();
        assert_eq!(checks, 3);
    }

    #[test]
    fn escalation_in_chain_is_rejected() {
        let root = authority("root", 1);
        let admin = authority("admin", 2);
        let sub = authority("sub", 3);
        // Admin only holds RunUser…
        let d1 = root
            .delegate("admin", admin.public(), vec![Right::RunUser])
            .unwrap();
        // …but tries to hand out RunKernel.
        let d2 = admin
            .delegate("sub", sub.public(), vec![Right::RunKernel])
            .unwrap();
        let cert = sub
            .certify("svc", b"i", vec![Right::RunKernel], CertifyMethod::Prover)
            .unwrap();
        assert!(matches!(
            validate_chain(root.public(), &[d1, d2], &cert),
            Err(CertError::RightsEscalation { .. })
        ));
    }

    #[test]
    fn leaf_cannot_exceed_its_powers() {
        let root = authority("root", 1);
        let sub = authority("sub", 2);
        let d = root
            .delegate("sub", sub.public(), vec![Right::RunUser])
            .unwrap();
        let cert = sub
            .certify(
                "svc",
                b"i",
                vec![Right::RunKernel],
                CertifyMethod::Administrator,
            )
            .unwrap();
        assert_eq!(
            validate_chain(root.public(), &[d], &cert),
            Err(CertError::InsufficientRights(Right::RunKernel))
        );
    }

    #[test]
    fn broken_link_signature_is_rejected() {
        let root = authority("root", 1);
        let imposter = authority("imposter", 2);
        let sub = authority("sub", 3);
        // Delegation signed by the imposter, not the root.
        let d = imposter
            .delegate("sub", sub.public(), vec![Right::RunUser])
            .unwrap();
        let cert = sub
            .certify(
                "svc",
                b"i",
                vec![Right::RunUser],
                CertifyMethod::Administrator,
            )
            .unwrap();
        assert!(matches!(
            validate_chain(root.public(), &[d], &cert),
            Err(CertError::BadSignature(_))
        ));
    }

    #[test]
    fn certificate_signed_by_wrong_leaf_rejected() {
        let root = authority("root", 1);
        let sub = authority("sub", 2);
        let other = authority("other", 3);
        let d = root
            .delegate("sub", sub.public(), vec![Right::RunUser])
            .unwrap();
        // Certificate signed by a key that is not in the chain.
        let cert = other
            .certify(
                "svc",
                b"i",
                vec![Right::RunUser],
                CertifyMethod::Administrator,
            )
            .unwrap();
        assert!(validate_chain(root.public(), &[d], &cert).is_err());
    }

    #[test]
    fn deep_chains_validate_and_count_checks() {
        let root = authority("root", 1);
        let mut chain = Vec::new();
        let mut prev = root.clone();
        for i in 0..5 {
            let next = authority(&format!("level{i}"), 10 + i as u64);
            chain.push(
                prev.delegate(format!("level{i}"), next.public(), vec![Right::RunKernel])
                    .unwrap(),
            );
            prev = next;
        }
        let cert = prev
            .certify(
                "deep",
                b"i",
                vec![Right::RunKernel],
                CertifyMethod::Administrator,
            )
            .unwrap();
        assert_eq!(validate_chain(root.public(), &chain, &cert).unwrap(), 6);
    }
}
