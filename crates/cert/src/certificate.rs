//! Component and delegation certificates.
//!
//! "In our system certificates include a message digest of the component so
//! that it is impossible to modify the component after it has been
//! certified." (paper, section 4).

use paramecium_crypto::{
    keys::{PrivateKey, PublicKey},
    rsa,
    sha256::{sha256, Digest},
};

use crate::CertError;

/// A right a certificate can grant to a component.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Right {
    /// May be loaded into a user protection domain.
    RunUser,
    /// May be loaded into the *kernel* protection domain — the right the
    /// whole architecture exists to police.
    RunKernel,
    /// May claim device I/O regions (drivers).
    DeviceAccess,
    /// May replace name-space entries outside its own domain (interposing
    /// on shared services).
    InterposeShared,
}

/// How a component came to be certified — recorded for audit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CertifyMethod {
    /// A human administrator hand-checked it.
    Administrator,
    /// A trusted type-safe compiler produced and verified it.
    TypeSafeCompiler,
    /// An automated correctness prover completed a proof.
    Prover,
    /// A software test team exercised it.
    TestTeam,
}

impl CertifyMethod {
    fn tag(self) -> u8 {
        match self {
            CertifyMethod::Administrator => 0,
            CertifyMethod::TypeSafeCompiler => 1,
            CertifyMethod::Prover => 2,
            CertifyMethod::TestTeam => 3,
        }
    }
}

fn right_tag(r: Right) -> u8 {
    match r {
        Right::RunUser => 0,
        Right::RunKernel => 1,
        Right::DeviceAccess => 2,
        Right::InterposeShared => 3,
    }
}

/// A certificate binding a component image (by digest) to rights, signed
/// by a certifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Component (class) name — informational; trust is in the digest.
    pub component: String,
    /// SHA-256 of the component image.
    pub digest: Digest,
    /// Rights granted, sorted and deduplicated.
    pub rights: Vec<Right>,
    /// How the certifier established trust.
    pub method: CertifyMethod,
    /// Fingerprint of the signing key.
    pub issuer: String,
    /// RSA signature over the to-be-signed encoding.
    pub signature: Vec<u8>,
}

impl Certificate {
    /// Builds and signs a certificate.
    pub fn issue(
        component: impl Into<String>,
        image: &[u8],
        mut rights: Vec<Right>,
        method: CertifyMethod,
        issuer_public: &PublicKey,
        issuer_private: &PrivateKey,
    ) -> Result<Certificate, CertError> {
        rights.sort_unstable();
        rights.dedup();
        let mut cert = Certificate {
            component: component.into(),
            digest: sha256(image),
            rights,
            method,
            issuer: issuer_public.fingerprint().to_owned(),
            signature: Vec::new(),
        };
        let tbs = cert.to_be_signed();
        cert.signature = rsa::sign(issuer_private, &sha256(&tbs))
            .map_err(|e| CertError::Malformed(e.to_string()))?;
        Ok(cert)
    }

    /// The deterministic byte encoding covered by the signature.
    pub(crate) fn to_be_signed(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.component.len());
        out.extend_from_slice(b"CERT");
        out.extend_from_slice(&(self.component.len() as u32).to_le_bytes());
        out.extend_from_slice(self.component.as_bytes());
        out.extend_from_slice(&self.digest);
        out.push(self.rights.len() as u8);
        for r in &self.rights {
            out.push(right_tag(*r));
        }
        out.push(self.method.tag());
        out.extend_from_slice(&(self.issuer.len() as u32).to_le_bytes());
        out.extend_from_slice(self.issuer.as_bytes());
        out
    }

    /// Verifies the signature with the (separately authenticated) issuer
    /// key, and that the key matches the recorded fingerprint.
    pub(crate) fn verify_signature(&self, issuer_key: &PublicKey) -> Result<(), CertError> {
        if issuer_key.fingerprint() != self.issuer {
            return Err(CertError::BadSignature(format!(
                "certificate for `{}`: issuer key mismatch",
                self.component
            )));
        }
        rsa::verify(issuer_key, &sha256(&self.to_be_signed()), &self.signature)
            .map_err(|_| CertError::BadSignature(format!("certificate for `{}`", self.component)))
    }

    /// True if the certificate grants `right`.
    pub(crate) fn grants(&self, right: Right) -> bool {
        self.rights.contains(&right)
    }

    /// Checks that `image` is the exact bytes that were certified.
    pub fn matches_image(&self, image: &[u8]) -> bool {
        sha256(image) == self.digest
    }
}

/// A delegation: the issuer empowers the subject key to certify components
/// with (a subset of) the listed rights.
///
/// Chains of these implement "the certification authority will usually
/// delegate its authority to subordinates".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelegationCert {
    /// Human-readable subordinate name (e.g. `"modula3-compiler"`).
    pub subject_name: String,
    /// The subordinate's public key (embedded; authenticated by the
    /// issuer's signature over this certificate).
    pub subject_key: PublicKey,
    /// The rights the subordinate may grant — must attenuate down chains.
    pub powers: Vec<Right>,
    /// Fingerprint of the issuing key.
    pub issuer: String,
    /// RSA signature over the to-be-signed encoding.
    pub signature: Vec<u8>,
}

impl DelegationCert {
    /// Builds and signs a delegation.
    pub fn issue(
        subject_name: impl Into<String>,
        subject_key: PublicKey,
        mut powers: Vec<Right>,
        issuer_public: &PublicKey,
        issuer_private: &PrivateKey,
    ) -> Result<DelegationCert, CertError> {
        powers.sort_unstable();
        powers.dedup();
        let mut d = DelegationCert {
            subject_name: subject_name.into(),
            subject_key,
            powers,
            issuer: issuer_public.fingerprint().to_owned(),
            signature: Vec::new(),
        };
        let tbs = d.to_be_signed();
        d.signature = rsa::sign(issuer_private, &sha256(&tbs))
            .map_err(|e| CertError::Malformed(e.to_string()))?;
        Ok(d)
    }

    /// The deterministic byte encoding covered by the signature.
    pub(crate) fn to_be_signed(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"DELE");
        out.extend_from_slice(&(self.subject_name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.subject_name.as_bytes());
        let key = self.subject_key.to_bytes();
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(&key);
        out.push(self.powers.len() as u8);
        for r in &self.powers {
            out.push(right_tag(*r));
        }
        out.extend_from_slice(&(self.issuer.len() as u32).to_le_bytes());
        out.extend_from_slice(self.issuer.as_bytes());
        out
    }

    /// Verifies the issuer's signature.
    pub(crate) fn verify_signature(&self, issuer_key: &PublicKey) -> Result<(), CertError> {
        if issuer_key.fingerprint() != self.issuer {
            return Err(CertError::BadSignature(format!(
                "delegation to `{}`: issuer key mismatch",
                self.subject_name
            )));
        }
        rsa::verify(issuer_key, &sha256(&self.to_be_signed()), &self.signature)
            .map_err(|_| CertError::BadSignature(format!("delegation to `{}`", self.subject_name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64) -> paramecium_crypto::KeyPair {
        crate::testkeys::keypair(seed)
    }

    #[test]
    fn issue_and_verify_certificate() {
        let kp = keys(1);
        let image = b"component image bytes";
        let cert = Certificate::issue(
            "filter",
            image,
            vec![Right::RunKernel, Right::RunUser],
            CertifyMethod::Administrator,
            &kp.public,
            &kp.private,
        )
        .unwrap();
        cert.verify_signature(&kp.public).unwrap();
        assert!(cert.matches_image(image));
        assert!(cert.grants(Right::RunKernel));
        assert!(!cert.grants(Right::DeviceAccess));
    }

    #[test]
    fn modified_component_is_detected() {
        let kp = keys(1);
        let cert = Certificate::issue(
            "filter",
            b"original",
            vec![Right::RunKernel],
            CertifyMethod::Prover,
            &kp.public,
            &kp.private,
        )
        .unwrap();
        assert!(!cert.matches_image(b"trojaned"));
    }

    #[test]
    fn tampered_rights_break_signature() {
        let kp = keys(1);
        let mut cert = Certificate::issue(
            "filter",
            b"image",
            vec![Right::RunUser],
            CertifyMethod::TestTeam,
            &kp.public,
            &kp.private,
        )
        .unwrap();
        // Privilege-escalate the certificate after signing.
        cert.rights.push(Right::RunKernel);
        assert!(cert.verify_signature(&kp.public).is_err());
    }

    #[test]
    fn wrong_issuer_key_rejected() {
        let kp = keys(1);
        let other = keys(2);
        let cert = Certificate::issue(
            "filter",
            b"image",
            vec![Right::RunUser],
            CertifyMethod::Administrator,
            &kp.public,
            &kp.private,
        )
        .unwrap();
        assert!(cert.verify_signature(&other.public).is_err());
    }

    #[test]
    fn rights_are_sorted_and_deduped() {
        let kp = keys(1);
        let cert = Certificate::issue(
            "x",
            b"i",
            vec![Right::RunKernel, Right::RunUser, Right::RunKernel],
            CertifyMethod::Administrator,
            &kp.public,
            &kp.private,
        )
        .unwrap();
        assert_eq!(cert.rights, vec![Right::RunUser, Right::RunKernel]);
    }

    #[test]
    fn delegation_roundtrip_and_tamper() {
        let root = keys(1);
        let sub = keys(2);
        let d = DelegationCert::issue(
            "admin-alice",
            sub.public.clone(),
            vec![Right::RunKernel],
            &root.public,
            &root.private,
        )
        .unwrap();
        d.verify_signature(&root.public).unwrap();
        // Swap in a different subject key: signature must break.
        let mut evil = d.clone();
        evil.subject_key = keys(3).public;
        assert!(evil.verify_signature(&root.public).is_err());
        // Widen the powers: signature must break.
        let mut evil = d;
        evil.powers.push(Right::DeviceAccess);
        assert!(evil.verify_signature(&root.public).is_err());
    }
}
