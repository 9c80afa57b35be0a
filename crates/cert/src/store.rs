//! The kernel-side certificate store.
//!
//! Holds (certificate, chain) pairs keyed by component digest and performs
//! the *load-time validation* the certification service calls before
//! mapping a component into a protection domain. An optional validation
//! cache remembers digests whose chains already checked out — the ablation
//! knob for the certification-cost experiment.

use std::collections::HashMap;

use paramecium_crypto::{keys::PublicKey, sha256::sha256, sha256::Digest};

use crate::{
    certificate::{Certificate, DelegationCert, Right},
    validate_chain, CertError,
};

/// Statistics for the validation cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Full chain validations performed.
    pub full_validations: u64,
    /// Validations answered from the cache.
    pub cache_hits: u64,
    /// Total RSA signature verifications performed.
    pub signature_checks: u64,
}

/// The certificate store.
pub struct CertStore {
    root: PublicKey,
    entries: HashMap<Digest, (Certificate, Vec<DelegationCert>)>,
    /// Digests whose chains validated, if caching is enabled.
    validated: HashMap<Digest, ()>,
    cache_enabled: bool,
    stats: StoreStats,
}

impl CertStore {
    /// Creates a store trusting `root`.
    pub fn new(root: PublicKey) -> Self {
        CertStore {
            root,
            entries: HashMap::new(),
            validated: HashMap::new(),
            cache_enabled: true,
            stats: StoreStats::default(),
        }
    }

    /// Enables or disables the validation cache (ablation knob).
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.validated.clear();
        }
    }

    /// Installs a certificate with its delegation chain.
    pub fn install(&mut self, certificate: Certificate, chain: Vec<DelegationCert>) {
        self.validated.remove(&certificate.digest);
        self.entries
            .insert(certificate.digest, (certificate, chain));
    }

    /// Number of installed certificates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the store holds no certificates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the certificate for an image without validating.
    pub fn lookup(&self, image: &[u8]) -> Option<&Certificate> {
        self.entries.get(&sha256(image)).map(|(c, _)| c)
    }

    /// True if the store holds a certificate for the image digesting to
    /// `digest`.
    pub fn holds(&self, digest: &Digest) -> bool {
        self.entries.contains_key(digest)
    }

    /// Performs the load-time check: the image must have a certificate
    /// whose digest matches, whose chain validates to the root, and which
    /// grants `right`.
    ///
    /// Returns the validated certificate on success.
    pub fn validate_for(&mut self, image: &[u8], right: Right) -> Result<Certificate, CertError> {
        self.validate_digest(&sha256(image), right)
    }

    /// [`CertStore::validate_for`] for the image digesting to `digest`,
    /// for a caller that has digested it already.
    pub fn validate_digest(
        &mut self,
        digest: &Digest,
        right: Right,
    ) -> Result<Certificate, CertError> {
        let digest = *digest;
        let (cert, chain) = self.entries.get(&digest).ok_or(CertError::NotCertified)?;
        // Digest equality is implied by the map key, but re-check against
        // the certificate explicitly — the store contents are data, not
        // trust.
        if cert.digest != digest {
            return Err(CertError::DigestMismatch);
        }
        if self.cache_enabled && self.validated.contains_key(&digest) {
            self.stats.cache_hits += 1;
        } else {
            let checks = validate_chain(&self.root, chain, cert)?;
            self.stats.full_validations += 1;
            self.stats.signature_checks += u64::from(checks);
            if self.cache_enabled {
                self.validated.insert(digest, ());
            }
        }
        if !cert.grants(right) {
            return Err(CertError::InsufficientRights(right));
        }
        Ok(cert.clone())
    }

    /// Cache statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{authority::Authority, certificate::CertifyMethod};

    fn root() -> Authority {
        crate::testkeys::authority("root", 1)
    }

    fn store_with(image: &[u8], rights: Vec<Right>) -> (CertStore, Authority) {
        let root = root();
        let cert = root
            .certify("comp", image, rights, CertifyMethod::Administrator)
            .unwrap();
        let mut store = CertStore::new(root.public().clone());
        store.install(cert, vec![]);
        (store, root)
    }

    #[test]
    fn validate_happy_path() {
        let image = b"component";
        let (mut store, _) = store_with(image, vec![Right::RunKernel]);
        let cert = store.validate_for(image, Right::RunKernel).unwrap();
        assert!(cert.matches_image(image));
        assert_eq!(store.stats().full_validations, 1);
    }

    #[test]
    fn uncertified_image_rejected() {
        let (mut store, _) = store_with(b"known", vec![Right::RunKernel]);
        assert_eq!(
            store.validate_for(b"unknown", Right::RunKernel),
            Err(CertError::NotCertified)
        );
    }

    #[test]
    fn insufficient_rights_rejected() {
        let image = b"user-only";
        let (mut store, _) = store_with(image, vec![Right::RunUser]);
        assert_eq!(
            store.validate_for(image, Right::RunKernel),
            Err(CertError::InsufficientRights(Right::RunKernel))
        );
        // But the right it does hold validates.
        assert!(store.validate_for(image, Right::RunUser).is_ok());
    }

    #[test]
    fn cache_avoids_repeat_signature_checks() {
        let image = b"hot component";
        let (mut store, _) = store_with(image, vec![Right::RunKernel]);
        for _ in 0..5 {
            store.validate_for(image, Right::RunKernel).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.full_validations, 1);
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.signature_checks, 1);
    }

    #[test]
    fn disabling_cache_revalidates_every_time() {
        let image = b"hot component";
        let (mut store, _) = store_with(image, vec![Right::RunKernel]);
        store.set_cache_enabled(false);
        for _ in 0..3 {
            store.validate_for(image, Right::RunKernel).unwrap();
        }
        assert_eq!(store.stats().full_validations, 3);
        assert_eq!(store.stats().cache_hits, 0);
    }

    #[test]
    fn reinstall_invalidates_cache_entry() {
        let image = b"component";
        let root = root();
        let cert = root
            .certify(
                "comp",
                image,
                vec![Right::RunKernel],
                CertifyMethod::Administrator,
            )
            .unwrap();
        let mut store = CertStore::new(root.public().clone());
        store.install(cert.clone(), vec![]);
        store.validate_for(image, Right::RunKernel).unwrap();
        store.install(cert, vec![]);
        store.validate_for(image, Right::RunKernel).unwrap();
        assert_eq!(store.stats().full_validations, 2);
    }

    #[test]
    fn forged_certificate_rejected_at_validation() {
        let image = b"component";
        let root = root();
        let imposter = crate::testkeys::authority("imposter", 9);
        let cert = imposter
            .certify(
                "comp",
                image,
                vec![Right::RunKernel],
                CertifyMethod::Administrator,
            )
            .unwrap();
        let mut store = CertStore::new(root.public().clone());
        store.install(cert, vec![]);
        assert!(matches!(
            store.validate_for(image, Right::RunKernel),
            Err(CertError::BadSignature(_))
        ));
    }
}
