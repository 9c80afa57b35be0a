//! The certification service.
//!
//! "Objects can be associated with a certificate that is validated by the
//! certification service before mapping it into a protection domain. The
//! certification service uses a message digest function, public key
//! cryptography, and a trusted certification agent to validate
//! credentials." (paper, section 3).
//!
//! Validation performs real SHA-256 + RSA work (from
//! `paramecium-crypto`); simulated time is charged per signature check so
//! the load-time cost is visible on the same cycle axis as everything
//! else.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use paramecium_cert::{
    certificate::{Certificate, DelegationCert, Right},
    store::{CertStore, StoreStats},
};
use paramecium_crypto::sha256::{sha256, Digest};
use paramecium_machine::{cost::Cycles, Machine};

use crate::CoreResult;

/// Default cost of one RSA signature verification, in simulated cycles.
/// (A 512–1024-bit modular exponentiation with e = 65537 on early-90s
/// hardware was on the order of a millisecond — ~10⁵ cycles.)
pub const DEFAULT_SIG_CHECK_COST: Cycles = 100_000;

/// Cost of digesting one byte of component image (SHA-256 is a few cycles
/// per byte on simple hardware).
pub const DIGEST_COST_PER_BYTE_NUM: Cycles = 3;

paramecium_obj::counters! {
    /// The `certification stats` block: a [`StoreStats`], field for field
    /// (declared here so the cert crate needs no `paramecium-obj`).
    pub struct CertStats {
        pub full_validations: u64,
        pub cache_hits: u64,
        pub signature_checks: u64,
    }
}

impl From<StoreStats> for CertStats {
    fn from(s: StoreStats) -> Self {
        CertStats {
            full_validations: s.full_validations,
            cache_hits: s.cache_hits,
            signature_checks: s.signature_checks,
        }
    }
}

/// The certification service.
pub struct CertService {
    machine: Arc<Mutex<Machine>>,
    store: Mutex<CertStore>,
    /// Simulated cycles charged per signature verification.
    pub sig_check_cost: Cycles,
}

impl CertService {
    /// Creates the service trusting `store`'s root key.
    pub fn new(machine: Arc<Mutex<Machine>>, store: CertStore) -> Self {
        CertService {
            machine,
            store: Mutex::new(store),
            sig_check_cost: DEFAULT_SIG_CHECK_COST,
        }
    }

    /// Installs a certificate and its delegation chain.
    pub fn install(&self, cert: Certificate, chain: Vec<DelegationCert>) {
        self.store.lock().install(cert, chain);
    }

    /// Enables or disables the validation cache (ablation knob).
    pub fn set_cache_enabled(&self, enabled: bool) {
        self.store.lock().set_cache_enabled(enabled);
    }

    /// Validates `image` for `right`, charging digest and signature costs
    /// to simulated time. This is the load-time check.
    pub fn validate_for(&self, image: &[u8], right: Right) -> CoreResult<Certificate> {
        let digest = sha256(image);
        self.validate_held(self.store.lock(), image.len(), &digest, right)
    }

    /// [`CertService::validate_for`] when the store holds a certificate
    /// for `image`; `None`, charging nothing, when it holds none. One
    /// digest and one store lock answer both questions.
    pub(crate) fn validate_if_certified(
        &self,
        image: &[u8],
        right: Right,
    ) -> Option<CoreResult<Certificate>> {
        let digest = sha256(image);
        let store = self.store.lock();
        store
            .holds(&digest)
            .then(|| self.validate_held(store, image.len(), &digest, right))
    }

    /// Validates the image of `len` bytes digesting to `digest` under the
    /// held store lock, so the signature checks charged are this
    /// validation's own and no concurrent one's, then charges them and the
    /// digest.
    fn validate_held(
        &self,
        mut store: MutexGuard<'_, CertStore>,
        len: usize,
        digest: &Digest,
        right: Right,
    ) -> CoreResult<Certificate> {
        let before = store.stats().signature_checks;
        let result = store.validate_digest(digest, right);
        let checks = store.stats().signature_checks - before;
        drop(store);
        let mut m = self.machine.lock();
        // Digesting the image happens on every validation (cached or not —
        // the digest is how we look the certificate up).
        m.charge((len as Cycles * DIGEST_COST_PER_BYTE_NUM).max(1));
        m.charge(checks * self.sig_check_cost);
        Ok(result?)
    }

    /// True if the store has a certificate for this image (no validation,
    /// no cost).
    pub fn is_certified(&self, image: &[u8]) -> bool {
        self.store.lock().lookup(image).is_some()
    }

    /// Store statistics.
    pub fn stats(&self) -> StoreStats {
        self.store.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paramecium_cert::{authority::Authority, certificate::CertifyMethod};
    use rand::{rngs::StdRng, SeedableRng};

    fn service_with(image: &[u8], rights: Vec<Right>) -> CertService {
        let root = Authority::new("root", &mut StdRng::seed_from_u64(1), 512);
        let cert = root
            .certify("c", image, rights, CertifyMethod::Administrator)
            .unwrap();
        let store = CertStore::new(root.public().clone());
        let machine = Arc::new(Mutex::new(Machine::new()));
        let svc = CertService::new(machine, store);
        svc.install(cert, vec![]);
        svc
    }

    #[test]
    fn validation_charges_cycles() {
        let image = b"component image";
        let svc = service_with(image, vec![Right::RunKernel]);
        let before = svc.machine.lock().now();
        svc.validate_for(image, Right::RunKernel).unwrap();
        let elapsed = svc.machine.lock().now() - before;
        // One signature check plus digesting.
        assert!(elapsed >= DEFAULT_SIG_CHECK_COST);
    }

    #[test]
    fn cached_validation_is_much_cheaper() {
        let image = b"component image";
        let svc = service_with(image, vec![Right::RunKernel]);
        svc.validate_for(image, Right::RunKernel).unwrap();
        let before = svc.machine.lock().now();
        svc.validate_for(image, Right::RunKernel).unwrap();
        let cached = svc.machine.lock().now() - before;
        assert!(cached < DEFAULT_SIG_CHECK_COST);
        assert_eq!(svc.stats().cache_hits, 1);
    }

    #[test]
    fn uncertified_image_fails() {
        let svc = service_with(b"known", vec![Right::RunKernel]);
        assert!(!svc.is_certified(b"unknown"));
        assert!(svc.validate_for(b"unknown", Right::RunKernel).is_err());
    }

    #[test]
    fn validate_if_certified_charges_only_a_certified_image() {
        let image = b"component image";
        let svc = service_with(image, vec![Right::RunKernel]);
        let before = svc.machine.lock().now();
        assert!(svc
            .validate_if_certified(b"unknown", Right::RunKernel)
            .is_none());
        assert_eq!(svc.machine.lock().now(), before);
        let cert = svc.validate_if_certified(image, Right::RunKernel);
        assert!(matches!(cert, Some(Ok(_))));
        let digest_cost = image.len() as Cycles * DIGEST_COST_PER_BYTE_NUM;
        assert_eq!(
            svc.machine.lock().now() - before,
            digest_cost + DEFAULT_SIG_CHECK_COST
        );
        // Certified, but not for this right: validated and charged, then
        // refused.
        assert!(matches!(
            svc.validate_if_certified(image, Right::RunUser),
            Some(Err(_))
        ));
    }

    #[test]
    fn concurrent_validations_are_each_charged_their_own_checks() {
        // With the cache off every validation checks the root's signature
        // once. Reading the check count around the validation under one
        // store lock charges each exactly that, however the threads
        // interleave.
        const THREADS: u64 = 4;
        const EACH: u64 = 25;
        let image = b"component image";
        let svc = Arc::new(service_with(image, vec![Right::RunKernel]));
        svc.set_cache_enabled(false);
        let before = svc.machine.lock().now();
        let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (svc, start) = (svc.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..EACH {
                        svc.validate_for(image, Right::RunKernel).unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let checks = svc.stats().signature_checks;
        assert_eq!(checks, THREADS * EACH);
        let digest_cost = image.len() as Cycles * DIGEST_COST_PER_BYTE_NUM;
        assert_eq!(
            svc.machine.lock().now() - before,
            THREADS * EACH * digest_cost + checks * DEFAULT_SIG_CHECK_COST
        );
    }
}
