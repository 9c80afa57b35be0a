//! The Paramecium certification architecture (paper, section 4).
//!
//! "An authority certifies which components are trustworthy and are
//! therefore permitted to run in the kernel address space. Each component
//! contains a certificate that is validated by the kernel by means of a
//! simple security architecture."
//!
//! The pieces:
//!
//! - [`certificate`] — component certificates embedding a message digest
//!   (so a component cannot be modified after certification) and
//!   *delegation certificates* forming attenuating chains, in the style of
//!   the Taos/Lampson-Abadi authentication work the paper builds on,
//! - [`authority`] — the certification authority: issuing delegations and
//!   validating complete chains,
//! - [`certifier`] — the subordinate kinds the paper enumerates: type-safe
//!   compilers, automated correctness provers, software test teams, and
//!   system administrators ("and even graduate students"),
//! - [`policy`] — ordered subordinates with the *escape hatch*: "if one
//!   subordinate fails to certify a component another can be tried",
//! - [`store`] — the kernel-side certificate store with load-time
//!   validation and an optional validation cache.

#![forbid(unsafe_code)]

pub mod authority;
pub mod certificate;
pub mod certifier;
pub mod policy;
pub mod store;

pub use authority::{validate_chain, Authority};
pub use certificate::{Certificate, CertifyMethod, DelegationCert, Right};
pub use certifier::{
    AdminCertifier, Certifier, CertifyOutcome, CompilerCertifier, ProverCertifier,
    TestTeamCertifier,
};
pub use policy::{CertificationPolicy, PolicyOutcome};
pub use store::CertStore;

/// Errors from certification operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertError {
    /// A signature on a certificate or delegation failed to verify.
    BadSignature(String),
    /// The component image does not match the certified digest.
    DigestMismatch,
    /// The delegation chain is broken (wrong issuer, empty, cycle…).
    BrokenChain(String),
    /// A link in the chain grants rights its issuer did not hold.
    RightsEscalation {
        /// Where in the chain the escalation happened.
        at: String,
    },
    /// The certificate does not grant the requested right.
    InsufficientRights(Right),
    /// No certificate is known for the component.
    NotCertified,
    /// Every subordinate declined or failed (escape hatch exhausted).
    AllCertifiersDeclined(Vec<String>),
    /// Certificate encoding was malformed.
    Malformed(String),
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::BadSignature(w) => write!(f, "bad signature on {w}"),
            CertError::DigestMismatch => {
                write!(f, "component image does not match certified digest")
            }
            CertError::BrokenChain(m) => write!(f, "broken delegation chain: {m}"),
            CertError::RightsEscalation { at } => write!(f, "rights escalation at {at}"),
            CertError::InsufficientRights(r) => {
                write!(f, "certificate does not grant right {r:?}")
            }
            CertError::NotCertified => write!(f, "component has no certificate"),
            CertError::AllCertifiersDeclined(trail) => {
                write!(f, "all certifiers declined: {}", trail.join("; "))
            }
            CertError::Malformed(m) => write!(f, "malformed certificate: {m}"),
        }
    }
}

impl std::error::Error for CertError {}

#[cfg(test)]
pub(crate) mod testkeys {
    //! Shared per-seed RSA keys for this crate's unit tests.
    //!
    //! Every test module used to regenerate a 512-bit key pair per seed per
    //! test; keygen dwarfs all other test work, so the cache makes each
    //! (seed → key) generation happen once per test process.

    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    use paramecium_crypto::{rsa, KeyPair};
    use rand::{rngs::StdRng, SeedableRng};

    use crate::authority::Authority;

    /// The cached 512-bit key pair for `seed`.
    pub fn keypair(seed: u64) -> KeyPair {
        static CACHE: OnceLock<Mutex<HashMap<u64, KeyPair>>> = OnceLock::new();
        CACHE
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap()
            .entry(seed)
            .or_insert_with(|| rsa::generate(&mut StdRng::seed_from_u64(seed), 512))
            .clone()
    }

    /// An authority holding the cached key pair for `seed`.
    pub fn authority(name: &str, seed: u64) -> Authority {
        Authority::from_keys(name, keypair(seed))
    }
}
