//! Cryptographic substrate for the Paramecium certification service.
//!
//! The paper's certification service "uses a message digest function, public
//! key cryptography, and a trusted certification agent to validate
//! credentials" (section 3). None of the sanctioned offline dependencies
//! provide cryptography, so this crate implements the required primitives
//! from scratch:
//!
//! - [`sha256`](mod@sha256) — the SHA-256 message digest (FIPS 180-4),
//! - [`bignum`] — arbitrary-precision unsigned integers,
//! - [`prime`] — Miller–Rabin primality testing and prime generation,
//! - [`rsa`] — RSA key generation, signing and verification,
//! - [`keys`] — serialisable key material,
//! - [`encode`] — hex encoding helpers for fingerprints.
//!
//! **Scope note:** this is *architecturally* faithful, well-tested
//! cryptography, but it makes no constant-time or side-channel guarantees.
//! The reproduction's threat model is the paper's certification
//! architecture (who signed what), not hardware side channels.

#![forbid(unsafe_code)]

pub mod bignum;
pub mod encode;
pub mod keys;
pub mod prime;
pub mod rsa;
pub mod sha256;

pub use bignum::{MontElem, Montgomery, Ubig};
pub use keys::{CrtParams, KeyPair, PrivateKey, PublicKey};
pub use sha256::{sha256, Sha256};

/// Errors produced by cryptographic operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CryptoError {
    /// A signature failed to verify.
    BadSignature,
    /// Key material could not be decoded.
    MalformedKey(String),
    /// An input was structurally invalid (wrong length, value too large…).
    InvalidInput(String),
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::MalformedKey(m) => write!(f, "malformed key: {m}"),
            CryptoError::InvalidInput(m) => write!(f, "invalid input: {m}"),
        }
    }
}

impl std::error::Error for CryptoError {}
