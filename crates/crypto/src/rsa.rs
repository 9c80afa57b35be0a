//! RSA key generation, signing and verification.
//!
//! Signatures use PKCS#1 v1.5-style padding over a SHA-256 digest:
//! `0x00 0x01 0xFF…0xFF 0x00 <tag> <digest>`. The deterministic padding
//! makes verification a simple byte comparison after the public-key
//! operation, exactly what a load-time certificate check wants.
//!
//! # CRT signing
//!
//! Generated keys carry [`CrtParams`]: signing computes `m₁ = m^dₚ mod p`
//! and `m₂ = m^d_q mod q` — two exponentiations at half the width and half
//! the exponent length, roughly 4× cheaper than `m^d mod n` — and
//! recombines with Garner's formula `s = m₂ + q · (q⁻¹(m₁ − m₂) mod p)`.
//! Keys deserialised without factors fall back to the plain exponentiation,
//! which remains the differential-testing oracle for the CRT path.

use rand::Rng;

use crate::{
    bignum::Ubig,
    keys::{CrtParams, KeyPair, PrivateKey, PublicKey},
    prime::gen_prime,
    sha256::{Digest, DIGEST_LEN},
    CryptoError,
};

/// Domain-separation tag preceding the digest inside the padding (stands in
/// for the DER AlgorithmIdentifier of real PKCS#1).
const DIGEST_TAG: &[u8; 4] = b"SH56";

/// Minimum modulus size able to hold the padding (3 bytes framing + tag +
/// digest + at least 8 bytes of 0xFF).
pub const MIN_MODULUS_BITS: u32 = ((3 + DIGEST_TAG.len() + DIGEST_LEN + 8) * 8) as u32;

/// Generates an RSA key pair with a modulus of `bits` bits.
///
/// # Panics
///
/// Panics if `bits` is too small to hold a padded digest
/// (see [`MIN_MODULUS_BITS`]).
pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> KeyPair {
    assert!(
        bits >= MIN_MODULUS_BITS,
        "modulus must be at least {MIN_MODULUS_BITS} bits to hold a padded digest"
    );
    let e = Ubig::from(65537u64);
    loop {
        let p = gen_prime(rng, bits / 2);
        let q = gen_prime(rng, bits - bits / 2);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        if n.bit_len() != bits {
            continue;
        }
        let p_minus_1 = p.sub(&Ubig::one());
        let q_minus_1 = q.sub(&Ubig::one());
        let phi = p_minus_1.mul(&q_minus_1);
        let Some(d) = e.modinv(&phi) else {
            // gcd(e, phi) != 1; try new primes.
            continue;
        };
        let q_inv = q.modinv(&p).expect("distinct primes are coprime");
        let crt = CrtParams {
            d_p: d.rem(&p_minus_1),
            d_q: d.rem(&q_minus_1),
            p,
            q,
            q_inv,
        };
        return KeyPair {
            public: PublicKey { n: n.clone(), e },
            private: PrivateKey {
                n,
                d,
                crt: Some(crt),
            },
        };
    }
}

/// `m^d mod n` via the CRT split: half-width exponentiations mod `p` and
/// `q`, recombined with Garner's formula.
fn crt_modpow(m: &Ubig, crt: &CrtParams) -> Ubig {
    let m1 = m.modpow(&crt.d_p, &crt.p);
    let m2 = m.modpow(&crt.d_q, &crt.q);
    // h = q_inv · (m1 − m2) mod p, with the subtraction lifted into [0, p).
    let m2_mod_p = m2.rem(&crt.p);
    let diff = if m1 >= m2_mod_p {
        m1.sub(&m2_mod_p)
    } else {
        m1.add(&crt.p).sub(&m2_mod_p)
    };
    let h = diff.modmul(&crt.q_inv, &crt.p);
    m2.add(&crt.q.mul(&h))
}

/// Builds the padded message representative for `digest`, sized to the
/// modulus.
fn pad_digest(digest: &Digest, modulus_len: usize) -> Result<Vec<u8>, CryptoError> {
    let overhead = 3 + DIGEST_TAG.len() + DIGEST_LEN;
    if modulus_len < overhead + 8 {
        return Err(CryptoError::InvalidInput(
            "modulus too small for padded digest".into(),
        ));
    }
    let mut out = Vec::with_capacity(modulus_len);
    out.push(0x00);
    out.push(0x01);
    out.resize(modulus_len - DIGEST_LEN - DIGEST_TAG.len() - 1, 0xFF);
    out.push(0x00);
    out.extend_from_slice(DIGEST_TAG);
    out.extend_from_slice(digest);
    debug_assert_eq!(out.len(), modulus_len);
    Ok(out)
}

/// Signs a digest with the private key, returning a signature of exactly
/// the modulus length.
pub fn sign(key: &PrivateKey, digest: &Digest) -> Result<Vec<u8>, CryptoError> {
    let modulus_len = (key.n.bit_len() as usize).div_ceil(8);
    let padded = pad_digest(digest, modulus_len)?;
    let m = Ubig::from_bytes_be(&padded);
    debug_assert!(m < key.n, "padded representative exceeds modulus");
    let s = match &key.crt {
        Some(crt) => crt_modpow(&m, crt),
        None => m.modpow(&key.d, &key.n),
    };
    s.to_bytes_be_padded(modulus_len)
        .ok_or_else(|| CryptoError::InvalidInput("signature exceeds modulus length".into()))
}

/// Verifies a signature over a digest with the public key.
pub fn verify(key: &PublicKey, digest: &Digest, signature: &[u8]) -> Result<(), CryptoError> {
    let modulus_len = key.modulus_len();
    if signature.len() != modulus_len {
        return Err(CryptoError::BadSignature);
    }
    let s = Ubig::from_bytes_be(signature);
    if s >= key.n {
        return Err(CryptoError::BadSignature);
    }
    let m = s.modpow(&key.e, &key.n);
    let recovered = m
        .to_bytes_be_padded(modulus_len)
        .ok_or(CryptoError::BadSignature)?;
    let expected = pad_digest(digest, modulus_len)?;
    if recovered == expected {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    /// Per-seed key cache: 512-bit keygen is the slowest thing a test can
    /// do, so every test asking for the same seed shares one generation.
    fn cached(seed: u64) -> KeyPair {
        static CACHE: OnceLock<Mutex<HashMap<u64, KeyPair>>> = OnceLock::new();
        CACHE
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap()
            .entry(seed)
            .or_insert_with(|| generate(&mut StdRng::seed_from_u64(seed), 512))
            .clone()
    }

    fn keypair() -> KeyPair {
        // 512-bit keys keep debug-mode tests fast; benches use 1024.
        cached(7)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let digest = sha256(b"trusted component image");
        let sig = sign(&kp.private, &digest).unwrap();
        assert_eq!(sig.len(), kp.public.modulus_len());
        verify(&kp.public, &digest, &sig).unwrap();
    }

    #[test]
    fn tampered_digest_fails() {
        let kp = keypair();
        let sig = sign(&kp.private, &sha256(b"original")).unwrap();
        assert_eq!(
            verify(&kp.public, &sha256(b"tampered"), &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = keypair();
        let digest = sha256(b"component");
        let mut sig = sign(&kp.private, &digest).unwrap();
        sig[10] ^= 0x40;
        assert_eq!(
            verify(&kp.public, &digest, &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = keypair();
        let kp2 = cached(8);
        let digest = sha256(b"component");
        let sig = sign(&kp1.private, &digest).unwrap();
        assert!(verify(&kp2.public, &digest, &sig).is_err());
    }

    #[test]
    fn wrong_length_signature_fails_fast() {
        let kp = keypair();
        let digest = sha256(b"x");
        assert!(verify(&kp.public, &digest, &[]).is_err());
        assert!(verify(&kp.public, &digest, &[0u8; 63]).is_err());
    }

    #[test]
    fn oversized_signature_value_fails() {
        let kp = keypair();
        let digest = sha256(b"x");
        // A signature numerically >= n must be rejected before exponentiation.
        let too_big = kp
            .public
            .n
            .to_bytes_be_padded(kp.public.modulus_len())
            .unwrap();
        assert_eq!(
            verify(&kp.public, &digest, &too_big),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = cached(1);
        let b = cached(2);
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn keygen_respects_bit_length() {
        let kp = keypair();
        assert_eq!(kp.public.n.bit_len(), 512);
        assert_eq!(kp.public.modulus_len(), 64);
    }

    #[test]
    #[should_panic(expected = "modulus must be at least")]
    fn tiny_modulus_rejected() {
        let _ = generate(&mut StdRng::seed_from_u64(1), 64);
    }

    #[test]
    fn signature_is_deterministic() {
        let kp = keypair();
        let digest = sha256(b"component");
        assert_eq!(
            sign(&kp.private, &digest).unwrap(),
            sign(&kp.private, &digest).unwrap()
        );
    }

    #[test]
    fn generated_keys_carry_crt_params() {
        let kp = keypair();
        let crt = kp.private.crt.as_ref().expect("generate fills CRT");
        assert_eq!(crt.p.mul(&crt.q), kp.private.n);
        assert_eq!(crt.q.modmul(&crt.q_inv, &crt.p), Ubig::one());
    }

    #[test]
    fn key_without_crt_params_signs_identically() {
        let kp = keypair();
        let stripped = PrivateKey {
            n: kp.private.n.clone(),
            d: kp.private.d.clone(),
            crt: None,
        };
        let digest = sha256(b"component");
        assert_eq!(
            sign(&kp.private, &digest).unwrap(),
            sign(&stripped, &digest).unwrap()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// CRT signatures must be bit-identical to the plain `m^d mod n`
        /// exponentiation across keys and messages, and verify cleanly.
        /// Both sides run Montgomery multiplies at a constant width (4-limb
        /// primes, 8-limb modulus), so the division-per-step oracle checks
        /// the pair of them.
        #[test]
        fn prop_crt_signature_matches_plain_modpow(
            seed in 1u64..5,
            msg in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let kp = cached(seed);
            let digest = sha256(&msg);
            let sig = sign(&kp.private, &digest).unwrap();
            // Oracle: the padded representative raised to the full private
            // exponent, no CRT involved.
            let modulus_len = kp.public.modulus_len();
            let m = Ubig::from_bytes_be(&pad_digest(&digest, modulus_len).unwrap());
            let plain = m.modpow(&kp.private.d, &kp.private.n);
            prop_assert_eq!(&sig, &plain.to_bytes_be_padded(modulus_len).unwrap());
            prop_assert_eq!(&plain, &m.modpow_schoolbook(&kp.private.d, &kp.private.n));
            prop_assert!(verify(&kp.public, &digest, &sig).is_ok());
        }
    }
}
