//! Serialisable RSA key material, and what is derived from it.
//!
//! Keys use a simple length-prefixed binary encoding (this system predates
//! and does not need ASN.1): magic byte, then each integer as a `u32`
//! length followed by big-endian bytes.
//!
//! A key computes what every use of it would otherwise derive again when
//! it is built (`new`, `from_bytes`, [`crate::rsa::generate`]): a public
//! key its fingerprint and the [`Montgomery`] context of `n`, a private
//! key the contexts of its CRT factors `p` and `q`. A certificate check
//! compares fingerprints and raises to `e` mod `n`, so building these once
//! per key, not once per signature, is what keeps the load-time check
//! cheap. The fields are private and the key is immutable, so a derived
//! value never disagrees with the key; the whole key sits behind one
//! `Arc`, so cloning it copies nothing.

use std::{fmt, sync::Arc};

use crate::{
    bignum::{Montgomery, Ubig},
    encode::to_hex,
    sha256::sha256,
    CryptoError,
};

/// Magic byte tagging an encoded public key.
const PUB_MAGIC: u8 = 0xA1;
/// Magic byte tagging an encoded private key.
const PRIV_MAGIC: u8 = 0xA2;

/// An RSA public key `(n, e)`.
#[derive(Clone)]
pub struct PublicKey(Arc<PublicParts>);

struct PublicParts {
    n: Ubig,
    e: Ubig,
    /// Hex SHA-256 prefix of the encoding.
    fingerprint: String,
    /// The context of `n`; `None` for a modulus Montgomery form cannot
    /// take (even, or 1), which only a hand-built key has.
    mont: Option<Montgomery>,
}

/// Chinese-remainder-theorem precomputation for fast RSA signing.
///
/// Splitting `m^d mod n` into two half-size exponentiations mod `p` and
/// `q` and recombining (`Garner's formula`) costs roughly a quarter of the
/// full-width exponentiation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrtParams {
    /// First prime factor of the modulus.
    pub p: Ubig,
    /// Second prime factor of the modulus.
    pub q: Ubig,
    /// `d mod (p-1)`.
    pub d_p: Ubig,
    /// `d mod (q-1)`.
    pub d_q: Ubig,
    /// `q⁻¹ mod p`.
    pub q_inv: Ubig,
}

/// An RSA private key `(n, d)` with optional CRT acceleration parameters.
#[derive(Clone)]
pub struct PrivateKey(Arc<PrivateParts>);

struct PrivateParts {
    n: Ubig,
    d: Ubig,
    crt: Option<Crt>,
}

/// CRT parameters with the Montgomery contexts of their two factors.
pub(crate) struct Crt {
    pub(crate) params: CrtParams,
    /// Contexts of `p` and `q` (`None` for an even factor, which only a
    /// hand-built key has).
    pub(crate) mont_p: Option<Montgomery>,
    pub(crate) mont_q: Option<Montgomery>,
}

/// A public/private key pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyPair {
    /// The public half, freely distributable.
    pub public: PublicKey,
    /// The private half.
    pub private: PrivateKey,
}

/// `base^exp mod m` through `mont`, the context of `m` a key built: the
/// same residue [`Ubig::modpow`] computes, without re-deriving `R mod m`
/// and `R² mod m` by long division. A modulus with no context takes
/// `modpow`'s own way.
pub(crate) fn pow_mod(mont: Option<&Montgomery>, base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
    match mont {
        Some(mont) => mont.pow(base, exp),
        None => base.modpow(exp, m),
    }
}

fn put_int(out: &mut Vec<u8>, v: &Ubig) {
    let bytes = v.to_bytes_be();
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&bytes);
}

fn get_int(buf: &[u8], pos: &mut usize) -> Result<Ubig, CryptoError> {
    let err = || CryptoError::MalformedKey("truncated key encoding".into());
    let len_bytes = buf.get(*pos..*pos + 4).ok_or_else(err)?;
    *pos += 4;
    let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    let bytes = buf.get(*pos..*pos + len).ok_or_else(err)?;
    *pos += len;
    Ok(Ubig::from_bytes_be(bytes))
}

fn encode_public(n: &Ubig, e: &Ubig) -> Vec<u8> {
    let mut out = vec![PUB_MAGIC];
    put_int(&mut out, n);
    put_int(&mut out, e);
    out
}

impl PublicKey {
    /// Builds the key `(n, e)`, deriving its fingerprint and the
    /// Montgomery context of `n`.
    pub fn new(n: Ubig, e: Ubig) -> Self {
        PublicKey(Arc::new(PublicParts {
            fingerprint: to_hex(&sha256(&encode_public(&n, &e))[..8]),
            mont: Montgomery::new(&n),
            n,
            e,
        }))
    }

    /// Modulus.
    pub fn n(&self) -> &Ubig {
        &self.0.n
    }

    /// Public exponent.
    pub fn e(&self) -> &Ubig {
        &self.0.e
    }

    /// Serialises to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_public(self.n(), self.e())
    }

    /// Deserialises from bytes produced by [`PublicKey::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CryptoError> {
        if buf.first() != Some(&PUB_MAGIC) {
            return Err(CryptoError::MalformedKey("bad public key magic".into()));
        }
        let mut pos = 1;
        let n = get_int(buf, &mut pos)?;
        let e = get_int(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(CryptoError::MalformedKey("trailing bytes".into()));
        }
        if n.is_zero() || e.is_zero() {
            return Err(CryptoError::MalformedKey("zero modulus or exponent".into()));
        }
        Ok(PublicKey::new(n, e))
    }

    /// A short, stable fingerprint of the key (hex SHA-256 prefix of its
    /// encoding), used to identify principals in certificates and audit
    /// logs. Computed when the key is built.
    pub fn fingerprint(&self) -> &str {
        &self.0.fingerprint
    }

    /// Modulus size in whole bytes (the signature length).
    pub(crate) fn modulus_len(&self) -> usize {
        (self.n().bit_len() as usize).div_ceil(8)
    }

    /// `s^e mod n`, the public-key operation.
    pub(crate) fn raise(&self, s: &Ubig) -> Ubig {
        pow_mod(self.0.mont.as_ref(), s, self.e(), self.n())
    }
}

/// Key material only: the derived values follow from it.
impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n() && self.e() == other.e()
    }
}

impl Eq for PublicKey {}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PublicKey")
            .field("n", self.n())
            .field("e", self.e())
            .finish()
    }
}

impl PrivateKey {
    /// Builds the key `(n, d)`, deriving the Montgomery contexts of the
    /// CRT factors when `crt` is given.
    pub fn new(n: Ubig, d: Ubig, crt: Option<CrtParams>) -> Self {
        let crt = crt.map(|params| Crt {
            mont_p: Montgomery::new(&params.p),
            mont_q: Montgomery::new(&params.q),
            params,
        });
        PrivateKey(Arc::new(PrivateParts { n, d, crt }))
    }

    /// Modulus.
    pub fn n(&self) -> &Ubig {
        &self.0.n
    }

    /// Private exponent.
    pub fn d(&self) -> &Ubig {
        &self.0.d
    }

    /// CRT precomputation (`None` for keys imported without factors; such
    /// keys sign via the plain full-width exponentiation).
    pub(crate) fn crt(&self) -> Option<&CrtParams> {
        self.0.crt.as_ref().map(|c| &c.params)
    }

    /// The CRT parameters with their factors' contexts.
    pub(crate) fn crt_contexts(&self) -> Option<&Crt> {
        self.0.crt.as_ref()
    }

    /// Serialises to bytes. CRT parameters, when present, follow `n` and
    /// `d` behind a presence flag byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![PRIV_MAGIC];
        put_int(&mut out, self.n());
        put_int(&mut out, self.d());
        match self.crt() {
            None => out.push(0),
            Some(crt) => {
                out.push(1);
                put_int(&mut out, &crt.p);
                put_int(&mut out, &crt.q);
                put_int(&mut out, &crt.d_p);
                put_int(&mut out, &crt.d_q);
                put_int(&mut out, &crt.q_inv);
            }
        }
        out
    }

    /// Deserialises from bytes produced by [`PrivateKey::to_bytes`]. Older
    /// encodings that end right after `d` (no CRT flag byte) are accepted
    /// and yield a key without CRT parameters.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CryptoError> {
        if buf.first() != Some(&PRIV_MAGIC) {
            return Err(CryptoError::MalformedKey("bad private key magic".into()));
        }
        let mut pos = 1;
        let n = get_int(buf, &mut pos)?;
        let d = get_int(buf, &mut pos)?;
        let crt = match buf.get(pos) {
            None => None,
            Some(0) => {
                pos += 1;
                None
            }
            Some(1) => {
                pos += 1;
                Some(CrtParams {
                    p: get_int(buf, &mut pos)?,
                    q: get_int(buf, &mut pos)?,
                    d_p: get_int(buf, &mut pos)?,
                    d_q: get_int(buf, &mut pos)?,
                    q_inv: get_int(buf, &mut pos)?,
                })
            }
            Some(_) => {
                return Err(CryptoError::MalformedKey("bad CRT flag byte".into()));
            }
        };
        if pos != buf.len() {
            return Err(CryptoError::MalformedKey("trailing bytes".into()));
        }
        Ok(PrivateKey::new(n, d, crt))
    }
}

/// Key material only: the derived values follow from it.
impl PartialEq for PrivateKey {
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n() && self.d() == other.d() && self.crt() == other.crt()
    }
}

impl Eq for PrivateKey {}

impl fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrivateKey")
            .field("n", self.n())
            .field("d", self.d())
            .field("crt", &self.crt())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> PublicKey {
        PublicKey::new(Ubig::from(0xdeadbeefu64), Ubig::from(65537u64))
    }

    #[test]
    fn public_key_roundtrip() {
        let k = key();
        let back = PublicKey::from_bytes(&k.to_bytes()).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.fingerprint(), k.fingerprint());
    }

    #[test]
    fn fingerprint_is_the_hash_of_the_encoding() {
        let k = key();
        assert_eq!(k.fingerprint(), to_hex(&sha256(&k.to_bytes())[..8]));
    }

    #[test]
    fn private_key_roundtrip() {
        let k = PrivateKey::new(Ubig::from(12345u64), Ubig::from(678u64), None);
        assert_eq!(PrivateKey::from_bytes(&k.to_bytes()).unwrap(), k);
    }

    #[test]
    fn private_key_roundtrip_preserves_crt_params() {
        let k = PrivateKey::new(
            Ubig::from(3233u64),
            Ubig::from(413u64),
            Some(CrtParams {
                p: Ubig::from(61u64),
                q: Ubig::from(53u64),
                d_p: Ubig::from(53u64),
                d_q: Ubig::from(49u64),
                q_inv: Ubig::from(38u64),
            }),
        );
        assert_eq!(PrivateKey::from_bytes(&k.to_bytes()).unwrap(), k);
    }

    #[test]
    fn pre_crt_private_key_encoding_still_decodes() {
        // An encoding that stops after d (the format before CRT params
        // existed) must decode to a key without CRT acceleration.
        let mut legacy = vec![PRIV_MAGIC];
        put_int(&mut legacy, &Ubig::from(12345u64));
        put_int(&mut legacy, &Ubig::from(678u64));
        let k = PrivateKey::from_bytes(&legacy).unwrap();
        assert_eq!(k.n(), &Ubig::from(12345u64));
        assert_eq!(k.crt(), None);
    }

    #[test]
    fn bad_crt_flag_rejected() {
        let k = PrivateKey::new(Ubig::from(5u64), Ubig::from(3u64), None);
        let mut b = k.to_bytes();
        *b.last_mut().unwrap() = 7;
        assert!(PrivateKey::from_bytes(&b).is_err());
    }

    #[test]
    fn wrong_magic_rejected() {
        let k = key();
        let mut b = k.to_bytes();
        b[0] = PRIV_MAGIC;
        assert!(PublicKey::from_bytes(&b).is_err());
        assert!(PublicKey::from_bytes(&[]).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let b = key().to_bytes();
        for cut in 0..b.len() {
            assert!(PublicKey::from_bytes(&b[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = key().to_bytes();
        b.push(0);
        assert!(PublicKey::from_bytes(&b).is_err());
    }

    #[test]
    fn fingerprints_differ_per_key() {
        let a = key();
        let b = PublicKey::new(Ubig::from(0xdeadbeeeu64), Ubig::from(65537u64));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
    }

    #[test]
    fn modulus_len_rounds_up() {
        assert_eq!(key().modulus_len(), 4);
        let k = PublicKey::new(Ubig::from(0x1ffu64), Ubig::from(3u64));
        assert_eq!(k.modulus_len(), 2);
    }
}
