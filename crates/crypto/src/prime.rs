//! Primality testing and prime generation.
//!
//! Miller–Rabin with random bases, preceded by trial division against a
//! small-prime sieve so that most composite candidates are rejected cheaply
//! during key generation.
//!
//! Trial division uses single-limb remainders (`Ubig::rem_u64`, no
//! allocation) and the Miller–Rabin loop builds one [`Montgomery`] context
//! per candidate: every witness exponentiation and every squaring in the
//! `x² ≡ ±1` chain then runs division-free in Montgomery form, which is
//! where key generation spends nearly all of its time.

use rand::Rng;

use crate::bignum::{Montgomery, Ubig};

/// Number of Miller–Rabin rounds. 2⁻⁶⁴ error probability is ample for a
/// simulation's certification keys.
const MR_ROUNDS: usize = 32;

/// Small primes used for trial division.
const SMALL_PRIMES: [u64; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Draws a uniformly random value with exactly `bits` significant bits
/// (top bit set).
pub(crate) fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> Ubig {
    assert!(bits > 0, "cannot draw a 0-bit number");
    let nlimbs = bits.div_ceil(64) as usize;
    let mut limbs: Vec<u64> = (0..nlimbs).map(|_| rng.gen()).collect();
    let top_bits = ((bits - 1) % 64) + 1;
    let top = &mut limbs[nlimbs - 1];
    if top_bits < 64 {
        *top &= (1u64 << top_bits) - 1;
    }
    *top |= 1u64 << (top_bits - 1);
    Ubig::from_limbs(limbs)
}

/// Draws a uniformly random value in `[low, high)` by rejection sampling.
pub(crate) fn random_below<R: Rng + ?Sized>(rng: &mut R, low: &Ubig, high: &Ubig) -> Ubig {
    assert!(low < high, "empty range");
    let span = high.sub(low);
    let bits = span.bit_len().max(1);
    loop {
        // Draw `bits` random bits without forcing the top bit.
        let nlimbs = bits.div_ceil(64) as usize;
        let mut limbs: Vec<u64> = (0..nlimbs).map(|_| rng.gen()).collect();
        let top_bits = ((bits - 1) % 64) + 1;
        if top_bits < 64 {
            limbs[nlimbs - 1] &= (1u64 << top_bits) - 1;
        }
        let v = Ubig::from_limbs(limbs);
        if v < span {
            return low.add(&v);
        }
    }
}

/// Miller–Rabin probable-prime test with `MR_ROUNDS` random bases.
pub(crate) fn is_probable_prime<R: Rng + ?Sized>(n: &Ubig, rng: &mut R) -> bool {
    if n < &Ubig::from(2u64) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.low_u64() == p && n.bit_len() <= 8 {
            return true;
        }
        if n.rem_u64(p) == 0 {
            return false;
        }
    }
    // Write n-1 = d · 2^r with d odd.
    let n_minus_1 = n.sub(&Ubig::one());
    let mut d = n_minus_1.clone();
    let mut r = 0u32;
    while d.is_even() {
        d = d.shr_bits(1);
        r += 1;
    }

    // Trial division leaves n odd and above every small prime, so a
    // Montgomery context always exists; share it across all rounds.
    let mont = Montgomery::new(n).expect("candidate is odd and > 1");
    let one_m = mont.one();
    let minus1_m = mont.to_mont(&n_minus_1);
    let two = Ubig::from(2u64);
    'witness: for _ in 0..MR_ROUNDS {
        let a = random_below(rng, &two, &n_minus_1);
        let mut x = mont.pow_elem(&mont.to_mont(&a), &d);
        if x == one_m || x == minus1_m {
            continue 'witness;
        }
        for _ in 0..r.saturating_sub(1) {
            x = mont.mul(&x, &x);
            if x == minus1_m {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
pub(crate) fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> Ubig {
    assert!(bits >= 2, "primes need at least 2 bits");
    loop {
        let mut cand = random_bits(rng, bits);
        // Force odd.
        if cand.is_even() {
            cand = cand.add_u64(1);
            if cand.bit_len() != bits {
                continue;
            }
        }
        if is_probable_prime(&cand, rng) {
            return cand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn small_primes_are_prime() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 251, 257, 65537, 2147483647] {
            assert!(is_probable_prime(&Ubig::from(p), &mut r), "{p} is prime");
        }
    }

    #[test]
    fn small_composites_are_composite() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 91, 561, 6601, 65536, 4294967295] {
            assert!(
                !is_probable_prime(&Ubig::from(c), &mut r),
                "{c} is composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_are_rejected() {
        // Fermat pseudoprimes that fool a^(n-1) tests but not Miller–Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_probable_prime(&Ubig::from(c), &mut r), "{c}");
        }
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut r = rng();
        for bits in [1u32, 2, 8, 63, 64, 65, 128, 200] {
            for _ in 0..10 {
                assert_eq!(random_bits(&mut r, bits).bit_len(), bits);
            }
        }
    }

    #[test]
    fn random_below_stays_in_range() {
        let mut r = rng();
        let low = Ubig::from(100u64);
        let high = Ubig::from(117u64);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = random_below(&mut r, &low, &high);
            assert!(v >= low && v < high);
            seen.insert(v.low_u64());
        }
        // With 200 draws over 17 values we should see good coverage.
        assert!(seen.len() >= 10, "poor coverage: {seen:?}");
    }

    #[test]
    fn gen_prime_produces_primes_of_requested_size() {
        let mut r = rng();
        for bits in [8u32, 16, 32, 64, 96] {
            let p = gen_prime(&mut r, bits);
            assert_eq!(p.bit_len(), bits);
            assert!(is_probable_prime(&p, &mut r));
        }
    }

    #[test]
    fn mersenne_prime_127() {
        // 2^127 - 1 is prime.
        let p = Ubig::one().shl_bits(127).sub(&Ubig::one());
        assert!(is_probable_prime(&p, &mut rng()));
        // 2^128 - 1 is not.
        let c = Ubig::one().shl_bits(128).sub(&Ubig::one());
        assert!(!is_probable_prime(&c, &mut rng()));
    }
}
