//! Arbitrary-precision unsigned integers.
//!
//! A minimal big-integer implementation sufficient for RSA: little-endian
//! `u64` limbs, schoolbook multiplication, Knuth Algorithm D division,
//! Montgomery-form modular exponentiation, and the extended Euclidean
//! algorithm for modular inverses.
//!
//! The representation invariant is that `limbs` never has trailing zero
//! limbs (so `Ubig::zero()` has an empty limb vector), which makes
//! comparison by limb count correct.
//!
//! # Montgomery form
//!
//! The modular-exponentiation hot path ([`Ubig::modpow`]) runs in
//! *Montgomery form* whenever the modulus is odd (always true for RSA
//! moduli and prime candidates). With `k` limbs of modulus `n` and
//! `R = 2^(64k)`, a value `a` is represented as `aR mod n`; the CIOS
//! (coarsely integrated operand scanning) product of two such
//! representatives yields `abR mod n` using only single-limb
//! multiply-adds and one shift — no multi-limb division per step. That
//! turns each modular multiplication from a `2k`-by-`k` Knuth division
//! into `2k² + k` limb multiplies, a large constant-factor win. There is
//! one CIOS body (`cios`); at the limb counts RSA meets it is compiled
//! for a constant `k`, scratch on the stack (`Montgomery::mul_into`).
//!
//! Exponentiation uses a fixed 4-bit window for large exponents: 16
//! precomputed powers, then 4 squarings + at most 1 table multiply per
//! window. For a `b`-bit exponent this costs `b + b/4 + 14` multiplies
//! versus `1.5 b` for square-and-multiply — about 20% fewer at RSA sizes,
//! on top of the Montgomery savings. Exponents of 64 bits or fewer (e.g.
//! the public exponent 65537) skip the table and use plain
//! square-and-multiply, since 14 precomputation multiplies would dominate.
//! The pre-Montgomery path survives as [`Ubig::modpow_schoolbook`]: it
//! handles even moduli and serves as the differential-testing oracle.

use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Ubig {
    /// Little-endian 64-bit limbs with no trailing zeros.
    limbs: Vec<u64>,
}

impl Ubig {
    /// The value 0.
    pub fn zero() -> Self {
        Ubig { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Ubig { limbs: vec![1] }
    }

    /// Builds from little-endian limbs, normalising trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Ubig { limbs }
    }

    /// Exposes the little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Builds from a big-endian byte string (as found in keys and
    /// signatures). Leading zero bytes are permitted.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut cur: u64 = 0;
        let mut nbits = 0;
        for &b in bytes.iter().rev() {
            cur |= u64::from(b) << nbits;
            nbits += 8;
            if nbits == 64 {
                limbs.push(cur);
                cur = 0;
                nbits = 0;
            }
        }
        if nbits > 0 {
            limbs.push(cur);
        }
        Ubig::from_limbs(limbs)
    }

    /// Serialises to a big-endian byte string with no leading zeros
    /// (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip.min(7)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialises to exactly `len` big-endian bytes, left-padded with
    /// zeros. Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// True if the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True if the value is even (0 is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() as u32 * 64 - top.leading_zeros(),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        match self.limbs.get(limb) {
            Some(l) => (l >> (i % 64)) & 1 == 1,
            None => false,
        }
    }

    /// The low 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Addition.
    pub fn add(&self, other: &Ubig) -> Ubig {
        let (big, small) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(big.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..big.limbs.len() {
            let b = small.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = big.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        Ubig::from_limbs(out)
    }

    /// Adds a small value.
    pub fn add_u64(&self, v: u64) -> Ubig {
        self.add(&Ubig::from(v))
    }

    /// Subtraction; returns `None` on underflow.
    pub fn checked_sub(&self, other: &Ubig) -> Option<Ubig> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0, "underflow despite ordering check");
        Some(Ubig::from_limbs(out))
    }

    /// Subtraction.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`. Use [`Ubig::checked_sub`] when underflow is
    /// possible.
    pub fn sub(&self, other: &Ubig) -> Ubig {
        self.checked_sub(other).expect("Ubig::sub underflow")
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &Ubig) -> Ubig {
        if self.is_zero() || other.is_zero() {
            return Ubig::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = u128::from(a) * u128::from(b) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = u128::from(out[k]) + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        Ubig::from_limbs(out)
    }

    /// Left shift by `s` bits.
    pub fn shl_bits(&self, s: u32) -> Ubig {
        if self.is_zero() || s == 0 {
            let mut v = self.clone();
            if s > 0 {
                v = Ubig::zero();
                // Unreachable: is_zero() handled above; kept for clarity.
            }
            return v;
        }
        let limb_shift = (s / 64) as usize;
        let bit_shift = s % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        Ubig::from_limbs(out)
    }

    /// Right shift by `s` bits.
    pub fn shr_bits(&self, s: u32) -> Ubig {
        let limb_shift = (s / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return Ubig::zero();
        }
        let bit_shift = s % 64;
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return Ubig::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let lo = src[i] >> bit_shift;
            let hi = src.get(i + 1).map_or(0, |n| n << (64 - bit_shift));
            out.push(lo | hi);
        }
        Ubig::from_limbs(out)
    }

    /// Division with remainder: returns `(quotient, remainder)`.
    ///
    /// Implements Knuth's Algorithm D with `u64` limbs.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &Ubig) -> (Ubig, Ubig) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (Ubig::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem: u128 = 0;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | u128::from(self.limbs[i]);
                q[i] = (cur / u128::from(d)) as u64;
                rem = cur % u128::from(d);
            }
            return (Ubig::from_limbs(q), Ubig::from(rem as u64));
        }

        // Normalise so the divisor's top limb has its high bit set.
        let s = divisor.limbs.last().expect("nonzero").leading_zeros();
        let v = divisor.shl_bits(s);
        let mut u = self.shl_bits(s).limbs;
        let n = v.limbs.len();
        let m = u.len() - n;
        u.push(0); // Extra high limb u[m+n].

        const B: u128 = 1 << 64;
        let vn1 = u128::from(v.limbs[n - 1]);
        let vn2 = u128::from(v.limbs[n - 2]);
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            let top = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
            let mut qhat = top / vn1;
            let mut rhat = top % vn1;
            // Correct qhat down to at most one off.
            while qhat >= B || qhat * vn2 > ((rhat << 64) | u128::from(u[j + n - 2])) {
                qhat -= 1;
                rhat += vn1;
                if rhat >= B {
                    break;
                }
            }
            // Multiply-and-subtract u[j..=j+n] -= qhat * v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * u128::from(v.limbs[i]) + carry;
                carry = p >> 64;
                let d = i128::from(u[j + i]) - i128::from(p as u64) - borrow;
                u[j + i] = d as u64;
                borrow = i128::from(d < 0);
            }
            let d = i128::from(u[j + n]) - (carry as i128) - borrow;
            u[j + n] = d as u64;

            let mut qj = qhat as u64;
            if d < 0 {
                // qhat was one too large: add the divisor back.
                qj -= 1;
                let mut carry2: u128 = 0;
                for i in 0..n {
                    let t = u128::from(u[j + i]) + u128::from(v.limbs[i]) + carry2;
                    u[j + i] = t as u64;
                    carry2 = t >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry2 as u64);
            }
            q[j] = qj;
        }

        let r = Ubig::from_limbs(u[..n].to_vec()).shr_bits(s);
        (Ubig::from_limbs(q), r)
    }

    /// Remainder of division.
    pub fn rem(&self, modulus: &Ubig) -> Ubig {
        self.divrem(modulus).1
    }

    /// Remainder of division by a single limb (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem: u128 = 0;
        for &limb in self.limbs.iter().rev() {
            rem = ((rem << 64) | u128::from(limb)) % u128::from(d);
        }
        rem as u64
    }

    /// Extracts `width` (≤ 64) bits starting at bit `i` (little-endian).
    fn bits_at(&self, i: u32, width: u32) -> u64 {
        debug_assert!((1..=64).contains(&width));
        let li = (i / 64) as usize;
        let off = i % 64;
        let lo = self.limbs.get(li).copied().unwrap_or(0) >> off;
        let hi = if off + width > 64 {
            self.limbs.get(li + 1).copied().unwrap_or(0) << (64 - off)
        } else {
            0
        };
        let v = lo | hi;
        if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        }
    }

    /// Modular multiplication `self * other mod m`.
    pub fn modmul(&self, other: &Ubig, m: &Ubig) -> Ubig {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Odd moduli (the only kind RSA and Miller–Rabin ever present) take
    /// the Montgomery-form windowed path; even moduli fall back to
    /// [`Ubig::modpow_schoolbook`]. See the module docs for the cost model.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &Ubig, m: &Ubig) -> Ubig {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return Ubig::zero();
        }
        match Montgomery::new(m) {
            Some(mont) => mont.pow(self, exp),
            None => self.modpow_schoolbook(exp, m),
        }
    }

    /// Modular exponentiation by plain square-and-multiply with a full
    /// division per step. Handles even moduli (which Montgomery form
    /// cannot) and serves as the differential-testing oracle for the fast
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow_schoolbook(&self, exp: &Ubig, m: &Ubig) -> Ubig {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return Ubig::zero();
        }
        let mut base = self.rem(m);
        let mut result = Ubig::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.modmul(&base, m);
            }
            if i + 1 < exp.bit_len() {
                base = base.modmul(&base, m);
            }
        }
        result
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &Ubig) -> Ubig {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: the `x` with `self * x ≡ 1 (mod m)`, if it exists.
    pub fn modinv(&self, m: &Ubig) -> Option<Ubig> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Extended Euclid with signed Bezout coefficients for `self`.
        let (mut old_r, mut r) = (self.rem(m), m.clone());
        let (mut old_t, mut t) = (Signed::pos(Ubig::one()), Signed::pos(Ubig::zero()));
        while !r.is_zero() {
            let (q, rem) = old_r.divrem(&r);
            old_r = std::mem::replace(&mut r, rem);
            let qt = t.mul_ubig(&q);
            let new_t = old_t.sub(&qt);
            old_t = std::mem::replace(&mut t, new_t);
        }
        if !old_r.is_one() {
            return None;
        }
        Some(old_t.rem_positive(m))
    }
}

/// Reusable Montgomery-form context for an odd modulus `n > 1`.
///
/// Construction pays one `R mod n` / `R² mod n` setup division; every
/// subsequent multiplication is a division-free CIOS reduction. Callers
/// that perform many multiplications under one modulus (modular
/// exponentiation, Miller–Rabin witnesses) should build the context once
/// and reuse it.
pub struct Montgomery {
    /// Modulus limbs (little-endian, exactly `k` limbs, top limb nonzero).
    n: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴`, the per-limb reduction factor.
    n0_inv: u64,
    /// `R² mod n` (`R = 2^(64k)`), for converting into Montgomery form.
    r2: Vec<u64>,
    /// `R mod n`, the Montgomery representative of 1.
    one: Vec<u64>,
    /// Limb count of the modulus.
    k: usize,
}

/// A residue in Montgomery form, produced by and only meaningful with the
/// [`Montgomery`] context that created it. The representation is canonical
/// (reduced below the modulus, fixed limb count), so `==` compares residues.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontElem {
    limbs: Vec<u64>,
}

impl Montgomery {
    /// Builds a context for modulus `m`. Returns `None` if `m` is even or
    /// less than 2 (Montgomery reduction requires `gcd(m, 2⁶⁴) = 1`).
    pub fn new(m: &Ubig) -> Option<Montgomery> {
        if m.is_even() || m.is_one() {
            return None;
        }
        let n = m.limbs.clone();
        let k = n.len();
        // Newton–Hensel iteration: doubles correct low bits each step, so
        // five steps lift the (trivially correct) 1-bit inverse to 64 bits.
        let mut inv = n[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();
        // One-time setup divisions for R mod n and R² mod n.
        let r = Ubig::one().shl_bits(64 * k as u32).rem(m);
        let r2 = r.mul(&r).rem(m);
        Some(Montgomery {
            one: pad_limbs(&r, k),
            r2: pad_limbs(&r2, k),
            n,
            n0_inv,
            k,
        })
    }

    /// The Montgomery representative of 1 (`R mod n`).
    pub fn one(&self) -> MontElem {
        MontElem {
            limbs: self.one.clone(),
        }
    }

    /// Converts `a` into Montgomery form (reducing mod `n` first if needed).
    pub fn to_mont(&self, a: &Ubig) -> MontElem {
        let oversized =
            a.limbs.len() > self.k || (a.limbs.len() == self.k && !limbs_lt(&a.limbs, &self.n));
        let reduced;
        let a = if oversized {
            reduced = a.rem(&Ubig::from_limbs(self.n.clone()));
            &reduced
        } else {
            a
        };
        MontElem {
            limbs: self.mul_limbs(&pad_limbs(a, self.k), &self.r2),
        }
    }

    /// Converts back out of Montgomery form.
    pub fn from_mont(&self, a: &MontElem) -> Ubig {
        let mut one = vec![0u64; self.k];
        one[0] = 1;
        Ubig::from_limbs(self.mul_limbs(&a.limbs, &one))
    }

    /// Montgomery product of two residues.
    pub fn mul(&self, a: &MontElem, b: &MontElem) -> MontElem {
        MontElem {
            limbs: self.mul_limbs(&a.limbs, &b.limbs),
        }
    }

    /// `base^exp mod n`, staying in Montgomery form throughout.
    pub fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        if exp.is_zero() {
            return Ubig::one();
        }
        self.from_mont(&self.pow_elem(&self.to_mont(base), exp))
    }

    /// `base^exp` on a residue already in Montgomery form.
    ///
    /// Exponents longer than 64 bits use a fixed 4-bit window (16-entry
    /// table, 4 squarings + at most one table multiply per window); shorter
    /// exponents use plain square-and-multiply, for which the table
    /// precomputation would not pay for itself.
    pub fn pow_elem(&self, base: &MontElem, exp: &Ubig) -> MontElem {
        let k = self.k;
        let bits = exp.bit_len();
        // Two buffers swapped after every multiply serve the whole
        // exponentiation: hundreds of multiplies, no per-step allocation.
        let mut out = vec![0u64; k];
        if bits <= 64 {
            let mut acc = self.one.clone();
            for i in (0..bits).rev() {
                self.mul_into(&acc, None, &mut out);
                std::mem::swap(&mut acc, &mut out);
                if exp.bit(i) {
                    self.mul_into(&acc, Some(&base.limbs), &mut out);
                    std::mem::swap(&mut acc, &mut out);
                }
            }
            return MontElem { limbs: acc };
        }
        const WINDOW: u32 = 4;
        // `base⁰ … base¹⁵`, `k` limbs each, in one allocation.
        let mut table = vec![0u64; k << WINDOW];
        table[..k].copy_from_slice(&self.one);
        for i in 1..1usize << WINDOW {
            let (done, rest) = table.split_at_mut(i * k);
            self.mul_into(&done[(i - 1) * k..], Some(&base.limbs), &mut rest[..k]);
        }
        let entry = |d: usize| &table[d * k..(d + 1) * k];
        let nwin = bits.div_ceil(WINDOW);
        let top = exp.bits_at((nwin - 1) * WINDOW, WINDOW) as usize;
        let mut acc = entry(top).to_vec();
        for w in (0..nwin - 1).rev() {
            for _ in 0..WINDOW {
                self.mul_into(&acc, None, &mut out);
                std::mem::swap(&mut acc, &mut out);
            }
            let d = exp.bits_at(w * WINDOW, WINDOW) as usize;
            if d != 0 {
                self.mul_into(&acc, Some(entry(d)), &mut out);
                std::mem::swap(&mut acc, &mut out);
            }
        }
        MontElem { limbs: acc }
    }

    /// Allocating convenience wrapper around [`Montgomery::mul_into`].
    fn mul_limbs(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.k];
        self.mul_into(a, Some(b), &mut out);
        out
    }

    /// Montgomery product: writes `a · b · R⁻¹ mod n` into `out` for
    /// `k`-limb operands below `n`. `b = None` squares `a` (callers cannot
    /// alias `a` with `out` under the borrow rules, so the common squaring
    /// step is spelled this way).
    ///
    /// The widths RSA meets — 4, 8 and 16 limbs: the moduli and CRT halves
    /// of 512-, 1024- and 2048-bit keys — run [`cios`] on slices narrowed
    /// to a constant length with the scratch on the stack, which lets the
    /// compiler unroll it and drop every bounds check; any other width runs
    /// the same body over the lengths it finds.
    fn mul_into(&self, a: &[u64], b: Option<&[u64]>, out: &mut [u64]) {
        let b = b.unwrap_or(a);
        let (n, n0_inv) = (&self.n[..], self.n0_inv);
        macro_rules! at_width {
            ($k:literal) => {
                cios(
                    &a[..$k],
                    &b[..$k],
                    &n[..$k],
                    n0_inv,
                    &mut [0u64; $k + 2],
                    &mut out[..$k],
                )
            };
        }
        match self.k {
            4 => at_width!(4),
            8 => at_width!(8),
            16 => at_width!(16),
            k => match [0u64; STACK_SCRATCH].get_mut(..k + 2) {
                Some(t) => cios(a, b, n, n0_inv, t, out),
                None => cios(a, b, n, n0_inv, &mut vec![0u64; k + 2], out),
            },
        }
    }
}

/// Scratch limbs [`Montgomery::mul_into`] keeps on the stack at a width it
/// has no constant for: enough for a 2048-bit modulus (32 limbs + 2).
const STACK_SCRATCH: usize = 34;

/// CIOS (coarsely integrated operand scanning) Montgomery product: writes
/// `a · b · R⁻¹ mod n` into `out` for operands below `n`, all of `n`'s
/// length `k`, using the zeroed `t` (length `k + 2`) as scratch. The one
/// multiply body: inlined into each width [`Montgomery::mul_into`]
/// dispatches, it is compiled once per constant `k` and once for any `k`.
#[inline(always)]
fn cios(a: &[u64], b: &[u64], n: &[u64], n0_inv: u64, t: &mut [u64], out: &mut [u64]) {
    let k = n.len();
    assert!(a.len() == k && b.len() == k && out.len() == k && t.len() == k + 2);
    for &ai in a {
        // t += a[i] · b
        let ai = u128::from(ai);
        let mut carry: u128 = 0;
        for j in 0..k {
            let v = ai * u128::from(b[j]) + u128::from(t[j]) + carry;
            t[j] = v as u64;
            carry = v >> 64;
        }
        let v = u128::from(t[k]) + carry;
        t[k] = v as u64;
        t[k + 1] = (v >> 64) as u64;
        // t += m · n with m chosen so t becomes divisible by 2⁶⁴,
        // then shift one limb right (fused into the same pass).
        let m = u128::from(t[0].wrapping_mul(n0_inv));
        let v = m * u128::from(n[0]) + u128::from(t[0]);
        let mut carry = v >> 64;
        for j in 1..k {
            let v = m * u128::from(n[j]) + u128::from(t[j]) + carry;
            t[j - 1] = v as u64;
            carry = v >> 64;
        }
        let v = u128::from(t[k]) + carry;
        t[k - 1] = v as u64;
        t[k] = t[k + 1] + (v >> 64) as u64;
        t[k + 1] = 0;
    }
    // Inputs below n keep the CIOS result below 2n, so one conditional
    // subtraction canonicalises it.
    let needs_sub = t[k] != 0 || !limbs_lt(&t[..k], n);
    if needs_sub {
        let mut borrow = 0u64;
        for (tj, &nj) in t.iter_mut().zip(n) {
            let (d1, b1) = tj.overflowing_sub(nj);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *tj = d2;
            borrow = u64::from(b1) | u64::from(b2);
        }
        debug_assert_eq!(borrow, t[k], "Montgomery result not below 2n");
    }
    out.copy_from_slice(&t[..k]);
}

/// Clones `v`'s limbs zero-extended to exactly `k` limbs.
fn pad_limbs(v: &Ubig, k: usize) -> Vec<u64> {
    debug_assert!(v.limbs.len() <= k);
    let mut out = v.limbs.clone();
    out.resize(k, 0);
    out
}

/// `a < b` for equal-length little-endian limb slices.
fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => {}
        }
    }
    false
}

/// A signed big integer used internally by the extended Euclidean
/// algorithm.
#[derive(Clone, Debug)]
struct Signed {
    neg: bool,
    mag: Ubig,
}

impl Signed {
    fn pos(mag: Ubig) -> Self {
        Signed { neg: false, mag }
    }

    fn mul_ubig(&self, v: &Ubig) -> Signed {
        Signed {
            neg: self.neg && !v.is_zero(),
            mag: self.mag.mul(v),
        }
    }

    fn sub(&self, other: &Signed) -> Signed {
        match (self.neg, other.neg) {
            // a - (-b) = a + b ; (-a) - b = -(a + b)
            (false, true) => Signed {
                neg: false,
                mag: self.mag.add(&other.mag),
            },
            (true, false) => Signed {
                neg: true,
                mag: self.mag.add(&other.mag),
            },
            // Same sign: compare magnitudes.
            (sn, _) => {
                if self.mag >= other.mag {
                    Signed {
                        neg: sn,
                        mag: self.mag.sub(&other.mag),
                    }
                } else {
                    Signed {
                        neg: !sn,
                        mag: other.mag.sub(&self.mag),
                    }
                }
            }
        }
    }

    /// Reduces into `[0, m)`.
    fn rem_positive(&self, m: &Ubig) -> Ubig {
        let r = self.mag.rem(m);
        if self.neg && !r.is_zero() {
            m.sub(&r)
        } else {
            r
        }
    }
}

impl From<u64> for Ubig {
    fn from(v: u64) -> Self {
        if v == 0 {
            Ubig::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }
}

impl From<u128> for Ubig {
    fn from(v: u128) -> Self {
        Ubig::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => self.limbs.iter().rev().cmp(other.limbs.iter().rev()),
            ord => ord,
        }
    }
}

impl std::fmt::Display for Ubig {
    /// Formats as lowercase hex (the natural base for fingerprints).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return f.write_str("0x0");
        }
        write!(f, "0x{:x}", self.limbs.last().expect("nonzero"))?;
        for l in self.limbs.iter().rev().skip(1) {
            write!(f, "{l:016x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn big(v: u128) -> Ubig {
        Ubig::from(v)
    }

    #[test]
    fn construction_normalises() {
        assert_eq!(Ubig::from_limbs(vec![0, 0, 0]), Ubig::zero());
        assert_eq!(Ubig::from_limbs(vec![5, 0]), Ubig::from(5u64));
        assert!(Ubig::zero().is_zero());
        assert!(Ubig::one().is_one());
    }

    #[test]
    fn byte_roundtrip() {
        for v in [0u128, 1, 255, 256, u128::from(u64::MAX), u128::MAX] {
            let b = big(v);
            assert_eq!(Ubig::from_bytes_be(&b.to_bytes_be()), b);
        }
        // Leading zeros are accepted on input and never produced on output.
        assert_eq!(Ubig::from_bytes_be(&[0, 0, 1, 2]), big(0x0102));
        assert_eq!(big(0x0102).to_bytes_be(), vec![1, 2]);
        assert_eq!(Ubig::zero().to_bytes_be(), Vec::<u8>::new());
    }

    #[test]
    fn padded_bytes() {
        assert_eq!(big(0x0102).to_bytes_be_padded(4), Some(vec![0, 0, 1, 2]));
        assert_eq!(big(0x010203).to_bytes_be_padded(2), None);
        assert_eq!(Ubig::zero().to_bytes_be_padded(2), Some(vec![0, 0]));
    }

    #[test]
    fn bit_accessors() {
        let v = big(0b1011);
        assert_eq!(v.bit_len(), 4);
        assert!(v.bit(0) && v.bit(1) && !v.bit(2) && v.bit(3) && !v.bit(64));
        assert_eq!(Ubig::zero().bit_len(), 0);
        assert_eq!(big(1u128 << 100).bit_len(), 101);
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(big(3).add(&big(4)), big(7));
        let max = Ubig::from(u64::MAX);
        assert_eq!(max.add(&Ubig::one()), big(1u128 << 64));
        assert_eq!(big(1u128 << 64).sub(&Ubig::one()), Ubig::from(u64::MAX));
        assert_eq!(big(5).checked_sub(&big(9)), None);
    }

    #[test]
    fn mul_small() {
        assert_eq!(big(0).mul(&big(100)), big(0));
        assert_eq!(big(7).mul(&big(6)), big(42));
        let a = Ubig::from(u64::MAX);
        assert_eq!(
            a.mul(&a),
            big((u128::from(u64::MAX)) * u128::from(u64::MAX))
        );
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl_bits(64), big(1u128 << 64));
        assert_eq!(big(1u128 << 64).shr_bits(64), big(1));
        assert_eq!(big(0b1010).shl_bits(3), big(0b1010000));
        assert_eq!(big(0b1010000).shr_bits(3), big(0b1010));
        assert_eq!(big(5).shr_bits(200), Ubig::zero());
    }

    #[test]
    fn divrem_small_divisor() {
        let (q, r) = big(1000).divrem(&big(7));
        assert_eq!((q, r), (big(142), big(6)));
        let (q, r) = big(5).divrem(&big(9));
        assert_eq!((q, r), (Ubig::zero(), big(5)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(1).divrem(&Ubig::zero());
    }

    #[test]
    fn modpow_small() {
        // 4^13 mod 497 = 445 (classic example).
        assert_eq!(big(4).modpow(&big(13), &big(497)), big(445));
        assert_eq!(big(7).modpow(&Ubig::zero(), &big(13)), Ubig::one());
        assert_eq!(big(7).modpow(&big(5), &Ubig::one()), Ubig::zero());
    }

    #[test]
    fn modinv_small() {
        // 3 * 4 = 12 ≡ 1 (mod 11).
        assert_eq!(big(3).modinv(&big(11)), Some(big(4)));
        // gcd(4, 8) != 1 → no inverse.
        assert_eq!(big(4).modinv(&big(8)), None);
        assert_eq!(big(3).modinv(&Ubig::one()), None);
        // 65537 mod small phi.
        let e = big(65537);
        let phi = big(3120);
        if let Some(d) = e.modinv(&phi) {
            assert_eq!(e.mul(&d).rem(&phi), Ubig::one());
        }
    }

    #[test]
    fn display_hex() {
        assert_eq!(Ubig::zero().to_string(), "0x0");
        assert_eq!(big(0xdeadbeef).to_string(), "0xdeadbeef");
        assert_eq!(big((1u128 << 64) + 2).to_string(), "0x10000000000000002");
    }

    proptest! {
        #[test]
        fn prop_add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let sum = big(u128::from(a) + u128::from(b));
            prop_assert_eq!(Ubig::from(a).add(&Ubig::from(b)), sum);
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let prod = big(u128::from(a) * u128::from(b));
            prop_assert_eq!(Ubig::from(a).mul(&Ubig::from(b)), prod);
        }

        #[test]
        fn prop_divrem_matches_u128(a in any::<u128>(), b in 1u128..) {
            let (q, r) = big(a).divrem(&big(b));
            prop_assert_eq!(q, big(a / b));
            prop_assert_eq!(r, big(a % b));
        }

        #[test]
        fn prop_divrem_identity(
            a in proptest::collection::vec(any::<u64>(), 1..8),
            b in proptest::collection::vec(any::<u64>(), 1..5),
        ) {
            let a = Ubig::from_limbs(a);
            let b = Ubig::from_limbs(b);
            prop_assume!(!b.is_zero());
            let (q, r) = a.divrem(&b);
            // a = q*b + r and r < b.
            prop_assert!(r < b);
            prop_assert_eq!(q.mul(&b).add(&r), a);
        }

        #[test]
        fn prop_add_sub_roundtrip(
            a in proptest::collection::vec(any::<u64>(), 0..6),
            b in proptest::collection::vec(any::<u64>(), 0..6),
        ) {
            let a = Ubig::from_limbs(a);
            let b = Ubig::from_limbs(b);
            prop_assert_eq!(a.add(&b).sub(&b), a);
        }

        #[test]
        fn prop_shift_roundtrip(
            a in proptest::collection::vec(any::<u64>(), 0..5),
            s in 0u32..200,
        ) {
            let a = Ubig::from_limbs(a);
            prop_assert_eq!(a.shl_bits(s).shr_bits(s), a);
        }

        #[test]
        fn prop_byte_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let v = Ubig::from_bytes_be(&bytes);
            prop_assert_eq!(Ubig::from_bytes_be(&v.to_bytes_be()), v);
        }

        #[test]
        fn prop_modpow_matches_naive(
            base in any::<u64>(), exp in 0u32..40, m in 2u64..,
        ) {
            let m_big = Ubig::from(m);
            let got = Ubig::from(base).modpow(&Ubig::from(u64::from(exp)), &m_big);
            // Naive iterated modmul oracle.
            let mut want = Ubig::one().rem(&m_big);
            for _ in 0..exp {
                want = want.modmul(&Ubig::from(base), &m_big);
            }
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_modinv_is_inverse(a in 1u64.., m in 2u64..) {
            let (a, m) = (Ubig::from(a), Ubig::from(m));
            if let Some(inv) = a.modinv(&m) {
                prop_assert!(inv < m);
                prop_assert_eq!(a.modmul(&inv, &m), Ubig::one());
            } else {
                prop_assert!(!a.gcd(&m).is_one());
            }
        }

        #[test]
        fn prop_gcd_divides(a in 1u64.., b in 1u64..) {
            let g = Ubig::from(a).gcd(&Ubig::from(b));
            prop_assert!(!g.is_zero());
            prop_assert!(Ubig::from(a).rem(&g).is_zero());
            prop_assert!(Ubig::from(b).rem(&g).is_zero());
        }

        #[test]
        fn prop_cmp_matches_u128(a in any::<u128>(), b in any::<u128>()) {
            prop_assert_eq!(big(a).cmp(&big(b)), a.cmp(&b));
        }

        #[test]
        fn prop_rem_u64_matches_divrem(
            a in proptest::collection::vec(any::<u64>(), 0..6),
            d in 1u64..,
        ) {
            let a = Ubig::from_limbs(a);
            prop_assert_eq!(a.rem_u64(d), a.rem(&Ubig::from(d)).low_u64());
        }

        /// The Montgomery windowed fast path must agree with the schoolbook
        /// oracle for any modulus (odd moduli exercise Montgomery, even
        /// ones the fallback) and any exponent length (both the ≤64-bit
        /// square-and-multiply path and the windowed path).
        #[test]
        fn prop_modpow_matches_schoolbook(
            base in proptest::collection::vec(any::<u64>(), 1..8),
            exp in proptest::collection::vec(any::<u64>(), 1..4),
            m in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let base = Ubig::from_limbs(base);
            let exp = Ubig::from_limbs(exp);
            let m = Ubig::from_limbs(m);
            prop_assume!(!m.is_zero() && !m.is_one());
            prop_assert_eq!(
                base.modpow(&exp, &m),
                base.modpow_schoolbook(&exp, &m)
            );
        }

        /// Montgomery round-trip and multiplication against plain modmul.
        #[test]
        fn prop_montgomery_mul_matches_modmul(
            a in proptest::collection::vec(any::<u64>(), 1..6),
            b in proptest::collection::vec(any::<u64>(), 1..6),
            m in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let a = Ubig::from_limbs(a);
            let b = Ubig::from_limbs(b);
            // Force the modulus odd so a context exists.
            let mut m = m;
            m[0] |= 1;
            let m = Ubig::from_limbs(m);
            prop_assume!(!m.is_one());
            let mont = Montgomery::new(&m).expect("odd modulus > 1");
            let (am, bm) = (mont.to_mont(&a), mont.to_mont(&b));
            prop_assert_eq!(mont.from_mont(&am), a.rem(&m));
            prop_assert_eq!(
                mont.from_mont(&mont.mul(&am, &bm)),
                a.modmul(&b, &m)
            );
        }
    }

    #[test]
    fn montgomery_rejects_even_or_trivial_moduli() {
        assert!(Montgomery::new(&Ubig::from(10u64)).is_none());
        assert!(Montgomery::new(&Ubig::zero()).is_none());
        assert!(Montgomery::new(&Ubig::one()).is_none());
        assert!(Montgomery::new(&Ubig::from(9u64)).is_some());
    }

    #[test]
    fn montgomery_one_is_multiplicative_identity() {
        let m = Ubig::from(1_000_003u64);
        let mont = Montgomery::new(&m).unwrap();
        let x = mont.to_mont(&Ubig::from(123_456u64));
        assert_eq!(mont.mul(&x, &mont.one()), x);
        assert_eq!(mont.from_mont(&mont.one()), Ubig::one());
    }

    /// Moduli of 1 to 17 limbs: the widths `mul_into` has a constant for
    /// (4, 8, 16), their neighbours, and the run-time-width body between.
    const WIDTHS: std::ops::RangeInclusive<usize> = 1..=17;

    #[test]
    fn modpow_matches_schoolbook_at_every_width() {
        let mut rng = proptest::TestRng::seed(0x0b16_0b16);
        let mut limbs = |n: usize| -> Vec<u64> { (0..n).map(|_| rng.next_u64()).collect() };
        for k in WIDTHS {
            for _ in 0..4 {
                let mut m = limbs(k);
                m[0] |= 1; // Odd: the Montgomery path.
                m[k - 1] |= 1 << 63; // Exactly k limbs.
                let m = Ubig::from_limbs(m);
                let base = Ubig::from_limbs(limbs(k + 1));
                // One short exponent (square-and-multiply), one windowed.
                for exp in [limbs(1), limbs(2)] {
                    let exp = Ubig::from_limbs(exp);
                    assert_eq!(
                        base.modpow(&exp, &m),
                        base.modpow_schoolbook(&exp, &m),
                        "{k} limbs: {base}^{exp} mod {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn final_subtraction_with_the_carry_limb_set_at_every_width() {
        // n = R − c and a = n − 1: the largest operands there are under the
        // largest moduli there are, so the unreduced product overflows `k`
        // limbs into the carry limb and must still come back below n.
        for k in WIDTHS {
            for c in [1u64, 3, 12_345] {
                let r = Ubig::one().shl_bits(64 * k as u32);
                let n = r.sub(&Ubig::from(c));
                let a = n.sub(&Ubig::one());
                // What CIOS holds before its conditional subtraction:
                // T = (a² + M·n) / R with M = −a²·n⁻¹ mod R.
                let sq = a.mul(&a);
                let n_inv = n.modinv(&r).expect("n is odd");
                let m = r.sub(&sq.mul(&n_inv).rem(&r)).rem(&r);
                let t = sq.add(&m.mul(&n)).shr_bits(64 * k as u32);
                assert!(t >= r, "{k} limbs, c = {c}: the carry limb stays clear");

                let mont = Montgomery::new(&n).expect("odd modulus > 1");
                let a = MontElem {
                    limbs: pad_limbs(&a, k),
                };
                let got = mont.mul(&a, &a);
                assert_eq!(Ubig::from_limbs(got.limbs), t.sub(&n), "{k} limbs, c = {c}");
            }
        }
    }

    #[test]
    fn windowed_pow_crosses_the_64_bit_exponent_boundary() {
        // Exponents straddling the window-path threshold agree with the
        // schoolbook oracle (fixed values, no proptest machinery).
        let base = big(0xDEAD_BEEF_CAFE);
        let m = big((1u128 << 89) - 1);
        for shift in [63u32, 64, 65, 120] {
            let exp = Ubig::one().shl_bits(shift).add_u64(0x1234);
            assert_eq!(
                base.modpow(&exp, &m),
                base.modpow_schoolbook(&exp, &m),
                "exponent 2^{shift}+0x1234"
            );
        }
    }
}
