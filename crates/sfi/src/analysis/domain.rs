//! The abstract domain: unsigned intervals refined by known bits.
//!
//! One [`AbsVal`] approximates the set of concrete `u64` values a register
//! may hold: every member `v` satisfies `lo <= v <= hi`, `v & zeros == 0`
//! and `v & ones == ones`. The two views reinforce each other — a
//! mask-then-align idiom is exact in the bits view, a `MaskData` guard is
//! exact in the interval view, and [`AbsVal::normalize`] moves information
//! between them (e.g. rounding `hi` down to the known alignment).
//!
//! This replaces the seed's five-value lattice (`Known`/`Masked`/
//! `MaskedAligned`/`CodeMasked`/`Unknown`): every fact the old domain
//! could express is an interval+bits fact, and the arithmetic transfer
//! functions keep facts the old domain destroyed (constant folding across
//! joins, small constant offsets on masked bases).

/// Abstract value of one register: an unsigned interval plus known bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbsVal {
    /// Smallest possible value (inclusive).
    pub lo: u64,
    /// Largest possible value (inclusive).
    pub hi: u64,
    /// Bits proven `0` in every possible value.
    pub zeros: u64,
    /// Bits proven `1` in every possible value.
    pub ones: u64,
}

// Transfer functions are named after the instruction mnemonics they
// model (`add`, `shr`, …), not operator overloads — they are abstract,
// wrapping, and deliberately lossy, so the `std::ops` traits would
// promise the wrong algebra.
#[allow(clippy::should_implement_trait)]
impl AbsVal {
    /// The top element: any value at all.
    pub const TOP: AbsVal = AbsVal {
        lo: 0,
        hi: u64::MAX,
        zeros: 0,
        ones: 0,
    };

    /// A compile-time constant.
    pub fn constant(v: u64) -> AbsVal {
        AbsVal {
            lo: v,
            hi: v,
            zeros: !v,
            ones: v,
        }
    }

    /// Any value in `lo..=hi` (bits derived from the range).
    pub fn range(lo: u64, hi: u64) -> AbsVal {
        debug_assert!(lo <= hi);
        AbsVal {
            lo,
            hi,
            zeros: 0,
            ones: 0,
        }
        .normalize()
    }

    /// True if this is a single known constant.
    pub fn as_const(&self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// True if `v` is a member of the abstracted set.
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi && v & self.zeros == 0 && v & self.ones == self.ones
    }

    /// Propagates information between the interval and bits views.
    ///
    /// Sound only on non-empty inputs (which is all the analysis ever
    /// produces: transfer functions over-approximate reachable states).
    #[must_use]
    pub fn normalize(mut self) -> AbsVal {
        // Bits above the range's most significant bit are zero.
        self.zeros |= !low_mask(64 - self.hi.leading_zeros());
        // Bits bound the range.
        self.lo = self.lo.max(self.ones);
        self.hi = self.hi.min(!self.zeros);
        // A contiguous run of known-zero low bits is an alignment: round
        // the interval inward to the nearest aligned values.
        let align_bits = (!self.zeros).trailing_zeros();
        if align_bits > 0 && align_bits < 64 {
            let step = 1u64 << align_bits;
            self.hi &= !(step - 1);
            self.lo = match self.lo % step {
                0 => self.lo,
                rem => self.lo.saturating_add(step - rem),
            };
        }
        if self.lo == self.hi {
            self.zeros = !self.lo;
            self.ones = self.lo;
        }
        debug_assert!(self.lo <= self.hi, "normalized an empty AbsVal: {self:?}");
        debug_assert_eq!(self.zeros & self.ones, 0);
        self
    }

    /// Least upper bound: the join over two control-flow paths.
    #[must_use]
    pub fn join(self, other: AbsVal) -> AbsVal {
        AbsVal {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            zeros: self.zeros & other.zeros,
            ones: self.ones & other.ones,
        }
        .normalize()
    }

    /// Widening: jump to a coarse bound so loop fixpoints terminate fast.
    ///
    /// The interval is widened to the nearest of a few `thresholds` (the
    /// analysis passes the segment bounds, so masked values stay provably
    /// in-segment across back edges). The bits are widened with it: the
    /// bits lattice is finite, but an accumulator sheds its known-zero
    /// high bits one per trip round the loop (up to 64 trips per side), and
    /// [`AbsVal::normalize`] clamps the widened `hi` back to whatever bits
    /// are still known. So when the join loses a known bit, every known bit
    /// at or above the lowest one lost goes too, and `normalize` re-derives
    /// those the widened `hi` implies. Bits below the moving ones — the
    /// alignment of a strided pointer — survive.
    #[must_use]
    pub fn widen(self, next: AbsVal, thresholds: &[u64]) -> AbsVal {
        let joined = self.join(next);
        let lost = (self.zeros & !joined.zeros) | (self.ones & !joined.ones);
        let stable = low_mask(lost.trailing_zeros());
        self.widen_interval(joined, thresholds, stable)
    }

    /// The interval half of [`AbsVal::widen`]; known bits outside `stable`
    /// are dropped.
    fn widen_interval(self, joined: AbsVal, thresholds: &[u64], stable: u64) -> AbsVal {
        let lo = if joined.lo < self.lo { 0 } else { self.lo };
        let hi = if joined.hi > self.hi {
            thresholds
                .iter()
                .copied()
                .filter(|&t| t >= joined.hi)
                .min()
                .unwrap_or(u64::MAX)
        } else {
            self.hi
        };
        AbsVal {
            lo,
            hi,
            zeros: joined.zeros & stable,
            ones: joined.ones & stable,
        }
        .normalize()
    }

    /// The widening this analysis used to have: bits pass through the join
    /// unwidened. Slower to converge and at least as precise — the
    /// reference the precision oracle compares [`AbsVal::widen`] against.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn widen_bits_passing(self, next: AbsVal, thresholds: &[u64]) -> AbsVal {
        self.widen_interval(self.join(next), thresholds, u64::MAX)
    }

    // ----- transfer functions (must over-approximate the interpreter) ----

    /// `a + b` (wrapping).
    #[must_use]
    pub fn add(self, rhs: AbsVal) -> AbsVal {
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return AbsVal::constant(a.wrapping_add(b));
        }
        match (self.lo.checked_add(rhs.lo), self.hi.checked_add(rhs.hi)) {
            (Some(lo), Some(hi)) => AbsVal::range(lo, hi),
            _ => AbsVal::TOP, // May wrap: anything.
        }
    }

    /// `a - b` (wrapping).
    #[must_use]
    pub fn sub(self, rhs: AbsVal) -> AbsVal {
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return AbsVal::constant(a.wrapping_sub(b));
        }
        if self.lo >= rhs.hi {
            // No borrow possible on any member pair.
            AbsVal::range(self.lo - rhs.hi, self.hi - rhs.lo)
        } else {
            AbsVal::TOP
        }
    }

    /// `a * b` (wrapping).
    #[must_use]
    pub fn mul(self, rhs: AbsVal) -> AbsVal {
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return AbsVal::constant(a.wrapping_mul(b));
        }
        match self.hi.checked_mul(rhs.hi) {
            Some(hi) => AbsVal::range(self.lo.saturating_mul(rhs.lo), hi),
            None => AbsVal::TOP,
        }
    }

    /// `a / b` — the abstract result *assuming the division executed*
    /// (a zero divisor traps in the interpreter and produces no value).
    #[must_use]
    pub fn divu(self, rhs: AbsVal) -> AbsVal {
        let div_lo = rhs.lo.max(1);
        let div_hi = rhs.hi.max(1);
        AbsVal::range(self.lo / div_hi, self.hi / div_lo)
    }

    /// `a & b`.
    #[must_use]
    pub fn and(self, rhs: AbsVal) -> AbsVal {
        AbsVal {
            lo: 0,
            hi: self.hi.min(rhs.hi),
            zeros: self.zeros | rhs.zeros,
            ones: self.ones & rhs.ones,
        }
        .normalize()
    }

    /// `a | b`.
    #[must_use]
    pub fn or(self, rhs: AbsVal) -> AbsVal {
        AbsVal {
            lo: self.lo.max(rhs.lo),
            hi: ones_envelope(self.hi) | ones_envelope(rhs.hi),
            zeros: self.zeros & rhs.zeros,
            ones: self.ones | rhs.ones,
        }
        .normalize()
    }

    /// `a ^ b`.
    #[must_use]
    pub fn xor(self, rhs: AbsVal) -> AbsVal {
        AbsVal {
            lo: 0,
            hi: ones_envelope(self.hi) | ones_envelope(rhs.hi),
            zeros: (self.zeros & rhs.zeros) | (self.ones & rhs.ones),
            ones: (self.zeros & rhs.ones) | (self.ones & rhs.zeros),
        }
        .normalize()
    }

    /// `a << (b & 63)`.
    #[must_use]
    pub fn shl(self, rhs: AbsVal) -> AbsVal {
        match rhs.as_const() {
            Some(k) => {
                let k = (k & 63) as u32;
                match (self.as_const(), self.hi.checked_shl(k)) {
                    (Some(a), _) => AbsVal::constant(a << k),
                    (None, Some(hi)) if self.hi.leading_zeros() >= k => AbsVal {
                        lo: self.lo << k,
                        hi,
                        zeros: (self.zeros << k) | ((1u64 << k) - 1),
                        ones: self.ones << k,
                    }
                    .normalize(),
                    _ => AbsVal::TOP,
                }
            }
            None => AbsVal::TOP,
        }
    }

    /// `a >> (b & 63)` (logical).
    #[must_use]
    pub fn shr(self, rhs: AbsVal) -> AbsVal {
        match rhs.as_const() {
            Some(k) => {
                let k = (k & 63) as u32;
                AbsVal {
                    lo: self.lo >> k,
                    hi: self.hi >> k,
                    zeros: (self.zeros >> k) | !(u64::MAX >> k),
                    ones: self.ones >> k,
                }
                .normalize()
            }
            None => AbsVal::range(0, self.hi),
        }
    }
}

/// Every bit below bit `n` (`n <= 64`).
fn low_mask(n: u32) -> u64 {
    1u64.checked_shl(n).map_or(u64::MAX, |bit| bit - 1)
}

/// Smallest all-ones value `>= x` (the tight power-of-two envelope used to
/// bound `|`/`^` results: `a | b <= ones_envelope(a) | ones_envelope(b)`).
fn ones_envelope(x: u64) -> u64 {
    if x == 0 {
        0
    } else {
        u64::MAX >> x.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold_exactly() {
        let a = AbsVal::constant(7);
        let b = AbsVal::constant(5);
        assert_eq!(a.add(b).as_const(), Some(12));
        assert_eq!(a.sub(b).as_const(), Some(2));
        assert_eq!(b.sub(a).as_const(), Some(5u64.wrapping_sub(7)));
        assert_eq!(a.mul(b).as_const(), Some(35));
        assert_eq!(a.and(b).as_const(), Some(5));
        assert_eq!(a.or(b).as_const(), Some(7));
        assert_eq!(a.xor(b).as_const(), Some(2));
        assert_eq!(a.divu(b).as_const(), Some(1));
        assert_eq!(a.shl(AbsVal::constant(2)).as_const(), Some(28));
        assert_eq!(a.shr(AbsVal::constant(1)).as_const(), Some(3));
    }

    #[test]
    fn join_of_constants_is_their_interval() {
        let j = AbsVal::constant(8).join(AbsVal::constant(16));
        assert_eq!((j.lo, j.hi), (8, 16));
        assert!(j.contains(8) && j.contains(16));
        // Bits: 8 = 0b01000, 16 = 0b10000 share no ones; low 3 bits zero.
        assert_eq!(j.ones, 0);
        assert_eq!(j.zeros & 7, 7);
    }

    #[test]
    fn align_down_rounds_the_interval() {
        // [0, 23] masked with !7 — possible values {0, 8, 16}: the old
        // MaskedAligned fact, recovered by normalize's alignment rounding.
        let masked = AbsVal::range(0, 23).and(AbsVal::constant(!7));
        assert_eq!(masked.hi, 16);
        assert_eq!(masked.lo, 0);
        assert!(masked.contains(8));
        assert!(!masked.contains(9));
    }

    #[test]
    fn widen_hits_segment_thresholds() {
        let dl = 100u64;
        let thresholds = [dl - 1, dl, u64::MAX];
        // First the bits view clamps to the power-of-two envelope…
        let w = AbsVal::range(0, 40).widen(AbsVal::range(0, 41), &thresholds);
        assert_eq!((w.lo, w.hi), (0, 63));
        // …then growth past the envelope lands on the segment threshold…
        let w2 = w.widen(AbsVal::range(0, 64), &thresholds);
        assert_eq!((w2.lo, w2.hi), (0, dl - 1));
        // …which is stable.
        let w3 = w2.widen(AbsVal::range(0, 99), &thresholds);
        assert_eq!(w3, w2);
    }

    #[test]
    fn overflowing_ops_go_to_top() {
        let big = AbsVal::range(1, u64::MAX);
        assert_eq!(big.add(AbsVal::range(0, 1)), AbsVal::TOP);
        assert_eq!(big.mul(AbsVal::range(0, 2)), AbsVal::TOP);
        assert_eq!(AbsVal::range(0, 5).sub(AbsVal::range(0, 1)), AbsVal::TOP);
    }

    #[test]
    fn soundness_fuzz_binops() {
        // Abstract results must contain every concrete result of member
        // pairs — across all binops, for a spread of generated intervals.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..2000 {
            let a1 = next() % 257;
            let a2 = next() % 257;
            let b1 = next() % 257;
            let b2 = next() % 257;
            let av = AbsVal::constant(a1).join(AbsVal::constant(a2));
            let bv = AbsVal::constant(b1).join(AbsVal::constant(b2));
            for (ca, cb) in [(a1, b1), (a1, b2), (a2, b1), (a2, b2)] {
                assert!(av.add(bv).contains(ca.wrapping_add(cb)), "add {ca} {cb}");
                assert!(av.sub(bv).contains(ca.wrapping_sub(cb)), "sub {ca} {cb}");
                assert!(av.mul(bv).contains(ca.wrapping_mul(cb)), "mul {ca} {cb}");
                assert!(av.and(bv).contains(ca & cb), "and {ca} {cb}");
                assert!(av.or(bv).contains(ca | cb), "or {ca} {cb}");
                assert!(av.xor(bv).contains(ca ^ cb), "xor {ca} {cb}");
                assert!(av.shl(bv).contains(ca << (cb & 63)), "shl {ca} {cb}");
                assert!(av.shr(bv).contains(ca >> (cb & 63)), "shr {ca} {cb}");
                if let Some(q) = ca.checked_div(cb) {
                    assert!(av.divu(bv).contains(q), "divu {ca} {cb}");
                }
            }
        }
    }

    #[test]
    fn join_and_widen_are_upper_bounds() {
        let a = AbsVal::range(8, 16);
        let b = AbsVal::range(32, 40);
        let j = a.join(b);
        for v in [8, 16, 32, 40] {
            assert!(j.contains(v));
        }
        let w = a.widen(b, &[63, u64::MAX]);
        for v in [8, 16, 32, 40] {
            assert!(w.contains(v));
        }
    }
}
