//! The integrity sum: the one 64-bit digest the workspace folds over
//! bytes it must later recognise — the journal's record checksums, the
//! TCP endpoint's replay fingerprint, the chaos audit log.
//!
//! It is not cryptographic; its job is to notice corruption and to tell
//! two runs apart, on every frame and every log sector, so it must cost
//! next to nothing per byte. [`fold`] therefore reads its input eight
//! bytes at a time and keeps four independent running lanes over each
//! 32-byte block, so the multiplies of one block overlap instead of
//! queueing behind each other.
//!
//! Every step is `h = (h ^ word) * odd; h ^= h >> 32` — a bijection in
//! `h` for a fixed word and in the word for a fixed `h`. The lanes are
//! folded together, the leftover words, the zero-padded last bytes and
//! the length are absorbed by the same step, and only lane 0 starts
//! from the caller's state. Two consequences callers rely on:
//!
//! - corruption confined to one aligned 8-byte word of the input always
//!   changes the sum (as byte-serial FNV-1a guaranteed per byte), and so
//!   does appending or dropping trailing zero bytes;
//! - `fold(·, bytes)` is a bijection of the running state, so when a
//!   digest is streamed chunk by chunk a difference that has entered the
//!   state is never cancelled by the chunks that follow.
//!
//! A streamed digest is a function of the *chunk sequence*, not of the
//! concatenation: `fold(fold(h, a), b)` and `fold(h, ab)` differ.

/// Odd multipliers, one per lane, so equal words in different lanes
/// leave different traces.
const MUL: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];

/// Lane starting values: nonzero, so an all-zero input under state 0
/// does not sum to zero (a zeroed sector must not validate as sealed).
const SEED: [u64; 4] = [
    0x2434_6A89_885A_308D,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

#[inline(always)]
fn step(h: u64, word: u64, mul: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(mul);
    h ^ (h >> 32)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte word"))
}

/// Folds `bytes` into the running state `h` (0 starts a fresh sum).
pub fn fold(h: u64, bytes: &[u8]) -> u64 {
    let mut lanes = [h ^ SEED[0], SEED[1], SEED[2], SEED[3]];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, word(&block[8 * i..]), MUL[i]);
        }
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = step(h, lane, MUL[0]);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = step(h, word(w), MUL[0]);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = step(h, u64::from_le_bytes(last), MUL[0]);
    }
    step(h, bytes.len() as u64, MUL[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64 * 0x9E37_79B9) >> 13) as u8)
            .collect()
    }

    /// Every single-bit flip of `data` changes the sum.
    fn assert_every_bit_matters(h: u64, data: &[u8]) {
        let clean = fold(h, data);
        let mut dirty = data.to_vec();
        for bit in 0..data.len() * 8 {
            dirty[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fold(h, &dirty), clean, "len {} bit {bit}", data.len());
            dirty[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn known_answers_are_pinned() {
        // The journal stores these sums on disk: a change here is a
        // record-format change and needs new magics.
        assert_eq!(fold(0, b""), 0x5EF8_179E_3DBA_032F);
        assert_eq!(fold(0, b"paramecium"), 0x902C_30EE_0782_3FDC);
        assert_eq!(fold(0, &pattern(1000)), 0x557E_C7AC_4A6D_E669);
    }

    #[test]
    fn every_bit_matters_at_every_position() {
        // Block-only, tail words, a ragged end, a sealed-sector body and
        // an MSS payload: each code path, every position.
        for len in [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 100, 504, 1000, 1100] {
            assert_every_bit_matters(0, &pattern(len));
            assert_every_bit_matters(0xDEAD_BEEF, &vec![0u8; len]);
        }
    }

    #[test]
    fn length_is_folded() {
        for len in 0..=130 {
            let mut data = vec![0u8; len];
            let short = fold(0, &data);
            data.push(0);
            assert_ne!(fold(0, &data), short, "zeros, len {len}");
            let mut data = pattern(len);
            let short = fold(0, &data);
            data.push(0);
            assert_ne!(fold(0, &data), short, "pattern, len {len}");
        }
    }

    #[test]
    fn word_order_matters_within_and_across_lanes() {
        let data = pattern(128);
        let clean = fold(0, &data);
        let swap = |a: usize, b: usize| {
            let mut d = data.clone();
            for k in 0..8 {
                d.swap(a * 8 + k, b * 8 + k);
            }
            fold(0, &d)
        };
        // Words 0 and 4 share lane 0; 0 and 1 sit in lanes 0 and 1 of
        // one block; 1 and 6 in different lanes of different blocks.
        for (a, b) in [(0, 4), (5, 13), (0, 1), (2, 3), (1, 6), (7, 8)] {
            assert_ne!(swap(a, b), clean, "words {a} and {b}");
        }
    }

    #[test]
    fn an_all_zero_sector_does_not_validate() {
        // A sealed record is 504 body bytes followed by their sum.
        assert_ne!(fold(0, &[0u8; 504]), 0);
        assert_ne!(fold(0, &[0u8; 512]), 0);
    }

    #[test]
    fn streaming_is_a_function_of_the_chunk_sequence() {
        let data = pattern(4 * 512);
        let stream = |h: u64| data.chunks(512).fold(h, fold);
        assert_eq!(stream(0), stream(0));
        assert_ne!(stream(0), stream(1));
        // The same chunks in another order, or cut elsewhere, are
        // another sequence.
        let reversed = data.chunks(512).rev().fold(0, fold);
        assert_ne!(reversed, stream(0));
        assert_ne!(fold(0, &data), stream(0));
        // One flipped bit in the first chunk survives the three after it.
        let mut dirty = data.clone();
        dirty[3] ^= 0x10;
        assert_ne!(dirty.chunks(512).fold(0, fold), stream(0));
    }

    proptest! {
        #[test]
        fn prop_any_single_bit_flip_changes_the_sum(
            data in proptest::collection::vec(any::<u8>(), 1..1101),
            h in any::<u64>(),
            at in any::<usize>(),
        ) {
            let bit = at % (data.len() * 8);
            let mut dirty = data.clone();
            dirty[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(fold(h, &dirty), fold(h, &data));
        }

        #[test]
        fn prop_running_state_is_never_cancelled(
            data in proptest::collection::vec(any::<u8>(), 0..1101),
            h in any::<u64>(),
            delta in 1u64..,
        ) {
            prop_assert_ne!(fold(h ^ delta, &data), fold(h, &data));
        }
    }
}
