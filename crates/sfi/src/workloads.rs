//! Parameterised benchmark components.
//!
//! These are the "downloadable components" of the experiments: protocol
//! processing kernels of the sort the paper's motivating applications
//! (fast protocol processing in a shared driver, parallel computation)
//! would push into the kernel protection domain. Each generator comes in a
//! plain variant (only certifiable) and, where meaningful, a *verified*
//! variant written in the idiom the load-time verifier can prove safe —
//! standing in for the output of a type-safe compiler.

use crate::{
    asm::Asm,
    bytecode::{Program, Reg},
};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// A byte-wise checksum over a `data_len`-byte buffer, repeated
/// `iterations` times. Raw pointer arithmetic: not verifiable, the
/// certification / SFI candidate. Result: the checksum in `r0`.
pub fn checksum_loop(data_len: u32, iterations: u32) -> Program {
    assert!(data_len > 0);
    let mut a = Asm::new(data_len);
    // r0 = acc, r1 = ptr, r2 = limit, r3 = outer counter, r4 = outer limit.
    a.li(r(0), 0);
    a.li(r(3), 0);
    a.li(r(4), i64::from(iterations));
    a.label("outer");
    a.li(r(1), 0);
    a.li(r(2), i64::from(data_len));
    a.label("inner");
    a.ldb(r(5), r(1), 0);
    a.add(r(0), r(0), r(5));
    a.addi(r(1), r(1), 1);
    a.bltu(r(1), r(2), "inner");
    a.addi(r(3), r(3), 1);
    a.bltu(r(3), r(4), "outer");
    a.halt();
    a.finish().expect("static labels")
}

/// The same checksum written in the verified-compiler idiom: every load
/// address is re-masked into the segment, so the load-time verifier
/// accepts it. `data_len` must be a power of two ≥ 8 (compilers pad).
pub fn checksum_loop_verified(data_len: u32, iterations: u32) -> Program {
    assert!(data_len >= 8 && data_len.is_power_of_two());
    let mut a = Asm::new(data_len);
    a.li(r(0), 0);
    a.li(r(3), 0);
    a.li(r(4), i64::from(iterations));
    a.label("outer");
    a.li(r(1), 0);
    a.li(r(2), i64::from(data_len));
    a.label("inner");
    // The compiler-emitted guard: confine, then access.
    a.mov(r(6), r(1));
    a.mask_data(r(6));
    a.ldb(r(5), r(6), 0);
    a.add(r(0), r(0), r(5));
    a.addi(r(1), r(1), 1);
    a.bltu(r(1), r(2), "inner");
    a.addi(r(3), r(3), 1);
    a.bltu(r(3), r(4), "outer");
    a.halt();
    a.finish().expect("static labels")
}

/// A word-wise checksum in the verified idiom (mask + align-down), showing
/// the verifier's cheaper whole-word guard. `data_len` must be a power of
/// two ≥ 8.
pub fn checksum_words_verified(data_len: u32, iterations: u32) -> Program {
    assert!(data_len >= 8 && data_len.is_power_of_two());
    let mut a = Asm::new(data_len);
    a.li(r(0), 0);
    a.li(r(3), 0);
    a.li(r(4), i64::from(iterations));
    a.li(r(7), !7i64); // Alignment mask, hoisted out of the loop.
    a.label("outer");
    a.li(r(1), 0);
    a.li(r(2), i64::from(data_len));
    a.label("inner");
    a.mov(r(6), r(1));
    a.mask_data(r(6));
    a.and(r(6), r(6), r(7));
    a.ld(r(5), r(6), 0);
    a.add(r(0), r(0), r(5));
    a.addi(r(1), r(1), 8);
    a.bltu(r(1), r(2), "inner");
    a.addi(r(3), r(3), 1);
    a.bltu(r(3), r(4), "outer");
    a.halt();
    a.finish().expect("static labels")
}

/// A pure-ALU loop (no memory traffic): SFI adds nothing, the verifier
/// accepts it trivially. `iterations` outer rounds of 4 ALU ops.
pub fn alu_loop(iterations: u32) -> Program {
    let mut a = Asm::new(0);
    a.li(r(0), 1);
    a.li(r(1), 0);
    a.li(r(2), i64::from(iterations));
    a.li(r(5), 3);
    a.label("loop");
    a.mul(r(0), r(0), r(5));
    a.xor(r(0), r(0), r(1));
    a.addi(r(1), r(1), 1);
    a.bltu(r(1), r(2), "loop");
    a.halt();
    a.finish().expect("static labels")
}

/// A store-heavy table initialisation: writes every byte of the segment
/// `iterations` times. Maximum SFI overhead density.
pub fn table_fill(data_len: u32, iterations: u32) -> Program {
    assert!(data_len > 0);
    let mut a = Asm::new(data_len);
    a.li(r(3), 0);
    a.li(r(4), i64::from(iterations));
    a.label("outer");
    a.li(r(1), 0);
    a.li(r(2), i64::from(data_len));
    a.label("inner");
    a.stb(r(1), r(1), 0);
    a.addi(r(1), r(1), 1);
    a.bltu(r(1), r(2), "inner");
    a.addi(r(3), r(3), 1);
    a.bltu(r(3), r(4), "outer");
    a.mov(r(0), r(3));
    a.halt();
    a.finish().expect("static labels")
}

/// A protocol-header parser in the verified idiom: loads a length word
/// from a fixed offset, clamps it with an `and`, sums that many payload
/// bytes through a clamped index, and stores the result word at the tail
/// of the segment. Exercises constant-address and bounded-base-plus-offset
/// accesses — idioms only the interval analysis can prove. The 256-byte
/// layout: `[len:8][payload:240][result:8]`.
pub(crate) fn header_parse_verified() -> Program {
    let mut a = Asm::new(256);
    a.li(r(9), 0);
    a.ld(r(1), r(9), 0); // Length word at offset 0: constant address.
    a.li(r(2), 127);
    a.and(r(1), r(1), r(2)); // Clamp the attacker-controlled length.
    a.li(r(3), 0); // Index.
    a.li(r(0), 0); // Accumulator.
    a.label("loop");
    a.beq(r(3), r(1), "done");
    a.mov(r(6), r(3));
    a.and(r(6), r(6), r(2)); // Bound the index: r6 in [0, 127].
    a.addi(r(6), r(6), 8); // Payload base: [8, 135] within 256.
    a.ldb(r(5), r(6), 0);
    a.add(r(0), r(0), r(5));
    a.addi(r(3), r(3), 1);
    a.jmp("loop");
    a.label("done");
    a.li(r(9), 248);
    a.st(r(0), r(9), 0); // Result word at the tail: constant address.
    a.halt();
    a.finish().expect("static labels")
}

/// A Bloom-filter insert loop in the verified idiom: one multiplicative
/// hash per element, eight probe bytes (k = 8) extracted by shifting,
/// each probe masked into the 256-byte filter and written. This is the
/// guard-dense extreme of the SFI spectrum — eight mask-plus-store pairs
/// per hash, so nearly half the dynamic instructions are run-time checks
/// the analysis can discharge. The `mov/mask_data/stb` triple is exactly
/// the guard idiom the lowering fuses into a single op.
pub fn bloom_insert_verified(iterations: u32) -> Program {
    let mut a = Asm::new(256);
    a.li(r(2), 0x9E37_79B9_7F4A_7C15u64 as i64); // Hash state.
    a.li(r(5), 6364136223846793005u64 as i64); // Multiplier (MMIX LCG).
    a.li(r(7), 1442695040888963407u64 as i64); // Increment.
    a.li(r(9), 8); // Probe shift.
    a.li(r(10), 1); // Probe value.
    a.li(r(4), 0); // Element counter.
    a.li(r(3), i64::from(iterations));
    a.label("loop");
    a.mul(r(2), r(2), r(5)); // Next hash.
    a.add(r(2), r(2), r(7));
    a.mov(r(6), r(2)); // Probe 0: low byte.
    a.mask_data(r(6));
    a.stb(r(10), r(6), 0);
    a.shr(r(8), r(2), r(9)); // Probes 1..=7: each further byte.
    a.mov(r(6), r(8));
    a.mask_data(r(6));
    a.stb(r(10), r(6), 0);
    for _ in 2..8 {
        a.shr(r(8), r(8), r(9));
        a.mov(r(6), r(8));
        a.mask_data(r(6));
        a.stb(r(10), r(6), 0);
    }
    a.addi(r(4), r(4), 1);
    a.bltu(r(4), r(3), "loop");
    a.mov(r(0), r(4));
    a.halt();
    a.finish().expect("static labels")
}

/// The benign workload suite: every program a well-behaved "trusted
/// compiler" would emit — each one verifies and runs without trapping.
/// The `b12_sfi` bench runs it through both interpreters.
pub fn benign_suite() -> Vec<(&'static str, Program)> {
    vec![
        ("checksum_bytes", checksum_loop_verified(64, 2)),
        ("checksum_words", checksum_words_verified(64, 2)),
        ("alu", alu_loop(16)),
        ("header_parse", header_parse_verified()),
        ("bloom_insert", bloom_insert_verified(128)),
    ]
}

/// A malicious component: writes outside its segment (simulates packet
/// snooping / kernel-memory scribbling). Used by security tests: SFI must
/// contain it, the verifier must reject it, and an honest certifier must
/// refuse to sign it.
pub fn wild_writer() -> Program {
    let mut a = Asm::new(16);
    a.li(r(1), 0x7FFF_0000);
    a.li(r(2), 0x41);
    a.stb(r(2), r(1), 0);
    a.li(r(0), 1);
    a.halt();
    a.finish().expect("static labels")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interp::Interp, sandbox::sandbox_rewrite, verifier::verify};

    #[test]
    fn checksum_variants_agree() {
        let data: Vec<u8> = (0..64u8).collect();
        let expected: u64 = data.iter().map(|&b| u64::from(b)).sum();

        let mut plain = Interp::new(&checksum_loop(64, 1));
        plain.load_data(0, &data);
        assert_eq!(plain.run(1_000_000).unwrap().result, expected);

        let mut verified = Interp::new(&checksum_loop_verified(64, 1));
        verified.load_data(0, &data);
        assert_eq!(verified.run(1_000_000).unwrap().result, expected);

        let (sandboxed, _) = sandbox_rewrite(&checksum_loop(64, 1));
        let mut sb = Interp::new(&sandboxed);
        sb.load_data(0, &data);
        assert_eq!(sb.run(1_000_000).unwrap().result, expected);
    }

    #[test]
    fn word_checksum_matches_byte_checksum_on_word_sums() {
        let data = [1u8; 64];
        let mut w = Interp::new(&checksum_words_verified(64, 1));
        w.load_data(0, &data);
        // Eight words, each 0x0101010101010101.
        assert_eq!(
            w.run(1_000_000).unwrap().result,
            0x0101010101010101u64.wrapping_mul(8)
        );
    }

    #[test]
    fn verified_variants_verify_and_plain_do_not() {
        assert!(verify(&checksum_loop_verified(64, 1)).is_ok());
        assert!(verify(&checksum_words_verified(64, 1)).is_ok());
        assert!(verify(&alu_loop(5)).is_ok());
        assert!(verify(&checksum_loop(64, 1)).is_err());
        assert!(verify(&table_fill(64, 1)).is_err());
        assert!(verify(&wild_writer()).is_err());
    }

    #[test]
    fn header_parse_sums_declared_payload() {
        let p = header_parse_verified();
        verify(&p).expect("header parser must verify");
        let mut i = Interp::new(&p);
        // len = 4; payload bytes 10, 20, 30, 40 at offset 8.
        i.load_data(0, &4u64.to_le_bytes());
        i.load_data(8, &[10, 20, 30, 40]);
        let out = i.run(1 << 16).unwrap();
        assert_eq!(out.result, 100);
        // Result word stored at the tail.
        assert_eq!(i.data()[248..256], 100u64.to_le_bytes());
    }

    #[test]
    fn bloom_insert_verifies_and_populates_the_filter() {
        let p = bloom_insert_verified(64);
        verify(&p).expect("bloom insert must verify");
        let mut i = Interp::new(&p);
        let out = i.run(1 << 20).unwrap();
        assert_eq!(out.result, 64);
        // Eight guard instructions per element, all counted.
        assert_eq!(out.guard_steps, 8 * 64);
        // 512 probes over 256 slots: the filter must be meaningfully
        // populated (the LCG scatters, it does not hammer one slot).
        let set = i.data().iter().filter(|&&b| b == 1).count();
        assert!(set > 64, "filter barely populated: {set} slots");
    }

    #[test]
    fn header_parse_contains_hostile_length() {
        // A length word far beyond the payload is clamped, not trusted.
        let p = header_parse_verified();
        let mut i = Interp::new(&p);
        i.load_data(0, &u64::MAX.to_le_bytes());
        assert!(i.run(1 << 16).is_ok());
    }

    #[test]
    fn benign_suite_verifies_and_runs() {
        for (name, p) in benign_suite() {
            verify(&p).unwrap_or_else(|e| panic!("{name} failed to verify: {e}"));
            let mut i = Interp::new(&p);
            i.run(1 << 22)
                .unwrap_or_else(|e| panic!("{name} trapped: {e}"));
        }
    }

    #[test]
    fn steps_scale_linearly_with_iterations() {
        let s1 = Interp::new(&alu_loop(10)).run(1 << 20).unwrap().steps;
        let s10 = Interp::new(&alu_loop(100)).run(1 << 20).unwrap().steps;
        // 4 instructions per iteration + constant setup.
        assert!(s10 > s1 * 9 && s10 < s1 * 11, "s1={s1} s10={s10}");
    }

    #[test]
    fn sfi_overhead_on_checksum_is_per_byte() {
        let p = checksum_loop(256, 4);
        let plain = Interp::new(&p);
        let mut plain = plain;
        let base = plain.run(1 << 22).unwrap();
        let (sb, _) = sandbox_rewrite(&p);
        let mut sandboxed = Interp::new(&sb);
        let guarded = sandboxed.run(1 << 22).unwrap();
        // One guard per byte load.
        assert_eq!(guarded.guard_steps, 256 * 4);
        assert_eq!(guarded.steps, base.steps + guarded.guard_steps);
    }

    #[test]
    fn verified_word_loop_beats_byte_loop() {
        // The verified compiler's word-wise guard does ~1/8 the loop
        // iterations: the middle ground between SFI and certified-native.
        let byte = Interp::new(&checksum_loop_verified(1024, 1))
            .run(1 << 22)
            .unwrap()
            .steps;
        let word = Interp::new(&checksum_words_verified(1024, 1))
            .run(1 << 22)
            .unwrap()
            .steps;
        assert!(word * 4 < byte, "word={word} byte={byte}");
    }

    #[test]
    fn wild_writer_faults_unprotected_and_is_contained_by_sfi() {
        assert!(Interp::new(&wild_writer()).run(100).is_err());
        let (sb, _) = sandbox_rewrite(&wild_writer());
        assert!(Interp::new(&sb).run(100).is_ok());
    }
}
