//! A tiny assembler with labels.
//!
//! Branch targets in [`Insn`] are absolute instruction indices; the
//! assembler lets programs be written with symbolic labels that are patched
//! at `finish` time.

use std::collections::HashMap;

use crate::bytecode::{Insn, Program, Reg};

/// A forward-referencing assembler.
///
/// # Examples
///
/// ```
/// use paramecium_sfi::{Asm, Reg};
///
/// // r0 = sum of 0..10
/// let mut a = Asm::new(0);
/// let (r0, r1, r2) = (Reg::new(0), Reg::new(1), Reg::new(2));
/// a.li(r0, 0).li(r1, 0).li(r2, 10);
/// a.label("loop");
/// a.add(r0, r0, r1);
/// a.addi(r1, r1, 1);
/// a.bltu(r1, r2, "loop");
/// a.halt();
/// let prog = a.finish().unwrap();
/// let out = paramecium_sfi::Interp::new(&prog).run(10_000).unwrap();
/// assert_eq!(out.result, 45);
/// ```
pub struct Asm {
    code: Vec<Insn>,
    labels: HashMap<String, u32>,
    /// (instruction index, label) pairs awaiting patching.
    fixups: Vec<(usize, String)>,
    data_len: u32,
    /// Scratch register reserved for `addi`/`subi` immediates.
    scratch: Reg,
}

impl Asm {
    /// Starts assembling a program with a data segment of `data_len` bytes.
    pub fn new(data_len: u32) -> Self {
        Asm {
            code: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            data_len,
            scratch: Reg::new(15),
        }
    }

    /// Current instruction index.
    pub fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let prev = self.labels.insert(name.to_owned(), self.here());
        assert!(prev.is_none(), "duplicate label `{name}`");
        self
    }

    /// Emits a raw instruction.
    pub fn raw(&mut self, insn: Insn) -> &mut Self {
        self.code.push(insn);
        self
    }

    /// `rd <- imm`
    pub fn li(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.raw(Insn::Li { rd, imm })
    }

    /// `rd <- rs`
    pub fn mov(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.raw(Insn::Mov { rd, rs })
    }

    /// `rd <- rs1 + rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.raw(Insn::Add { rd, rs1, rs2 })
    }

    /// `rd <- rs + imm` (uses the scratch register r15).
    pub fn addi(&mut self, rd: Reg, rs: Reg, imm: i64) -> &mut Self {
        let scratch = self.scratch;
        self.li(scratch, imm).add(rd, rs, scratch)
    }

    /// `rd <- rs1 - rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.raw(Insn::Sub { rd, rs1, rs2 })
    }

    /// `rd <- rs1 * rs2`
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.raw(Insn::Mul { rd, rs1, rs2 })
    }

    /// `rd <- rs1 & rs2`
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.raw(Insn::And { rd, rs1, rs2 })
    }

    /// `rd <- rs1 ^ rs2`
    pub(crate) fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.raw(Insn::Xor { rd, rs1, rs2 })
    }

    /// `rd <- rs1 >> (rs2 & 63)` (logical)
    pub(crate) fn shr(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.raw(Insn::Shr { rd, rs1, rs2 })
    }

    /// `rd <- mem64[base + off]`
    pub fn ld(&mut self, rd: Reg, base: Reg, off: i32) -> &mut Self {
        self.raw(Insn::Ld { rd, base, off })
    }

    /// `rd <- mem8[base + off]`
    pub fn ldb(&mut self, rd: Reg, base: Reg, off: i32) -> &mut Self {
        self.raw(Insn::LdB { rd, base, off })
    }

    /// `mem64[base + off] <- rs`
    pub fn st(&mut self, rs: Reg, base: Reg, off: i32) -> &mut Self {
        self.raw(Insn::St { rs, base, off })
    }

    /// `mem8[base + off] <- rs`
    pub fn stb(&mut self, rs: Reg, base: Reg, off: i32) -> &mut Self {
        self.raw(Insn::StB { rs, base, off })
    }

    fn branch(&mut self, insn: Insn, label: &str) -> &mut Self {
        self.fixups.push((self.code.len(), label.to_owned()));
        self.code.push(insn);
        self
    }

    /// Branch if equal.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(
            Insn::Beq {
                rs1,
                rs2,
                target: u32::MAX,
            },
            label,
        )
    }

    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(
            Insn::Bne {
                rs1,
                rs2,
                target: u32::MAX,
            },
            label,
        )
    }

    /// Branch if less-than (unsigned).
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, label: &str) -> &mut Self {
        self.branch(
            Insn::Bltu {
                rs1,
                rs2,
                target: u32::MAX,
            },
            label,
        )
    }

    /// Unconditional jump.
    pub(crate) fn jmp(&mut self, label: &str) -> &mut Self {
        self.branch(Insn::Jmp { target: u32::MAX }, label)
    }

    /// Indirect jump.
    pub fn jr(&mut self, rs: Reg) -> &mut Self {
        self.raw(Insn::Jr { rs })
    }

    /// Explicit data mask (cooperative sandboxing).
    pub fn mask_data(&mut self, r: Reg) -> &mut Self {
        self.raw(Insn::MaskData { r })
    }

    /// Halt.
    pub fn halt(&mut self) -> &mut Self {
        self.raw(Insn::Halt)
    }

    /// Resolves labels and produces the program.
    pub fn finish(mut self) -> Result<Program, String> {
        for (idx, label) in &self.fixups {
            let target = *self
                .labels
                .get(label)
                .ok_or_else(|| format!("undefined label `{label}`"))?;
            match &mut self.code[*idx] {
                Insn::Beq { target: t, .. }
                | Insn::Bne { target: t, .. }
                | Insn::Bltu { target: t, .. }
                | Insn::Jmp { target: t } => *t = target,
                other => return Err(format!("fixup on non-branch {other:?}")),
            }
        }
        Ok(Program::new(self.code, self.data_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Asm::new(0);
        let r0 = Reg::new(0);
        a.li(r0, 1);
        a.jmp("end"); // Forward reference.
        a.label("unreached");
        a.li(r0, 99);
        a.label("end");
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(p.code[1], Insn::Jmp { target: 3 });
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Asm::new(0);
        a.jmp("nowhere");
        assert!(a.finish().is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut a = Asm::new(0);
        a.label("x");
        a.label("x");
    }

    #[test]
    fn addi_uses_scratch() {
        let mut a = Asm::new(0);
        let r0 = Reg::new(0);
        a.li(r0, 5).addi(r0, r0, 3).halt();
        let p = a.finish().unwrap();
        assert_eq!(p.len(), 4); // li, li(scratch), add, halt.
    }
}
