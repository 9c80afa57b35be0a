//! A write-only console device (the kernel log).

use crate::{cost::Cycles, irq::IrqController, MachineError, MachineResult};

use super::Device;

/// Register offsets.
pub mod regs {
    /// W: write one byte (low 8 bits).
    pub const PUTC: u64 = 0x0;
    /// R: total bytes written.
    pub const COUNT: u64 = 0x4;
}

/// A console that accumulates output host-side.
#[derive(Default)]
pub struct Console {
    buf: Vec<u8>,
}

impl Console {
    /// Creates an empty console.
    pub fn new() -> Self {
        Console::default()
    }

    /// Host-side: everything written so far, lossily decoded.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.buf).into_owned()
    }

    /// Host-side: clears the buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Device for Console {
    fn name(&self) -> &str {
        "console"
    }

    fn read_reg(&mut self, offset: u64) -> MachineResult<u32> {
        match offset {
            regs::COUNT => Ok(self.buf.len() as u32),
            _ => Err(MachineError::BadRegister("console", offset)),
        }
    }

    fn write_reg(&mut self, offset: u64, value: u32) -> MachineResult<()> {
        match offset {
            regs::PUTC => {
                self.buf.push(value as u8);
                Ok(())
            }
            _ => Err(MachineError::BadRegister("console", offset)),
        }
    }

    fn tick(&mut self, _now: Cycles, _irq: &mut IrqController) {}

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_accumulate() {
        let mut c = Console::new();
        for b in b"boot: ok\n" {
            c.write_reg(regs::PUTC, u32::from(*b)).unwrap();
        }
        assert_eq!(c.contents(), "boot: ok\n");
        assert_eq!(c.read_reg(regs::COUNT).unwrap(), 9);
        c.clear();
        assert_eq!(c.contents(), "");
    }

    #[test]
    fn bad_registers_rejected() {
        let mut c = Console::new();
        assert!(c.read_reg(regs::PUTC).is_err());
        assert!(c.write_reg(0x40, 0).is_err());
    }
}
