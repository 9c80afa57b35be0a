//! A periodic interval timer raising IRQ line [`TIMER_IRQ`].

use crate::{cost::Cycles, irq::IrqController, MachineError, MachineResult};

use super::Device;

/// IRQ line the timer raises.
pub const TIMER_IRQ: u32 = 0;

/// Register offsets.
pub mod regs {
    /// R/W: period in cycles (0 disables).
    pub const PERIOD: u64 = 0x0;
    /// R: number of times the timer has fired.
    pub const FIRE_COUNT: u64 = 0x4;
    /// R/W: 1 = running, 0 = stopped.
    pub const CTRL: u64 = 0x8;
}

/// A periodic interval timer.
pub struct Timer {
    period: Cycles,
    running: bool,
    next_fire: Cycles,
    fires: u64,
}

impl Default for Timer {
    fn default() -> Self {
        Self::new()
    }
}

impl Timer {
    /// Creates a stopped timer.
    pub fn new() -> Self {
        Timer {
            period: 0,
            running: false,
            next_fire: 0,
            fires: 0,
        }
    }
}

impl Device for Timer {
    fn name(&self) -> &str {
        "timer"
    }

    fn read_reg(&mut self, offset: u64) -> MachineResult<u32> {
        match offset {
            regs::PERIOD => Ok(self.period as u32),
            regs::FIRE_COUNT => Ok(self.fires as u32),
            regs::CTRL => Ok(u32::from(self.running)),
            _ => Err(MachineError::BadRegister("timer", offset)),
        }
    }

    fn write_reg(&mut self, offset: u64, value: u32) -> MachineResult<()> {
        match offset {
            regs::PERIOD => {
                self.period = Cycles::from(value);
                Ok(())
            }
            regs::CTRL => {
                let was = self.running;
                self.running = value & 1 == 1;
                if self.running && !was {
                    // (Re)arm relative to "now" on the next tick.
                    self.next_fire = 0;
                }
                Ok(())
            }
            _ => Err(MachineError::BadRegister("timer", offset)),
        }
    }

    fn tick(&mut self, now: Cycles, irq: &mut IrqController) {
        if !self.running || self.period == 0 {
            return;
        }
        if self.next_fire == 0 {
            self.next_fire = now + self.period;
            return;
        }
        while now >= self.next_fire {
            irq.raise(TIMER_IRQ);
            self.fires += 1;
            self.next_fire += self.period;
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_periodically_once_started() {
        let mut t = Timer::new();
        let mut irq = IrqController::new();
        t.write_reg(regs::PERIOD, 100).unwrap();
        t.write_reg(regs::CTRL, 1).unwrap();
        t.tick(0, &mut irq); // Arms at 100.
        t.tick(50, &mut irq);
        assert_eq!(irq.peek(), None);
        t.tick(100, &mut irq);
        assert_eq!(irq.acknowledge(), Some(TIMER_IRQ));
        t.tick(350, &mut irq); // Catches up: fires at 200 and 300.
        assert_eq!(t.fires, 3);
    }

    #[test]
    fn stopped_timer_is_silent() {
        let mut t = Timer::new();
        let mut irq = IrqController::new();
        t.write_reg(regs::PERIOD, 10).unwrap();
        t.tick(0, &mut irq);
        t.tick(1000, &mut irq);
        assert_eq!(irq.peek(), None);
        assert_eq!(t.fires, 0);
    }

    #[test]
    fn registers_readback() {
        let mut t = Timer::new();
        t.write_reg(regs::PERIOD, 42).unwrap();
        assert_eq!(t.read_reg(regs::PERIOD).unwrap(), 42);
        assert_eq!(t.read_reg(regs::CTRL).unwrap(), 0);
        t.write_reg(regs::CTRL, 1).unwrap();
        assert_eq!(t.read_reg(regs::CTRL).unwrap(), 1);
        assert!(t.read_reg(0x999).is_err());
        assert!(t.write_reg(regs::FIRE_COUNT, 0).is_err());
    }
}
