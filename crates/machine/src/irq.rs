//! The interrupt controller.
//!
//! Devices raise lines; the controller latches them, applies per-line masks
//! and a fixed priority (lower line number = higher priority), and hands the
//! highest-priority pending line to whoever acknowledges it (the nucleus's
//! event service).

/// Number of IRQ lines the controller supports.
pub const NUM_IRQ_LINES: u32 = 16;

/// A prioritised, maskable interrupt controller.
#[derive(Clone, Debug)]
pub struct IrqController {
    pending: u32,
    masked: u32,
    /// Count of raises per line (telemetry).
    raised: [u64; NUM_IRQ_LINES as usize],
    /// Raises that were latched while already pending (coalesced).
    coalesced: u64,
}

impl Default for IrqController {
    fn default() -> Self {
        Self::new()
    }
}

impl IrqController {
    /// Creates a controller with all lines unmasked and idle.
    pub fn new() -> Self {
        IrqController {
            pending: 0,
            masked: 0,
            raised: [0; NUM_IRQ_LINES as usize],
            coalesced: 0,
        }
    }

    /// A device raises `line`. Raising an already-pending line coalesces
    /// (as on real level-triggered controllers).
    pub fn raise(&mut self, line: u32) {
        assert!(line < NUM_IRQ_LINES, "IRQ line {line} out of range");
        let bit = 1u32 << line;
        if self.pending & bit != 0 {
            self.coalesced += 1;
        }
        self.pending |= bit;
        self.raised[line as usize] += 1;
    }

    /// Masks a line: it stays latched but is not delivered.
    pub fn mask(&mut self, line: u32) {
        assert!(line < NUM_IRQ_LINES);
        self.masked |= 1 << line;
    }

    /// Unmasks a line.
    pub fn unmask(&mut self, line: u32) {
        assert!(line < NUM_IRQ_LINES);
        self.masked &= !(1 << line);
    }

    /// The highest-priority (lowest-numbered) deliverable line, if any,
    /// without acknowledging it.
    pub fn peek(&self) -> Option<u32> {
        let deliverable = self.pending & !self.masked;
        if deliverable == 0 {
            None
        } else {
            Some(deliverable.trailing_zeros())
        }
    }

    /// Acknowledges and clears the highest-priority deliverable line.
    pub fn acknowledge(&mut self) -> Option<u32> {
        let line = self.peek()?;
        self.pending &= !(1 << line);
        Some(line)
    }

    /// True if any unmasked interrupt is pending.
    pub fn has_pending(&self) -> bool {
        self.peek().is_some()
    }

    /// Number of times `line` has been raised.
    pub fn raise_count(&self, line: u32) -> u64 {
        self.raised[line as usize]
    }

    /// Number of raises that coalesced into an already-pending line.
    pub fn coalesced_count(&self) -> u64 {
        self.coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_and_acknowledge() {
        let mut c = IrqController::new();
        assert_eq!(c.acknowledge(), None);
        c.raise(3);
        assert!(c.has_pending());
        assert_eq!(c.acknowledge(), Some(3));
        assert!(!c.has_pending());
    }

    #[test]
    fn priority_is_lowest_line_first() {
        let mut c = IrqController::new();
        c.raise(5);
        c.raise(1);
        c.raise(9);
        assert_eq!(c.acknowledge(), Some(1));
        assert_eq!(c.acknowledge(), Some(5));
        assert_eq!(c.acknowledge(), Some(9));
        assert_eq!(c.acknowledge(), None);
    }

    #[test]
    fn masking_defers_delivery() {
        let mut c = IrqController::new();
        c.mask(2);
        c.raise(2);
        assert!(!c.has_pending());
        assert_eq!(c.peek(), None);
        c.unmask(2);
        assert_eq!(c.acknowledge(), Some(2));
    }

    #[test]
    fn coalescing_counts() {
        let mut c = IrqController::new();
        c.raise(4);
        c.raise(4);
        c.raise(4);
        assert_eq!(c.raise_count(4), 3);
        assert_eq!(c.coalesced_count(), 2);
        // Only one delivery results.
        assert_eq!(c.acknowledge(), Some(4));
        assert_eq!(c.acknowledge(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_line_panics() {
        IrqController::new().raise(NUM_IRQ_LINES);
    }
}
