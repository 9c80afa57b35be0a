//! A simulated network interface controller.
//!
//! The NIC is the paper's motivating shared device: "inserting application
//! components for fast protocol processing into a shared network device
//! driver" (section 1). Frames are *injected* host-side (standing in for
//! the wire), land in a bounded RX ring, and raise IRQ line [`NIC_IRQ`].
//! Transmitted frames are captured in a TX log that tests and workload
//! harnesses can drain.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::{cost::Cycles, irq::IrqController, MachineError, MachineResult};

use super::Device;

/// IRQ line the NIC raises on frame reception.
pub const NIC_IRQ: u32 = 1;

/// Maximum frame size the NIC accepts (Ethernet MTU + header slack).
pub const MAX_FRAME: usize = 1536;

/// RX ring capacity in frames; the wire drops beyond this.
pub const RX_RING: usize = 64;

/// Register offsets.
pub mod regs {
    /// R: frames currently waiting in the RX ring.
    pub const RX_AVAIL: u64 = 0x0;
    /// R: length of the frame at the head of the RX ring (0 if empty).
    pub const RX_HEAD_LEN: u64 = 0x4;
    /// R: total frames received (including dropped).
    pub const RX_TOTAL: u64 = 0x8;
    /// R: frames dropped because the ring was full.
    pub const RX_DROPPED: u64 = 0xC;
    /// R: frames transmitted.
    pub const TX_TOTAL: u64 = 0x10;
    /// R/W: interrupt enable (1 = raise IRQ on receive).
    pub const IRQ_ENABLE: u64 = 0x14;
}

/// A simulated NIC.
pub struct Nic {
    name: String,
    rx: VecDeque<Bytes>,
    tx_log: VecDeque<Bytes>,
    rx_total: u64,
    rx_dropped: u64,
    tx_total: u64,
    irq_enable: bool,
    /// Set when a frame arrived since the last tick, so the interrupt is
    /// raised from `tick` (device time), not from the host injector.
    rx_event: bool,
    /// Carrier state. A downed link blackholes both directions — the
    /// cable-pulled fault chaos drills inject; dropped frames count.
    link_up: bool,
    tx_dropped: u64,
}

impl Default for Nic {
    fn default() -> Self {
        Self::new()
    }
}

impl Nic {
    /// Creates the machine's primary NIC (device name `"nic"`) with
    /// interrupts enabled.
    pub fn new() -> Self {
        Self::named("nic")
    }

    /// Creates an additional NIC under its own device name, so a machine
    /// can model a multi-homed host (e.g. a router spanning two wires).
    pub fn named(name: impl Into<String>) -> Self {
        Nic {
            name: name.into(),
            rx: VecDeque::new(),
            tx_log: VecDeque::new(),
            rx_total: 0,
            rx_dropped: 0,
            tx_total: 0,
            irq_enable: true,
            rx_event: false,
            link_up: true,
            tx_dropped: 0,
        }
    }

    /// Raises or drops the carrier. While down, transmitted and injected
    /// frames are silently blackholed (counted in the drop stats), exactly
    /// like a pulled cable: the driver sees no error, the wire sees no
    /// frame.
    pub fn set_link_up(&mut self, up: bool) {
        self.link_up = up;
    }

    /// Current carrier state.
    pub fn link_up(&self) -> bool {
        self.link_up
    }

    /// Frames blackholed on transmit while the link was down.
    pub fn tx_dropped(&self) -> u64 {
        self.tx_dropped
    }

    /// Host-side: a frame arrives from the wire.
    ///
    /// Returns `false` if the ring was full and the frame was dropped.
    pub fn inject_rx(&mut self, frame: impl Into<Bytes>) -> bool {
        let frame = frame.into();
        self.rx_total += 1;
        if !self.link_up || frame.len() > MAX_FRAME || self.rx.len() >= RX_RING {
            self.rx_dropped += 1;
            return false;
        }
        self.rx.push_back(frame);
        self.rx_event = true;
        true
    }

    /// Driver-side: takes the frame at the head of the RX ring. Frames are
    /// refcounted views, so this hands the buffer up without copying.
    pub fn rx_take(&mut self) -> Option<Bytes> {
        self.rx.pop_front()
    }

    /// Driver-side: transmits a frame.
    pub fn tx(&mut self, frame: impl Into<Bytes>) -> MachineResult<()> {
        let frame = frame.into();
        if frame.len() > MAX_FRAME {
            return Err(MachineError::Device(format!(
                "nic: frame of {} bytes exceeds MTU",
                frame.len()
            )));
        }
        self.tx_total += 1;
        if !self.link_up {
            self.tx_dropped += 1;
            return Ok(());
        }
        self.tx_log.push_back(frame);
        Ok(())
    }

    /// Host-side: drains one transmitted frame (the wire's view).
    pub fn tx_take(&mut self) -> Option<Bytes> {
        self.tx_log.pop_front()
    }

    /// Total frames dropped due to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.rx_dropped
    }
}

impl Device for Nic {
    fn name(&self) -> &str {
        &self.name
    }

    fn read_reg(&mut self, offset: u64) -> MachineResult<u32> {
        match offset {
            regs::RX_AVAIL => Ok(self.rx.len() as u32),
            regs::RX_HEAD_LEN => Ok(self.rx.front().map_or(0, |f| f.len() as u32)),
            regs::RX_TOTAL => Ok(self.rx_total as u32),
            regs::RX_DROPPED => Ok(self.rx_dropped as u32),
            regs::TX_TOTAL => Ok(self.tx_total as u32),
            regs::IRQ_ENABLE => Ok(u32::from(self.irq_enable)),
            _ => Err(MachineError::BadRegister("nic", offset)),
        }
    }

    fn write_reg(&mut self, offset: u64, value: u32) -> MachineResult<()> {
        match offset {
            regs::IRQ_ENABLE => {
                self.irq_enable = value & 1 == 1;
                Ok(())
            }
            _ => Err(MachineError::BadRegister("nic", offset)),
        }
    }

    fn tick(&mut self, _now: Cycles, irq: &mut IrqController) {
        if self.rx_event {
            self.rx_event = false;
            if self.irq_enable {
                irq.raise(NIC_IRQ);
            }
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
    fn rx_path_raises_irq() {
        let mut nic = Nic::new();
        let mut irq = IrqController::new();
        assert!(nic.inject_rx(vec![1, 2, 3]));
        nic.tick(0, &mut irq);
        assert_eq!(irq.acknowledge(), Some(NIC_IRQ));
        assert_eq!(nic.rx_take().unwrap(), vec![1, 2, 3]);
        assert_eq!(nic.rx_take(), None);
    }

    #[test]
    fn irq_disable_suppresses_interrupt() {
        let mut nic = Nic::new();
        let mut irq = IrqController::new();
        nic.write_reg(regs::IRQ_ENABLE, 0).unwrap();
        nic.inject_rx(vec![0u8; 10]);
        nic.tick(0, &mut irq);
        assert_eq!(irq.peek(), None);
        // The frame is still there for a polling driver.
        assert_eq!(nic.rx.len(), 1);
    }

    #[test]
    fn ring_overflow_drops() {
        let mut nic = Nic::new();
        for i in 0..(RX_RING + 5) {
            nic.inject_rx(vec![i as u8]);
        }
        assert_eq!(nic.rx.len(), RX_RING);
        assert_eq!(nic.dropped(), 5);
        assert_eq!(nic.read_reg(regs::RX_DROPPED).unwrap(), 5);
    }

    #[test]
    fn downed_link_blackholes_both_directions() {
        let mut nic = Nic::new();
        nic.set_link_up(false);
        assert!(!nic.link_up());
        // Transmit succeeds from the driver's view but nothing hits the
        // wire; injected frames never reach the ring.
        nic.tx(vec![1u8; 8]).unwrap();
        assert_eq!(nic.tx_take(), None);
        assert_eq!(nic.tx_dropped(), 1);
        assert!(!nic.inject_rx(vec![2u8; 8]));
        assert_eq!(nic.rx.len(), 0);
        // Carrier restored: traffic flows again.
        nic.set_link_up(true);
        nic.tx(vec![3u8; 8]).unwrap();
        assert_eq!(nic.tx_take().unwrap(), vec![3u8; 8]);
        assert!(nic.inject_rx(vec![4u8; 8]));
    }

    #[test]
    fn oversized_frames_rejected() {
        let mut nic = Nic::new();
        assert!(!nic.inject_rx(vec![0u8; MAX_FRAME + 1]));
        assert!(nic.tx(vec![0u8; MAX_FRAME + 1]).is_err());
        assert!(nic.tx(vec![0u8; MAX_FRAME]).is_ok());
    }

    #[test]
    fn tx_log_captures_frames_in_order() {
        let mut nic = Nic::new();
        nic.tx(vec![1]).unwrap();
        nic.tx(vec![2]).unwrap();
        assert_eq!(nic.tx_take().unwrap(), vec![1]);
        assert_eq!(nic.tx_take().unwrap(), vec![2]);
        assert_eq!(nic.tx_take(), None);
        assert_eq!(nic.read_reg(regs::TX_TOTAL).unwrap(), 2);
    }

    #[test]
    fn head_len_register_tracks_queue() {
        let mut nic = Nic::new();
        assert_eq!(nic.read_reg(regs::RX_HEAD_LEN).unwrap(), 0);
        nic.inject_rx(vec![0u8; 99]);
        assert_eq!(nic.read_reg(regs::RX_HEAD_LEN).unwrap(), 99);
        assert_eq!(nic.read_reg(regs::RX_AVAIL).unwrap(), 1);
    }
}
