//! The assembled machine.
//!
//! [`Machine`] ties together physical memory, the MMU, the interrupt
//! controller, the I/O space and the devices, and owns the cycle counter.
//! It is the *only* mutable root the nucleus needs.

use std::collections::BTreeMap;

use crate::{
    cost::{CostModel, CycleCounter, Cycles},
    dev::{Console, Device, Disk, Nic, Timer},
    io::IoSpace,
    irq::IrqController,
    mmu::{Access, ContextId, Mmu, PAGE_SIZE},
    phys::PhysMem,
    MachineError, MachineResult,
};

/// Default number of physical frames (16 MiB of simulated RAM).
pub const DEFAULT_FRAMES: usize = 4096;

/// Default TLB capacity.
pub const DEFAULT_TLB_ENTRIES: usize = 64;

/// Default disk size in sectors (4 MiB).
pub const DEFAULT_DISK_SECTORS: usize = 8192;

/// The cycle counter and the crash-injection state every charge steps —
/// the part of the machine a driver needs next to its device, so
/// [`Machine::device_and_meter`] can lend out both at once.
pub struct ChargeMeter {
    counter: CycleCounter,
    /// Total cost-model charge events so far (crash-injection harnesses
    /// enumerate these to place a fault at every step of an op sequence).
    charge_events: u64,
    /// Remaining charge events before the injected power failure fires.
    crash_in: Option<u64>,
    /// Set once the injected power failure has fired; cleared by
    /// [`Machine::reboot`].
    crashed: bool,
}

impl ChargeMeter {
    /// Charges `cycles` of work: [`Machine::charge`] itself.
    pub fn charge(&mut self, cycles: Cycles) {
        self.charge_events += 1;
        if let Some(n) = self.crash_in {
            if n <= 1 {
                self.crash_in = None;
                self.crashed = true;
            } else {
                self.crash_in = Some(n - 1);
            }
        }
        self.counter.charge(cycles);
    }

    /// Fails with [`MachineError::PowerFailure`] when the machine has
    /// crashed: [`Machine::check_power`] itself.
    pub fn check_power(&self) -> MachineResult<()> {
        if self.crashed {
            Err(MachineError::PowerFailure)
        } else {
            Ok(())
        }
    }
}

/// The simulated machine.
pub struct Machine {
    /// The cost model in force.
    pub cost: CostModel,
    meter: ChargeMeter,
    /// Physical memory.
    pub phys: PhysMem,
    /// The MMU (contexts, page tables, TLB).
    pub mmu: Mmu,
    /// The interrupt controller.
    pub irq: IrqController,
    /// The I/O-space allocator.
    pub io: IoSpace,
    devices: BTreeMap<String, Box<dyn Device>>,
}

impl Machine {
    /// Builds a machine with default sizing, the default cost model, and
    /// the standard devices (timer, NIC, console).
    pub fn new() -> Self {
        Self::with_config(CostModel::default(), DEFAULT_FRAMES, DEFAULT_TLB_ENTRIES)
    }

    /// Builds a machine with explicit cost model and sizing.
    pub fn with_config(cost: CostModel, frames: usize, tlb_entries: usize) -> Self {
        let mut m = Machine {
            cost,
            meter: ChargeMeter {
                counter: CycleCounter::new(),
                charge_events: 0,
                crash_in: None,
                crashed: false,
            },
            phys: PhysMem::new(frames),
            mmu: Mmu::new(tlb_entries),
            irq: IrqController::new(),
            io: IoSpace::new(),
            devices: BTreeMap::new(),
        };
        m.register_device(Box::new(Timer::new()));
        m.register_device(Box::new(Nic::new()));
        m.register_device(Box::new(Console::new()));
        m.register_device(Box::new(Disk::new(DEFAULT_DISK_SECTORS)));
        m
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> Cycles {
        self.meter.counter.now()
    }

    /// Charges `cycles` of work.
    ///
    /// Every charge is one *cost-model step*: the granularity at which an
    /// armed crash ([`Machine::arm_crash_after`]) can fire. Drivers that
    /// perform multi-part operations (e.g. a batched disk write) charge
    /// each part separately and consult [`Machine::crashed`] between
    /// parts, so an injected power failure lands *inside* the operation
    /// with only a prefix of its effects applied.
    pub fn charge(&mut self, cycles: Cycles) {
        self.meter.charge(cycles);
    }

    /// Total cost-model charge events so far. Crash-injection harnesses
    /// run an op sequence once to count its steps, then re-run it with
    /// [`Machine::arm_crash_after`] at every step in `1..=charge_events`.
    pub fn charge_events(&self) -> u64 {
        self.meter.charge_events
    }

    /// Arms a simulated power failure that fires on the `events`-th
    /// subsequent charge (1 = the very next charge event). Any previously
    /// armed crash is replaced.
    pub fn arm_crash_after(&mut self, events: u64) {
        assert!(events > 0, "crash must be armed at a future charge event");
        self.meter.crash_in = Some(events);
        self.meter.crashed = false;
    }

    /// Disarms a pending injected crash without clearing a crash that
    /// already fired.
    pub fn disarm_crash(&mut self) {
        self.meter.crash_in = None;
    }

    /// Whether the injected power failure has fired. Once set, drivers
    /// refuse all further device work until [`Machine::reboot`].
    pub fn crashed(&self) -> bool {
        self.meter.crashed
    }

    /// Fails with [`MachineError::PowerFailure`] when the machine has
    /// crashed — the guard every driver entry point runs first.
    pub fn check_power(&self) -> MachineResult<()> {
        self.meter.check_power()
    }

    /// Clears a fired (or armed) crash, simulating a power cycle. Device
    /// state persists — that is the point: the disk keeps whatever
    /// sectors reached it, and remounting a journalled store over the
    /// rebooted machine must recover exactly the committed prefix.
    pub fn reboot(&mut self) {
        self.meter.crashed = false;
        self.meter.crash_in = None;
    }

    /// Advances time by `cycles` and lets every device observe the new
    /// time (raising interrupts as needed).
    pub fn tick(&mut self, cycles: Cycles) {
        self.meter.counter.charge(cycles);
        let now = self.now();
        for dev in self.devices.values_mut() {
            dev.tick(now, &mut self.irq);
        }
    }

    /// Registers an additional device.
    pub fn register_device(&mut self, dev: Box<dyn Device>) {
        self.devices.insert(dev.name().to_owned(), dev);
    }

    /// Host-side typed access to a device (e.g. to inject NIC frames).
    pub fn device_mut<T: 'static>(&mut self, name: &str) -> Option<&mut T> {
        Some(self.device_and_meter(name)?.0)
    }

    /// A device and the charge meter in one split borrow: a driver finds
    /// its device once per request and then charges (and consults the
    /// crash state) between the parts of a multi-part operation.
    pub fn device_and_meter<T: 'static>(
        &mut self,
        name: &str,
    ) -> Option<(&mut T, &mut ChargeMeter)> {
        let dev = self.devices.get_mut(name)?.as_any_mut().downcast_mut()?;
        Some((dev, &mut self.meter))
    }

    /// Reads a device register, charging the I/O access cost.
    pub fn io_read(&mut self, device: &str, offset: u64) -> MachineResult<u32> {
        self.charge(self.cost.io_access);
        self.devices
            .get_mut(device)
            .ok_or_else(|| MachineError::Device(format!("no device `{device}`")))?
            .read_reg(offset)
    }

    /// Writes a device register, charging the I/O access cost.
    pub fn io_write(&mut self, device: &str, offset: u64, value: u32) -> MachineResult<()> {
        self.charge(self.cost.io_access);
        self.devices
            .get_mut(device)
            .ok_or_else(|| MachineError::Device(format!("no device `{device}`")))?
            .write_reg(offset, value)
    }

    /// Translates one access, charging TLB hit/miss costs.
    pub fn translate(&mut self, ctx: ContextId, vaddr: u64, access: Access) -> MachineResult<u64> {
        match self.mmu.translate(ctx, vaddr, access) {
            Ok(t) => {
                let cost = if t.tlb_hit {
                    self.cost.tlb_hit
                } else {
                    self.cost.tlb_miss
                };
                self.charge(cost);
                Ok(t.paddr)
            }
            Err(fault) => {
                // The hardware walked the page table before faulting.
                self.charge(self.cost.tlb_miss);
                Err(MachineError::Fault(fault))
            }
        }
    }

    /// Reads virtual memory in `ctx`, handling page crossings. Charges
    /// translation and copy costs.
    pub fn read_virt(&mut self, ctx: ContextId, vaddr: u64, buf: &mut [u8]) -> MachineResult<()> {
        self.charge(self.cost.copy_cost(buf.len()));
        let mut done = 0usize;
        while done < buf.len() {
            let va = vaddr + done as u64;
            let paddr = self.translate(ctx, va, Access::Read)?;
            let in_page = PAGE_SIZE - (va as usize % PAGE_SIZE);
            let take = in_page.min(buf.len() - done);
            self.phys.read(paddr, &mut buf[done..done + take])?;
            done += take;
        }
        Ok(())
    }

    /// Writes virtual memory in `ctx`, handling page crossings. Charges
    /// translation and copy costs.
    pub fn write_virt(&mut self, ctx: ContextId, vaddr: u64, buf: &[u8]) -> MachineResult<()> {
        self.charge(self.cost.copy_cost(buf.len()));
        let mut done = 0usize;
        while done < buf.len() {
            let va = vaddr + done as u64;
            let paddr = self.translate(ctx, va, Access::Write)?;
            let in_page = PAGE_SIZE - (va as usize % PAGE_SIZE);
            let take = in_page.min(buf.len() - done);
            self.phys.write(paddr, &buf[done..done + take])?;
            done += take;
        }
        Ok(())
    }

    /// Performs a context switch, charging its cost only when the context
    /// actually changes.
    pub fn switch_context(&mut self, ctx: ContextId) -> MachineResult<()> {
        if self.mmu.switch_context(ctx)? {
            self.charge(self.cost.context_switch);
        }
        Ok(())
    }
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        dev::nic::Nic,
        mmu::{Perms, KERNEL_CONTEXT},
    };

    #[test]
    fn time_advances_with_charges() {
        let mut m = Machine::new();
        assert_eq!(m.now(), 0);
        m.charge(100);
        m.tick(50);
        assert_eq!(m.now(), 150);
    }

    #[test]
    fn virtual_rw_roundtrip_with_page_crossing() {
        let mut m = Machine::new();
        let ctx = m.mmu.create_context();
        let f1 = m.phys.alloc_frame().unwrap();
        let f2 = m.phys.alloc_frame().unwrap();
        m.mmu.map(ctx, 0x10000, f1, Perms::RW).unwrap();
        m.mmu.map(ctx, 0x11000, f2, Perms::RW).unwrap();
        // Write straddling the page boundary.
        let data: Vec<u8> = (0..64).collect();
        m.write_virt(ctx, 0x10FE0, &data).unwrap();
        let mut out = vec![0u8; 64];
        m.read_virt(ctx, 0x10FE0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unmapped_write_faults_and_charges_nothing_extra() {
        let mut m = Machine::new();
        let ctx = m.mmu.create_context();
        let err = m.write_virt(ctx, 0x5000, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, MachineError::Fault(_)));
    }

    #[test]
    fn translation_charges_miss_then_hit() {
        let mut m = Machine::new();
        let f = m.phys.alloc_frame().unwrap();
        m.mmu.map(KERNEL_CONTEXT, 0x4000, f, Perms::RW).unwrap();
        let t0 = m.now();
        m.translate(KERNEL_CONTEXT, 0x4000, Access::Read).unwrap();
        let miss_cost = m.now() - t0;
        assert_eq!(miss_cost, m.cost.tlb_miss);
        let t1 = m.now();
        m.translate(KERNEL_CONTEXT, 0x4000, Access::Read).unwrap();
        assert_eq!(m.now() - t1, m.cost.tlb_hit);
    }

    #[test]
    fn context_switch_charges_only_on_change() {
        let mut m = Machine::new();
        let ctx = m.mmu.create_context();
        let t0 = m.now();
        m.switch_context(ctx).unwrap();
        assert_eq!(m.now() - t0, m.cost.context_switch);
        let t1 = m.now();
        m.switch_context(ctx).unwrap();
        assert_eq!(m.now() - t1, 0);
    }

    #[test]
    fn devices_reachable_by_io_and_host_side() {
        let mut m = Machine::new();
        // Host side: inject a frame.
        m.device_mut::<Nic>("nic").unwrap().inject_rx(vec![9, 9]);
        // Device tick raises the IRQ.
        m.tick(1);
        assert!(m.irq.has_pending());
        // Driver side: registers via I/O.
        assert_eq!(
            m.io_read("nic", crate::dev::nic::regs::RX_AVAIL).unwrap(),
            1
        );
        assert!(m.io_read("ghost", 0).is_err());
    }

    #[test]
    fn io_access_charges_cycles() {
        let mut m = Machine::new();
        let t0 = m.now();
        m.io_read("nic", crate::dev::nic::regs::RX_AVAIL).unwrap();
        assert_eq!(m.now() - t0, m.cost.io_access);
    }

    #[test]
    fn armed_crash_fires_on_the_exact_charge_event() {
        let mut m = Machine::new();
        m.arm_crash_after(3);
        m.charge(1);
        m.charge(1);
        assert!(!m.crashed());
        assert!(m.check_power().is_ok());
        m.charge(1);
        assert!(m.crashed());
        assert_eq!(m.check_power().unwrap_err(), MachineError::PowerFailure);
        assert_eq!(m.charge_events(), 3);
        // Reboot clears the failure; device state (the disk) persists.
        m.device_mut::<crate::dev::Disk>("disk")
            .unwrap()
            .write_sector(0, &[7u8; crate::dev::disk::SECTOR_SIZE])
            .unwrap();
        m.reboot();
        assert!(m.check_power().is_ok());
        assert_eq!(
            m.device_mut::<crate::dev::Disk>("disk")
                .unwrap()
                .read_sector(0)
                .unwrap()[0],
            7
        );
    }

    #[test]
    fn split_borrow_charges_exactly_like_the_machine() {
        // The same charges through `Machine::charge` and through the
        // meter lent out next to a device: same event count, same time,
        // and an armed crash fires on the same step.
        let (mut whole, mut split) = (Machine::new(), Machine::new());
        whole.arm_crash_after(3);
        split.arm_crash_after(3);
        for step in 1..=5u64 {
            whole.charge(10 * step);
            let (_disk, meter) = split.device_and_meter::<Disk>("disk").unwrap();
            meter.charge(10 * step);
            assert_eq!(meter.check_power(), whole.check_power());
            assert_eq!(
                (split.now(), split.charge_events(), split.crashed()),
                (whole.now(), whole.charge_events(), step >= 3)
            );
            assert_eq!(whole.crashed(), step >= 3);
        }
        assert!(split.device_and_meter::<Nic>("disk").is_none());
        assert!(split.device_and_meter::<Disk>("ghost").is_none());
    }

    #[test]
    fn io_and_translation_charges_count_as_crash_steps() {
        let mut m = Machine::new();
        m.arm_crash_after(1);
        m.io_read("nic", crate::dev::nic::regs::RX_AVAIL).unwrap();
        assert!(m.crashed());
        let mut m = Machine::new();
        let f = m.phys.alloc_frame().unwrap();
        m.mmu.map(KERNEL_CONTEXT, 0x4000, f, Perms::RW).unwrap();
        m.arm_crash_after(1);
        m.translate(KERNEL_CONTEXT, 0x4000, Access::Read).unwrap();
        assert!(m.crashed());
    }

    #[test]
    fn timer_fires_through_machine_tick() {
        let mut m = Machine::new();
        m.io_write("timer", crate::dev::timer::regs::PERIOD, 100)
            .unwrap();
        m.io_write("timer", crate::dev::timer::regs::CTRL, 1)
            .unwrap();
        m.tick(10); // Arms.
        m.tick(300);
        assert!(m.irq.has_pending());
    }
}
