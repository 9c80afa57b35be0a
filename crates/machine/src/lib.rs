//! Simulated hardware substrate for the Paramecium reproduction.
//!
//! The paper targets SPARCstations: a real MMU with numbered contexts,
//! traps that are "expensive on our target hardware", device interrupts and
//! memory-mapped I/O. We have none of that, so this crate provides a
//! deterministic software model of the same abstractions:
//!
//! - [`cost`] — a configurable cycle-cost model (the time base for every
//!   experiment; loosely calibrated to early-90s SPARC relative costs),
//! - [`phys`] — physical memory and frame allocation,
//! - [`mmu`] — per-context page tables with R/W/X protection,
//! - [`tlb`] — a small translation cache with hit/miss accounting,
//! - [`trap`] — trap kinds and vectors (page fault, syscall, interrupt…),
//! - [`irq`] — a prioritised interrupt controller,
//! - [`io`] — I/O-space regions for device registers and buffers,
//! - [`dev`] — devices: a timer, a network interface, a console,
//! - [`machine`] — the [`Machine`] tying it all together.
//!
//! The machine is *passive*: it never calls up into the kernel. The nucleus
//! (in `paramecium-core`) performs translations, observes faults, polls the
//! interrupt controller and charges cycle costs through this crate's
//! accounting. That keeps the dependency arrow pointing the right way and
//! makes every experiment deterministic and single-threaded by
//! construction.

#![forbid(unsafe_code)]

pub mod cost;
pub mod dev;
pub mod io;
pub mod irq;
pub mod machine;
pub mod mmu;
pub mod phys;
pub mod tlb;
pub mod trap;

pub use cost::{CostModel, Cycles};
pub use io::{IoRegionId, IoSpace};
pub use machine::Machine;
pub use mmu::{Access, ContextId, Fault, FaultKind, Perms, PAGE_SIZE};
pub use phys::{FrameId, PhysMem};
pub use trap::{Trap, TrapKind};

/// Errors surfaced by the machine model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// Physical memory is exhausted.
    OutOfFrames,
    /// A physical address was out of range.
    BadPhysAddr(u64),
    /// The referenced MMU context does not exist.
    NoSuchContext(u16),
    /// Every MMU context id has been handed out.
    ContextsExhausted,
    /// A virtual access faulted (not mapped / protection).
    Fault(Fault),
    /// An I/O-space operation failed.
    Io(String),
    /// A device reported an error.
    Device(String),
    /// The device named has no such register for this access: none at
    /// the offset given, or one that cannot be read (or written) there.
    BadRegister(&'static str, u64),
    /// A device operation failed for a passing reason (a media or bus
    /// hiccup) and may succeed if issued again. Carries the device's
    /// name; [`dev::disk::Disk::inject_transient_errors`] arms these.
    Transient(&'static str),
    /// A block request named a sector at or past `sectors`, the size of
    /// the device or of the area a layer exposes.
    SectorOutOfRange { sector: i64, sectors: i64 },
    /// A block request named a negative sector.
    NegativeSector,
    /// The simulated machine lost power (crash injection): the current
    /// operation did not complete and no further operation will until
    /// [`Machine::reboot`](machine::Machine::reboot).
    PowerFailure,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::OutOfFrames => write!(f, "out of physical frames"),
            MachineError::BadPhysAddr(a) => write!(f, "bad physical address {a:#x}"),
            MachineError::NoSuchContext(c) => write!(f, "no MMU context {c}"),
            MachineError::ContextsExhausted => write!(f, "MMU context ids exhausted"),
            MachineError::Fault(fault) => write!(f, "memory fault: {fault}"),
            MachineError::Io(m) => write!(f, "I/O space error: {m}"),
            MachineError::Device(m) => write!(f, "device error: {m}"),
            MachineError::BadRegister(dev, offset) => {
                write!(f, "device error: {dev}: bad register {offset:#x}")
            }
            MachineError::Transient(dev) => {
                write!(f, "device error: {dev}: transient I/O error (injected)")
            }
            MachineError::SectorOutOfRange { sector, sectors } => {
                write!(f, "sector {sector} out of range (device has {sectors})")
            }
            MachineError::NegativeSector => write!(f, "negative sector"),
            MachineError::PowerFailure => write!(f, "simulated power failure"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<Fault> for MachineError {
    fn from(fault: Fault) -> Self {
        MachineError::Fault(fault)
    }
}

/// Convenient result alias.
pub type MachineResult<T> = Result<T, MachineError>;

#[cfg(test)]
mod send_audit {
    //! The world pool moves whole machines (devices included) across OS
    //! threads; these assertions pin the `Send` story at the type level
    //! so a non-`Send` device or cost-model field is a compile error
    //! here, not a mysterious trait bound failure three crates up.
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn machines_and_devices_may_cross_os_threads() {
        assert_send::<Machine>();
        assert_send::<Box<dyn dev::Device>>();
        assert_send_sync::<CostModel>();
    }
}
