//! I/O-space allocation.
//!
//! "The memory management service also provides I/O space allocation.
//! Device drivers use this service to allocate I/O space and map in the
//! device registers into their protection domain. I/O spaces can be
//! allocated exclusively or shared, allowing device registers to be mapped
//! privately and on-device buffers to be shared by other contexts."
//! (paper, section 3).
//!
//! This module manages the address-space bookkeeping; the nucleus's memory
//! service decides which contexts may claim which regions.

use std::collections::BTreeMap;

use crate::{mmu::ContextId, MachineError, MachineResult};

/// Identifier of an allocated I/O region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IoRegionId(pub u32);

/// Sharing mode of an I/O region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoSharing {
    /// At most one context may claim the region (device registers).
    Exclusive,
    /// Any number of contexts may claim it (on-device buffers).
    Shared,
}

/// One allocated I/O region.
#[derive(Clone, Debug)]
pub struct IoRegion {
    /// Region identifier.
    pub id: IoRegionId,
    /// Name of the device the region belongs to.
    pub device: String,
    /// Base bus address of the region.
    pub base: u64,
    /// Length in bytes.
    pub len: usize,
    /// Sharing mode.
    pub sharing: IoSharing,
    /// Contexts that have claimed the region.
    pub claimants: Vec<ContextId>,
}

/// The I/O-space allocator.
pub struct IoSpace {
    regions: BTreeMap<IoRegionId, IoRegion>,
    next_id: u32,
    next_base: u64,
}

/// Bus address where I/O space starts (above simulated RAM).
const IO_BASE: u64 = 0x1_0000_0000;

impl Default for IoSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl IoSpace {
    /// Creates an empty I/O space.
    pub fn new() -> Self {
        IoSpace {
            regions: BTreeMap::new(),
            next_id: 0,
            next_base: IO_BASE,
        }
    }

    /// Allocates a region of `len` bytes for `device`.
    pub fn allocate(
        &mut self,
        device: impl Into<String>,
        len: usize,
        sharing: IoSharing,
    ) -> MachineResult<IoRegionId> {
        if len == 0 {
            return Err(MachineError::Io("zero-length I/O region".into()));
        }
        let id = IoRegionId(self.next_id);
        self.next_id += 1;
        let base = self.next_base;
        // Keep regions page-aligned so they can be mapped like pages.
        let span = len.div_ceil(crate::mmu::PAGE_SIZE) * crate::mmu::PAGE_SIZE;
        self.next_base += span as u64;
        self.regions.insert(
            id,
            IoRegion {
                id,
                device: device.into(),
                base,
                len,
                sharing,
                claimants: Vec::new(),
            },
        );
        Ok(id)
    }

    /// A context claims access to a region. Exclusive regions admit one
    /// claimant only.
    pub fn claim(&mut self, id: IoRegionId, ctx: ContextId) -> MachineResult<()> {
        let region = self
            .regions
            .get_mut(&id)
            .ok_or_else(|| MachineError::Io(format!("no such I/O region {id:?}")))?;
        if region.claimants.contains(&ctx) {
            return Ok(());
        }
        if region.sharing == IoSharing::Exclusive && !region.claimants.is_empty() {
            return Err(MachineError::Io(format!(
                "I/O region {id:?} ({}) is exclusively claimed",
                region.device
            )));
        }
        region.claimants.push(ctx);
        Ok(())
    }

    /// A context releases its claim.
    pub fn release(&mut self, id: IoRegionId, ctx: ContextId) -> MachineResult<()> {
        let region = self
            .regions
            .get_mut(&id)
            .ok_or_else(|| MachineError::Io(format!("no such I/O region {id:?}")))?;
        let before = region.claimants.len();
        region.claimants.retain(|c| *c != ctx);
        if region.claimants.len() == before {
            return Err(MachineError::Io(format!(
                "context {} holds no claim on region {id:?}",
                ctx.0
            )));
        }
        Ok(())
    }

    /// True if `ctx` currently holds a claim on `id`.
    pub fn is_claimant(&self, id: IoRegionId, ctx: ContextId) -> bool {
        self.regions
            .get(&id)
            .is_some_and(|r| r.claimants.contains(&ctx))
    }

    /// Looks up a region by id.
    pub fn region(&self, id: IoRegionId) -> Option<&IoRegion> {
        self.regions.get(&id)
    }

    /// All regions belonging to `device`.
    pub fn regions_of(&self, device: &str) -> Vec<&IoRegion> {
        self.regions
            .values()
            .filter(|r| r.device == device)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_disjoint_and_page_aligned() {
        let mut io = IoSpace::new();
        let a = io.allocate("nic", 100, IoSharing::Exclusive).unwrap();
        let b = io.allocate("nic", 5000, IoSharing::Shared).unwrap();
        let (ra, rb) = (io.region(a).unwrap().clone(), io.region(b).unwrap().clone());
        assert_eq!(ra.base % crate::mmu::PAGE_SIZE as u64, 0);
        assert_eq!(rb.base % crate::mmu::PAGE_SIZE as u64, 0);
        assert!(ra.base + ra.len as u64 <= rb.base);
    }

    #[test]
    fn exclusive_admits_one_claimant() {
        let mut io = IoSpace::new();
        let id = io.allocate("nic", 64, IoSharing::Exclusive).unwrap();
        io.claim(id, ContextId(1)).unwrap();
        // Idempotent for the same context.
        io.claim(id, ContextId(1)).unwrap();
        assert!(io.claim(id, ContextId(2)).is_err());
        io.release(id, ContextId(1)).unwrap();
        io.claim(id, ContextId(2)).unwrap();
    }

    #[test]
    fn shared_admits_many() {
        let mut io = IoSpace::new();
        let id = io.allocate("nic-buf", 4096, IoSharing::Shared).unwrap();
        io.claim(id, ContextId(1)).unwrap();
        io.claim(id, ContextId(2)).unwrap();
        io.claim(id, ContextId(3)).unwrap();
        assert!(io.is_claimant(id, ContextId(2)));
    }

    #[test]
    fn release_requires_claim() {
        let mut io = IoSpace::new();
        let id = io.allocate("dev", 8, IoSharing::Shared).unwrap();
        assert!(io.release(id, ContextId(9)).is_err());
    }

    #[test]
    fn zero_length_rejected() {
        let mut io = IoSpace::new();
        assert!(io.allocate("x", 0, IoSharing::Shared).is_err());
    }

    #[test]
    fn regions_of_filters_by_device() {
        let mut io = IoSpace::new();
        io.allocate("nic", 64, IoSharing::Exclusive).unwrap();
        io.allocate("nic", 4096, IoSharing::Shared).unwrap();
        io.allocate("timer", 16, IoSharing::Exclusive).unwrap();
        assert_eq!(io.regions_of("nic").len(), 2);
        assert_eq!(io.regions_of("timer").len(), 1);
        assert_eq!(io.regions_of("ghost").len(), 0);
    }
}
