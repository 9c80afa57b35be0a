//! The memory-management unit: per-context page tables with protection.
//!
//! Protection domains in Paramecium are MMU contexts. "Objects can be
//! placed in separate MMU contexts. This is useful for isolating faults …"
//! (paper, section 3). The nucleus's memory service builds on the
//! operations here: map/unmap pages, translate accesses, take
//! faults.

use std::collections::BTreeMap;

use crate::{phys::FrameId, tlb::Tlb, MachineError, MachineResult};

/// Page size in bytes (SPARC Reference MMU used 4 KiB pages).
pub const PAGE_SIZE: usize = 4096;

/// An MMU context number — the unit of protection in Paramecium.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(pub u16);

/// The kernel's own context, created at boot.
pub const KERNEL_CONTEXT: ContextId = ContextId(0);

/// Page permissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Perms(u8);

impl Perms {
    /// No access (a guard page / fault-on-access page).
    pub const NONE: Perms = Perms(0);
    /// Read only.
    pub const R: Perms = Perms(1);
    /// Write only (unusual, but expressible).
    pub const W: Perms = Perms(2);
    /// Read + write.
    pub const RW: Perms = Perms(3);
    /// Read + execute (text pages).
    pub const RX: Perms = Perms(5);

    /// True if `access` is allowed under these permissions.
    pub fn allows(self, access: Access) -> bool {
        let bit = match access {
            Access::Read => 1,
            Access::Write => 2,
            Access::Exec => 4,
        };
        self.0 & bit != 0
    }

    /// Union of two permission sets.
    pub fn union(self, other: Perms) -> Perms {
        Perms(self.0 | other.0)
    }
}

/// The kind of memory access being performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// Why a translation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// No mapping for the page.
    NotMapped,
    /// Mapped, but the permissions forbid this access.
    Protection,
}

/// A page fault: the information delivered to the event service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Context in which the fault occurred.
    pub ctx: ContextId,
    /// Faulting virtual address.
    pub vaddr: u64,
    /// The attempted access.
    pub access: Access,
    /// Why it faulted.
    pub kind: FaultKind,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} fault at {:#x} in context {} ({:?})",
            self.access, self.vaddr, self.ctx.0, self.kind
        )
    }
}

/// One page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageEntry {
    /// Backing physical frame.
    pub frame: FrameId,
    /// Access permissions.
    pub perms: Perms,
}

/// Result of a translation, including whether the TLB helped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub paddr: u64,
    /// True if this lookup hit the TLB.
    pub tlb_hit: bool,
}

/// The MMU: a set of numbered contexts, each with its own page table.
pub struct Mmu {
    contexts: BTreeMap<u16, BTreeMap<u64, PageEntry>>,
    /// The next id to hand out; past `u16::MAX` the ids are exhausted.
    next_ctx: u32,
    current: ContextId,
    /// The translation cache (public for stats/ablation access).
    pub tlb: Tlb,
    /// Context switches performed.
    switches: u64,
}

impl Mmu {
    /// Creates an MMU with only the kernel context.
    pub fn new(tlb_entries: usize) -> Self {
        let mut contexts = BTreeMap::new();
        contexts.insert(KERNEL_CONTEXT.0, BTreeMap::new());
        Mmu {
            contexts,
            next_ctx: 1,
            current: KERNEL_CONTEXT,
            tlb: Tlb::new(tlb_entries),
            switches: 0,
        }
    }

    /// Allocates a fresh context, or fails with
    /// [`MachineError::ContextsExhausted`] once every 16-bit id has been
    /// handed out.
    pub fn create_context(&mut self) -> MachineResult<ContextId> {
        let id = u16::try_from(self.next_ctx).map_err(|_| MachineError::ContextsExhausted)?;
        self.next_ctx += 1;
        self.contexts.insert(id, BTreeMap::new());
        Ok(ContextId(id))
    }

    /// Destroys a context, returning the frames that were mapped in it
    /// (the caller decides which to free — pages may be shared).
    pub fn destroy_context(&mut self, ctx: ContextId) -> MachineResult<Vec<FrameId>> {
        assert_ne!(ctx, KERNEL_CONTEXT, "cannot destroy the kernel context");
        let table = self
            .contexts
            .remove(&ctx.0)
            .ok_or(MachineError::NoSuchContext(ctx.0))?;
        self.tlb.flush_context(ctx);
        Ok(table.values().map(|e| e.frame).collect())
    }

    /// True if the context exists.
    pub fn has_context(&self, ctx: ContextId) -> bool {
        self.contexts.contains_key(&ctx.0)
    }

    /// The context the processor is currently running in.
    pub fn current_context(&self) -> ContextId {
        self.current
    }

    /// Switches to another context. Returns true if it actually changed
    /// (the caller charges the cost only then).
    pub fn switch_context(&mut self, ctx: ContextId) -> MachineResult<bool> {
        if !self.has_context(ctx) {
            return Err(MachineError::NoSuchContext(ctx.0));
        }
        if self.current == ctx {
            return Ok(false);
        }
        self.current = ctx;
        self.switches += 1;
        Ok(true)
    }

    /// Total context switches performed.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// Maps `vaddr`'s page to `frame` with `perms` in `ctx`.
    ///
    /// Remapping an already-mapped page is allowed (the common idiom for
    /// changing the backing frame); the TLB entry is invalidated.
    pub fn map(
        &mut self,
        ctx: ContextId,
        vaddr: u64,
        frame: FrameId,
        perms: Perms,
    ) -> MachineResult<()> {
        let table = self
            .contexts
            .get_mut(&ctx.0)
            .ok_or(MachineError::NoSuchContext(ctx.0))?;
        let vpn = vaddr / PAGE_SIZE as u64;
        table.insert(vpn, PageEntry { frame, perms });
        self.tlb.invalidate(ctx, vpn);
        Ok(())
    }

    /// Unmaps the page containing `vaddr`, returning its entry if mapped.
    pub fn unmap(&mut self, ctx: ContextId, vaddr: u64) -> MachineResult<Option<PageEntry>> {
        let table = self
            .contexts
            .get_mut(&ctx.0)
            .ok_or(MachineError::NoSuchContext(ctx.0))?;
        let vpn = vaddr / PAGE_SIZE as u64;
        let old = table.remove(&vpn);
        self.tlb.invalidate(ctx, vpn);
        Ok(old)
    }

    /// Looks up the page-table entry for `vaddr` without touching the TLB.
    pub fn entry(&self, ctx: ContextId, vaddr: u64) -> Option<PageEntry> {
        self.contexts
            .get(&ctx.0)?
            .get(&(vaddr / PAGE_SIZE as u64))
            .copied()
    }

    /// Translates a virtual access in `ctx`, going through the TLB.
    ///
    /// On success returns the physical address and whether the TLB hit; on
    /// failure returns the [`Fault`] to deliver.
    pub fn translate(
        &mut self,
        ctx: ContextId,
        vaddr: u64,
        access: Access,
    ) -> Result<Translation, Fault> {
        let vpn = vaddr / PAGE_SIZE as u64;
        let offset = vaddr % PAGE_SIZE as u64;
        let fault = |kind| Fault {
            ctx,
            vaddr,
            access,
            kind,
        };

        if let Some((frame, perms)) = self.tlb.lookup(ctx, vpn) {
            if !perms.allows(access) {
                return Err(fault(FaultKind::Protection));
            }
            return Ok(Translation {
                paddr: u64::from(frame.0) * PAGE_SIZE as u64 + offset,
                tlb_hit: true,
            });
        }
        // Page-table walk.
        let entry = self
            .contexts
            .get(&ctx.0)
            .and_then(|t| t.get(&vpn))
            .copied()
            .ok_or(fault(FaultKind::NotMapped))?;
        if !entry.perms.allows(access) {
            return Err(fault(FaultKind::Protection));
        }
        self.tlb.insert(ctx, vpn, entry.frame, entry.perms);
        Ok(Translation {
            paddr: u64::from(entry.frame.0) * PAGE_SIZE as u64 + offset,
            tlb_hit: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu() -> Mmu {
        Mmu::new(16)
    }

    #[test]
    fn kernel_context_exists_at_boot() {
        let m = mmu();
        assert!(m.has_context(KERNEL_CONTEXT));
        assert_eq!(m.current_context(), KERNEL_CONTEXT);
    }

    #[test]
    fn create_contexts_are_distinct() {
        let mut m = mmu();
        let a = m.create_context().unwrap();
        let b = m.create_context().unwrap();
        assert_ne!(a, b);
        assert!(m.has_context(a) && m.has_context(b));
    }

    #[test]
    fn context_exhaustion_is_a_typed_error() {
        let mut m = mmu();
        let first = m.create_context().unwrap();
        m.map(first, 0x4000, FrameId(3), Perms::R).unwrap();
        for _ in 1..u16::MAX {
            m.create_context().unwrap();
        }
        assert!(m.has_context(ContextId(u16::MAX)));
        assert_eq!(m.create_context(), Err(MachineError::ContextsExhausted));
        let t = m.translate(first, 0x4010, Access::Read).unwrap();
        assert_eq!(t.paddr, 3 * PAGE_SIZE as u64 + 0x10);
    }

    #[test]
    fn translate_mapped_page() {
        let mut m = mmu();
        let ctx = m.create_context().unwrap();
        m.map(ctx, 0x4000, FrameId(2), Perms::RW).unwrap();
        let t = m.translate(ctx, 0x4123, Access::Read).unwrap();
        assert_eq!(t.paddr, 2 * PAGE_SIZE as u64 + 0x123);
        assert!(!t.tlb_hit);
        // Second access hits the TLB.
        let t = m.translate(ctx, 0x4FFF, Access::Write).unwrap();
        assert!(t.tlb_hit);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = mmu();
        let ctx = m.create_context().unwrap();
        let f = m.translate(ctx, 0x9000, Access::Read).unwrap_err();
        assert_eq!(f.kind, FaultKind::NotMapped);
        assert_eq!(f.vaddr, 0x9000);
        assert_eq!(f.ctx, ctx);
    }

    #[test]
    fn protection_fault_on_bad_access() {
        let mut m = mmu();
        let ctx = m.create_context().unwrap();
        m.map(ctx, 0x4000, FrameId(0), Perms::R).unwrap();
        assert!(m.translate(ctx, 0x4000, Access::Read).is_ok());
        let f = m.translate(ctx, 0x4000, Access::Write).unwrap_err();
        assert_eq!(f.kind, FaultKind::Protection);
        let f = m.translate(ctx, 0x4000, Access::Exec).unwrap_err();
        assert_eq!(f.kind, FaultKind::Protection);
    }

    #[test]
    fn protection_fault_even_on_tlb_hit() {
        let mut m = mmu();
        let ctx = m.create_context().unwrap();
        m.map(ctx, 0x4000, FrameId(0), Perms::R).unwrap();
        // Prime the TLB.
        m.translate(ctx, 0x4000, Access::Read).unwrap();
        let f = m.translate(ctx, 0x4000, Access::Write).unwrap_err();
        assert_eq!(f.kind, FaultKind::Protection);
    }

    #[test]
    fn contexts_are_isolated() {
        let mut m = mmu();
        let a = m.create_context().unwrap();
        let b = m.create_context().unwrap();
        m.map(a, 0x4000, FrameId(1), Perms::RW).unwrap();
        assert!(m.translate(a, 0x4000, Access::Read).is_ok());
        assert!(m.translate(b, 0x4000, Access::Read).is_err());
    }

    #[test]
    fn unmap_invalidates_tlb() {
        let mut m = mmu();
        let ctx = m.create_context().unwrap();
        m.map(ctx, 0x4000, FrameId(1), Perms::RW).unwrap();
        m.translate(ctx, 0x4000, Access::Read).unwrap();
        let old = m.unmap(ctx, 0x4000).unwrap();
        assert_eq!(
            old,
            Some(PageEntry {
                frame: FrameId(1),
                perms: Perms::RW
            })
        );
        assert!(m.translate(ctx, 0x4000, Access::Read).is_err());
        assert_eq!(m.unmap(ctx, 0x4000).unwrap(), None);
    }

    #[test]
    fn destroy_context_returns_frames_and_flushes() {
        let mut m = mmu();
        let ctx = m.create_context().unwrap();
        m.map(ctx, 0x1000, FrameId(1), Perms::R).unwrap();
        m.map(ctx, 0x2000, FrameId(2), Perms::R).unwrap();
        let mut frames = m.destroy_context(ctx).unwrap();
        frames.sort();
        assert_eq!(frames, vec![FrameId(1), FrameId(2)]);
        assert!(!m.has_context(ctx));
        assert!(m.translate(ctx, 0x1000, Access::Read).is_err());
    }

    #[test]
    fn switch_context_counts_real_switches() {
        let mut m = mmu();
        let a = m.create_context().unwrap();
        assert!(m.switch_context(a).unwrap());
        assert!(!m.switch_context(a).unwrap());
        assert!(m.switch_context(KERNEL_CONTEXT).unwrap());
        assert_eq!(m.switch_count(), 2);
        assert!(m.switch_context(ContextId(999)).is_err());
    }

    #[test]
    fn shared_frame_mappable_in_two_contexts() {
        let mut m = mmu();
        let a = m.create_context().unwrap();
        let b = m.create_context().unwrap();
        m.map(a, 0x4000, FrameId(5), Perms::RW).unwrap();
        m.map(b, 0x8000, FrameId(5), Perms::R).unwrap();
        let ta = m.translate(a, 0x4010, Access::Write).unwrap();
        let tb = m.translate(b, 0x8010, Access::Read).unwrap();
        assert_eq!(ta.paddr, tb.paddr);
    }

    #[test]
    fn perms_allow_logic() {
        assert!(Perms::RW.allows(Access::Read));
        assert!(Perms::RW.allows(Access::Write));
        assert!(!Perms::RW.allows(Access::Exec));
        assert!(Perms::RX.allows(Access::Exec));
        assert!(!Perms::NONE.allows(Access::Read));
        assert_eq!(Perms::R.union(Perms::W), Perms::RW);
    }
}
