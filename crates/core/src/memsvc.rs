//! The memory management service.
//!
//! "The management of virtual and physical pages, and MMU contexts, is done
//! by the memory management service. Pages can be allocated exclusively or
//! shared among different protection domains. Individual virtual pages can
//! have fault call-backs associated with them. … The memory management
//! service also provides I/O space allocation." (paper, section 3).

use std::{collections::HashMap, sync::Arc};

use parking_lot::{Mutex, RwLock};

use paramecium_machine::{
    io::{IoRegionId, IoSharing},
    mmu::{Fault, Perms, PAGE_SIZE},
    phys::FrameId,
    Machine, MachineError,
};

use crate::{domain::DomainId, CoreError, CoreResult};

/// A per-page fault call-back.
pub type FaultHandler = Arc<dyn Fn(&Fault) + Send + Sync>;

/// Where user mappings start in each domain (below is reserved for the
/// component text the loader maps).
const USER_VADDR_BASE: u64 = 0x0010_0000;

/// Allocation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Pages allocated (exclusive + shared).
    pub pages_allocated: u64,
    /// Pages shared into additional domains.
    pub pages_shared: u64,
    /// Faults routed to a registered handler.
    pub faults_handled: u64,
    /// Faults with no handler.
    pub faults_unhandled: u64,
}

/// The memory service.
pub struct MemService {
    machine: Arc<Mutex<Machine>>,
    next_vaddr: Mutex<HashMap<u16, u64>>,
    /// Reference count per physical frame (frames may back several
    /// domains' pages).
    frame_refs: Mutex<HashMap<FrameId, usize>>,
    fault_handlers: RwLock<HashMap<(u16, u64), FaultHandler>>,
    stats: Mutex<MemStats>,
}

impl MemService {
    /// Creates the service over a machine.
    pub fn new(machine: Arc<Mutex<Machine>>) -> Self {
        MemService {
            machine,
            next_vaddr: Mutex::new(HashMap::new()),
            frame_refs: Mutex::new(HashMap::new()),
            fault_handlers: RwLock::new(HashMap::new()),
            stats: Mutex::new(MemStats::default()),
        }
    }

    /// The machine this service manages (shared with the nucleus).
    pub fn machine(&self) -> &Arc<Mutex<Machine>> {
        &self.machine
    }

    /// Reserves a contiguous virtual range in `domain` without mapping it.
    pub fn reserve_vaddr(&self, domain: DomainId, pages: usize) -> u64 {
        let mut next = self.next_vaddr.lock();
        let slot = next.entry(domain.0).or_insert(USER_VADDR_BASE);
        let base = *slot;
        *slot += (pages as u64) * PAGE_SIZE as u64;
        base
    }

    /// Allocates `pages` fresh (exclusive) pages in `domain` with `perms`.
    /// Returns the base virtual address.
    pub fn alloc(&self, domain: DomainId, pages: usize, perms: Perms) -> CoreResult<u64> {
        if pages == 0 {
            return Err(CoreError::Policy("zero-page allocation".into()));
        }
        let base = self.reserve_vaddr(domain, pages);
        let mut m = self.machine.lock();
        if !m.mmu.has_context(domain.context()) {
            return Err(CoreError::NoSuchDomain(domain.0));
        }
        let mut mapped = Vec::with_capacity(pages);
        for i in 0..pages {
            let frame = match m.phys.alloc_frame() {
                Ok(f) => f,
                Err(e) => {
                    // Roll back partial allocation.
                    for (va, f) in mapped {
                        let _ = m.mmu.unmap(domain.context(), va);
                        m.phys.free_frame(f);
                    }
                    return Err(e.into());
                }
            };
            let va = base + (i as u64) * PAGE_SIZE as u64;
            m.mmu.map(domain.context(), va, frame, perms)?;
            mapped.push((va, frame));
        }
        let mut refs = self.frame_refs.lock();
        for (_, f) in &mapped {
            refs.insert(*f, 1);
        }
        self.stats.lock().pages_allocated += pages as u64;
        Ok(base)
    }

    /// Maps the pages backing `[src_vaddr, src_vaddr + pages)` of
    /// `src_domain` into `dst_domain` with `perms` (shared memory).
    /// Returns the base address in the destination domain.
    pub fn share(
        &self,
        src_domain: DomainId,
        src_vaddr: u64,
        pages: usize,
        dst_domain: DomainId,
        perms: Perms,
    ) -> CoreResult<u64> {
        if pages == 0 {
            return Err(CoreError::Policy("zero-page share".into()));
        }
        let dst_base = self.reserve_vaddr(dst_domain, pages);
        let mut m = self.machine.lock();
        let mut frames = Vec::with_capacity(pages);
        for i in 0..pages {
            let va = src_vaddr + (i as u64) * PAGE_SIZE as u64;
            let entry = m
                .mmu
                .entry(src_domain.context(), va)
                .ok_or(MachineError::Fault(Fault {
                    ctx: src_domain.context(),
                    vaddr: va,
                    access: paramecium_machine::mmu::Access::Read,
                    kind: paramecium_machine::mmu::FaultKind::NotMapped,
                }))?;
            frames.push(entry.frame);
        }
        for (i, frame) in frames.iter().enumerate() {
            let va = dst_base + (i as u64) * PAGE_SIZE as u64;
            m.mmu.map(dst_domain.context(), va, *frame, perms)?;
        }
        let mut refs = self.frame_refs.lock();
        for f in &frames {
            *refs.entry(*f).or_insert(0) += 1;
        }
        self.stats.lock().pages_shared += pages as u64;
        Ok(dst_base)
    }

    /// Unmaps `pages` pages at `vaddr` in `domain`, freeing any frame
    /// whose last mapping this was.
    pub fn free(&self, domain: DomainId, vaddr: u64, pages: usize) -> CoreResult<()> {
        let mut m = self.machine.lock();
        let mut refs = self.frame_refs.lock();
        for i in 0..pages {
            let va = vaddr + (i as u64) * PAGE_SIZE as u64;
            if let Some(entry) = m.mmu.unmap(domain.context(), va)? {
                let count = refs.entry(entry.frame).or_insert(1);
                *count -= 1;
                if *count == 0 {
                    refs.remove(&entry.frame);
                    m.phys.free_frame(entry.frame);
                }
            }
            self.fault_handlers
                .write()
                .remove(&(domain.0, va / PAGE_SIZE as u64));
        }
        Ok(())
    }

    /// Associates a fault call-back with the page containing `vaddr` in
    /// `domain`. The page need not be mapped — fault-on-access pages are
    /// the cross-domain invocation mechanism.
    pub fn set_fault_handler(&self, domain: DomainId, vaddr: u64, handler: FaultHandler) {
        self.fault_handlers
            .write()
            .insert((domain.0, vaddr / PAGE_SIZE as u64), handler);
    }

    /// Removes a fault call-back. Returns true if one existed.
    pub fn clear_fault_handler(&self, domain: DomainId, vaddr: u64) -> bool {
        self.fault_handlers
            .write()
            .remove(&(domain.0, vaddr / PAGE_SIZE as u64))
            .is_some()
    }

    /// Routes a fault to its per-page handler. Returns true if a handler
    /// ran.
    pub fn handle_fault(&self, fault: &Fault) -> bool {
        let key = (fault.ctx.0, fault.vaddr / PAGE_SIZE as u64);
        let handler = self.fault_handlers.read().get(&key).cloned();
        match handler {
            Some(h) => {
                self.stats.lock().faults_handled += 1;
                h(fault);
                true
            }
            None => {
                self.stats.lock().faults_unhandled += 1;
                false
            }
        }
    }

    /// Tears down all memory of a domain: destroys its MMU context and
    /// frees every frame whose last mapping was there. Fault handlers for
    /// the domain are dropped.
    pub fn destroy_domain(&self, domain: DomainId) -> CoreResult<()> {
        let frames = {
            let mut m = self.machine.lock();
            m.mmu.destroy_context(domain.context())?
        };
        {
            let mut m = self.machine.lock();
            let mut refs = self.frame_refs.lock();
            for f in frames {
                let count = refs.entry(f).or_insert(1);
                *count -= 1;
                if *count == 0 {
                    refs.remove(&f);
                    m.phys.free_frame(f);
                }
            }
        }
        self.fault_handlers
            .write()
            .retain(|(d, _), _| *d != domain.0);
        // Context ids are never reused, so neither is this cursor.
        self.next_vaddr.lock().remove(&domain.0);
        Ok(())
    }

    /// Allocates an I/O region for a device.
    pub fn io_allocate(
        &self,
        device: &str,
        len: usize,
        sharing: IoSharing,
    ) -> CoreResult<IoRegionId> {
        Ok(self.machine.lock().io.allocate(device, len, sharing)?)
    }

    /// Claims an I/O region for a domain (maps device registers or buffers
    /// into its protection domain).
    pub fn io_claim(&self, domain: DomainId, region: IoRegionId) -> CoreResult<()> {
        Ok(self.machine.lock().io.claim(region, domain.context())?)
    }

    /// Releases an I/O claim.
    pub fn io_release(&self, domain: DomainId, region: IoRegionId) -> CoreResult<()> {
        Ok(self.machine.lock().io.release(region, domain.context())?)
    }

    /// True if `domain` holds a claim on `region` — drivers must check
    /// before touching registers.
    pub fn io_is_claimant(&self, domain: DomainId, region: IoRegionId) -> bool {
        self.machine.lock().io.is_claimant(region, domain.context())
    }

    /// Allocates `pages` *lazy* (demand-zero) pages in `domain`: no frames
    /// are consumed until a page is first touched, at which point its
    /// per-page fault call-back allocates and maps a zeroed frame.
    ///
    /// This is the paper's "individual virtual pages can have fault
    /// call-backs associated with them" put to its classic use.
    pub fn alloc_lazy(
        self: &Arc<Self>,
        domain: DomainId,
        pages: usize,
        perms: Perms,
    ) -> CoreResult<u64> {
        if pages == 0 {
            return Err(CoreError::Policy("zero-page allocation".into()));
        }
        if !self.machine.lock().mmu.has_context(domain.context()) {
            return Err(CoreError::NoSuchDomain(domain.0));
        }
        let base = self.reserve_vaddr(domain, pages);
        for i in 0..pages {
            let va = base + (i as u64) * PAGE_SIZE as u64;
            let svc = self.clone();
            self.set_fault_handler(
                domain,
                va,
                Arc::new(move |fault: &Fault| {
                    let mut m = svc.machine.lock();
                    let Ok(frame) = m.phys.alloc_frame() else {
                        // Out of memory at fault time: leave the page
                        // unmapped; the retry loop will surface the fault.
                        return;
                    };
                    let page_va = fault.vaddr - fault.vaddr % PAGE_SIZE as u64;
                    if m.mmu.map(fault.ctx, page_va, frame, perms).is_err() {
                        m.phys.free_frame(frame);
                        return;
                    }
                    drop(m);
                    svc.frame_refs.lock().insert(frame, 1);
                    svc.stats.lock().pages_allocated += 1;
                    // The page is now resident; the handler stays
                    // registered but will not fire again for it.
                }),
            );
        }
        Ok(base)
    }

    /// Reads virtual memory of a domain. A fault with a registered
    /// per-page handler (demand paging, copy-on-access schemes) is
    /// resolved and the access retried.
    pub fn read(&self, domain: DomainId, vaddr: u64, buf: &mut [u8]) -> CoreResult<()> {
        self.access_with_retry(|m| m.read_virt(domain.context(), vaddr, buf))
    }

    /// Writes virtual memory of a domain, resolving handled faults like
    /// [`MemService::read`].
    pub fn write(&self, domain: DomainId, vaddr: u64, buf: &[u8]) -> CoreResult<()> {
        self.access_with_retry(|m| m.write_virt(domain.context(), vaddr, buf))
    }

    /// Runs a virtual-memory access, routing faults to per-page handlers
    /// and retrying. Bounded so an unresolvable fault cannot loop.
    fn access_with_retry(
        &self,
        mut access: impl FnMut(&mut Machine) -> Result<(), MachineError>,
    ) -> CoreResult<()> {
        // Worst case one fault per touched page; 1024 covers any sane
        // access span and still terminates fast on handler no-ops.
        for _ in 0..1024 {
            let result = access(&mut self.machine.lock());
            match result {
                Ok(()) => return Ok(()),
                Err(MachineError::Fault(fault)) => {
                    let before = self.machine.lock().mmu.entry(fault.ctx, fault.vaddr);
                    if !self.handle_fault(&fault) {
                        return Err(MachineError::Fault(fault).into());
                    }
                    let after = self.machine.lock().mmu.entry(fault.ctx, fault.vaddr);
                    if before == after {
                        // The handler ran but did not resolve the fault
                        // (e.g. a pure-notification handler): surface it.
                        return Err(MachineError::Fault(fault).into());
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(CoreError::Policy("fault retry budget exhausted".into()))
    }

    /// Service statistics.
    pub fn stats(&self) -> MemStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::KERNEL_DOMAIN;
    use paramecium_machine::mmu::Access;

    fn svc() -> (MemService, DomainId) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let user = DomainId::from(machine.lock().mmu.create_context());
        (MemService::new(machine), user)
    }

    #[test]
    fn alloc_maps_usable_pages() {
        let (svc, user) = svc();
        let base = svc.alloc(user, 2, Perms::RW).unwrap();
        svc.write(user, base + 100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        svc.read(user, base + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(svc.stats().pages_allocated, 2);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (svc, user) = svc();
        let a = svc.alloc(user, 1, Perms::RW).unwrap();
        let b = svc.alloc(user, 3, Perms::RW).unwrap();
        let c = svc.alloc(user, 1, Perms::RW).unwrap();
        assert!(a + PAGE_SIZE as u64 <= b);
        assert!(b + 3 * PAGE_SIZE as u64 <= c);
    }

    #[test]
    fn alloc_into_missing_domain_fails() {
        let (svc, _) = svc();
        assert!(matches!(
            svc.alloc(DomainId(99), 1, Perms::RW),
            Err(CoreError::NoSuchDomain(99))
        ));
    }

    #[test]
    fn shared_pages_see_each_others_writes() {
        let (svc, user) = svc();
        let kbase = svc.alloc(KERNEL_DOMAIN, 1, Perms::RW).unwrap();
        let ubase = svc.share(KERNEL_DOMAIN, kbase, 1, user, Perms::R).unwrap();
        svc.write(KERNEL_DOMAIN, kbase + 10, b"shared!").unwrap();
        let mut buf = [0u8; 7];
        svc.read(user, ubase + 10, &mut buf).unwrap();
        assert_eq!(&buf, b"shared!");
        assert_eq!(svc.stats().pages_shared, 1);
    }

    #[test]
    fn share_respects_destination_perms() {
        let (svc, user) = svc();
        let kbase = svc.alloc(KERNEL_DOMAIN, 1, Perms::RW).unwrap();
        let ubase = svc.share(KERNEL_DOMAIN, kbase, 1, user, Perms::R).unwrap();
        // Read-only in the user domain: writes fault.
        assert!(svc.write(user, ubase, b"x").is_err());
    }

    #[test]
    fn free_releases_frames_only_at_last_unmap() {
        let (svc, user) = svc();
        let machine = svc.machine().clone();
        let kbase = svc.alloc(KERNEL_DOMAIN, 1, Perms::RW).unwrap();
        let ubase = svc.share(KERNEL_DOMAIN, kbase, 1, user, Perms::RW).unwrap();
        let frames_before = machine.lock().phys.allocated_frames();
        svc.free(user, ubase, 1).unwrap();
        // Still mapped in the kernel: frame survives.
        assert_eq!(machine.lock().phys.allocated_frames(), frames_before);
        svc.free(KERNEL_DOMAIN, kbase, 1).unwrap();
        assert_eq!(machine.lock().phys.allocated_frames(), frames_before - 1);
    }

    #[test]
    fn fault_handlers_route_by_page() {
        let (svc, user) = svc();
        let hit = Arc::new(Mutex::new(None));
        let h = hit.clone();
        let vaddr = 0x40_0000u64;
        svc.set_fault_handler(
            user,
            vaddr,
            Arc::new(move |f: &Fault| {
                *h.lock() = Some(f.vaddr);
            }),
        );
        let fault = Fault {
            ctx: user.context(),
            vaddr: vaddr + 123, // Same page.
            access: Access::Read,
            kind: paramecium_machine::mmu::FaultKind::NotMapped,
        };
        assert!(svc.handle_fault(&fault));
        assert_eq!(*hit.lock(), Some(vaddr + 123));
        // A different page has no handler.
        let other = Fault {
            vaddr: vaddr + PAGE_SIZE as u64,
            ..fault
        };
        assert!(!svc.handle_fault(&other));
        let s = svc.stats();
        assert_eq!((s.faults_handled, s.faults_unhandled), (1, 1));
    }

    #[test]
    fn clear_fault_handler_works() {
        let (svc, user) = svc();
        svc.set_fault_handler(user, 0x1000, Arc::new(|_| {}));
        assert!(svc.clear_fault_handler(user, 0x1000));
        assert!(!svc.clear_fault_handler(user, 0x1000));
    }

    #[test]
    fn io_claims_enforce_exclusivity() {
        let (svc, user) = svc();
        let regs = svc.io_allocate("nic", 64, IoSharing::Exclusive).unwrap();
        let bufs = svc.io_allocate("nic", 8192, IoSharing::Shared).unwrap();
        svc.io_claim(user, regs).unwrap();
        assert!(svc.io_claim(KERNEL_DOMAIN, regs).is_err());
        svc.io_claim(KERNEL_DOMAIN, bufs).unwrap();
        svc.io_claim(user, bufs).unwrap();
        assert!(svc.io_is_claimant(user, regs));
        svc.io_release(user, regs).unwrap();
        assert!(!svc.io_is_claimant(user, regs));
        svc.io_claim(KERNEL_DOMAIN, regs).unwrap();
    }

    #[test]
    fn lazy_pages_materialise_on_first_touch() {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let user = DomainId::from(machine.lock().mmu.create_context());
        let svc = Arc::new(MemService::new(machine.clone()));
        let base = svc.alloc_lazy(user, 4, Perms::RW).unwrap();
        // Nothing resident yet.
        assert_eq!(machine.lock().phys.allocated_frames(), 0);
        // Touch page 2: exactly one frame appears, zeroed, then usable.
        svc.write(user, base + 2 * PAGE_SIZE as u64 + 100, b"lazy!")
            .unwrap();
        assert_eq!(machine.lock().phys.allocated_frames(), 1);
        let mut buf = [0u8; 5];
        svc.read(user, base + 2 * PAGE_SIZE as u64 + 100, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"lazy!");
        // A read touching two further pages faults them both in.
        let mut big = vec![0u8; PAGE_SIZE + 10];
        svc.read(user, base, &mut big).unwrap();
        assert_eq!(machine.lock().phys.allocated_frames(), 3);
        assert!(
            big.iter().all(|&b| b == 0),
            "demand-zero pages read as zero"
        );
        assert_eq!(svc.stats().faults_handled, 3);
    }

    #[test]
    fn lazy_pages_respect_permissions() {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let user = DomainId::from(machine.lock().mmu.create_context());
        let svc = Arc::new(MemService::new(machine));
        let base = svc.alloc_lazy(user, 1, Perms::R).unwrap();
        // First touch materialises the page read-only…
        let mut buf = [0u8; 4];
        svc.read(user, base, &mut buf).unwrap();
        // …so writes still fault, and the handler cannot fix a protection
        // fault (the page is already mapped): the error surfaces.
        assert!(svc.write(user, base, b"nope").is_err());
    }

    #[test]
    fn unhandled_fault_still_surfaces() {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let user = DomainId::from(machine.lock().mmu.create_context());
        let svc = Arc::new(MemService::new(machine));
        let mut buf = [0u8; 4];
        assert!(matches!(
            svc.read(user, 0xDEAD_0000, &mut buf),
            Err(CoreError::Machine(MachineError::Fault(_)))
        ));
    }

    #[test]
    fn notification_only_handler_does_not_spin() {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let user = DomainId::from(machine.lock().mmu.create_context());
        let svc = Arc::new(MemService::new(machine));
        let hits = Arc::new(Mutex::new(0u32));
        let h = hits.clone();
        svc.set_fault_handler(
            user,
            0x7000,
            Arc::new(move |_| {
                *h.lock() += 1;
            }),
        );
        let mut buf = [0u8; 4];
        assert!(svc.read(user, 0x7000, &mut buf).is_err());
        assert_eq!(*hits.lock(), 1, "handler ran once, no retry loop");
    }

    #[test]
    fn destroyed_domain_leaves_nothing_behind() {
        let (svc, user) = svc();
        svc.alloc(user, 2, Perms::RW).unwrap();
        svc.reserve_vaddr(user, 1);
        svc.destroy_domain(user).unwrap();
        assert!(svc.next_vaddr.lock().is_empty());
        assert!(svc.frame_refs.lock().is_empty());
        assert!(svc.fault_handlers.read().is_empty());
    }

    #[test]
    fn alloc_rolls_back_on_exhaustion() {
        let machine = Arc::new(Mutex::new(Machine::with_config(
            paramecium_machine::CostModel::default(),
            4,
            8,
        )));
        let user = DomainId::from(machine.lock().mmu.create_context());
        let svc = MemService::new(machine.clone());
        // Ask for more pages than exist: must fail and free everything.
        assert!(svc.alloc(user, 8, Perms::RW).is_err());
        assert_eq!(machine.lock().phys.allocated_frames(), 0);
        // A smaller allocation then succeeds.
        assert!(svc.alloc(user, 2, Perms::RW).is_ok());
    }
}
