//! A small software-modelled TLB with hit/miss accounting.
//!
//! Entries are tagged with the MMU context (as on SPARC), so a context
//! switch does not flush the TLB; unmapping or reprotecting a page
//! invalidates the matching entries.

use crate::{
    mmu::{ContextId, Perms},
    phys::FrameId,
};

/// One cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TlbEntry {
    ctx: ContextId,
    vpn: u64,
    frame: FrameId,
    perms: Perms,
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups satisfied from the TLB.
    pub hits: u64,
    /// Lookups that required a page-table walk.
    pub misses: u64,
}

/// A fully associative FIFO-replacement TLB.
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    next: usize,
    stats: TlbStats,
    enabled: bool,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries (64 on our model SPARC).
    pub fn new(capacity: usize) -> Self {
        Tlb {
            entries: vec![None; capacity.max(1)],
            next: 0,
            stats: TlbStats::default(),
            enabled: true,
        }
    }

    /// Enables or disables the TLB (for the ablation experiment: every
    /// lookup becomes a miss when disabled).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.flush_all();
        }
    }

    /// Looks up a translation. Counts a hit or miss.
    pub fn lookup(&mut self, ctx: ContextId, vpn: u64) -> Option<(FrameId, Perms)> {
        if self.enabled {
            for e in self.entries.iter().flatten() {
                if e.ctx == ctx && e.vpn == vpn {
                    self.stats.hits += 1;
                    return Some((e.frame, e.perms));
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Inserts a translation after a page-table walk.
    pub fn insert(&mut self, ctx: ContextId, vpn: u64, frame: FrameId, perms: Perms) {
        if !self.enabled {
            return;
        }
        // Replace an existing entry for the same (ctx, vpn) if present.
        for entry in self.entries.iter_mut().flatten() {
            if entry.ctx == ctx && entry.vpn == vpn {
                entry.frame = frame;
                entry.perms = perms;
                return;
            }
        }
        self.entries[self.next] = Some(TlbEntry {
            ctx,
            vpn,
            frame,
            perms,
        });
        self.next = (self.next + 1) % self.entries.len();
    }

    /// Invalidates the entry for one page of one context.
    pub(crate) fn invalidate(&mut self, ctx: ContextId, vpn: u64) {
        for e in self.entries.iter_mut() {
            if matches!(e, Some(entry) if entry.ctx == ctx && entry.vpn == vpn) {
                *e = None;
            }
        }
    }

    /// Invalidates every entry of one context (context teardown).
    pub(crate) fn flush_context(&mut self, ctx: ContextId) {
        for e in self.entries.iter_mut() {
            if matches!(e, Some(entry) if entry.ctx == ctx) {
                *e = None;
            }
        }
    }

    /// Invalidates everything.
    pub(crate) fn flush_all(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets the counters (not the entries).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: u16) -> ContextId {
        ContextId(n)
    }

    #[test]
    fn hit_after_insert() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(ctx(1), 7), None);
        tlb.insert(ctx(1), 7, FrameId(3), Perms::RW);
        assert_eq!(tlb.lookup(ctx(1), 7), Some((FrameId(3), Perms::RW)));
        assert_eq!(tlb.stats(), TlbStats { hits: 1, misses: 1 });
    }

    #[test]
    fn entries_are_context_tagged() {
        let mut tlb = Tlb::new(4);
        tlb.insert(ctx(1), 7, FrameId(3), Perms::RW);
        assert_eq!(tlb.lookup(ctx(2), 7), None);
    }

    #[test]
    fn fifo_replacement_evicts_oldest() {
        let mut tlb = Tlb::new(2);
        tlb.insert(ctx(0), 1, FrameId(1), Perms::R);
        tlb.insert(ctx(0), 2, FrameId(2), Perms::R);
        tlb.insert(ctx(0), 3, FrameId(3), Perms::R); // Evicts vpn 1.
        assert_eq!(tlb.lookup(ctx(0), 1), None);
        assert!(tlb.lookup(ctx(0), 2).is_some());
        assert!(tlb.lookup(ctx(0), 3).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tlb = Tlb::new(2);
        tlb.insert(ctx(0), 1, FrameId(1), Perms::R);
        tlb.insert(ctx(0), 1, FrameId(9), Perms::RW);
        assert_eq!(tlb.lookup(ctx(0), 1), Some((FrameId(9), Perms::RW)));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(4);
        tlb.insert(ctx(1), 1, FrameId(1), Perms::R);
        tlb.insert(ctx(1), 2, FrameId(2), Perms::R);
        tlb.insert(ctx(2), 1, FrameId(3), Perms::R);
        tlb.invalidate(ctx(1), 1);
        assert_eq!(tlb.lookup(ctx(1), 1), None);
        assert!(tlb.lookup(ctx(1), 2).is_some());
        tlb.flush_context(ctx(1));
        assert_eq!(tlb.lookup(ctx(1), 2), None);
        assert!(tlb.lookup(ctx(2), 1).is_some());
        tlb.flush_all();
        assert_eq!(tlb.lookup(ctx(2), 1), None);
    }

    #[test]
    fn disabled_tlb_always_misses() {
        let mut tlb = Tlb::new(4);
        tlb.set_enabled(false);
        tlb.insert(ctx(0), 1, FrameId(1), Perms::R);
        assert_eq!(tlb.lookup(ctx(0), 1), None);
        assert_eq!(tlb.stats().hits, 0);
        assert_eq!(tlb.stats().misses, 1);
    }
}
