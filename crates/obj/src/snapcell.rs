//! A read-mostly publish cell for the dispatch caches.
//!
//! The dispatch fast paths ([`Object::invoke`](crate::object::Object)'s
//! inline cache and the per-hop [`Forward`](crate::forward::Forward) cache) read their
//! cached resolutions on every invocation but rewrite them only when a
//! resolution goes stale — a control-plane event (interface re-export,
//! interposer retarget, child replacement). Even an uncontended lock costs
//! an atomic read-modify-write per read; at the measured dispatch budget
//! that is the single largest line item. `SnapCell` removes it: readers
//! perform exactly one `Acquire` pointer load.
//!
//! # How it stays sound without reader registration
//!
//! Writers publish a freshly boxed snapshot with a pointer `swap` and move
//! the previous snapshot into a graveyard (`retired`) instead of freeing
//! it. Every snapshot ever published therefore stays allocated until the
//! `SnapCell` itself is dropped, so a reference obtained by [`SnapCell::
//! load`] — which borrows the cell — can never dangle, even if a republish
//! races the reader mid-call. Snapshots are immutable after publication;
//! there is nothing to tear.
//!
//! The price is that retired snapshots accumulate. That is bounded by
//! design: caches only republish when a resolution is first learned
//! (bounded by the slot cap) or invalidated by an export-generation bump
//! (bounded by the number of reconfigurations, which are rare
//! control-plane operations — never by steady-state call traffic).

use std::{
    ptr,
    sync::atomic::{AtomicPtr, Ordering},
};

use parking_lot::Mutex;

/// A cell holding an immutable snapshot, readable with one atomic load.
pub(crate) struct SnapCell<T> {
    /// The current snapshot (null until the first publish).
    current: AtomicPtr<T>,
    /// Previously published snapshots, kept alive until the cell drops so
    /// in-flight readers can never observe a freed snapshot. Locked only
    /// on the (cold) publish path.
    retired: Mutex<Vec<*mut T>>,
}

// Safety: `SnapCell` owns every snapshot it has ever published (directly or
// via `retired`) and hands out only shared references borrowed from the
// cell itself; the raw pointers are an ownership detail. Sharing the cell
// across threads shares `&T`/moves `T`, hence the `Send + Sync` bound.
unsafe impl<T: Send + Sync> Send for SnapCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapCell<T> {}

impl<T> SnapCell<T> {
    /// Creates an empty cell.
    pub(crate) fn new() -> Self {
        SnapCell {
            current: AtomicPtr::new(ptr::null_mut()),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Returns the current snapshot, if any has been published.
    ///
    /// The reference borrows the cell, and snapshots are never freed
    /// before the cell drops, so it remains valid for the whole borrow
    /// even if a concurrent [`SnapCell::publish`] replaces it.
    #[inline]
    pub(crate) fn load(&self) -> Option<&T> {
        let p = self.current.load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // Safety: `p` was published by `publish` (hence points to a
            // live, fully initialised `Box<T>`), and ownership is only
            // released in `Drop`, which requires no outstanding borrows.
            Some(unsafe { &*p })
        }
    }

    /// Publishes a new snapshot, retiring the previous one.
    pub(crate) fn publish(&self, value: T) {
        let new = Box::into_raw(Box::new(value));
        let old = self.current.swap(new, Ordering::AcqRel);
        if !old.is_null() {
            self.retired.lock().push(old);
        }
    }
}

impl<T> Drop for SnapCell<T> {
    fn drop(&mut self) {
        let p = *self.current.get_mut();
        if !p.is_null() {
            // Safety: exclusive access (`&mut self`) proves no borrows of
            // any snapshot remain; every pointer was created by
            // `Box::into_raw` and is freed exactly once.
            drop(unsafe { Box::from_raw(p) });
        }
        for p in self.retired.get_mut().drain(..) {
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

impl<T> Default for SnapCell<T> {
    fn default() -> Self {
        SnapCell::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_then_publish_then_replace() {
        let cell = SnapCell::new();
        assert!(cell.load().is_none());
        cell.publish(vec![1, 2]);
        assert_eq!(cell.load().unwrap(), &[1, 2]);
        // A reference taken before a republish stays readable.
        let before = cell.load().unwrap();
        cell.publish(vec![3]);
        assert_eq!(before, &[1, 2]);
        assert_eq!(cell.load().unwrap(), &[3]);
    }

    #[test]
    fn drop_frees_current_and_retired() {
        // Leak detection by proxy: drop counters.
        struct Counted(Arc<std::sync::atomic::AtomicU64>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicU64::new(0));
        {
            let cell = SnapCell::new();
            for _ in 0..5 {
                cell.publish(Counted(drops.clone()));
            }
            assert_eq!(drops.load(Ordering::SeqCst), 0, "retired not freed early");
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            5,
            "all snapshots freed on drop"
        );
    }

    /// The world-pool stress profile: many readers hammering `load` while
    /// a writer churns publishes. Each snapshot is internally consistent
    /// (all elements equal its sequence number), so any torn or dangling
    /// read shows up as a mixed vector; the drop counter proves every
    /// retired snapshot is freed exactly once when the cell goes away.
    #[test]
    fn stress_readers_never_tear_and_retired_snapshots_all_drop() {
        struct Counted {
            payload: Vec<u64>,
            drops: Arc<std::sync::atomic::AtomicU64>,
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                self.drops.fetch_add(1, Ordering::SeqCst);
            }
        }

        const PUBLISHES: u64 = 4_000;
        let drops = Arc::new(std::sync::atomic::AtomicU64::new(0));
        {
            let cell = Arc::new(SnapCell::<Counted>::new());
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let cell = cell.clone();
                    let stop = stop.clone();
                    std::thread::spawn(move || {
                        let mut seen_max = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            if let Some(snap) = cell.load() {
                                let seq = snap.payload[0];
                                assert!(
                                    snap.payload.iter().all(|&x| x == seq),
                                    "torn snapshot: {:?}",
                                    snap.payload
                                );
                                // Publishes are observed in order: the
                                // single writer's swap sequence is the
                                // only source of new pointers.
                                assert!(seq >= seen_max, "snapshot went backwards");
                                seen_max = seq;
                            }
                        }
                        seen_max
                    })
                })
                .collect();
            for seq in 1..=PUBLISHES {
                cell.publish(Counted {
                    payload: vec![seq; 16],
                    drops: drops.clone(),
                });
            }
            stop.store(true, Ordering::Relaxed);
            for h in readers {
                let seen = h.join().unwrap();
                assert!(seen <= PUBLISHES);
            }
            // While the cell is alive nothing is freed — that is the
            // whole safety argument for lock-free readers.
            assert_eq!(drops.load(Ordering::SeqCst), 0, "snapshot freed early");
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            PUBLISHES,
            "every published snapshot freed exactly once on cell drop"
        );
    }

    #[test]
    fn concurrent_readers_and_publishers() {
        let cell = Arc::new(SnapCell::new());
        cell.publish(0u64);
        let mut handles = Vec::new();
        for t in 0..2 {
            let cell = cell.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    cell.publish(t * 10_000 + i);
                    let v = *cell.load().unwrap();
                    assert!(v <= 20_000);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
