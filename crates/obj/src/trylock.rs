//! A minimal try-only lock for the dispatch fast path.
//!
//! The dispatch caches ([`Object`](crate::object::Object)'s inline cache
//! and the per-hop [`Forward`](crate::forward::Forward) cache) are acquired on every
//! hot invocation, always via *try*-acquire, and never held across a
//! blocking operation. A full mutex pays for capabilities those caches
//! never use (blocking, queueing); this lock is the minimum that preserves
//! their correctness: one atomic `swap` to acquire, one release store to
//! unlock. Acquisition failure is not an error — callers fall back to the
//! uncached slow path.
//!
//! The lock is public because other hot paths share its profile: the
//! sharded store cache guards each shard with one, keeping the warmed
//! single-client hit exactly as cheap as the old exclusive-state design
//! while letting concurrent worlds hit disjoint shards in parallel.

use std::{
    cell::UnsafeCell,
    ops::{Deref, DerefMut},
    sync::atomic::{AtomicBool, Ordering},
};

/// A lock offering only non-blocking acquisition.
pub struct TryLock<T> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// Safety: access to `value` is mediated exclusively by the `locked` flag —
// `try_lock` hands out at most one guard at a time (acquire on the
// successful swap, release on the guard's drop), so `&TryLock<T>` can be
// shared across threads whenever `T` itself may move between them.
unsafe impl<T: Send> Sync for TryLock<T> {}
unsafe impl<T: Send> Send for TryLock<T> {}

impl<T> TryLock<T> {
    /// Creates an unlocked lock holding `value`.
    pub fn new(value: T) -> Self {
        TryLock {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock if it is free, returning `None` (immediately,
    /// without spinning) when it is held.
    #[inline]
    pub fn try_lock(&self) -> Option<TryLockGuard<'_, T>> {
        if self.locked.swap(true, Ordering::Acquire) {
            None
        } else {
            Some(TryLockGuard { lock: self })
        }
    }

    /// Acquires the lock, spinning briefly and then yielding the thread
    /// until it is available.
    ///
    /// Suitable for short, never re-entrant critical sections (instance
    /// state access): in the deterministic simulation contention is
    /// essentially zero, and the uncontended acquire is a single atomic
    /// swap — measurably cheaper than a full mutex on the dispatch hot
    /// path. Like any non-reentrant lock, acquiring it twice on one thread
    /// livelocks; [`Object::with_state`](crate::object::Object::with_state)
    /// documents that rule for state access.
    pub fn lock(&self) -> TryLockGuard<'_, T> {
        let mut spins = 0u32;
        loop {
            if let Some(g) = self.try_lock() {
                return g;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl<T: Default> Default for TryLock<T> {
    fn default() -> Self {
        TryLock::new(T::default())
    }
}

/// Guard proving exclusive access to the protected value.
pub struct TryLockGuard<'a, T> {
    lock: &'a TryLock<T>,
}

impl<T> Deref for TryLockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: the guard exists, so `locked` is held by this guard and
        // no other reference to `value` is live.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for TryLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: as above, plus `&mut self` rules out aliasing via this
        // guard itself.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for TryLockGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_while_held_then_released() {
        let l = TryLock::new(7);
        {
            let mut g = l.try_lock().expect("free lock acquires");
            *g += 1;
            assert!(l.try_lock().is_none(), "second acquire must fail");
        }
        assert_eq!(*l.try_lock().expect("released lock re-acquires"), 8);
    }

    #[test]
    fn shared_across_threads() {
        let l = std::sync::Arc::new(TryLock::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = l.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        if let Some(mut g) = l.try_lock() {
                            *g += 1;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = *l.try_lock().unwrap();
        assert!(total > 0 && total <= 40_000);
    }
}
