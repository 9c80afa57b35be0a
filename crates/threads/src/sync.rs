//! Synchronisation primitives for simulated threads.
//!
//! Each primitive keeps a handle on the scheduler so a release can move
//! parked threads back to the ready queue, and each is itself the
//! [`Waitable`] a thread blocks on. The usage idiom inside a thread body
//! is *try, then block*:
//!
//! ```text
//! if sem.try_acquire() { …proceed… } else { return Step::Block(sem.clone()) }
//! ```
//!
//! A mutex is a semaphore with one permit: `Semaphore::new(&sched, 1)`.

use std::{collections::VecDeque, sync::Arc};

use parking_lot::Mutex;

use crate::{
    sched::Scheduler,
    tcb::{Tid, Waitable},
};

/// A counting semaphore.
pub struct Semaphore {
    sched: Scheduler,
    state: Mutex<SemState>,
}

struct SemState {
    permits: i64,
    waiters: VecDeque<Tid>,
}

impl Waitable for Semaphore {
    fn park(&self, tid: Tid) {
        let mut st = self.state.lock();
        if st.permits > 0 {
            // A release raced in between the failed try and the park:
            // wake immediately so the thread re-tries (Mesa semantics —
            // the permit stays up for grabs).
            drop(st);
            self.sched.wake(tid);
        } else {
            st.waiters.push_back(tid);
        }
    }
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(sched: &Scheduler, permits: i64) -> Arc<Self> {
        Arc::new(Semaphore {
            sched: sched.clone(),
            state: Mutex::new(SemState {
                permits,
                waiters: VecDeque::new(),
            }),
        })
    }

    /// Attempts to take a permit without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut st = self.state.lock();
        if st.permits > 0 {
            st.permits -= 1;
            true
        } else {
            false
        }
    }

    /// Releases a permit, waking one waiter if any. Mesa semantics: the
    /// permit is made available and the waiter re-tries — it is not handed
    /// the permit directly, so a third party may race for it.
    pub fn release(&self) {
        let woken = {
            let mut st = self.state.lock();
            st.permits += 1;
            st.waiters.pop_front()
        };
        if let Some(tid) = woken {
            self.sched.wake(tid);
        }
    }
}

/// A bounded FIFO channel of dynamic values, usable from thread bodies.
pub struct Channel<T> {
    sched: Scheduler,
    state: Mutex<ChanState<T>>,
    capacity: usize,
}

struct ChanState<T> {
    queue: VecDeque<T>,
    recv_waiters: VecDeque<Tid>,
}

impl<T: Send> Waitable for Channel<T> {
    fn park(&self, tid: Tid) {
        let mut st = self.state.lock();
        if st.queue.is_empty() {
            st.recv_waiters.push_back(tid);
        } else {
            drop(st);
            self.sched.wake(tid);
        }
    }
}

impl<T: Send> Channel<T> {
    /// Creates a channel with the given capacity.
    pub fn new(sched: &Scheduler, capacity: usize) -> Arc<Self> {
        Arc::new(Channel {
            sched: sched.clone(),
            state: Mutex::new(ChanState {
                queue: VecDeque::new(),
                recv_waiters: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        })
    }

    /// Sends without blocking. Returns `false` (dropping the value is the
    /// caller's choice) when full — senders in this system are interrupt
    /// handlers, which must never block.
    pub fn try_send(&self, value: T) -> bool {
        let woken = {
            let mut st = self.state.lock();
            if st.queue.len() >= self.capacity {
                return false;
            }
            st.queue.push_back(value);
            st.recv_waiters.pop_front()
        };
        if let Some(tid) = woken {
            self.sched.wake(tid);
        }
        true
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<T> {
        self.state.lock().queue.pop_front()
    }

    /// Queue length.
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sched::Scheduler, tcb::Step};
    use paramecium_machine::Machine;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sched() -> Scheduler {
        Scheduler::new(Arc::new(Mutex::new(Machine::new())))
    }

    #[test]
    fn semaphore_blocks_and_wakes() {
        let s = sched();
        let sem = Semaphore::new(&s, 0);
        let got = Arc::new(AtomicU64::new(0));

        let (sem_c, got_c) = (sem.clone(), got.clone());
        let waiter = s.spawn(Box::new(move |_| {
            if sem_c.try_acquire() {
                got_c.fetch_add(1, Ordering::Relaxed);
                Step::Done
            } else {
                Step::Block(sem_c.clone())
            }
        }));

        s.run_until_idle(10);
        assert_eq!(s.state(waiter), Some(crate::tcb::TState::Blocked));
        assert_eq!(sem.state.lock().waiters.len(), 1);

        sem.release();
        s.run_until_idle(10);
        assert_eq!(got.load(Ordering::Relaxed), 1);
        assert_eq!(s.state(waiter), None);
        assert_eq!(s.stats().completed, 1);
    }

    #[test]
    fn semaphore_race_between_try_and_park_is_safe() {
        // Release lands after the failed try_acquire but before park: the
        // park must observe the permit and self-wake.
        let s = sched();
        let sem = Semaphore::new(&s, 0);
        let done = Arc::new(AtomicU64::new(0));
        let (sem_c, done_c) = (sem.clone(), done.clone());
        let sem_racer = sem.clone();
        s.spawn(Box::new(move |_| {
            if sem_c.try_acquire() {
                done_c.fetch_add(1, Ordering::Relaxed);
                Step::Done
            } else {
                // The "interrupt" fires right here, before we park.
                sem_racer.release();
                Step::Block(sem_c.clone())
            }
        }));
        s.run_until_idle(10);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        let s = sched();
        let mutex = Semaphore::new(&s, 1);
        let in_critical = Arc::new(AtomicU64::new(0));
        let max_seen = Arc::new(AtomicU64::new(0));

        for _ in 0..4 {
            let (m, ic, ms) = (mutex.clone(), in_critical.clone(), max_seen.clone());
            s.spawn(Box::new(move |ctx| {
                match ctx.entries {
                    1 => {
                        if m.try_acquire() {
                            let now = ic.fetch_add(1, Ordering::Relaxed) + 1;
                            ms.fetch_max(now, Ordering::Relaxed);
                            Step::Yield // Hold the lock across a slice.
                        } else {
                            // Re-enter at entries=1 semantics: use Block.
                            Step::Block(m.clone())
                        }
                    }
                    _ => {
                        if ic.load(Ordering::Relaxed) > 0 {
                            ic.fetch_sub(1, Ordering::Relaxed);
                            m.release();
                            Step::Done
                        } else if m.try_acquire() {
                            let now = ic.fetch_add(1, Ordering::Relaxed) + 1;
                            ms.fetch_max(now, Ordering::Relaxed);
                            Step::Yield
                        } else {
                            Step::Block(m.clone())
                        }
                    }
                }
            }));
        }
        s.run_until_idle(200);
        assert_eq!(
            max_seen.load(Ordering::Relaxed),
            1,
            "two threads in the critical section"
        );
    }

    #[test]
    fn channel_send_recv_fifo() {
        let s = sched();
        let chan: Arc<Channel<i32>> = Channel::new(&s, 8);
        chan.try_send(1);
        chan.try_send(2);
        assert_eq!(chan.try_recv(), Some(1));
        assert_eq!(chan.try_recv(), Some(2));
        assert_eq!(chan.try_recv(), None);
    }

    #[test]
    fn channel_capacity_drops_excess() {
        let s = sched();
        let chan: Arc<Channel<i32>> = Channel::new(&s, 2);
        assert!(chan.try_send(1));
        assert!(chan.try_send(2));
        assert!(!chan.try_send(3));
        assert_eq!(chan.len(), 2);
    }

    #[test]
    fn channel_wakes_blocked_receiver() {
        let s = sched();
        let chan: Arc<Channel<i32>> = Channel::new(&s, 8);
        let got = Arc::new(AtomicU64::new(0));
        let (c, g) = (chan.clone(), got.clone());
        s.spawn(Box::new(move |_| match c.try_recv() {
            Some(v) => {
                g.store(v as u64, Ordering::Relaxed);
                Step::Done
            }
            None => Step::Block(c.clone()),
        }));
        s.run_until_idle(10);
        assert_eq!(got.load(Ordering::Relaxed), 0);
        chan.try_send(42);
        s.run_until_idle(10);
        assert_eq!(got.load(Ordering::Relaxed), 42);
    }
}
