//! The round-robin scheduler.
//!
//! Deterministic and single-threaded: `run_until_idle` repeatedly pops the
//! ready queue, enters the thread body, and acts on the returned
//! [`Step`]. Every scheduling decision charges the machine's `schedule`
//! cost; thread creation charges `thread_create`.
//!
//! The scheduler's state — the next thread id, the TCB map, the ready
//! queue and the statistics — sits behind one lock, and a slice takes it
//! twice: to pick the thread and to file the step it returned. That lock
//! is never held while a body runs, while a waitable parks (a `park` may
//! call the scheduler's `wake`, and the lock is not re-entrant), or while
//! the machine is charged.

use std::{collections::HashMap, collections::VecDeque, sync::Arc};

use parking_lot::{Mutex, MutexGuard};

use paramecium_machine::{CostModel, Cycles, Machine};

use crate::tcb::{Step, TState, Tcb, ThreadBody, ThreadCtx, Tid};

/// Scheduler statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Threads spawned (all kinds).
    pub spawned: u64,
    /// Scheduling slices executed.
    pub slices: u64,
    /// Threads that ran to completion.
    pub completed: u64,
    /// Block operations.
    pub blocks: u64,
    /// Wake operations.
    pub wakes: u64,
}

struct SchedState {
    next_tid: Tid,
    tcbs: HashMap<Tid, Tcb>,
    ready: VecDeque<Tid>,
    stats: SchedStats,
}

/// The thread scheduler. Clones are handles on one scheduler; the sync
/// primitives keep one to wake the threads they park.
#[derive(Clone)]
pub struct Scheduler {
    machine: Arc<Mutex<Machine>>,
    state: Arc<Mutex<SchedState>>,
}

impl Scheduler {
    /// Creates a scheduler over a machine.
    pub fn new(machine: Arc<Mutex<Machine>>) -> Self {
        Scheduler {
            machine,
            state: Arc::new(Mutex::new(SchedState {
                next_tid: 1,
                tcbs: HashMap::new(),
                ready: VecDeque::new(),
                stats: SchedStats::default(),
            })),
        }
    }

    /// The machine the scheduler charges.
    pub(crate) fn machine(&self) -> &Mutex<Machine> {
        &self.machine
    }

    /// Charges the machine the cost `pick` selects.
    pub(crate) fn charge(&self, pick: fn(&CostModel) -> Cycles) {
        let mut m = self.machine.lock();
        let cost = pick(&m.cost);
        m.charge(cost);
    }

    /// Spawns a regular thread, charging the creation cost. Returns its
    /// id.
    pub fn spawn(&self, body: ThreadBody) -> Tid {
        self.charge(|c| c.thread_create);
        self.admit(body, 0, Step::Yield)
    }

    /// Gives `body` a thread id and files it by `step`, as if it had just
    /// returned `step` from its `entries`-th slice: the pop-up engine
    /// hands over a promoted proto-thread this way, in the state its proto
    /// run ended in.
    pub(crate) fn admit(&self, body: ThreadBody, entries: u64, step: Step) -> Tid {
        let mut st = self.state.lock();
        let tid = st.next_tid;
        st.next_tid += 1;
        st.stats.spawned += 1;
        Self::settle(st, tid, body, entries, step);
        tid
    }

    /// Files thread `tid` by the step its body returned: `Yield` queues
    /// it, `Block` parks it on the waitable, `Done` removes it. Releases
    /// the lock before parking.
    fn settle(
        mut st: MutexGuard<'_, SchedState>,
        tid: Tid,
        body: ThreadBody,
        entries: u64,
        step: Step,
    ) {
        let state = match step {
            Step::Done => {
                st.tcbs.remove(&tid);
                st.stats.completed += 1;
                return;
            }
            Step::Yield => {
                st.ready.push_back(tid);
                TState::Ready
            }
            Step::Block(_) => {
                st.stats.blocks += 1;
                TState::Blocked
            }
        };
        st.tcbs.insert(
            tid,
            Tcb {
                state,
                body: Some(body),
                entries,
            },
        );
        drop(st);
        if let Step::Block(w) = step {
            w.park(tid);
        }
    }

    /// Moves a blocked thread to the ready queue (called by the sync
    /// primitives on release).
    pub(crate) fn wake(&self, tid: Tid) {
        let mut st = self.state.lock();
        let st = &mut *st;
        if let Some(tcb) = st.tcbs.get_mut(&tid) {
            if tcb.state == TState::Blocked {
                tcb.state = TState::Ready;
                st.ready.push_back(tid);
                st.stats.wakes += 1;
            }
        }
    }

    /// Runs one scheduling slice. Returns false if the ready queue was
    /// empty.
    fn run_slice(&self) -> bool {
        // Take the body out so the lock is not held while it runs.
        let (tid, mut body, entries) = {
            let mut st = self.state.lock();
            let Some(tid) = st.ready.pop_front() else {
                return false;
            };
            st.stats.slices += 1;
            let tcb = st.tcbs.get_mut(&tid).expect("ready thread has a TCB");
            tcb.state = TState::Running;
            tcb.entries += 1;
            let body = tcb.body.take().expect("ready thread has a body");
            (tid, body, tcb.entries)
        };
        self.charge(|c| c.schedule);
        let step = body(&mut ThreadCtx {
            machine: self.machine(),
            entries,
        });
        Self::settle(self.state.lock(), tid, body, entries, step);
        true
    }

    /// Runs until the ready queue is empty or `max_slices` is reached.
    /// Returns the number of slices executed.
    pub fn run_until_idle(&self, max_slices: u64) -> u64 {
        let mut n = 0;
        while n < max_slices && self.run_slice() {
            n += 1;
        }
        n
    }

    /// The scheduling state of a thread, or `None` once it has finished
    /// (a finished thread leaves the scheduler).
    pub fn state(&self, tid: Tid) -> Option<TState> {
        self.state.lock().tcbs.get(&tid).map(|t| t.state)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SchedStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sched() -> Scheduler {
        Scheduler::new(Arc::new(Mutex::new(Machine::new())))
    }

    #[test]
    fn threads_run_to_completion() {
        let s = sched();
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            let h = hits.clone();
            s.spawn(Box::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
                Step::Done
            }));
        }
        assert_eq!(s.run_until_idle(100), 3);
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        let st = s.stats();
        assert_eq!((st.spawned, st.completed), (3, 3));
    }

    #[test]
    fn yielding_interleaves_round_robin() {
        let s = sched();
        let log = Arc::new(Mutex::new(Vec::new()));
        for name in [1i32, 2] {
            let l = log.clone();
            s.spawn(Box::new(move |ctx| {
                l.lock().push(name);
                if ctx.entries < 3 {
                    Step::Yield
                } else {
                    Step::Done
                }
            }));
        }
        s.run_until_idle(100);
        assert_eq!(*log.lock(), vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn spawn_charges_thread_create() {
        let s = sched();
        let before = s.machine().lock().now();
        s.spawn(Box::new(|_| Step::Done));
        let cost = s.machine().lock().cost.thread_create;
        assert_eq!(s.machine().lock().now() - before, cost);
    }

    #[test]
    fn slices_charge_schedule_cost() {
        let s = sched();
        s.spawn(Box::new(|_| Step::Done));
        let before = s.machine().lock().now();
        s.run_until_idle(10);
        let cost = s.machine().lock().cost.schedule;
        assert_eq!(s.machine().lock().now() - before, cost);
    }

    #[test]
    fn finished_threads_leave_the_scheduler() {
        let s = sched();
        let tids: Vec<Tid> = (0..1000)
            .map(|_| s.spawn(Box::new(|_| Step::Done)))
            .collect();
        s.run_until_idle(u64::MAX);
        assert!(tids.iter().all(|&tid| s.state(tid).is_none()));
        assert_eq!(s.stats().completed, 1000);
        assert!(s.state.lock().tcbs.is_empty());
    }

    #[test]
    fn run_until_idle_respects_cap() {
        let s = sched();
        s.spawn(Box::new(|_| Step::Yield));
        assert_eq!(s.run_until_idle(7), 7);
    }
}
