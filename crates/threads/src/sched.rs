//! The round-robin scheduler.
//!
//! Deterministic and single-threaded: `run_until_idle` repeatedly pops the
//! ready queue, enters the thread body, and acts on the returned
//! [`Step`]. Every scheduling decision charges the machine's `schedule`
//! cost; thread creation charges `thread_create`.

use std::{collections::HashMap, collections::VecDeque, sync::Arc};

use parking_lot::Mutex;

use paramecium_machine::Machine;

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

/// Shared scheduler core (cloned into sync primitives so they can wake
/// threads).
pub struct SchedCore {
    machine: Arc<Mutex<Machine>>,
    tcbs: Mutex<HashMap<Tid, Tcb>>,
    ready: Mutex<VecDeque<Tid>>,
    next_tid: Mutex<Tid>,
    stats: Mutex<SchedStats>,
}

impl SchedCore {
    /// Moves a blocked thread to the ready queue (called by sync
    /// primitives on signal).
    pub fn wake(&self, tid: Tid) {
        let mut tcbs = self.tcbs.lock();
        if let Some(tcb) = tcbs.get_mut(&tid) {
            if tcb.state == TState::Blocked {
                tcb.state = TState::Ready;
                self.ready.lock().push_back(tid);
                self.stats.lock().wakes += 1;
            }
        }
    }

    /// The machine handle.
    pub fn machine(&self) -> &Arc<Mutex<Machine>> {
        &self.machine
    }
}

/// The thread scheduler.
#[derive(Clone)]
pub struct Scheduler {
    core: Arc<SchedCore>,
}

impl Scheduler {
    /// Creates a scheduler over a machine.
    pub fn new(machine: Arc<Mutex<Machine>>) -> Self {
        Scheduler {
            core: Arc::new(SchedCore {
                machine,
                tcbs: Mutex::new(HashMap::new()),
                ready: Mutex::new(VecDeque::new()),
                next_tid: Mutex::new(1),
                stats: Mutex::new(SchedStats::default()),
            }),
        }
    }

    /// The shared core (for sync primitives and the pop-up engine).
    pub fn core(&self) -> &Arc<SchedCore> {
        &self.core
    }

    /// Spawns a regular thread, charging the creation cost. Returns its
    /// id.
    pub fn spawn(&self, body: ThreadBody) -> Tid {
        self.spawn_with_cost(body, true)
    }

    /// Spawns with optional cost charging (the pop-up engine charges its
    /// own, different costs).
    pub(crate) fn spawn_with_cost(&self, body: ThreadBody, charge_create: bool) -> Tid {
        let tid = {
            let mut next = self.core.next_tid.lock();
            let t = *next;
            *next += 1;
            t
        };
        if charge_create {
            let mut m = self.core.machine.lock();
            let cost = m.cost.thread_create;
            m.charge(cost);
        }
        self.core.tcbs.lock().insert(
            tid,
            Tcb {
                state: TState::Ready,
                body: Some(body),
                entries: 0,
            },
        );
        self.core.ready.lock().push_back(tid);
        self.core.stats.lock().spawned += 1;
        tid
    }

    /// Runs one scheduling slice. Returns false if the ready queue was
    /// empty.
    pub(crate) fn run_slice(&self) -> bool {
        let Some(tid) = self.core.ready.lock().pop_front() else {
            return false;
        };
        // Charge the scheduling decision.
        {
            let mut m = self.core.machine.lock();
            let cost = m.cost.schedule;
            m.charge(cost);
        }
        // Take the body out so the TCB lock is not held while running.
        let (mut body, entries) = {
            let mut tcbs = self.core.tcbs.lock();
            let tcb = tcbs.get_mut(&tid).expect("ready thread has a TCB");
            tcb.state = TState::Running;
            tcb.entries += 1;
            (
                tcb.body.take().expect("ready thread has a body"),
                tcb.entries,
            )
        };
        self.core.stats.lock().slices += 1;

        let mut ctx = ThreadCtx {
            tid,
            machine: self.core.machine.clone(),
            entries,
        };
        let step = body(&mut ctx);

        let mut tcbs = self.core.tcbs.lock();
        let tcb = tcbs.get_mut(&tid).expect("running thread has a TCB");
        match step {
            Step::Yield => {
                tcb.state = TState::Ready;
                tcb.body = Some(body);
                self.core.ready.lock().push_back(tid);
            }
            Step::Block(waitable) => {
                tcb.state = TState::Blocked;
                tcb.body = Some(body);
                self.core.stats.lock().blocks += 1;
                drop(tcbs); // `park` may immediately wake us (lost-signal safety).
                waitable.park(tid);
            }
            Step::Done => {
                tcbs.remove(&tid);
                self.core.stats.lock().completed += 1;
            }
        }
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
        self.core.tcbs.lock().get(&tid).map(|t| t.state)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SchedStats {
        *self.core.stats.lock()
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
        let before = s.core().machine().lock().now();
        s.spawn(Box::new(|_| Step::Done));
        let cost = s.core().machine().lock().cost.thread_create;
        assert_eq!(s.core().machine().lock().now() - before, cost);
    }

    #[test]
    fn slices_charge_schedule_cost() {
        let s = sched();
        s.spawn(Box::new(|_| Step::Done));
        let before = s.core().machine().lock().now();
        s.run_until_idle(10);
        let cost = s.core().machine().lock().cost.schedule;
        assert_eq!(s.core().machine().lock().now() - before, cost);
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
        assert!(s.core().tcbs.lock().is_empty());
    }

    #[test]
    fn run_until_idle_respects_cap() {
        let s = sched();
        s.spawn(Box::new(|_| Step::Yield));
        assert_eq!(s.run_until_idle(7), 7);
    }
}
