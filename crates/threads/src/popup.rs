//! Pop-up threads with the proto-thread fast path.
//!
//! "Processor events are usually redirected to the thread system to turn
//! them into pop-up threads. Once interrupts are pop-up threads, they can
//! block, and be scheduled just like any other ordinary thread. For
//! efficiency reasons, we delay the actual creation of the pop-up thread
//! by creating a proto-thread. Only when the proto-thread is about to
//! block or be rescheduled do we turn it into a real thread." (paper,
//! section 3; see also van Doorn & Tanenbaum \[10\]).
//!
//! The engine registers with the nucleus's event service. On each event it
//! either:
//!
//! - **Proto mode** (the paper's optimisation): charges the cheap
//!   proto-thread cost and runs the handler *immediately, in interrupt
//!   context*. If the handler completes without blocking — the common case
//!   for well-written handlers — no thread ever exists. If it blocks or
//!   yields, the engine *promotes*: pays the promotion cost and hands the
//!   half-run body to the scheduler with full thread semantics.
//! - **Eager mode** (the baseline): always pays full thread creation and
//!   queues the handler for the scheduler.

use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use parking_lot::Mutex;

use paramecium_core::{domain::DomainId, events::EventService};
use paramecium_machine::{trap::Trap, Machine};

use crate::{
    sched::Scheduler,
    tcb::{Step, ThreadBody, ThreadCtx, ThreadKind},
};

/// Creation strategy for pop-up threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopupMode {
    /// Proto-thread fast path (the paper's design).
    Proto,
    /// Always create a full thread (the baseline the paper improves on).
    Eager,
}

/// Pop-up statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PopupStats {
    /// Events handled entirely in the proto-thread (no thread created).
    pub fast_path: u64,
    /// Proto-threads promoted to full threads.
    pub promotions: u64,
    /// Eagerly created pop-up threads.
    pub eager_creations: u64,
}

/// A factory producing one handler body per event. The body is the
/// handler's *continuation*: it is entered once in interrupt context and,
/// if it does not finish, re-entered later with thread semantics.
pub type PopupFactory = Arc<dyn Fn(&Trap) -> ThreadBody + Send + Sync>;

/// The pop-up thread engine.
pub struct PopupEngine {
    scheduler: Scheduler,
    machine: Arc<Mutex<Machine>>,
    mode: PopupMode,
    fast_path: AtomicU64,
    promotions: AtomicU64,
    eager: AtomicU64,
}

impl PopupEngine {
    /// Creates an engine in the given mode.
    pub fn new(scheduler: Scheduler, mode: PopupMode) -> Arc<Self> {
        let machine = scheduler.core().machine().clone();
        Arc::new(PopupEngine {
            scheduler,
            machine,
            mode,
            fast_path: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            eager: AtomicU64::new(0),
        })
    }

    /// Registers this engine for `vector` with the event service: events
    /// on that vector become pop-up threads running `factory`'s bodies in
    /// `domain`.
    pub fn attach(
        self: &Arc<Self>,
        events: &EventService,
        vector: u32,
        domain: DomainId,
        factory: PopupFactory,
    ) -> paramecium_core::CoreResult<()> {
        let engine = self.clone();
        events.register(
            vector,
            domain,
            Arc::new(move |trap| engine.handle(trap, &factory)),
        )?;
        Ok(())
    }

    /// Handles one event according to the engine's mode.
    pub fn handle(&self, trap: &Trap, factory: &PopupFactory) {
        match self.mode {
            PopupMode::Proto => self.handle_proto(trap, factory),
            PopupMode::Eager => self.handle_eager(trap, factory),
        }
    }

    fn handle_proto(&self, trap: &Trap, factory: &PopupFactory) {
        // Proto-thread: borrowed stack, no TCB — just the cheap setup cost.
        {
            let mut m = self.machine.lock();
            let cost = m.cost.proto_thread_create;
            m.charge(cost);
        }
        let mut body = factory(trap);
        // Run immediately, in interrupt context.
        let mut ctx = ThreadCtx {
            tid: 0, // Proto-threads have no identity yet.
            machine: self.machine.clone(),
            entries: 1,
        };
        match body(&mut ctx) {
            Step::Done => {
                // Fast path: handled to completion, no thread was created.
                self.fast_path.fetch_add(1, Ordering::Relaxed);
            }
            step => {
                // About to block or be rescheduled: promote to a real
                // thread now.
                {
                    let mut m = self.machine.lock();
                    let cost = m.cost.proto_thread_promote;
                    m.charge(cost);
                }
                self.promotions.fetch_add(1, Ordering::Relaxed);
                let resumed = Mutex::new(Some((step, body)));
                // The promoted body must first honour the step the proto
                // run ended with (e.g. actually park on the waitable).
                let wrapped: ThreadBody = Box::new(move |ctx| {
                    let mut slot = resumed.lock();
                    match slot.take() {
                        Some((pending, body)) => {
                            *slot = Some((Step::Yield, body));
                            match pending {
                                Step::Block(w) => Step::Block(w),
                                _ => {
                                    // Proto run asked to be rescheduled;
                                    // continue the body on this entry.
                                    let (_, mut body) = slot.take().expect("just stored");
                                    let s = body(ctx);
                                    *slot = Some((Step::Yield, body));
                                    s
                                }
                            }
                        }
                        None => Step::Done,
                    }
                });
                // Promotion pays the *promotion* cost, not full creation.
                self.scheduler.spawn_kind(
                    format!("popup:v{}", trap.vector),
                    wrapped,
                    ThreadKind::PromotedPopup,
                    false,
                );
            }
        }
    }

    fn handle_eager(&self, trap: &Trap, factory: &PopupFactory) {
        self.eager.fetch_add(1, Ordering::Relaxed);
        let body = factory(trap);
        // Full creation cost, and the handler waits for the scheduler.
        self.scheduler.spawn_kind(
            format!("popup:v{}", trap.vector),
            body,
            ThreadKind::EagerPopup,
            true,
        );
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PopupStats {
        PopupStats {
            fast_path: self.fast_path.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            eager_creations: self.eager.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Semaphore;
    use paramecium_core::domain::KERNEL_DOMAIN;
    use paramecium_machine::trap::TrapKind;

    fn setup(
        mode: PopupMode,
    ) -> (
        Arc<PopupEngine>,
        Scheduler,
        Arc<EventService>,
        Arc<Mutex<Machine>>,
    ) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let scheduler = Scheduler::new(machine.clone());
        let engine = PopupEngine::new(scheduler.clone(), mode);
        let events = Arc::new(EventService::new());
        (engine, scheduler, events, machine)
    }

    fn counting_factory(hits: Arc<AtomicU64>) -> PopupFactory {
        Arc::new(move |_trap| {
            let h = hits.clone();
            Box::new(move |_ctx| {
                h.fetch_add(1, Ordering::Relaxed);
                Step::Done
            })
        })
    }

    #[test]
    fn proto_fast_path_avoids_thread_creation() {
        let (engine, scheduler, events, machine) = setup(PopupMode::Proto);
        let hits = Arc::new(AtomicU64::new(0));
        engine
            .attach(
                &events,
                TrapKind::Breakpoint.vector(),
                KERNEL_DOMAIN,
                counting_factory(hits.clone()),
            )
            .unwrap();
        for _ in 0..10 {
            events.deliver(&machine, &Trap::exception(TrapKind::Breakpoint));
        }
        // Handled synchronously: no scheduler involvement at all.
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        assert_eq!(engine.stats().fast_path, 10);
        assert_eq!(engine.stats().promotions, 0);
        assert_eq!(scheduler.thread_count(), 0);
    }

    #[test]
    fn eager_mode_always_creates_threads() {
        let (engine, scheduler, events, machine) = setup(PopupMode::Eager);
        let hits = Arc::new(AtomicU64::new(0));
        engine
            .attach(
                &events,
                TrapKind::Breakpoint.vector(),
                KERNEL_DOMAIN,
                counting_factory(hits.clone()),
            )
            .unwrap();
        for _ in 0..5 {
            events.deliver(&machine, &Trap::exception(TrapKind::Breakpoint));
        }
        // Nothing ran yet: the handlers sit on the ready queue.
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        assert_eq!(engine.stats().eager_creations, 5);
        scheduler.run_until_idle(100);
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn proto_is_cheaper_than_eager_for_nonblocking_handlers() {
        let (proto, _, events_p, machine_p) = setup(PopupMode::Proto);
        let hits = Arc::new(AtomicU64::new(0));
        proto
            .attach(
                &events_p,
                TrapKind::Breakpoint.vector(),
                KERNEL_DOMAIN,
                counting_factory(hits.clone()),
            )
            .unwrap();
        let t0 = machine_p.lock().now();
        for _ in 0..100 {
            events_p.deliver(&machine_p, &Trap::exception(TrapKind::Breakpoint));
        }
        let proto_cost = machine_p.lock().now() - t0;

        let (eager, scheduler_e, events_e, machine_e) = setup(PopupMode::Eager);
        let hits_e = Arc::new(AtomicU64::new(0));
        eager
            .attach(
                &events_e,
                TrapKind::Breakpoint.vector(),
                KERNEL_DOMAIN,
                counting_factory(hits_e.clone()),
            )
            .unwrap();
        let t0 = machine_e.lock().now();
        for _ in 0..100 {
            events_e.deliver(&machine_e, &Trap::exception(TrapKind::Breakpoint));
            scheduler_e.run_until_idle(10);
        }
        let eager_cost = machine_e.lock().now() - t0;
        assert!(
            proto_cost * 2 < eager_cost,
            "proto {proto_cost} not ≪ eager {eager_cost}"
        );
    }

    #[test]
    fn blocking_handler_is_promoted_with_correct_semantics() {
        let (engine, scheduler, events, machine) = setup(PopupMode::Proto);
        let sem = Semaphore::new(scheduler.core().clone(), 0);
        let done = Arc::new(AtomicU64::new(0));

        let (sem_f, done_f) = (sem.clone(), done.clone());
        let factory: PopupFactory = Arc::new(move |_trap| {
            let (sem, done) = (sem_f.clone(), done_f.clone());
            let mut acquired = false;
            Box::new(move |_ctx| {
                if !acquired {
                    if sem.try_acquire() {
                        acquired = true;
                    } else {
                        return Step::Block(sem.waitable());
                    }
                }
                done.fetch_add(1, Ordering::Relaxed);
                Step::Done
            })
        });
        engine
            .attach(
                &events,
                TrapKind::Breakpoint.vector(),
                KERNEL_DOMAIN,
                factory,
            )
            .unwrap();

        events.deliver(&machine, &Trap::exception(TrapKind::Breakpoint));
        // The handler blocked: promoted, not finished.
        assert_eq!(engine.stats().promotions, 1);
        assert_eq!(engine.stats().fast_path, 0);
        scheduler.run_until_idle(10);
        assert_eq!(done.load(Ordering::Relaxed), 0);

        // Signal: the promoted pop-up thread resumes like a normal thread.
        sem.release();
        scheduler.run_until_idle(10);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn promotion_charges_less_than_creation_on_fast_path_mix() {
        // With a 10% blocking rate, proto mode should beat eager mode.
        let block_every = 10u64;

        let run = |mode: PopupMode| -> u64 {
            let (engine, scheduler, events, machine) = setup(mode);
            let sem = Semaphore::new(scheduler.core().clone(), 0);
            let counter = Arc::new(AtomicU64::new(0));
            let (sem_f, ctr) = (sem.clone(), counter.clone());
            let factory: PopupFactory = Arc::new(move |_| {
                let n = ctr.fetch_add(1, Ordering::Relaxed);
                let sem = sem_f.clone();
                let mut waited = false;
                Box::new(move |_| {
                    if n % block_every == 0 && !waited {
                        waited = true;
                        if !sem.try_acquire() {
                            return Step::Block(sem.waitable());
                        }
                    }
                    Step::Done
                })
            });
            engine
                .attach(
                    &events,
                    TrapKind::Breakpoint.vector(),
                    KERNEL_DOMAIN,
                    factory,
                )
                .unwrap();
            let t0 = machine.lock().now();
            for _ in 0..100 {
                events.deliver(&machine, &Trap::exception(TrapKind::Breakpoint));
                scheduler.run_until_idle(10);
                sem.release();
                scheduler.run_until_idle(10);
            }
            let elapsed = machine.lock().now() - t0;
            elapsed
        };

        let proto_cost = run(PopupMode::Proto);
        let eager_cost = run(PopupMode::Eager);
        assert!(
            proto_cost < eager_cost,
            "proto {proto_cost} not < eager {eager_cost}"
        );
    }
}
