//! Processor event management.
//!
//! "All processor events (traps and interrupts) are handled by this
//! service. Components can register call-backs which are called every time
//! a specified processor event occurs. A call-back consists of a context,
//! and the address of a call-back function." (paper, section 3).
//!
//! Call-backs registered for a non-kernel domain incur the context-switch
//! cost when dispatched — exactly the cost the thread package's proto-
//! thread machinery amortises.
//!
//! A delivery takes the machine for its trap steps and lets go of it for
//! each call-back: `EventService::deliver_held` is handed the machine
//! already locked by whoever raised the trap, charges the entry and the
//! switch into the call-back's domain, releases the machine while the
//! call-back runs (a call-back may re-enter — a page-fault handler may
//! make a nested cross-domain call, which takes the machine itself), and
//! hands it back, retaken, after charging the exit. A proxy crossing thus
//! locks the machine once for "fault, enter, switch" and once for "exit,
//! marshal, switch" instead of once per step. [`EventService::deliver`]
//! is the same delivery for a caller that holds nothing. Delivery counts
//! are relaxed atomics, so the delivery path takes no lock of its own
//! beyond the registrations' read lock.

use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use parking_lot::{Mutex, MutexGuard, RwLock};

use paramecium_machine::{
    trap::{Trap, NUM_VECTORS},
    Machine,
};

use crate::{domain::DomainId, CoreError, CoreResult};

/// A registered call-back: the paper's `(context, function)` pair.
pub type EventCallback = Arc<dyn Fn(&Trap) + Send + Sync>;

/// Identifier of a registration (for unregistering).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CallbackId(u64);

#[derive(Clone)]
struct Registration {
    id: CallbackId,
    domain: DomainId,
    callback: EventCallback,
}

paramecium_obj::counters! {
    /// Per-vector dispatch statistics: the `events stats` block.
    pub struct EventStats {
        /// Events delivered on this vector.
        pub delivered: u64,
        /// Events with no registered call-back (dropped).
        pub unhandled: u64,
    }
}

/// One vector's [`EventStats`], counted without a lock.
#[derive(Default)]
struct VectorCounts {
    delivered: AtomicU64,
    unhandled: AtomicU64,
}

/// The processor event service.
pub struct EventService {
    /// Per vector, its registrations in order. Registering or unregistering
    /// replaces the list; a delivery holds the one it found, so delivering
    /// allocates nothing and a call-back may re-enter the service.
    vectors: Vec<RwLock<Arc<[Registration]>>>,
    stats: Vec<VectorCounts>,
    next_id: Mutex<u64>,
}

impl EventService {
    /// Creates the service with all vectors empty.
    pub fn new() -> Self {
        let empty: Arc<[Registration]> = Arc::new([]);
        EventService {
            vectors: (0..NUM_VECTORS)
                .map(|_| RwLock::new(empty.clone()))
                .collect(),
            stats: (0..NUM_VECTORS).map(|_| VectorCounts::default()).collect(),
            next_id: Mutex::new(0),
        }
    }

    /// Registers a call-back for `vector` on behalf of `domain`.
    pub fn register(
        &self,
        vector: u32,
        domain: DomainId,
        callback: EventCallback,
    ) -> CoreResult<CallbackId> {
        let slot = self
            .vectors
            .get(vector as usize)
            .ok_or_else(|| CoreError::Policy(format!("vector {vector} out of range")))?;
        let mut next = self.next_id.lock();
        let id = CallbackId(*next);
        *next += 1;
        let mut regs = slot.write();
        let added = Registration {
            id,
            domain,
            callback,
        };
        *regs = regs.iter().cloned().chain([added]).collect();
        Ok(id)
    }

    /// Unregisters a call-back. Returns true if it existed.
    pub fn unregister(&self, vector: u32, id: CallbackId) -> bool {
        match self.vectors.get(vector as usize) {
            Some(slot) => {
                let mut regs = slot.write();
                let before = regs.len();
                *regs = regs.iter().filter(|r| r.id != id).cloned().collect();
                regs.len() != before
            }
            None => false,
        }
    }

    /// Number of call-backs on a vector.
    pub(crate) fn callback_count(&self, vector: u32) -> usize {
        self.vectors
            .get(vector as usize)
            .map_or(0, |v| v.read().len())
    }

    /// Delivers a trap: charges trap entry/exit, switches to each
    /// call-back's domain (charging the context switch when it differs),
    /// and invokes the call-backs in registration order.
    ///
    /// Returns the number of call-backs run.
    pub fn deliver(&self, machine: &Mutex<Machine>, trap: &Trap) -> usize {
        self.deliver_held(machine, machine.lock(), trap).1
    }

    /// [`EventService::deliver`] for a caller already holding `machine`
    /// (`held` is its guard): the entry charge and the switch into the
    /// first call-back's domain join the caller's lock scope, the machine
    /// is released around each call-back (which may re-enter the service
    /// or take the machine itself), and the guard is handed back, retaken
    /// after the last call-back and the exit charge, with the number of
    /// call-backs run.
    pub(crate) fn deliver_held<'m>(
        &self,
        machine: &'m Mutex<Machine>,
        mut held: MutexGuard<'m, Machine>,
        trap: &Trap,
    ) -> (MutexGuard<'m, Machine>, usize) {
        let vector = trap.vector as usize;
        let Some(slot) = self.vectors.get(vector) else {
            return (held, 0);
        };
        // Take the list under the lock, run it outside: call-backs may
        // re-enter the event service (e.g. a fault handler making a
        // nested cross-domain call).
        let regs = slot.read().clone();

        let cost = held.cost.trap_enter;
        held.charge(cost);
        let counts = &self.stats[vector];
        let counter = if regs.is_empty() {
            &counts.unhandled
        } else {
            &counts.delivered
        };
        counter.fetch_add(1, Ordering::Relaxed);

        for reg in regs.iter() {
            // Dispatching into a non-current context pays the switch.
            let _ = held.switch_context(reg.domain.context());
            drop(held);
            (reg.callback)(trap);
            held = machine.lock();
        }

        let cost = held.cost.trap_exit;
        held.charge(cost);
        (held, regs.len())
    }

    /// Polls the interrupt controller and delivers every pending
    /// interrupt. Returns the number of interrupts delivered.
    pub fn drain_interrupts(&self, machine: &Mutex<Machine>) -> usize {
        let mut count = 0;
        loop {
            let line = {
                let mut m = machine.lock();
                match m.irq.acknowledge() {
                    Some(l) => {
                        let cost = m.cost.irq_dispatch;
                        m.charge(cost);
                        l
                    }
                    None => break,
                }
            };
            self.deliver(machine, &Trap::interrupt(line));
            count += 1;
        }
        count
    }

    /// Statistics for one vector.
    pub fn stats(&self, vector: u32) -> EventStats {
        self.stats
            .get(vector as usize)
            .map(|c| EventStats {
                delivered: c.delivered.load(Ordering::Relaxed),
                unhandled: c.unhandled.load(Ordering::Relaxed),
            })
            .unwrap_or_default()
    }
}

impl Default for EventService {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::KERNEL_DOMAIN;
    use paramecium_machine::{dev::Nic, trap::TrapKind};

    fn machine() -> Mutex<Machine> {
        Mutex::new(Machine::new())
    }

    #[test]
    fn callbacks_fire_on_delivery() {
        let es = EventService::new();
        let m = machine();
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        es.register(
            TrapKind::Breakpoint.vector(),
            KERNEL_DOMAIN,
            Arc::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .unwrap();
        let trap = Trap::exception(TrapKind::Breakpoint);
        assert_eq!(es.deliver(&m, &trap), 1);
        assert_eq!(es.deliver(&m, &trap), 1);
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(es.stats(trap.vector).delivered, 2);
    }

    #[test]
    fn delivery_charges_trap_costs() {
        let es = EventService::new();
        let m = machine();
        es.register(TrapKind::Syscall.vector(), KERNEL_DOMAIN, Arc::new(|_| {}))
            .unwrap();
        let before = m.lock().now();
        es.deliver(&m, &Trap::syscall(1));
        let elapsed = m.lock().now() - before;
        let (enter, exit) = {
            let mm = m.lock();
            (mm.cost.trap_enter, mm.cost.trap_exit)
        };
        assert_eq!(elapsed, enter + exit);
    }

    #[test]
    fn dispatch_to_user_domain_pays_context_switch() {
        let es = EventService::new();
        let m = machine();
        let user_ctx = m.lock().mmu.create_context().unwrap();
        es.register(
            TrapKind::Breakpoint.vector(),
            DomainId::from(user_ctx),
            Arc::new(|_| {}),
        )
        .unwrap();
        let before = m.lock().now();
        es.deliver(&m, &Trap::exception(TrapKind::Breakpoint));
        let elapsed = m.lock().now() - before;
        let (enter, exit, switch) = {
            let mm = m.lock();
            (
                mm.cost.trap_enter,
                mm.cost.trap_exit,
                mm.cost.context_switch,
            )
        };
        assert_eq!(elapsed, enter + exit + switch);
    }

    #[test]
    fn unhandled_events_are_counted() {
        let es = EventService::new();
        let m = machine();
        es.deliver(&m, &Trap::exception(TrapKind::DivideByZero));
        let s = es.stats(TrapKind::DivideByZero.vector());
        assert_eq!(s.unhandled, 1);
        assert_eq!(s.delivered, 0);
    }

    #[test]
    fn unregister_stops_delivery() {
        let es = EventService::new();
        let m = machine();
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let v = TrapKind::Breakpoint.vector();
        let id = es
            .register(
                v,
                KERNEL_DOMAIN,
                Arc::new(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
            )
            .unwrap();
        assert_eq!(es.callback_count(v), 1);
        assert!(es.unregister(v, id));
        assert!(!es.unregister(v, id));
        es.deliver(&m, &Trap::exception(TrapKind::Breakpoint));
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn multiple_callbacks_run_in_order() {
        let es = EventService::new();
        let m = machine();
        let log = Arc::new(Mutex::new(Vec::new()));
        let v = TrapKind::Syscall.vector();
        for tag in [1, 2, 3] {
            let l = log.clone();
            es.register(v, KERNEL_DOMAIN, Arc::new(move |_| l.lock().push(tag)))
                .unwrap();
        }
        es.deliver(&m, &Trap::syscall(0));
        assert_eq!(*log.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn drain_interrupts_delivers_pending_lines() {
        let es = EventService::new();
        let m = machine();
        let seen = Arc::new(Mutex::new(Vec::new()));
        for line in [1u32, 3] {
            let s = seen.clone();
            es.register(
                paramecium_machine::trap::IRQ_VECTOR_BASE + line,
                KERNEL_DOMAIN,
                Arc::new(move |t| s.lock().push(t.code)),
            )
            .unwrap();
        }
        {
            let mut mm = m.lock();
            mm.device_mut::<Nic>("nic").unwrap().inject_rx(vec![1]);
            mm.tick(1);
            mm.irq.raise(3);
        }
        let n = es.drain_interrupts(&m);
        assert_eq!(n, 2);
        assert_eq!(*seen.lock(), vec![1, 3]);
    }

    #[test]
    fn out_of_range_vector_rejected() {
        let es = EventService::new();
        assert!(es
            .register(NUM_VECTORS + 1, KERNEL_DOMAIN, Arc::new(|_| {}))
            .is_err());
    }
}
