//! Cross-world plumbing for the world pool: lock-free mailboxes, the
//! cross-world active-message bus, and the round barrier.
//!
//! Within a world, threads are deterministic run-to-completion state
//! machines on one OS thread (see the crate docs). *Across* worlds, real
//! OS threads run concurrently, and the **only** channel between them is
//! the active-message model the paper already prescribes (§3): a sender
//! posts a [`CrossMsg`] naming a handler object on the receiving world;
//! the receiver drains its mailbox at a deterministic point and feeds the
//! messages through its own [`crate::am::AmEndpoint`] — so cross-world
//! arrivals look exactly like device interrupts and run on the pop-up
//! engine's proto-thread fast path.
//!
//! Determinism across thread interleavings comes from bulk-synchronous
//! rounds: a message posted during round *r* carries that round number
//! and is delivered at the start of round *r + 1*, after a
//! [`RoundBarrier`], sorted by `(round, sender, per-sender sequence)`.
//! The physical arrival order in the lock-free mailbox — which *does*
//! depend on OS scheduling — is therefore never observable.

use std::{
    collections::BTreeMap,
    sync::{
        atomic::{AtomicPtr, AtomicU64, Ordering},
        Arc,
    },
};

use parking_lot::{Condvar, Mutex};

use paramecium_obj::{ObjRef, Value};

use crate::am::{ActiveMsg, AmEndpoint};

// ---------------------------------------------------------------------------
// Lock-free MPSC mailbox
// ---------------------------------------------------------------------------

struct Node<T> {
    value: T,
    next: *mut Node<T>,
}

/// A lock-free multi-producer single-consumer mailbox.
///
/// Producers push with a compare-and-swap loop onto an intrusive LIFO
/// list (a Treiber stack); the single consumer takes the whole list with
/// one atomic swap and reverses it, so [`Mailbox::drain`] yields
/// messages in per-producer FIFO order. No locks, no allocation beyond
/// one node per message.
pub struct Mailbox<T> {
    head: AtomicPtr<Node<T>>,
}

// Safety: nodes are heap-allocated and ownership is transferred through
// the atomic head pointer — a value is reachable either by the producer
// (before the CAS) or by the consumer (after the swap), never both.
unsafe impl<T: Send> Send for Mailbox<T> {}
unsafe impl<T: Send> Sync for Mailbox<T> {}

impl<T> Mailbox<T> {
    /// Creates an empty mailbox.
    pub const fn new() -> Self {
        Mailbox {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Pushes a value; callable from any thread.
    pub fn push(&self, value: T) {
        let node = Box::into_raw(Box::new(Node {
            value,
            next: std::ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // Safety: we own `node` until the CAS below publishes it.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(current) => head = current,
            }
        }
    }

    /// Takes everything currently in the mailbox, in per-producer FIFO
    /// order. Intended for the single consumer; concurrent pushes that
    /// lose the race simply land in the next drain.
    pub fn drain(&self) -> Vec<T> {
        let mut node = self.head.swap(std::ptr::null_mut(), Ordering::Acquire);
        let mut out = Vec::new();
        while !node.is_null() {
            // Safety: the swap transferred exclusive ownership of the
            // whole list to us.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
            out.push(boxed.value);
        }
        out.reverse(); // LIFO list → FIFO delivery.
        out
    }

    /// True if nothing is queued (a racy hint, exact once producers are
    /// quiescent).
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire).is_null()
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Mailbox::new()
    }
}

impl<T> Drop for Mailbox<T> {
    fn drop(&mut self) {
        let mut node = *self.head.get_mut();
        while !node.is_null() {
            // Safety: `&mut self` means no producer or consumer is live.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-world active messages
// ---------------------------------------------------------------------------

/// An active message in flight between worlds. `handler` names an object
/// registered on the receiving endpoint (worlds share no object
/// references — names are the only cross-world vocabulary).
pub struct CrossMsg {
    /// Bulk-synchronous round the message was posted in.
    pub round: u64,
    /// Sending world id.
    pub from: usize,
    /// Per-sender sequence number (the deterministic tiebreak).
    pub seq: u64,
    /// Handler name on the receiving world.
    pub handler: String,
    /// Interface to invoke on the handler.
    pub interface: String,
    /// Method to invoke.
    pub method: String,
    /// Arguments.
    pub args: Vec<Value>,
}

/// The shared routing fabric: one lock-free inbox per world.
pub struct CrossBus {
    inboxes: Vec<Mailbox<CrossMsg>>,
}

impl CrossBus {
    /// Creates a bus connecting `worlds` worlds.
    pub fn new(worlds: usize) -> Arc<CrossBus> {
        Arc::new(CrossBus {
            inboxes: (0..worlds).map(|_| Mailbox::new()).collect(),
        })
    }

    /// Number of connected worlds.
    pub fn worlds(&self) -> usize {
        self.inboxes.len()
    }
}

/// Per-endpoint statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrossStats {
    /// Messages posted from this world.
    pub posted: u64,
    /// Messages delivered into this world's AM endpoint.
    pub delivered: u64,
    /// Messages dropped: unknown handler name.
    pub no_handler: u64,
    /// Messages dropped: the world's AM queue was full.
    pub am_full: u64,
}

/// One world's connection to the [`CrossBus`].
///
/// Owned by the world's OS thread: [`CrossEndpoint::post`] is callable
/// from that thread at any time; [`CrossEndpoint::deliver_pending`] runs
/// at the start of each round and feeds due messages — sorted into their
/// deterministic order — through the world's [`AmEndpoint`], where the
/// pop-up engine picks them up like any interrupt.
pub struct CrossEndpoint {
    id: usize,
    bus: Arc<CrossBus>,
    am: Arc<AmEndpoint>,
    round: AtomicU64,
    seq: AtomicU64,
    /// Messages drained early (posted for a later round) parked until due.
    stash: Mutex<Vec<CrossMsg>>,
    handlers: Mutex<BTreeMap<String, ObjRef>>,
    stats: Mutex<CrossStats>,
}

impl CrossEndpoint {
    /// Connects world `id` to the bus, delivering into `am`.
    pub fn new(id: usize, bus: Arc<CrossBus>, am: Arc<AmEndpoint>) -> Arc<CrossEndpoint> {
        assert!(id < bus.worlds(), "endpoint id out of range");
        Arc::new(CrossEndpoint {
            id,
            bus,
            am,
            round: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            stash: Mutex::new(Vec::new()),
            handlers: Mutex::new(BTreeMap::new()),
            stats: Mutex::new(CrossStats::default()),
        })
    }

    /// This endpoint's world id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Registers (or replaces) a named handler object.
    pub fn register_handler(&self, name: impl Into<String>, obj: ObjRef) {
        self.handlers.lock().insert(name.into(), obj);
    }

    /// Enters bulk-synchronous round `round` (called by the pool runner).
    pub fn begin_round(&self, round: u64) {
        self.round.store(round, Ordering::Relaxed);
    }

    /// Posts an active message to world `to`. Returns `false` for an
    /// unknown destination; delivery-side failures (unknown handler,
    /// full queue) show up in the *receiver's* stats, as with any
    /// network.
    pub fn post(
        &self,
        to: usize,
        handler: impl Into<String>,
        interface: impl Into<String>,
        method: impl Into<String>,
        args: Vec<Value>,
    ) -> bool {
        if to >= self.bus.worlds() {
            return false;
        }
        let msg = CrossMsg {
            round: self.round.load(Ordering::Relaxed),
            from: self.id,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            handler: handler.into(),
            interface: interface.into(),
            method: method.into(),
            args,
        };
        self.bus.inboxes[to].push(msg);
        self.stats.lock().posted += 1;
        true
    }

    /// Delivers every message due this round (posted in an earlier one)
    /// into the world's AM endpoint, in `(round, from, seq)` order.
    /// Returns how many were delivered. Messages posted *for* this round
    /// or later stay parked — that is what makes delivery independent of
    /// which OS thread ran which world first.
    pub fn deliver_pending(&self) -> usize {
        let now = self.round.load(Ordering::Relaxed);
        let mut due = {
            let mut stash = self.stash.lock();
            stash.extend(self.bus.inboxes[self.id].drain());
            let parked = std::mem::take(&mut *stash);
            let (due, later): (Vec<_>, Vec<_>) = parked.into_iter().partition(|m| m.round < now);
            *stash = later;
            due
        };
        due.sort_by_key(|m| (m.round, m.from, m.seq));
        let mut delivered = 0;
        let handlers = self.handlers.lock();
        let mut stats = self.stats.lock();
        for msg in due {
            let Some(target) = handlers.get(&msg.handler) else {
                stats.no_handler += 1;
                continue;
            };
            let posted = self.am.post(ActiveMsg {
                target: target.clone(),
                interface: msg.interface,
                method: msg.method,
                args: msg.args,
            });
            if posted.is_some() {
                delivered += 1;
            } else {
                stats.am_full += 1;
            }
        }
        stats.delivered += delivered as u64;
        delivered
    }

    /// True if nothing is waiting here (inbox and stash both empty).
    pub fn is_idle(&self) -> bool {
        self.bus.inboxes[self.id].is_empty() && self.stash.lock().is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CrossStats {
        *self.stats.lock()
    }
}

// ---------------------------------------------------------------------------
// Round barrier
// ---------------------------------------------------------------------------

/// A reusable generation-counting barrier for the pool's
/// bulk-synchronous rounds, blocking on the vendored
/// [`parking_lot::Condvar`] rather than spinning.
pub struct RoundBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
}

impl RoundBarrier {
    /// Creates a barrier for `n` threads.
    pub fn new(n: usize) -> RoundBarrier {
        RoundBarrier {
            n: n.max(1),
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `n` threads have arrived. Returns `true` on
    /// exactly one thread per generation (the last arriver).
    pub fn wait(&self) -> bool {
        self.wait_then(|| {})
    }

    /// Like [`RoundBarrier::wait`], but the last arriver runs `on_last`
    /// *before* any other thread is released — the hook the pool runner
    /// uses to reset shared per-round counters without a second barrier.
    pub fn wait_then(&self, on_last: impl FnOnce()) -> bool {
        let mut state = self.state.lock();
        state.arrived += 1;
        if state.arrived == self.n {
            on_last();
            state.arrived = 0;
            state.generation = state.generation.wrapping_add(1);
            self.cv.notify_all();
            true
        } else {
            let generation = state.generation;
            self.cv
                .wait_while(&mut state, |s| s.generation == generation);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        popup::{PopupEngine, PopupMode},
        sched::Scheduler,
    };
    use paramecium_core::{domain::KERNEL_DOMAIN, events::EventService};
    use paramecium_machine::Machine;
    use paramecium_obj::{ObjectBuilder, TypeTag};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn mailbox_single_thread_fifo() {
        let mb = Mailbox::new();
        assert!(mb.is_empty());
        for i in 0..5 {
            mb.push(i);
        }
        assert!(!mb.is_empty());
        assert_eq!(mb.drain(), vec![0, 1, 2, 3, 4]);
        assert!(mb.is_empty());
        assert_eq!(mb.drain(), Vec::<i32>::new());
    }

    #[test]
    fn mailbox_concurrent_producers_lose_nothing_and_keep_sender_order() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 500;
        let mb = Arc::new(Mailbox::new());
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let mb = mb.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        mb.push((p, i));
                    }
                });
            }
        });
        let all = mb.drain();
        assert_eq!(all.len(), (PRODUCERS * PER) as usize);
        // Per-producer FIFO order survives the LIFO-swap-reverse dance.
        let mut last = [0u64; PRODUCERS as usize];
        let mut count = [0u64; PRODUCERS as usize];
        for (p, i) in all {
            let p = p as usize;
            assert!(count[p] == 0 || i > last[p], "producer {p} reordered");
            last[p] = i;
            count[p] += 1;
        }
        assert!(count.iter().all(|&c| c == PER));
    }

    #[test]
    fn mailbox_drop_frees_undrained_messages() {
        let live = Arc::new(AtomicUsize::new(0));
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let mb = Mailbox::new();
        for _ in 0..10 {
            live.fetch_add(1, Ordering::SeqCst);
            mb.push(Counted(live.clone()));
        }
        assert_eq!(live.load(Ordering::SeqCst), 10);
        drop(mb);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn barrier_releases_all_threads_with_one_leader() {
        const N: usize = 4;
        let barrier = RoundBarrier::new(N);
        let before = AtomicUsize::new(0);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    for _round in 0..50 {
                        before.fetch_add(1, Ordering::SeqCst);
                        let leader = barrier.wait_then(|| {
                            // Runs on the last arriver *before* anyone is
                            // released, so every thread has done this
                            // round's increment and none has started the
                            // next round's. (Checking after release would
                            // race with faster threads re-arriving.)
                            assert_eq!(before.load(Ordering::SeqCst) % N, 0);
                        });
                        if leader {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(before.load(Ordering::SeqCst), N * 50);
        assert_eq!(leaders.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn barrier_wait_then_runs_before_release() {
        const N: usize = 3;
        let barrier = RoundBarrier::new(N);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    for _ in 0..20 {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait_then(|| counter.store(0, Ordering::SeqCst));
                        // The reset happened before anyone was released,
                        // so no thread ever observes a stale full count.
                        assert!(counter.load(Ordering::SeqCst) < N);
                    }
                });
            }
        });
    }

    /// A little world-side rig: machine + scheduler + popup engine + AM
    /// endpoint, as the pool assembles per world.
    struct Rig {
        events: Arc<EventService>,
        machine: Arc<Mutex<Machine>>,
        scheduler: Scheduler,
        am: Arc<AmEndpoint>,
    }

    fn rig() -> Rig {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let scheduler = Scheduler::new(machine.clone());
        let engine = PopupEngine::new(scheduler.clone(), PopupMode::Proto);
        let events = Arc::new(EventService::new());
        let am =
            AmEndpoint::install(&events, &engine, machine.clone(), 5, KERNEL_DOMAIN, 64).unwrap();
        Rig {
            events,
            machine,
            scheduler,
            am,
        }
    }

    fn recorder() -> ObjRef {
        ObjectBuilder::new("recorder")
            .state(Vec::<i64>::new())
            .interface("rec", |i| {
                i.method("push", &[TypeTag::Int], TypeTag::Int, |this, args| {
                    let v = args[0].as_int()?;
                    this.with_state(|s: &mut Vec<i64>| {
                        s.push(v);
                        Ok(Value::Int(s.len() as i64))
                    })
                })
            })
            .build()
    }

    #[test]
    fn cross_messages_deliver_sorted_by_sender_then_seq() {
        let bus = CrossBus::new(3);
        let r = rig();
        let recv = CrossEndpoint::new(0, bus.clone(), r.am.clone());
        let target = recorder();
        recv.register_handler("rec", target.clone());

        // Two sender endpoints post concurrently during round 0; the
        // mailbox arrival order is whatever the OS made it.
        let s1 = CrossEndpoint::new(1, bus.clone(), r.am.clone());
        let s2 = CrossEndpoint::new(2, bus.clone(), r.am.clone());
        std::thread::scope(|s| {
            for (ep, base) in [(&s1, 100i64), (&s2, 200i64)] {
                s.spawn(move || {
                    for i in 0..10 {
                        ep.post(0, "rec", "rec", "push", vec![Value::Int(base + i)]);
                    }
                });
            }
        });

        // Round 1: everything posted in round 0 is due, in (from, seq)
        // order — sender 1's messages first, each sender's in post order.
        recv.begin_round(1);
        assert_eq!(recv.deliver_pending(), 20);
        r.events.drain_interrupts(&r.machine);
        r.scheduler.run_until_idle(64);
        let got = target
            .with_state(|s: &mut Vec<i64>| Ok(std::mem::take(s)))
            .unwrap();
        let want: Vec<i64> = (100..110).chain(200..210).collect();
        assert_eq!(got, want);
        assert_eq!(recv.stats().delivered, 20);
        assert!(recv.is_idle());
    }

    #[test]
    fn messages_for_the_current_round_wait_for_the_next() {
        let bus = CrossBus::new(2);
        let r = rig();
        let recv = CrossEndpoint::new(0, bus.clone(), r.am.clone());
        recv.register_handler("rec", recorder());
        let sender = CrossEndpoint::new(1, bus, r.am.clone());

        // The sender is already in round 1 when it posts; the receiver
        // entering round 1 must NOT see the message yet (it was posted
        // "during" round 1, so it is due in round 2).
        sender.begin_round(1);
        sender.post(0, "rec", "rec", "push", vec![Value::Int(7)]);
        recv.begin_round(1);
        assert_eq!(recv.deliver_pending(), 0);
        assert!(!recv.is_idle(), "message parked in the stash");
        recv.begin_round(2);
        assert_eq!(recv.deliver_pending(), 1);
        assert!(recv.is_idle());
    }

    #[test]
    fn unknown_handler_and_destination_are_counted_not_fatal() {
        let bus = CrossBus::new(2);
        let r = rig();
        let recv = CrossEndpoint::new(0, bus.clone(), r.am.clone());
        let sender = CrossEndpoint::new(1, bus, r.am.clone());
        assert!(!sender.post(9, "rec", "rec", "push", vec![]), "bad dest");
        assert!(sender.post(0, "nobody", "rec", "push", vec![Value::Int(1)]));
        recv.begin_round(1);
        assert_eq!(recv.deliver_pending(), 0);
        assert_eq!(recv.stats().no_handler, 1);
    }
}
