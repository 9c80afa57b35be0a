//! The world pool: many independent worlds on real OS threads.
//!
//! The simulation inside one [`World`] is deliberately single-threaded
//! and deterministic. The pool scales *out* instead of up: it boots M
//! independent worlds — each with its own machine (virtual clock), its
//! own seeded RNG, and its own pop-up engine — and multiplexes them over
//! P OS threads in bulk-synchronous rounds. Cross-world communication is
//! active messages only, over the lock-free mailbox bus in
//! [`threads::pool`](paramecium_threads::pool).
//!
//! # Determinism
//!
//! A world's final state is a pure function of `(seed, world id, the
//! per-round step function, messages received)`. The pool guarantees the
//! message part is independent of P and of OS scheduling:
//!
//! - a message posted during round *r* is delivered at the start of
//!   round *r + 1*, never earlier (round tags + a barrier between
//!   rounds),
//! - each delivery batch is sorted by `(round, sender, per-sender
//!   sequence)` before it touches the receiving world,
//! - worlds are partitioned over threads statically (`id mod P`), and a
//!   world only ever runs on its owning thread within a round.
//!
//! So `pool.run_rounds(1, …)`, `run_rounds(2, …)` and `run_rounds(8, …)`
//! produce bit-identical per-world states — pinned by the
//! `worldpool_determinism` integration suite.

use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use rand::{rngs::StdRng, SeedableRng};

use paramecium_core::domain::KERNEL_DOMAIN;
use paramecium_threads::{
    am::AmEndpoint,
    pool::{CrossBus, CrossEndpoint, RoundBarrier},
    popup::{PopupEngine, PopupMode},
    sched::Scheduler,
};

use crate::harness::World;

/// IRQ line the pool wires each world's cross-world AM endpoint to.
pub const CROSS_AM_IRQ: u32 = 9;

/// Default per-world AM queue capacity.
pub const DEFAULT_AM_CAPACITY: usize = 1024;

/// Scheduler slice budget for one pump.
const PUMP_SLICES: u64 = 4096;

/// Settle-phase cap: the pool stops chasing message chains after this
/// many delivery-only rounds (a handler that always re-posts would
/// otherwise never quiesce).
const MAX_SETTLE_ROUNDS: u64 = 256;

/// One world plus its pool-side harness: scheduler, pop-up engine, AM
/// endpoint, cross-world endpoint, and a private deterministic RNG.
pub struct PoolWorld {
    /// World id (index into the pool, stable across runs).
    pub id: usize,
    /// The booted world.
    pub world: World,
    /// Per-world deterministic RNG (seeded from the pool seed and `id`).
    pub rng: StdRng,
    /// The world's simulated-thread scheduler.
    pub scheduler: Scheduler,
    /// The world's pop-up engine (proto-thread mode).
    pub engine: Arc<PopupEngine>,
    /// The world's active-message endpoint (cross-world arrivals land
    /// here).
    pub am: Arc<AmEndpoint>,
    /// The world's connection to the cross-world bus.
    pub cross: Arc<CrossEndpoint>,
}

impl PoolWorld {
    fn boot(id: usize, seed: u64, bus: &Arc<CrossBus>, am_capacity: usize) -> PoolWorld {
        let world = World::boot();
        let machine = world.nucleus.machine().clone();
        let scheduler = Scheduler::new(machine.clone());
        let engine = PopupEngine::new(scheduler.clone(), PopupMode::Proto);
        let am = AmEndpoint::install(
            &world.nucleus.events,
            &engine,
            machine,
            CROSS_AM_IRQ,
            KERNEL_DOMAIN,
            am_capacity,
        )
        .expect("pool AM endpoint install cannot fail on a fresh world");
        let cross = CrossEndpoint::new(id, bus.clone(), am.clone());
        // Split the pool seed per world with a SplitMix64-style mix so
        // world RNG streams are decorrelated but fully determined.
        let world_seed = mix64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        PoolWorld {
            id,
            world,
            rng: StdRng::seed_from_u64(world_seed),
            scheduler,
            engine,
            am,
            cross,
        }
    }

    /// Delivers pending interrupts and runs simulated threads to idle —
    /// the per-round heartbeat that turns posted messages into handler
    /// invocations.
    pub fn pump(&self) {
        self.world
            .nucleus
            .events
            .drain_interrupts(self.world.nucleus.machine());
        self.scheduler.run_until_idle(PUMP_SLICES);
    }

    /// Posts an active message to another world (see
    /// [`CrossEndpoint::post`]).
    pub fn post(
        &self,
        to: usize,
        handler: impl Into<String>,
        interface: impl Into<String>,
        method: impl Into<String>,
        args: Vec<paramecium_obj::Value>,
    ) -> bool {
        self.cross.post(to, handler, interface, method, args)
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What a pool run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolRunReport {
    /// User step rounds executed.
    pub rounds: u64,
    /// Extra delivery-only rounds run to drain in-flight messages.
    pub settle_rounds: u64,
    /// Cross-world messages delivered over the whole run.
    pub delivered: u64,
}

/// A pool of M independent worlds, runnable on any number of OS threads.
pub struct WorldPool {
    worlds: Vec<PoolWorld>,
    bus: Arc<CrossBus>,
    next_round: u64,
}

impl WorldPool {
    /// Boots `worlds` worlds from `seed` with the default AM capacity.
    pub fn boot(worlds: usize, seed: u64) -> WorldPool {
        Self::boot_with_capacity(worlds, seed, DEFAULT_AM_CAPACITY)
    }

    /// Boots with an explicit per-world AM queue capacity.
    pub fn boot_with_capacity(worlds: usize, seed: u64, am_capacity: usize) -> WorldPool {
        assert!(worlds > 0, "a pool needs at least one world");
        let bus = CrossBus::new(worlds);
        let worlds = (0..worlds)
            .map(|id| PoolWorld::boot(id, seed, &bus, am_capacity))
            .collect();
        WorldPool {
            worlds,
            bus,
            next_round: 1, // Round 0 is "before the first run".
        }
    }

    /// Number of worlds.
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// True if the pool has no worlds (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// The worlds, in id order.
    pub fn worlds(&self) -> &[PoolWorld] {
        &self.worlds
    }

    /// The shared bus.
    pub fn bus(&self) -> &Arc<CrossBus> {
        &self.bus
    }

    /// Consumes the pool, yielding the worlds.
    pub fn into_worlds(self) -> Vec<PoolWorld> {
        self.worlds
    }

    /// Runs `rounds` bulk-synchronous rounds of `step` over all worlds
    /// on `threads` OS threads, then keeps running delivery-only rounds
    /// until every in-flight message chain has drained (or the settle
    /// cap is hit).
    ///
    /// Each round, on the world's owning thread (`id mod threads`):
    /// cross-world messages due this round are delivered and pumped,
    /// then `step(world, round)` runs, then the world pumps again. A
    /// barrier separates rounds.
    pub fn run_rounds<F>(&mut self, threads: usize, rounds: u64, step: F) -> PoolRunReport
    where
        F: Fn(&mut PoolWorld, u64) + Send + Sync,
    {
        let p = threads.clamp(1, self.worlds.len());
        let first = self.next_round;
        let barrier = RoundBarrier::new(p);
        let round_delivered = [AtomicU64::new(0), AtomicU64::new(0)];
        let total_delivered = AtomicU64::new(0);
        let settle_rounds = AtomicU64::new(0);

        // Static partition: thread t owns worlds with id % p == t. The
        // worlds move into their owning thread for the whole run and
        // come back out through the scope result.
        let mut parts: Vec<Vec<PoolWorld>> = (0..p).map(|_| Vec::new()).collect();
        for world in self.worlds.drain(..) {
            parts[world.id % p].push(world);
        }

        let mut returned: Vec<Vec<PoolWorld>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|mut own| {
                    let step = &step;
                    let barrier = &barrier;
                    let round_delivered = &round_delivered;
                    let total_delivered = &total_delivered;
                    let settle_rounds = &settle_rounds;
                    scope.spawn(move || {
                        // User rounds.
                        for r in first..first + rounds {
                            for world in &mut own {
                                world.cross.begin_round(r);
                                let d = world.cross.deliver_pending() as u64;
                                total_delivered.fetch_add(d, Ordering::Relaxed);
                                world.pump();
                                step(world, r - first);
                                world.pump();
                            }
                            barrier.wait();
                        }
                        // Settle: delivery-only rounds until a round
                        // moves no messages anywhere.
                        for (i, r) in (first + rounds..).enumerate() {
                            if i as u64 >= MAX_SETTLE_ROUNDS {
                                break;
                            }
                            let slot = &round_delivered[(r % 2) as usize];
                            let mut moved = 0u64;
                            for world in &mut own {
                                world.cross.begin_round(r);
                                let d = world.cross.deliver_pending() as u64;
                                total_delivered.fetch_add(d, Ordering::Relaxed);
                                moved += d;
                                world.pump();
                                // A handler may have re-posted, or a
                                // message may be parked for the next
                                // round; either keeps the loop alive
                                // (without counting as a delivery).
                                if !world.cross.is_idle() {
                                    moved += 1;
                                }
                            }
                            slot.fetch_add(moved, Ordering::Relaxed);
                            let next = &round_delivered[((r + 1) % 2) as usize];
                            barrier.wait_then(|| {
                                settle_rounds.fetch_add(1, Ordering::Relaxed);
                                // Reset the *next* round's slot before
                                // anyone is released; this round's slot
                                // stays readable for the stop decision.
                                next.store(0, Ordering::Relaxed);
                            });
                            if slot.load(Ordering::Relaxed) == 0 {
                                break;
                            }
                        }
                        own
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        });

        // Reassemble in id order.
        for part in &mut returned {
            self.worlds.append(part);
        }
        self.worlds.sort_by_key(|w| w.id);

        let settled = settle_rounds.load(Ordering::Relaxed);
        self.next_round = first + rounds + settled;
        PoolRunReport {
            rounds,
            settle_rounds: settled,
            delivered: total_delivered.load(Ordering::Relaxed),
        }
    }
}
