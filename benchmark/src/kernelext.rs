//! `kernel_ext`: the paper's extension lifecycle, with no netstack and no
//! store. One op is one lifecycle: register + certify + load a bytecode
//! component into the kernel on its certificate, load an unverifiable one
//! under software protection, create a user domain, bind, invoke the
//! sandboxed component across the domain boundary and the certified one
//! through an interposer chain, then tear all of it down.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::adapt::{
    reference_sum, Clock, ExtCounters, ExtSizes, ExtWorld, Lifecycle, Res, EXT_FRAME,
};
use crate::measure::fnv;
use crate::trace::{self, Layer};
use crate::workload::{Batch, CallTimes, Counts, Final, Workload};

/// Invocations of each kind per lifecycle.
pub const INVOCATIONS: usize = 64;
/// Lifecycles after which a `World` is replaced by a fresh one at the next
/// slice boundary (outside every timed window): the machine's MMU context
/// ids are 16 bits and never reused, so a world can create at most 65 535
/// domains in its life.
const LIFECYCLES_PER_WORLD: u64 = 4096;

pub struct KernelExt {
    world: ExtWorld,
    /// The current world's clock, shared with the span recorder's reader
    /// so it follows a world change.
    clock: Rc<RefCell<Clock>>,
    traced: bool,
    rng: StdRng,
    start: ExtSizes,
    /// Lifecycles the current world has served.
    served: u64,
    /// Counters of worlds already retired, so `counts` stays cumulative.
    retired: Counts,
    results: u64,
    last: ExtCounters,
}

impl KernelExt {
    pub fn build(seed: u64, traced: bool) -> Res<KernelExt> {
        let world = ExtWorld::boot(traced);
        let start = world.sizes();
        Ok(KernelExt {
            clock: Rc::new(RefCell::new(world.clock.clone())),
            world,
            traced,
            rng: StdRng::seed_from_u64(seed),
            start,
            served: 0,
            retired: Vec::new(),
            results: 0,
            last: ExtCounters::default(),
        })
    }

    /// The current world's counters, by name.
    fn current(&self) -> Counts {
        let m = self.world.clock.counters();
        vec![
            ("proxy.crossings", self.last.proxy_crossings),
            ("proxy.bytes", self.last.proxy_bytes),
            ("cert.full_validations", self.last.full_validations),
            ("cert.cache_hits", self.last.cache_hits),
            ("machine.cycles", m.cycles),
            ("machine.charge_events", m.charge_events),
            ("machine.context_switches", m.context_switches),
            ("machine.tlb_misses", m.tlb_misses),
        ]
    }

    /// Retired worlds' counters plus the current world's.
    fn totals(&self) -> Counts {
        let mut c = self.current();
        for ((_, v), (_, old)) in c.iter_mut().zip(&self.retired) {
            *v += old;
        }
        c
    }

    /// Invokes `run` on each frame and compares with the Rust reference.
    fn invoke_all(&mut self, life: &Lifecycle, cross: bool, frames: &Bytes) -> Res<u64> {
        let target = if cross { &life.cross } else { &life.chained };
        let mut wrong = 0;
        for k in 0..INVOCATIONS {
            let frame = frames.slice(k * EXT_FRAME..(k + 1) * EXT_FRAME);
            let want = reference_sum(&frame);
            let got = target.run(frame)?;
            self.results = fnv(self.results, &got.to_le_bytes());
            wrong += u64::from(got != want);
        }
        Ok(wrong)
    }

    fn lifecycle(&mut self) -> Res<u64> {
        let mut frames = vec![0u8; INVOCATIONS * EXT_FRAME];
        self.rng.fill(frames.as_mut_slice());
        let frames = Bytes::from(frames);

        let life = self.world.open()?;
        let mut wrong = self.invoke_all(&life, true, &frames)?;
        wrong += self.invoke_all(&life, false, &frames)?;
        self.last = self.world.counters(&life)?;
        self.world.close(life)?;
        if self.world.sizes() != self.start {
            return Err(format!(
                "lifecycle leaked: {:?} at start, {:?} now",
                self.start,
                self.world.sizes()
            ));
        }
        Ok(u64::from(wrong > 0))
    }
}

impl Workload for KernelExt {
    fn run_batch(&mut self, lat_ns: &mut Vec<u32>) -> Res<Batch> {
        self.served += 1;
        let t = Instant::now();
        let failed = trace::manual(Layer::Harness, "lifecycle", || self.lifecycle())?;
        lat_ns.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        Ok(Batch { ops: 1, failed })
    }

    fn between_slices(&mut self) {
        if self.served >= LIFECYCLES_PER_WORLD {
            self.retired = self.totals();
            self.last = ExtCounters::default();
            self.world = ExtWorld::boot(self.traced);
            *self.clock.borrow_mut() = self.world.clock.clone();
            self.served = 0;
        }
    }

    fn counts(&self) -> Res<Counts> {
        let mut c = self.totals();
        // A gauge: steps of the latest run of the sandboxed component.
        c.push(("sfi.last_steps", self.last.last_steps));
        Ok(c)
    }

    fn digest(&self) -> Res<u64> {
        let mut h = self.results;
        for (_, v) in self.totals() {
            h = fnv(h, &v.to_le_bytes());
        }
        Ok(h)
    }

    fn call_times(&mut self) -> Option<&mut CallTimes> {
        None
    }

    /// Cycles since this workload's first world booted.
    fn cycle_reader(&self) -> Box<dyn Fn() -> u64> {
        let clock = self.clock.clone();
        Box::new(move || clock.borrow().now())
    }

    /// Each lifecycle already checked its results and its sizes; the end
    /// state is the start state.
    fn finish(self: Box<Self>) -> Res<Final> {
        Ok(Final {
            checked: 3,
            failed: u64::from(self.world.sizes() != self.start),
            flush_us: 0.0,
        })
    }
}
