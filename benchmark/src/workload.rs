//! What the six workloads have in common.

use std::time::Instant;

use crate::adapt::Res;

/// Cumulative counters read from the layers' `stats`, by name. They are a
/// pure function of `(workload, seed, ops run)`.
pub type Counts = Vec<(&'static str, i64)>;

pub struct Batch {
    pub ops: u64,
    pub failed: u64,
}

/// End-of-run verification.
pub struct Final {
    /// Values compared against the oracle, and how many differed.
    pub checked: u64,
    pub failed: u64,
    /// The closing `flush` at the top of the store stack (0 without a store).
    pub flush_us: f64,
}

/// Per-call latencies at the top of the store stack, kept in the traced
/// run only.
#[derive(Default)]
pub struct CallTimes {
    pub read_ns: Vec<u32>,
    pub write_ns: Vec<u32>,
}

const CALL_SAMPLES: usize = 1 << 20;

impl CallTimes {
    pub fn with_room() -> CallTimes {
        CallTimes {
            read_ns: Vec::with_capacity(CALL_SAMPLES),
            write_ns: Vec::with_capacity(CALL_SAMPLES),
        }
    }
}

/// Times `f` into `into` when call timing is on. Samples beyond the
/// pre-sized room are dropped.
pub fn timed<T>(into: Option<&mut Vec<u32>>, f: impl FnOnce() -> T) -> T {
    match into {
        Some(v) if v.len() < v.capacity() => {
            let t = Instant::now();
            let out = f();
            v.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
            out
        }
        _ => f(),
    }
}

/// A built, warmed-up workload. A batch is the unit the closed loop runs:
/// the ops of one batch are in flight together, and the next batch starts
/// only when every op of this one has completed.
pub trait Workload {
    /// Runs one batch, appending one latency (ns) per op.
    fn run_batch(&mut self, lat_ns: &mut Vec<u32>) -> Res<Batch>;
    /// Called before each slice, outside every timed window: housekeeping
    /// that is the harness's, not the program's.
    fn between_slices(&mut self) {}
    fn counts(&self) -> Res<Counts>;
    /// Folds the workload's observable state: segment digests, store
    /// contents, the virtual clock.
    fn digest(&self) -> Res<u64>;
    fn call_times(&mut self) -> Option<&mut CallTimes>;
    /// Reads the machine's virtual cycle counter, for the span recorder.
    fn cycle_reader(&self) -> Box<dyn Fn() -> u64>;
    fn finish(self: Box<Self>) -> Res<Final>;
}

/// Sizes of one workload. Slices are equal-op, so a slice's time is
/// proportional to the cost per op.
#[derive(Clone, Copy)]
pub struct Sizing {
    /// Ops per slice; every timing metric is computed per slice.
    pub slice_ops: u64,
    /// Ops run before the first measured one.
    pub warmup_ops: u64,
}
