//! Host-side measurement: process CPU time, peak memory, a counting
//! allocator, and the order statistics the metrics are reported as.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

// ------------------------------------------------------------ allocations

/// Counts this thread's heap allocations and bytes, as
/// `tests/alloc_counting.rs` does. Installed in every run, traced or not,
/// so every commit measured pays the same few nanoseconds per allocation.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    // `try_with`: TLS may already be gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + size as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `(allocations, bytes)` made by this thread so far.
pub fn allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

// ------------------------------------------------------------- process CPU

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time of this process, in microseconds.
pub fn cpu_us() -> u64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines; 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ((ru.utime.sec + ru.stime.sec) * 1_000_000 + ru.utime.usec + ru.stime.usec) as u64
}

/// Peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

// ------------------------------------------------------------- host speed

/// A fixed piece of CPU work, timed next to every slice to read how fast
/// the host is running right now. The sandbox's quiet speed drifts by
/// several percent from one run to the next and by 5-30 % for seconds at a
/// time (shared cores); the drift is close to multiplicative, so dividing a
/// slice's time by the kernel's time taken beside it removes most of it:
/// over ten runs the gated values spread by 3-9 % as the host clock gives
/// them and by under 1.5 % scaled (README.md, "Steadiness"). The raw
/// values are reported beside the scaled ones.
pub struct Calibrator {
    buf: Vec<u8>,
    keys: Vec<u64>,
}

/// Fixes the unit of a scaled time: what the kernel takes on the host the
/// benchmark was defined on when nothing disturbs it, so that there scaled
/// and raw times read alike. On another host every scaled time of both
/// commits of a comparison is off by one and the same factor.
pub const CALIBRATION_REF_NS: f64 = 125_000.0;

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            buf: vec![0; 1 << 16],
            keys: vec![0; 1 << 12],
        }
    }

    /// Nanoseconds the kernel takes: fill and hash 64 KiB, sort 4096
    /// keys. The fastest of eight rounds, so a preemption does not count.
    pub fn run(&mut self) -> f64 {
        let mut best = u64::MAX;
        for round in 0..8u8 {
            let t = Instant::now();
            for (i, b) in self.buf.iter_mut().enumerate() {
                *b = (i as u8) ^ round;
            }
            let h = fnv(0, &self.buf);
            for (i, k) in self.keys.iter_mut().enumerate() {
                *k = (i as u64).wrapping_mul(2_654_435_761) ^ h;
            }
            self.keys.sort_unstable();
            std::hint::black_box(&self.keys);
            best = best.min(t.elapsed().as_nanos() as u64);
        }
        best as f64
    }
}

// --------------------------------------------------------- order statistics

/// The `q`-quantile (nearest rank) of `v`; sorts `v`.
pub fn quantile<T: Copy + Ord>(v: &mut [T], q: f64) -> T {
    assert!(!v.is_empty(), "quantile of nothing");
    v.sort_unstable();
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Order statistics of per-slice values.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// First and last decile.
    pub p10: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Summary {
        p10: at(0.10),
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        p90: at(0.90),
        n: v.len(),
    }
}

/// FNV-1a over `bytes`, continuing from `h` (0 starts a fresh hash).
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
