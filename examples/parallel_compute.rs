//! Parallel programming support: the application area Paramecium was
//! built for.
//!
//! "…we are building a prototype kernel, called Paramecium, which is
//! intended to provide support for parallel programming. … an associated
//! group, involved in parallel programming research, needs better and
//! finer grained control over the machine's hardware." (paper, section 1).
//!
//! The scenario: a parallel dot-product over pages *shared* between worker
//! protection domains, with completion signalled through semaphores, and
//! incoming "work request" interrupts turned into pop-up threads via the
//! proto-thread fast path.
//!
//! ```text
//! cargo run --example parallel_compute
//! ```

use std::sync::{
    atomic::{AtomicI64, Ordering},
    Arc,
};

use paramecium::machine::mmu::Perms;
use paramecium::machine::trap::{Trap, TrapKind};
use paramecium::prelude::*;
use paramecium::threads::popup::PopupFactory;
use paramecium::threads::Semaphore;

const VECTOR_LEN: usize = 2048; // i64 elements per vector.
const WORKERS: usize = 4;

fn main() {
    let world = World::boot();
    let nucleus = &world.nucleus;
    let machine = nucleus.machine().clone();

    // Shared input vectors, allocated in the kernel domain and mapped
    // read-only into each worker domain — "pages can be allocated
    // exclusively or shared among different protection domains".
    let pages = (VECTOR_LEN * 8 * 2).div_ceil(paramecium::machine::PAGE_SIZE);
    let base = nucleus.mem.alloc(KERNEL_DOMAIN, pages, Perms::RW).unwrap();
    let (a, b): (Vec<i64>, Vec<i64>) = (0..VECTOR_LEN as i64)
        .map(|i| (i % 97, (i * 7) % 89))
        .unzip();
    let mut image = Vec::with_capacity(VECTOR_LEN * 16);
    for v in a.iter().chain(b.iter()) {
        image.extend_from_slice(&v.to_le_bytes());
    }
    nucleus.mem.write(KERNEL_DOMAIN, base, &image).unwrap();
    println!("shared {} pages of input at {base:#x}", pages);

    // Worker domains, each seeing the pages read-only at its own address.
    let scheduler = Scheduler::new(machine.clone());
    let done = Semaphore::new(&scheduler, 0);
    let total = Arc::new(AtomicI64::new(0));

    for w in 0..WORKERS {
        let domain = nucleus
            .create_domain(format!("worker{w}"), KERNEL_DOMAIN, [])
            .unwrap();
        let wbase = nucleus
            .mem
            .share(KERNEL_DOMAIN, base, pages, domain.id, Perms::R)
            .unwrap();
        let mem = nucleus.mem.clone();
        let (done_c, total_c) = (done.clone(), total.clone());
        let id = domain.id;
        scheduler.spawn(Box::new(move |ctx| {
            // Each worker reads its slice out of the shared pages.
            let chunk = VECTOR_LEN / WORKERS;
            let (lo, hi) = (w * chunk, (w + 1) * chunk);
            let mut sum = 0i64;
            let mut buf = [0u8; 8];
            for i in lo..hi {
                mem.read(id, wbase + (i * 8) as u64, &mut buf).unwrap();
                let ai = i64::from_le_bytes(buf);
                mem.read(id, wbase + ((VECTOR_LEN + i) * 8) as u64, &mut buf)
                    .unwrap();
                let bi = i64::from_le_bytes(buf);
                sum += ai * bi;
            }
            ctx.work(2 * (hi - lo) as u64); // The multiply-adds.
            total_c.fetch_add(sum, Ordering::Relaxed);
            done_c.release();
            Step::Done
        }));
    }

    // Also demonstrate the interrupt path: "work arrived" breakpoint traps
    // become pop-up threads; the fast path never creates a thread.
    let popup = PopupEngine::new(scheduler.clone(), PopupMode::Proto);
    let ticks = Arc::new(AtomicI64::new(0));
    let t = ticks.clone();
    let factory: PopupFactory = Arc::new(move |_trap| {
        let t = t.clone();
        Box::new(move |_ctx| {
            t.fetch_add(1, Ordering::Relaxed);
            Step::Done
        })
    });
    popup
        .attach(
            &nucleus.events,
            TrapKind::Breakpoint.vector(),
            KERNEL_DOMAIN,
            factory,
        )
        .unwrap();
    for _ in 0..50 {
        nucleus
            .events
            .deliver(&machine, &Trap::exception(TrapKind::Breakpoint));
    }

    // Run the workers to completion.
    let t0 = nucleus.now();
    scheduler.run_until_idle(10_000);
    for _ in 0..WORKERS {
        assert!(done.try_acquire(), "a worker did not finish");
    }
    let expected: i64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
    let got = total.load(Ordering::Relaxed);
    assert_eq!(got, expected, "parallel result must match serial");

    println!("\ndot product over {VECTOR_LEN} elements with {WORKERS} worker domains");
    println!("  result      : {got} (serial check: {expected})");
    println!("  cycles      : {}", nucleus.now() - t0);
    println!("  sched stats : {:?}", scheduler.stats());
    println!(
        "  popup stats : {:?} ({} interrupts handled on the fast path, 0 threads created)",
        popup.stats(),
        ticks.load(Ordering::Relaxed)
    );
    println!("  mem stats   : {:?}", nucleus.mem.stats());
}
