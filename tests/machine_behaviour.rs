//! Integration: machine-substrate behaviour observed through the nucleus —
//! TLB effects, interrupt priorities, console logging, disk persistence.

use paramecium::machine::dev::{console, Console, Disk};
use paramecium::machine::mmu::Perms;
use paramecium::machine::trap::IRQ_VECTOR_BASE;
use paramecium::prelude::*;
use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

#[test]
fn tlb_hit_rates_reflect_locality() {
    let world = World::boot();
    let n = &world.nucleus;
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
    let base = n.mem.alloc(app.id, 8, Perms::RW).unwrap();
    n.machine().lock().mmu.tlb.reset_stats();

    // Sequential touch of 8 pages, 100 times: after the first sweep,
    // everything hits (8 pages ≪ 64 TLB entries).
    let mut buf = [0u8; 1];
    for _ in 0..100 {
        for p in 0..8u64 {
            n.mem
                .read(
                    app.id,
                    base + p * paramecium::machine::PAGE_SIZE as u64,
                    &mut buf,
                )
                .unwrap();
        }
    }
    let stats = n.machine().lock().mmu.tlb.stats();
    assert_eq!(stats.misses, 8, "one miss per page, ever");
    assert_eq!(stats.hits, 792);
}

#[test]
fn context_switches_are_counted_per_real_switch() {
    let world = World::boot();
    let n = &world.nucleus;
    let a = n.create_domain("a", KERNEL_DOMAIN, []).unwrap();
    let echo = ObjectBuilder::new("echo")
        .interface("e", |i| {
            i.method("nop", &[], TypeTag::Unit, |_, _| Ok(Value::Unit))
        })
        .build();
    n.register(KERNEL_DOMAIN, "/svc/e", echo).unwrap();
    let proxy = n.bind(a.id, "/svc/e").unwrap();
    let before = n.machine().lock().mmu.switch_count();
    for _ in 0..5 {
        proxy.invoke("e", "nop", &[]).unwrap();
    }
    let switches = n.machine().lock().mmu.switch_count() - before;
    // Each crossing: caller→kernel (fault handler) →target(kernel, same) →caller.
    assert!(
        switches >= 10,
        "at least two real switches per crossing, got {switches}"
    );
}

#[test]
fn irq_priority_orders_simultaneous_interrupts() {
    let world = World::boot();
    let n = &world.nucleus;
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for line in [0u32, 1, 7] {
        let o = order.clone();
        n.events
            .register(
                IRQ_VECTOR_BASE + line,
                KERNEL_DOMAIN,
                Arc::new(move |t: &paramecium::machine::trap::Trap| o.lock().push(t.code)),
            )
            .unwrap();
    }
    {
        let machine = n.machine().clone();
        let mut m = machine.lock();
        m.irq.raise(7);
        m.irq.raise(0);
        m.irq.raise(1);
    }
    n.events.drain_interrupts(n.machine());
    assert_eq!(*order.lock(), vec![0, 1, 7], "lowest line first");
}

#[test]
fn console_collects_kernel_log_output() {
    let world = World::boot();
    let n = &world.nucleus;
    {
        let machine = n.machine().clone();
        let mut m = machine.lock();
        for b in b"panic: just kidding\n" {
            m.io_write("console", console::regs::PUTC, u32::from(*b))
                .unwrap();
        }
    }
    let machine = n.machine().clone();
    let mut m = machine.lock();
    let c = m.device_mut::<Console>("console").unwrap();
    assert_eq!(c.contents(), "panic: just kidding\n");
}

#[test]
fn disk_contents_survive_across_driver_instances() {
    use paramecium::machine::dev::disk::SECTOR_SIZE;
    let world = World::boot();
    let n = &world.nucleus;
    // Write raw via the device, read via a fresh driver object.
    {
        let machine = n.machine().clone();
        let mut m = machine.lock();
        let d = m.device_mut::<Disk>("disk").unwrap();
        let mut sector = vec![0u8; SECTOR_SIZE];
        sector[..4].copy_from_slice(b"BOOT");
        d.write_sector(0, sector.into()).unwrap();
    }
    let driver = paramecium::store::StackBuilder::disk(&n.mem, KERNEL_DOMAIN)
        .build()
        .unwrap()
        .top;
    let v = driver.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
    assert_eq!(&v.as_bytes().unwrap()[..4], b"BOOT");
}

#[test]
fn interrupt_storm_coalesces_not_overflows() {
    let world = World::boot();
    let n = &world.nucleus;
    let hits = Arc::new(AtomicU64::new(0));
    let h = hits.clone();
    n.events
        .register(
            IRQ_VECTOR_BASE + 3,
            KERNEL_DOMAIN,
            Arc::new(move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .unwrap();
    {
        let machine = n.machine().clone();
        let mut m = machine.lock();
        for _ in 0..1000 {
            m.irq.raise(3);
        }
        assert_eq!(m.irq.coalesced_count(), 999);
    }
    n.events.drain_interrupts(n.machine());
    assert_eq!(
        hits.load(Ordering::Relaxed),
        1,
        "one delivery for the storm"
    );
}

#[test]
fn free_cost_model_still_computes_correctly() {
    // Logical behaviour must be identical under the free cost model
    // (the cost model is instrumentation, not semantics).
    let world = World::boot_with_cost(CostModel::free());
    let n = &world.nucleus;
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
    let echo = ObjectBuilder::new("echo")
        .interface("e", |i| {
            i.method("id", &[TypeTag::Int], TypeTag::Int, |_, a| Ok(a[0].clone()))
        })
        .build();
    n.register(KERNEL_DOMAIN, "/svc/e", echo).unwrap();
    let proxy = n.bind(app.id, "/svc/e").unwrap();
    assert_eq!(
        proxy.invoke("e", "id", &[Value::Int(9)]).unwrap(),
        Value::Int(9)
    );
    assert_eq!(n.now(), 0, "free model charges nothing");
}
