//! Integration: the shared block cache as a certified kernel component
//! (paper §4 — "certified kernel components can include … shared caches"),
//! installed by interposition and shared across non-cooperating domains.

use paramecium::machine::dev::disk::{SECTOR_SIZE, SECTOR_TRANSFER_COST};
use paramecium::prelude::*;
use paramecium::store::cache::CacheStats;
use paramecium::store::driver::DriverStats;
use paramecium::store::StackBuilder;

fn sector_of(byte: u8) -> Value {
    Value::Bytes(bytes::Bytes::from(vec![byte; SECTOR_SIZE]))
}

#[test]
fn cache_is_installed_by_interposition_and_shared_across_domains() {
    let world = World::boot();
    let n = &world.nucleus;

    // The disk driver is a certified native toolbox component.
    n.repository.add_native("disk-driver", "1.0", {
        let mem = n.mem.clone();
        std::sync::Arc::new(move || Ok(StackBuilder::disk(&mem, KERNEL_DOMAIN).build()?.top))
    });
    world
        .certify_by_root("disk-driver", &[Right::RunKernel, Right::DeviceAccess])
        .unwrap();
    n.load("disk-driver", &LoadOptions::kernel("/dev/disk"))
        .unwrap();

    // Two non-cooperating user domains bind the raw disk.
    let alice = n.create_domain("alice", KERNEL_DOMAIN, []).unwrap();
    let bob = n.create_domain("bob", KERNEL_DOMAIN, []).unwrap();

    // The administrator interposes the shared cache over /dev/disk.
    let raw = n.bind(KERNEL_DOMAIN, "/dev/disk").unwrap();
    let cache = StackBuilder::on(raw).cache(64).build().unwrap().top;
    n.interpose(KERNEL_DOMAIN, "/dev/disk", cache).unwrap();

    // Alice writes through her proxy; Bob reads the same sector through
    // his — served by the shared cache without a disk access.
    let alice_disk = n.bind(alice.id, "/dev/disk").unwrap();
    let bob_disk = n.bind(bob.id, "/dev/disk").unwrap();
    alice_disk
        .invoke("blockdev", "write", &[Value::Int(12), sector_of(0xAA)])
        .unwrap();
    let v = bob_disk
        .invoke("blockdev", "read", &[Value::Int(12)])
        .unwrap();
    assert_eq!(v.as_bytes().unwrap()[0], 0xAA);

    // The cache interface confirms the sharing (1 write miss + 1 read hit)
    // and that the disk itself was never touched.
    let shared = n.bind(KERNEL_DOMAIN, "/dev/disk").unwrap();
    let cstats = shared.invoke("cache", "stats", &[]).unwrap();
    let hits = CacheStats::from_value(&cstats).unwrap().hits;
    assert_eq!(hits, 1, "Bob's read hit Alice's line");
    let dstats = shared.invoke("blockdev", "stats", &[]).unwrap();
    let writes = DriverStats::from_value(&dstats).unwrap().writes;
    assert_eq!(writes, 0, "no disk write yet");

    // Flush persists; the raw driver (still reachable via the cache's
    // backing) confirms.
    shared.invoke("cache", "flush", &[]).unwrap();
    let dstats = shared.invoke("blockdev", "stats", &[]).unwrap();
    assert_eq!(DriverStats::from_value(&dstats).unwrap().writes, 1);
}

#[test]
fn cache_hides_disk_latency_for_hot_working_sets() {
    let world = World::boot();
    let n = &world.nucleus;
    let raw = StackBuilder::disk(&n.mem, KERNEL_DOMAIN)
        .build()
        .unwrap()
        .top;

    // Cold: 20 reads straight from disk.
    let t0 = n.now();
    for sec in 0..20i64 {
        raw.invoke("blockdev", "read", &[Value::Int(sec)]).unwrap();
    }
    let uncached = n.now() - t0;

    // Warm: the same 20 sectors through a cache, read 5 times over.
    let cache = StackBuilder::on(raw).cache(32).build().unwrap().top;
    let t0 = n.now();
    for _ in 0..5 {
        for sec in 0..20i64 {
            cache
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
        }
    }
    let cached = n.now() - t0;
    // 100 cached reads (20 misses + 80 hits) vs 20 cold reads: the cache
    // must win despite doing 5x the accesses.
    assert!(
        cached < uncached + 20 * SECTOR_TRANSFER_COST,
        "cached {cached} vs uncached {uncached}"
    );
    let stats = cache.invoke("cache", "stats", &[]).unwrap();
    let s = CacheStats::from_value(&stats).unwrap();
    assert_eq!((s.hits, s.misses), (80, 20));
}

#[test]
fn uncertified_cache_cannot_be_loaded_into_the_kernel() {
    // The point of §4: a component that will hold other users' data needs
    // *trust*, not just memory safety. An uncertified native cache is
    // refused outright.
    let world = World::boot();
    let n = &world.nucleus;
    n.repository.add_native("rogue-cache", "0.1", {
        let mem = n.mem.clone();
        std::sync::Arc::new(move || {
            let raw = StackBuilder::disk(&mem, KERNEL_DOMAIN).build()?;
            Ok(StackBuilder::on(raw.top)
                .cache(8)
                .build()
                .expect("cache-only stack")
                .top)
        })
    });
    let err = n
        .load("rogue-cache", &LoadOptions::kernel("/dev/disk"))
        .unwrap_err();
    assert!(matches!(err, paramecium::core::CoreError::Cert(_)));
}
