//! E10 — what the request-path ledger cannot see of the block cache: the
//! sharding ablation (1 shard vs 8, on the hit path and on the
//! miss+writeback path — the ledger only ever runs the sharded cache),
//! vectorized warm reads, and a multi-client interposition mix. The write
//! hit, the flush and the per-sector-write reference are the ledger's
//! (`store_hot` / `store_churn`; mapping in `bench-records/README.md`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use paramecium::machine::dev::disk::SECTOR_SIZE;
use paramecium::prelude::*;
use paramecium::store::vectored::sectors_arg;
use paramecium::store::StackBuilder;
use parking_lot::Mutex;
use std::sync::Arc;

fn sector_of(byte: u8) -> Value {
    Value::Bytes(bytes::Bytes::from(vec![byte; SECTOR_SIZE]))
}

fn fresh_driver() -> ObjRef {
    let machine = Arc::new(Mutex::new(paramecium::machine::Machine::new()));
    let mem = Arc::new(paramecium::core::memsvc::MemService::new(machine));
    StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top
}

fn fresh_cache(capacity: usize) -> ObjRef {
    StackBuilder::on(fresh_driver())
        .cache(capacity)
        .build()
        .unwrap()
        .top
}

fn fresh_sharded(capacity: usize, shards: usize) -> ObjRef {
    StackBuilder::on(fresh_driver())
        .sharded_cache(capacity, shards)
        .build()
        .unwrap()
        .top
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_store");

    // Warmed hit: one resident sector read over and over (zero-copy).
    let cache = fresh_cache(64);
    cache
        .invoke("blockdev", "write", &[Value::Int(3), sector_of(7)])
        .unwrap();
    cache.invoke("blockdev", "read", &[Value::Int(3)]).unwrap();
    g.bench_function("hit_read", |b| {
        b.iter_with_large_drop(|| {
            cache
                .invoke("blockdev", "read", &[Value::Int(std::hint::black_box(3))])
                .unwrap()
        })
    });

    // Same warmed hit through an 8-way sharded cache: the shard routing
    // must be noise on top of the unsharded hit path.
    let sharded = fresh_sharded(64, 8);
    sharded
        .invoke("blockdev", "write", &[Value::Int(3), sector_of(7)])
        .unwrap();
    g.bench_function("hit_read_sharded8", |b| {
        b.iter_with_large_drop(|| {
            sharded
                .invoke("blockdev", "read", &[Value::Int(std::hint::black_box(3))])
                .unwrap()
        })
    });

    // Vectorized warm reads: 64 resident sectors in one call.
    let cache64 = fresh_sharded(128, 8);
    for sec in 0..64i64 {
        cache64
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
            .unwrap();
    }
    let batch = [sectors_arg(0..64)];
    g.throughput(Throughput::Elements(64));
    g.bench_function("read_many_64_warm", |b| {
        b.iter_with_large_drop(|| {
            cache64
                .invoke("blockdev", "read_many", std::hint::black_box(&batch))
                .unwrap()
        })
    });

    // Larger warm batch: per-sector hit cost with dispatch fully
    // amortised — the pipeline's true warmed-hit latency.
    let cache256 = fresh_sharded(512, 8);
    for sec in 0..256i64 {
        cache256
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
            .unwrap();
    }
    let batch256 = [sectors_arg(0..256)];
    g.throughput(Throughput::Elements(256));
    g.bench_function("read_many_256_warm", |b| {
        b.iter_with_large_drop(|| {
            cache256
                .invoke("blockdev", "read_many", std::hint::black_box(&batch256))
                .unwrap()
        })
    });

    // Miss + eviction writeback: scan a working set twice the capacity,
    // all dirty, so every miss evicts a dirty victim (coalesced).
    let cache = fresh_cache(64);
    for sec in 0..128i64 {
        cache
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
            .unwrap();
    }
    g.throughput(Throughput::Elements(128));
    g.bench_function("miss_writeback_scan128", |b| {
        let mut flip = 0u8;
        b.iter(|| {
            flip = flip.wrapping_add(1);
            for sec in 0..128i64 {
                cache
                    .invoke("blockdev", "write", &[Value::Int(sec), sector_of(flip)])
                    .unwrap();
            }
        })
    });

    // Sharded flavour of the same eviction-heavy scan.
    let cache = fresh_sharded(64, 8);
    for sec in 0..128i64 {
        cache
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
            .unwrap();
    }
    g.throughput(Throughput::Elements(128));
    g.bench_function("miss_writeback_scan128_sharded8", |b| {
        let mut flip = 0u8;
        b.iter(|| {
            flip = flip.wrapping_add(1);
            for sec in 0..128i64 {
                cache
                    .invoke("blockdev", "write", &[Value::Int(sec), sector_of(flip)])
                    .unwrap();
            }
        })
    });

    // Multi-client: two non-cooperating domains hammering one shared
    // sharded cache through interposition proxies.
    let world = World::boot();
    let n = &world.nucleus;
    let raw = {
        let mem = n.mem.clone();
        StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top
    };
    n.register(KERNEL_DOMAIN, "/dev/disk", raw).unwrap();
    let target = n.bind(KERNEL_DOMAIN, "/dev/disk").unwrap();
    n.interpose(
        KERNEL_DOMAIN,
        "/dev/disk",
        StackBuilder::on(target)
            .sharded_cache(64, 8)
            .build()
            .unwrap()
            .top,
    )
    .unwrap();
    let clients: Vec<ObjRef> = (0..2)
        .map(|i| {
            let d = n
                .create_domain(format!("bench-client-{i}"), KERNEL_DOMAIN, [])
                .unwrap();
            n.bind(d.id, "/dev/disk").unwrap()
        })
        .collect();
    for sec in 0..32i64 {
        clients[0]
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
            .unwrap();
    }
    g.throughput(Throughput::Elements(8));
    g.bench_function("multiclient_interposed_mix8", |b| {
        b.iter(|| {
            for (i, c) in clients.iter().enumerate() {
                for k in 0..2i64 {
                    let sec = (i as i64 * 16 + k * 4) % 32;
                    c.invoke("blockdev", "read", &[Value::Int(sec)]).unwrap();
                    c.invoke("blockdev", "write", &[Value::Int(sec), sector_of(k as u8)])
                        .unwrap();
                }
            }
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
