//! E11 — the world pool: aggregate throughput of concurrent worlds
//! against one shared sharded block cache, the lock-granularity ablation
//! (per-shard vs a single global shard), the lock-free cross-world
//! mailbox, and a full bulk-synchronous pool round.
//!
//! The `agg_warm_reads_w{1,2,4}` rows are the scaling story: W OS
//! threads (one per world) hammer warmed read hits on *disjoint shards*
//! of one shared cache, so per-shard locking lets them proceed fully in
//! parallel — aggregate ops/sec should scale with cores up to W. On a
//! single-vCPU host the rows still measure the same metric, but the
//! scaling shows only where the hardware has cores to offer.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use paramecium::machine::dev::disk::SECTOR_SIZE;
use paramecium::pool::WorldPool;
use paramecium::prelude::*;
use paramecium::store::StackBuilder;
use paramecium::threads::pool::Mailbox;
use parking_lot::Mutex;
use std::sync::Arc;

/// Warmed reads each world issues per measured iteration — large enough
/// that per-iteration thread spawns are noise against the read work.
const READS_PER_WORLD: usize = 2048;

/// Worlds in the aggregate-throughput rows at the widest point.
const MAX_WORLDS: usize = 4;

fn sector_of(byte: u8) -> Value {
    Value::Bytes(bytes::Bytes::from(vec![byte; SECTOR_SIZE]))
}

fn fresh_driver() -> ObjRef {
    let machine = Arc::new(Mutex::new(paramecium::machine::Machine::new()));
    let mem = Arc::new(paramecium::core::memsvc::MemService::new(machine));
    StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top
}

/// World `w`'s private working set: 16 sectors confined to shards
/// `4w..4w+4` of a 16-way sharded cache, so concurrent worlds touch
/// disjoint shards and never contend on a shard lock.
fn world_sectors(w: usize) -> Vec<Value> {
    (0..16)
        .map(|k| Value::Int(((k / 4) * 16 + w * 4 + k % 4) as i64))
        .collect()
}

/// One shared cache, warmed so every world's working set is resident.
fn warmed_shared_cache(shards: usize) -> ObjRef {
    let cache = StackBuilder::on(fresh_driver())
        .sharded_cache(16 * MAX_WORLDS, shards)
        .build()
        .unwrap()
        .top;
    for w in 0..MAX_WORLDS {
        for sec in world_sectors(w) {
            cache
                .invoke("blockdev", "write", &[sec.clone(), sector_of(w as u8)])
                .unwrap();
            cache.invoke("blockdev", "read", &[sec]).unwrap();
        }
    }
    cache
}

/// W OS threads, each reading its world's warmed working set round-robin
/// against the one shared cache; reported as aggregate elements/sec.
fn agg_reads(g: &mut criterion::BenchmarkGroup<'_>, name: &str, cache: &ObjRef, worlds: usize) {
    let sectors: Vec<Vec<Value>> = (0..worlds).map(world_sectors).collect();
    g.throughput(Throughput::Elements((worlds * READS_PER_WORLD) as u64));
    g.bench_function(name, |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for secs in &sectors {
                    let cache = cache.clone();
                    s.spawn(move || {
                        for i in 0..READS_PER_WORLD {
                            cache
                                .invoke("blockdev", "read", &[secs[i % secs.len()].clone()])
                                .unwrap();
                        }
                    });
                }
            })
        })
    });
}

/// Constant-memory cross-world message sink.
fn counter() -> ObjRef {
    ObjectBuilder::new("counter")
        .state(0i64)
        .interface("rec", |i| {
            i.method("push", &[TypeTag::Int], TypeTag::Int, |this, args| {
                let v = args[0].as_int()?;
                this.with_state(|n: &mut i64| {
                    *n += v;
                    Ok(Value::Int(*n))
                })
            })
        })
        .build()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11_worldpool");

    // Aggregate warmed read-hit throughput at 1, 2 and 4 worlds over one
    // 16-shard shared cache (disjoint shards per world).
    let shared = warmed_shared_cache(16);
    agg_reads(&mut g, "agg_warm_reads_w1", &shared, 1);
    agg_reads(&mut g, "agg_warm_reads_w2", &shared, 2);
    agg_reads(&mut g, "agg_warm_reads_w4", &shared, MAX_WORLDS);

    // Ablation: the same 4-thread load against a single-shard cache —
    // every read serializes on one shard lock, which is exactly the old
    // global-lock design's contention profile.
    let global = warmed_shared_cache(1);
    agg_reads(&mut g, "agg_warm_reads_w4_global_lock", &global, MAX_WORLDS);

    // The lock-free mailbox alone: 1k posts then one drain (CAS push,
    // swap-and-reverse drain), single-threaded cost of the primitive.
    let mb: Mailbox<u64> = Mailbox::new();
    g.throughput(Throughput::Elements(1024));
    g.bench_function("mailbox_post_drain_1k", |b| {
        b.iter(|| {
            for i in 0..1024u64 {
                mb.push(i);
            }
            std::hint::black_box(mb.drain().len())
        })
    });

    // A full bulk-synchronous round over 4 worlds on 4 OS threads: each
    // world posts one message around the ring; the round cost includes
    // delivery, both pumps, the barrier, and the settle round that
    // drains the ring.
    let mut pool = WorldPool::boot(MAX_WORLDS, 0xB11);
    for w in pool.worlds() {
        w.cross.register_handler("sink", counter());
    }
    g.throughput(Throughput::Elements(MAX_WORLDS as u64));
    g.bench_function("pool_round_w4_ring", |b| {
        b.iter(|| {
            pool.run_rounds(MAX_WORLDS, 1, |w, _| {
                let to = (w.id + 1) % MAX_WORLDS;
                assert!(w.post(to, "sink", "rec", "push", vec![Value::Int(1)]));
            })
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
