//! Determinism regression for the world pool: the final state of every
//! world is a pure function of the pool seed — **independent of how many
//! OS threads the pool multiplexes over** and of how the OS interleaves
//! them.
//!
//! Eight worlds run a mixed workload — per-world store traffic through a
//! private sharded block cache plus a cross-world active-message
//! ping-ring — under pool sizes 1, 2 and 8. The per-world fingerprint
//! (virtual clock, RNG stream position, cache statistics, flushed store
//! contents, received-message log, cross-endpoint counters) must be
//! bit-identical across all three runs.
//!
//! Profiles: real OS threads — some reorderings are reachable only under
//! optimisation, so CI's release workspace step matters as much as tier-1.

use paramecium::machine::dev::disk::SECTOR_SIZE;
use paramecium::obj::sum64;
use paramecium::pool::WorldPool;
use paramecium::prelude::*;
use paramecium::store::StackBuilder;
use rand::Rng;

const WORLDS: usize = 8;
const SEED: u64 = 0xC0FF_EE00_DEAD_BEE5;
const ROUNDS: u64 = 3;
const HOT_SECTORS: i64 = 48;

/// A handler object recording every cross-world message it receives, in
/// delivery order — the part of the fingerprint most sensitive to
/// scheduling: any reordering or early/late delivery changes the log.
fn recorder() -> ObjRef {
    ObjectBuilder::new("recorder")
        .state(Vec::<i64>::new())
        .interface("rec", |i| {
            i.method("push", &[TypeTag::Int], TypeTag::Int, |this, args| {
                let v = args[0].as_int()?;
                this.with_state(|log: &mut Vec<i64>| {
                    log.push(v);
                    Ok(Value::Int(log.len() as i64))
                })
            })
            .method("all", &[], TypeTag::List, |this, _| {
                this.with_state(|log: &mut Vec<i64>| {
                    Ok(Value::List(log.iter().copied().map(Value::Int).collect()))
                })
            })
        })
        .build()
}

fn sector_bytes(tag: u64) -> Value {
    let mut buf = vec![0u8; SECTOR_SIZE];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (tag as u8).wrapping_add(i as u8);
    }
    Value::Bytes(bytes::Bytes::from(buf))
}

/// `sum64` over the hot sector range, read back through the cache after a
/// flush — pins the store contents without dumping 24 KiB per world.
fn store_digest(cache: &ObjRef) -> u64 {
    cache.invoke("cache", "flush", &[]).unwrap();
    let sectors = Value::List((0..HOT_SECTORS).map(Value::Int).collect());
    let data = cache.invoke("blockdev", "read_many", &[sectors]).unwrap();
    let read = data.as_list().unwrap().iter();
    read.fold(0, |h, v| sum64::fold(h, v.as_bytes().unwrap()))
}

/// Boots an 8-world pool, runs the mixed workload on `threads` OS
/// threads (split across two `run_rounds` calls to exercise round
/// continuation), and fingerprints every world.
fn run(threads: usize) -> Vec<String> {
    let mut pool = WorldPool::boot(WORLDS, SEED);

    let mut caches = Vec::with_capacity(WORLDS);
    let mut recorders = Vec::with_capacity(WORLDS);
    for w in pool.worlds() {
        let cache = StackBuilder::disk(&w.world.nucleus.mem, KERNEL_DOMAIN)
            .sharded_cache(32, 4)
            .build()
            .unwrap()
            .top;
        let rec = recorder();
        w.cross.register_handler("ring", rec.clone());
        caches.push(cache);
        recorders.push(rec);
    }

    let step = |w: &mut paramecium::pool::PoolWorld, r: u64| {
        let cache = &caches[w.id];
        // Store traffic: RNG-chosen sectors, written then read back, so
        // the cache state entangles the RNG stream with the store.
        for _ in 0..4 {
            let sec = (w.rng.gen::<u64>() % HOT_SECTORS as u64) as i64;
            let tag = w.rng.gen::<u64>();
            cache
                .invoke("blockdev", "write", &[Value::Int(sec), sector_bytes(tag)])
                .unwrap();
            cache
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
        }
        // Ping-ring: each world posts to its successor; the payload
        // encodes (sender, round) so the receiver's log pins ordering.
        let to = (w.id + 1) % WORLDS;
        let payload = ((w.id as i64) << 32) | r as i64;
        assert!(w.post(to, "ring", "rec", "push", vec![Value::Int(payload)]));
    };

    let a = pool.run_rounds(threads, ROUNDS, step);
    let b = pool.run_rounds(threads, ROUNDS, step);
    assert_eq!(a.rounds, ROUNDS);
    assert!(
        a.delivered + b.delivered >= 2 * ROUNDS * WORLDS as u64,
        "every posted ring message must be delivered"
    );

    pool.into_worlds()
        .into_iter()
        .map(|mut w| {
            let clock = w.world.nucleus.now();
            let rng_probe: u64 = w.rng.gen();
            let cstats = caches[w.id].invoke("cache", "stats", &[]).unwrap();
            let digest = store_digest(&caches[w.id]);
            let log = recorders[w.id].invoke("rec", "all", &[]).unwrap();
            let x = w.cross.stats();
            format!(
                "world {}: clock={clock} rng={rng_probe:#018x} cache={cstats:?} \
                 store={digest:#018x} log={log:?} \
                 cross=[posted={} delivered={} no_handler={} am_full={}]",
                w.id, x.posted, x.delivered, x.no_handler, x.am_full
            )
        })
        .collect()
}

#[test]
fn final_state_is_identical_for_pool_sizes_1_2_and_8() {
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    for id in 0..WORLDS {
        assert_eq!(one[id], two[id], "world {id}: 1 thread vs 2 threads");
        assert_eq!(one[id], eight[id], "world {id}: 1 thread vs 8 threads");
    }
}

#[test]
fn rerunning_the_same_seed_reproduces_the_same_fingerprints() {
    assert_eq!(run(2), run(2));
}
