//! Store scaling suite (PR 5): the sharded, vectorized block cache.
//!
//! - Differential property test: any operation sequence through the
//!   cache, followed by a final flush, leaves the backing disk
//!   byte-identical to running the same sequence against the raw driver —
//!   across shard counts {1, 4, 8} and several capacities.
//! - Durability: a failed backing write must never lose dirty data
//!   (lines are marked clean only after the write succeeds).
//! - Strict capacity: eviction happens before insertion.
//! - Batching: coalesced writeback issues fewer backing invocations and
//!   costs fewer simulated cycles than per-sector writes.
//! - Stress: several non-cooperating domains hammer one shared cache
//!   installed by interposition.
//! - Transactions: one script over every stack shape — a transaction is
//!   the same buffered batch whichever layers it passes through.
//!
//! Profiles: the cache invariants (evict-before-insert, clean only after
//! the write) are `debug_assert`-checked, so the debug run (tier-1) is the
//! one with teeth.

use proptest::prelude::*;
use std::sync::{
    atomic::{AtomicBool, AtomicU64, Ordering},
    Arc,
};

use paramecium::core::memsvc::MemService;
use paramecium::machine::dev::disk::{batch_transfer_cost, SECTOR_SIZE, SECTOR_TRANSFER_COST};
use paramecium::machine::Machine;
use paramecium::prelude::*;
use paramecium::store::vectored::{pairs_arg, sectors_arg, txn_arg, txn_write_args};
use paramecium::store::{JournalConfig, RetryConfig, StackBuilder};
use parking_lot::Mutex;

/// Sector range the tests operate on: small enough that random sequences
/// collide and evict constantly.
const RANGE: i64 = 24;

fn fresh_driver() -> (Arc<MemService>, ObjRef) {
    let machine = Arc::new(Mutex::new(Machine::new()));
    let mem = Arc::new(MemService::new(machine));
    let driver = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top;
    (mem, driver)
}

fn sector_of(byte: u8) -> Value {
    Value::Bytes(bytes::Bytes::from(vec![byte; SECTOR_SIZE]))
}

fn resident_of(cache: &ObjRef) -> i64 {
    cache
        .invoke("cache", "stats", &[])
        .unwrap()
        .as_list()
        .unwrap()[3]
        .as_int()
        .unwrap()
}

/// One abstract storage operation.
#[derive(Clone, Debug)]
enum StoreOp {
    Read(i64),
    Write(i64, u8),
    ReadMany(Vec<i64>),
    WriteMany(Vec<(i64, u8)>),
    Flush,
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (0..RANGE).prop_map(StoreOp::Read),
        (0..RANGE, 0u8..=255).prop_map(|(s, b)| StoreOp::Write(s, b)),
        proptest::collection::vec(0..RANGE, 1..6).prop_map(StoreOp::ReadMany),
        proptest::collection::vec((0..RANGE, 0u8..=255), 1..6).prop_map(StoreOp::WriteMany),
        (0u8..1).prop_map(|_| StoreOp::Flush),
    ]
}

/// Applies `op` to any blockdev-speaking object, returning the read
/// payloads (first byte of each sector) so cache and raw driver can be
/// compared call by call, not just at the end.
fn apply(dev: &ObjRef, op: &StoreOp, is_cache: bool) -> Vec<u8> {
    match op {
        StoreOp::Read(sec) => {
            let v = dev.invoke("blockdev", "read", &[Value::Int(*sec)]).unwrap();
            vec![v.as_bytes().unwrap()[0]]
        }
        StoreOp::Write(sec, byte) => {
            dev.invoke("blockdev", "write", &[Value::Int(*sec), sector_of(*byte)])
                .unwrap();
            Vec::new()
        }
        StoreOp::ReadMany(secs) => {
            let v = dev
                .invoke(
                    "blockdev",
                    "read_many",
                    &[sectors_arg(secs.iter().copied())],
                )
                .unwrap();
            v.as_list()
                .unwrap()
                .iter()
                .map(|b| b.as_bytes().unwrap()[0])
                .collect()
        }
        StoreOp::WriteMany(pairs) => {
            let arg = pairs_arg(
                pairs
                    .iter()
                    .map(|(sec, byte)| (*sec, bytes::Bytes::from(vec![*byte; SECTOR_SIZE]))),
            );
            dev.invoke("blockdev", "write_many", &[arg]).unwrap();
            Vec::new()
        }
        StoreOp::Flush => {
            if is_cache {
                dev.invoke("cache", "flush", &[]).unwrap();
            }
            Vec::new()
        }
    }
}

fn disk_contents(driver: &ObjRef) -> Vec<u8> {
    let v = driver
        .invoke("blockdev", "read_many", &[sectors_arg(0..RANGE)])
        .unwrap();
    v.as_list()
        .unwrap()
        .iter()
        .flat_map(|b| b.as_bytes().unwrap().to_vec())
        .collect()
}

proptest! {
    /// The cache is transparent: every read returns what the raw driver
    /// would have returned, and after a final flush the backing disk is
    /// byte-identical to the driver-only run — for shard counts 1, 4 and
    /// 8 and capacities from thrashing-small to ample.
    #[test]
    fn cache_is_differentially_transparent(
        ops in proptest::collection::vec(store_op(), 0..60),
        capacity in 2usize..40,
    ) {
        for shards in [1usize, 4, 8] {
            let (_mem_c, backing) = fresh_driver();
            let cache = StackBuilder::on(backing.clone())
                .sharded_cache(capacity, shards)
                .build()
                .unwrap()
                .top;
            let (_mem_r, raw) = fresh_driver();
            for op in &ops {
                let through_cache = apply(&cache, op, true);
                let through_raw = apply(&raw, op, false);
                prop_assert_eq!(
                    &through_cache, &through_raw,
                    "read divergence (shards={}, capacity={}, op={:?})", shards, capacity, op
                );
                // Strict capacity invariant after every operation.
                let resident = resident_of(&cache);
                let cap_total = (capacity.div_ceil(shards) * shards) as i64;
                prop_assert!(
                    resident <= cap_total,
                    "resident {} over capacity {} (shards={})", resident, cap_total, shards
                );
            }
            cache.invoke("cache", "flush", &[]).unwrap();
            prop_assert_eq!(
                disk_contents(&backing),
                disk_contents(&raw),
                "disk divergence after final flush (shards={}, capacity={})", shards, capacity
            );
        }
    }
}

/// Wraps `driver` in an interposer whose writes fail while `armed`.
fn failing_backing(driver: ObjRef, armed: Arc<AtomicBool>) -> ObjRef {
    let mut agent = InterposerBuilder::new(driver);
    for verb in ["write", "write_many"] {
        let armed = armed.clone();
        agent = agent.override_method("blockdev", verb, move |forward, args| {
            if armed.load(Ordering::Relaxed) {
                return Err(paramecium::obj::ObjError::failed("injected write failure"));
            }
            forward.call(args)
        });
    }
    agent.build()
}

#[test]
fn failed_flush_loses_no_dirty_data() {
    for shards in [1usize, 4, 8] {
        let (_mem, driver) = fresh_driver();
        let armed = Arc::new(AtomicBool::new(false));
        let flaky = failing_backing(driver.clone(), armed.clone());
        let cache = StackBuilder::on(flaky)
            .sharded_cache(64, shards)
            .build()
            .unwrap()
            .top;
        for sec in 0..10i64 {
            cache
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(0xD0 + sec as u8)],
                )
                .unwrap();
        }
        // Flush against a failing backing store: the error surfaces and
        // NO line may be marked clean.
        armed.store(true, Ordering::Relaxed);
        assert!(
            cache.invoke("cache", "flush", &[]).is_err(),
            "flush must propagate the backing failure (shards={shards})"
        );
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(
            dstats.as_list().unwrap()[1],
            Value::Int(0),
            "nothing reached the disk"
        );
        // Recovery: disarm and flush again — every dirty line must still
        // be dirty and reach the disk now.
        armed.store(false, Ordering::Relaxed);
        assert_eq!(
            cache.invoke("cache", "flush", &[]).unwrap(),
            Value::Int(10),
            "a failed flush must leave all lines dirty (shards={shards})"
        );
        for sec in 0..10i64 {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0xD0 + sec as u8);
        }
        // And the durable flush is idempotent.
        assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(0));
    }
}

#[test]
fn failed_eviction_writeback_keeps_victim_and_surfaces_error() {
    // Every way into the cache that can need room goes through the one
    // eviction path, so each must keep the same promises when the
    // writeback that makes the room fails.
    type Entry = fn(&ObjRef) -> Result<Value, paramecium::obj::ObjError>;
    let entries: [(&str, Entry); 3] = [
        ("write", |c| {
            c.invoke("blockdev", "write", &[Value::Int(2), sector_of(0xCC)])
        }),
        ("read fill", |c| {
            c.invoke("blockdev", "read", &[Value::Int(2)])
        }),
        ("write_many", |c| {
            let pairs = [2i64, 3].map(|sec| (sec, bytes::Bytes::from(vec![0xCC; SECTOR_SIZE])));
            c.invoke("blockdev", "write_many", &[pairs_arg(pairs)])
        }),
    ];
    for (name, enter) in entries {
        let (_mem, driver) = fresh_driver();
        let armed = Arc::new(AtomicBool::new(false));
        let flaky = failing_backing(driver.clone(), armed.clone());
        let cache = StackBuilder::on(flaky).cache(2).build().unwrap().top;
        cache
            .invoke("blockdev", "write", &[Value::Int(0), sector_of(0xAA)])
            .unwrap();
        cache
            .invoke("blockdev", "write", &[Value::Int(1), sector_of(0xBB)])
            .unwrap();
        // Room for sector 2 means evicting a dirty victim; the backing
        // write fails, so the client call fails and the victim survives.
        armed.store(true, Ordering::Relaxed);
        let err = enter(&cache).unwrap_err().to_string();
        assert!(err.contains("injected write failure"), "{name}: {err}");
        assert!(resident_of(&cache) <= 2, "{name}: over capacity");
        armed.store(false, Ordering::Relaxed);
        for (sec, byte) in [(0i64, 0xAAu8), (1, 0xBB)] {
            let v = cache
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(
                v.as_bytes().unwrap()[0],
                byte,
                "{name}: acknowledged write lost"
            );
        }
        // Healed: the same call succeeds, still within capacity, and a
        // flush leaves the acknowledged data on the disk.
        enter(&cache).unwrap_or_else(|e| panic!("{name}: retry after heal: {e}"));
        assert!(resident_of(&cache) <= 2, "{name}: over capacity");
        cache.invoke("cache", "flush", &[]).unwrap();
        for (sec, byte) in [(0i64, 0xAAu8), (1, 0xBB)] {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], byte, "{name}");
        }
    }
}

#[test]
fn failed_write_many_applies_nothing() {
    // The cache's write_many matches the driver's no-partial-effects
    // contract: if the eviction writeback that makes room for the batch
    // fails, no pair of the batch may be cached.
    let (_mem, driver) = fresh_driver();
    let armed = Arc::new(AtomicBool::new(false));
    let flaky = failing_backing(driver.clone(), armed.clone());
    let cache = StackBuilder::on(flaky).cache(2).build().unwrap().top;
    cache
        .invoke("blockdev", "write", &[Value::Int(0), sector_of(0xAA)])
        .unwrap();
    cache
        .invoke("blockdev", "write", &[Value::Int(1), sector_of(0xBB)])
        .unwrap();
    armed.store(true, Ordering::Relaxed);
    let pairs = pairs_arg([
        (0i64, bytes::Bytes::from(vec![0x11u8; SECTOR_SIZE])),
        (2, bytes::Bytes::from(vec![0x22u8; SECTOR_SIZE])),
    ]);
    assert!(
        cache.invoke("blockdev", "write_many", &[pairs]).is_err(),
        "eviction writeback failure must fail the batch"
    );
    armed.store(false, Ordering::Relaxed);
    // Neither pair applied: sector 0 still holds its old data and sector
    // 2 is absent, so flushing persists exactly the pre-batch state.
    let v = cache.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
    assert_eq!(v.as_bytes().unwrap()[0], 0xAA, "batch must not half-apply");
    assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(2));
    let v = driver.invoke("blockdev", "read", &[Value::Int(2)]).unwrap();
    assert_eq!(v.as_bytes().unwrap()[0], 0, "sector 2 never written");
}

#[test]
fn oversized_write_many_streams_through_in_one_backing_call() {
    // A batch larger than the cache bypasses it as one vectorized
    // write-through instead of thrashing every line.
    let (_mem, driver) = fresh_driver();
    let cache = StackBuilder::on(driver.clone())
        .cache(8)
        .build()
        .unwrap()
        .top;
    cache
        .invoke("blockdev", "write", &[Value::Int(0), sector_of(0x01)])
        .unwrap();
    let before = driver.invocation_count();
    let pairs: Vec<(i64, bytes::Bytes)> = (0..64i64)
        .map(|sec| (sec, bytes::Bytes::from(vec![0x40 + sec as u8; SECTOR_SIZE])))
        .collect();
    let n = cache
        .invoke("blockdev", "write_many", &[pairs_arg(pairs)])
        .unwrap();
    assert_eq!(n, Value::Int(64));
    assert_eq!(
        driver.invocation_count() - before,
        1,
        "streaming write-through issues one backing call"
    );
    // Everything is on disk already; the resident line was refreshed in
    // place (clean), so flush has nothing to do.
    for sec in [0i64, 7, 63] {
        let v = driver
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x40 + sec as u8);
    }
    assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(0));
    // And the refreshed line still serves reads with the new data.
    let v = cache.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
    assert_eq!(v.as_bytes().unwrap()[0], 0x40);
}

#[test]
fn batched_flush_beats_per_sector_writes_on_invocations_and_cost() {
    const N: i64 = 256;
    // Per-sector: 256 individual driver writes.
    let (mem_a, driver_a) = fresh_driver();
    let t0 = mem_a.machine().lock().now();
    let inv0 = driver_a.invocation_count();
    for sec in 0..N {
        driver_a
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
            .unwrap();
    }
    let per_sector_cost = mem_a.machine().lock().now() - t0;
    let per_sector_invocations = driver_a.invocation_count() - inv0;

    // Batched: 256 dirty lines, one coalesced flush.
    let (mem_b, driver_b) = fresh_driver();
    let cache = StackBuilder::on(driver_b.clone())
        .sharded_cache(512, 8)
        .build()
        .unwrap()
        .top;
    for sec in 0..N {
        cache
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
            .unwrap();
    }
    let t0 = mem_b.machine().lock().now();
    let inv0 = driver_b.invocation_count();
    assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(N));
    let batched_cost = mem_b.machine().lock().now() - t0;
    let batched_invocations = driver_b.invocation_count() - inv0;

    assert_eq!(per_sector_invocations, N as u64);
    assert_eq!(batched_invocations, 1, "one vectorized backing call");
    assert_eq!(per_sector_cost, N as u64 * SECTOR_TRANSFER_COST);
    assert_eq!(batched_cost, batch_transfer_cost(N as usize));
    assert!(
        batched_cost * 2 < per_sector_cost,
        "batched flush must cost well under half: {batched_cost} vs {per_sector_cost}"
    );
    // Both strategies leave identical bytes behind.
    assert_eq!(disk_contents(&driver_a)[..], disk_contents(&driver_b)[..]);
}

#[test]
fn transactions_behave_identically_on_every_stack() {
    // A 16-sector log carries at most 14 payload sectors per transaction.
    let small_log = JournalConfig { log_sectors: 16 };
    type Shape = fn(StackBuilder, JournalConfig) -> StackBuilder;
    let shapes: [(&str, Shape); 4] = [
        ("driver", |b, _| b),
        ("driver → journal", |b, log| b.journal(log)),
        ("driver → retry → journal → cache", |b, log| {
            b.retry(RetryConfig::default()).journal(log).cache(8)
        }),
        ("driver → cache", |b, _| b.cache(8)),
    ];
    let data = |byte: u8| bytes::Bytes::from(vec![byte; SECTOR_SIZE]);
    let mut transcripts: Vec<(&str, Vec<String>, Option<String>)> = Vec::new();
    for (name, shape) in shapes {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        let stack = shape(StackBuilder::disk(&mem, KERNEL_DOMAIN), small_log)
            .build()
            .unwrap();
        let top = &stack.top;
        let total = top
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        // One line per step: what the client saw, with this stack's
        // device size (the journal reserves its tail) written as `N`.
        let mut seen: Vec<String> = Vec::new();
        let mut say = |step: &str, r: Result<Value, paramecium::obj::ObjError>| {
            let outcome = match r {
                Ok(Value::Bytes(b)) => format!("{:#04x}", b[0]),
                Ok(v) => format!("{v:?}"),
                Err(e) => format!("error: {e}").replace(&total.to_string(), "N"),
            };
            seen.push(format!("{step}: {outcome}"));
        };
        let read = |sec: i64| top.invoke("blockdev", "read", &[Value::Int(sec)]);
        let begin = || top.invoke("blockdev", "begin_txn", &[]);
        let txn_write = |txn: i64, sec: i64, d: bytes::Bytes| {
            top.invoke("blockdev", "txn_write", &txn_write_args(txn, sec, d))
        };
        let commit = |txn: i64| top.invoke("blockdev", "commit", &txn_arg(txn));
        let abort = |txn: i64| top.invoke("blockdev", "abort", &txn_arg(txn));

        // Invisible until commit, visible after.
        say(
            "write 2",
            top.invoke("blockdev", "write", &[Value::Int(2), sector_of(0x10)]),
        );
        say("begin", begin());
        say("txn_write 2", txn_write(1, 2, data(0xA2)));
        say("txn_write 3", txn_write(1, 3, data(0xA3)));
        say("read 2 before commit", read(2));
        say("read 3 before commit", read(3));
        say("commit", commit(1));
        say("read 2 after commit", read(2));
        say("read 3 after commit", read(3));
        // A closed handle is gone, for commit and abort alike.
        say("commit again", commit(1));
        say("abort after commit", abort(1));
        // Abort leaves nothing behind.
        say("begin", begin());
        say("txn_write 5", txn_write(2, 5, data(0xB5)));
        say("abort", abort(2));
        say("read 5 after abort", read(5));
        say("commit after abort", commit(2));
        // Handles nobody was given.
        say("commit unknown", commit(99));
        say("abort unknown", abort(99));
        say("txn_write unknown", txn_write(99, 1, data(1)));
        say("commit 0", commit(0));
        say("abort negative", abort(-3));
        say("txn_write 0", txn_write(0, 1, data(1)));
        // Bad writes are refused at `txn_write`, not at commit.
        say("begin", begin());
        say("txn_write past the end", txn_write(3, total, data(1)));
        say("txn_write negative", txn_write(3, -1, data(1)));
        say(
            "txn_write short",
            txn_write(3, 1, bytes::Bytes::from_static(b"short")),
        );
        say("commit empty", commit(3));
        say("read 1 after empty commit", read(1));
        // Nothing volatile is left after a flush; the committed data is
        // at its home on the disk.
        top.invoke("blockdev", "flush", &[]).unwrap();
        say("second flush", top.invoke("blockdev", "flush", &[]));
        say("barrier", top.invoke("blockdev", "barrier", &[]));
        say(
            "driver read 3",
            stack.driver.invoke("blockdev", "read", &[Value::Int(3)]),
        );

        // Under a journal a transaction larger than one log record can
        // carry is rejected whole, wherever in the stack it was begun.
        let oversized = top
            .invoke("blockdev", "write_limit", &[])
            .ok()
            .map(|limit| {
                let limit = limit.as_int().unwrap();
                let txn = begin().unwrap().as_int().unwrap();
                for sec in 0..=limit {
                    txn_write(txn, 8 + sec, data(0xEE)).unwrap();
                }
                let err = commit(txn).unwrap_err().to_string();
                for sec in 0..=limit {
                    let v = read(8 + sec).unwrap();
                    assert_eq!(v.as_bytes().unwrap()[0], 0, "{name}: sector {sec} leaked");
                }
                assert!(commit(txn).is_err(), "{name}: rejected handle is closed");
                err
            });
        transcripts.push((name, seen, oversized));
    }

    let (_, reference, _) = &transcripts[0];
    assert_eq!(reference[1], "begin: Int(1)");
    assert_eq!(reference[4], "read 2 before commit: 0x10");
    assert_eq!(reference[7], "read 2 after commit: 0xa2");
    assert_eq!(
        reference[9],
        "commit again: error: method failed: no open transaction 1"
    );
    assert_eq!(reference.last().unwrap(), "driver read 3: 0xa3");
    for (name, seen, oversized) in &transcripts {
        assert_eq!(seen, reference, "{name} differs from the bare driver");
        let journalled = name.contains("journal");
        assert_eq!(oversized.is_some(), journalled, "{name}");
        if journalled {
            assert_eq!(
                oversized.as_deref(),
                Some(
                    "method failed: transaction of 15 sectors exceeds the 16-sector \
                     log's 14-sector transaction limit"
                ),
                "{name}"
            );
        }
    }
}

#[test]
fn multi_client_stress_through_interposition() {
    // The paper's scenario at load: one shared cache interposed over
    // /dev/disk, several non-cooperating user domains hammering it
    // through their proxies.
    let world = World::boot();
    let n = &world.nucleus;
    n.repository.add_native("disk-driver", "1.0", {
        let mem = n.mem.clone();
        Arc::new(move || {
            StackBuilder::disk(&mem, KERNEL_DOMAIN)
                .build()
                .map(|stack| stack.top)
                .map_err(|e| paramecium::obj::ObjError::failed(e.to_string()))
        })
    });
    world
        .certify_by_root("disk-driver", &[Right::RunKernel, Right::DeviceAccess])
        .unwrap();
    n.load("disk-driver", &LoadOptions::kernel("/dev/disk"))
        .unwrap();
    let raw = n.bind(KERNEL_DOMAIN, "/dev/disk").unwrap();
    let cache = StackBuilder::on(raw)
        .sharded_cache(32, 4)
        .build()
        .unwrap()
        .top;
    n.interpose(KERNEL_DOMAIN, "/dev/disk", cache).unwrap();

    let clients: Vec<ObjRef> = (0..4)
        .map(|i| {
            let d = n
                .create_domain(format!("client-{i}"), KERNEL_DOMAIN, [])
                .unwrap();
            n.bind(d.id, "/dev/disk").unwrap()
        })
        .collect();

    // Interleaved traffic over overlapping ranges: client i stripes its
    // id into sectors [i, i+4, ...), then everyone reads everyone's.
    let writes = Arc::new(AtomicU64::new(0));
    for round in 0..8u8 {
        for (i, c) in clients.iter().enumerate() {
            for k in 0..16i64 {
                let sec = (i as i64 + 4 * k) % 64;
                c.invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(round.wrapping_mul(sec as u8))],
                )
                .unwrap();
                writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        for c in &clients {
            let v = c
                .invoke("blockdev", "read_many", &[sectors_arg(0..16)])
                .unwrap();
            assert_eq!(v.as_list().unwrap().len(), 16);
        }
    }

    // The shared cache saw every client: aggregated accesses match the
    // traffic, the capacity invariant held, and a final flush persists a
    // consistent image.
    let shared = n.bind(KERNEL_DOMAIN, "/dev/disk").unwrap();
    let stats = shared.invoke("cache", "stats", &[]).unwrap();
    let s: Vec<i64> = stats
        .as_list()
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect();
    let total_ops = writes.load(Ordering::Relaxed) as i64 + 8 * 4 * 16;
    assert_eq!(s[0] + s[1], total_ops, "hits+misses == every client op");
    assert!(s[3] <= 32, "resident {} within capacity", s[3]);
    let shard_stats = shared.invoke("cache", "shard_stats", &[]).unwrap();
    let shard_stats = shard_stats.as_list().unwrap();
    assert_eq!(shard_stats.len(), 4);
    assert!(
        shard_stats
            .iter()
            .all(|sh| sh.as_list().unwrap()[0].as_int().unwrap() > 0),
        "traffic reaches every shard"
    );
    shared.invoke("cache", "flush", &[]).unwrap();
    // After the flush the last round's stripes are on disk.
    let disk = n.bind(KERNEL_DOMAIN, "/dev/disk").unwrap();
    for sec in 0..16i64 {
        let v = disk.invoke("blockdev", "read", &[Value::Int(sec)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 7u8.wrapping_mul(sec as u8));
    }
}
