//! Store scaling suite (PR 5): the sharded, vectorized block cache.
//!
//! - Differential property test: any operation sequence through the
//!   cache, followed by a final flush, leaves the backing disk
//!   byte-identical to running the same sequence against the raw driver —
//!   across shard counts {1, 4, 8} and several capacities. A twin of the
//!   cache stack takes every scalar op as a burst of one and must keep
//!   the same history: answers, errors, clock, charges and stats.
//! - Durability: a failed backing write must never lose dirty data
//!   (lines are marked clean only after the write succeeds).
//! - Strict capacity: eviction happens before insertion.
//! - Batching: coalesced writeback issues fewer backing invocations and
//!   costs fewer simulated cycles than per-sector writes.
//! - Stress: several non-cooperating domains hammer one shared cache
//!   installed by interposition.
//! - Transactions: one script over every stack shape — a transaction is
//!   one `commit` of its whole batch, the same whichever layers it
//!   passes through.
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
use paramecium::store::cache::CacheStats;
use paramecium::store::driver::DriverStats;
use paramecium::store::vectored::{pairs_arg, sectors_arg};
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

/// Stands an interposer over `driver` whose `before` hook counts every
/// call that reaches the driver through it.
fn counted(driver: &ObjRef) -> (ObjRef, Arc<AtomicU64>) {
    let calls = Arc::new(AtomicU64::new(0));
    let count = calls.clone();
    let agent = InterposerBuilder::new(driver.clone())
        .before(move |_, _, _| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .build();
    (agent, calls)
}

fn sector_of(byte: u8) -> Value {
    Value::Bytes(bytes::Bytes::from(vec![byte; SECTOR_SIZE]))
}

fn resident_of(cache: &ObjRef) -> i64 {
    let stats = cache.invoke("cache", "stats", &[]).unwrap();
    CacheStats::from_value(&stats).unwrap().resident as i64
}

/// A sector no device here has: reads and writes of it must fail.
const PAST_THE_END: i64 = 1 << 40;

/// One abstract storage operation. A scalar op's sector is sometimes
/// negative or past the end, and its payload sometimes short, so every
/// way a layer refuses a request is exercised too.
#[derive(Clone, Debug)]
enum StoreOp {
    Read(i64),
    /// Sector, fill byte, payload length.
    Write(i64, u8, usize),
    ReadMany(Vec<i64>),
    WriteMany(Vec<(i64, u8)>),
    Flush,
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    let sector = || (-1..=RANGE).prop_map(|s| if s == RANGE { PAST_THE_END } else { s });
    let len = (0usize..8).prop_map(|k| if k == 0 { 5 } else { SECTOR_SIZE });
    prop_oneof![
        sector().prop_map(StoreOp::Read),
        (sector(), 0u8..=255, len).prop_map(|(s, b, n)| StoreOp::Write(s, b, n)),
        proptest::collection::vec(0..RANGE, 1..6).prop_map(StoreOp::ReadMany),
        proptest::collection::vec((0..RANGE, 0u8..=255), 1..6).prop_map(StoreOp::WriteMany),
        (0u8..1).prop_map(|_| StoreOp::Flush),
    ]
}

/// Applies `op` to any blockdev-speaking object, returning the read
/// payloads (first byte of each sector) or the error text, so cache and
/// raw driver can be compared call by call, not just at the end. With
/// `burst`, a scalar op goes in as a burst of one: `read_many` of one
/// sector, `write_many` of one pair.
fn apply(dev: &ObjRef, op: &StoreOp, is_cache: bool, burst: bool) -> Result<Vec<u8>, String> {
    let blockdev = |method, args| ("blockdev", method, args);
    let (iface, method, args) = match op {
        StoreOp::Read(sec) if burst => blockdev("read_many", vec![sectors_arg([*sec])]),
        StoreOp::Read(sec) => blockdev("read", vec![Value::Int(*sec)]),
        StoreOp::Write(sec, byte, len) => {
            let data = bytes::Bytes::from(vec![*byte; *len]);
            match burst {
                true => blockdev("write_many", vec![pairs_arg([(*sec, data)])]),
                false => blockdev("write", vec![Value::Int(*sec), Value::Bytes(data)]),
            }
        }
        StoreOp::ReadMany(secs) => blockdev("read_many", vec![sectors_arg(secs.iter().copied())]),
        StoreOp::WriteMany(pairs) => {
            let data = |byte: u8| bytes::Bytes::from(vec![byte; SECTOR_SIZE]);
            let pairs = pairs.iter().map(|&(sec, byte)| (sec, data(byte)));
            blockdev("write_many", vec![pairs_arg(pairs)])
        }
        StoreOp::Flush if is_cache => ("cache", "flush", Vec::new()),
        StoreOp::Flush => return Ok(Vec::new()),
    };
    // Reads answer sectors; everything else answers a count or nothing.
    let first_bytes = |v: Value| match v {
        Value::List(l) => l.iter().map(|b| b.as_bytes().unwrap()[0]).collect(),
        Value::Bytes(b) => vec![b[0]],
        _ => Vec::new(),
    };
    dev.invoke(iface, method, &args)
        .map(first_bytes)
        .map_err(|e| e.to_string())
}

/// What a scalar call and its burst of one must leave identical: the
/// machine's clock and charge count, and every `stats` list of a
/// `driver → cache` stack.
fn history(mem: &MemService, driver: &ObjRef, cache: &ObjRef) -> Vec<Value> {
    let m = mem.machine().lock();
    let clock = [m.now(), m.charge_events()].map(|n| Value::Int(n as i64));
    drop(m);
    let mut seen = clock.to_vec();
    for (obj, iface, method) in [
        (driver, "blockdev", "stats"),
        (cache, "cache", "stats"),
        (cache, "cache", "shard_stats"),
    ] {
        seen.push(obj.invoke(iface, method, &[]).unwrap());
    }
    seen
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
    /// would have returned, every refusal says what the driver says, and
    /// after a final flush the backing disk is byte-identical to the
    /// driver-only run — for shard counts 1, 4 and 8 and capacities from
    /// thrashing-small to ample. A twin of the cache stack gets every
    /// scalar op as a burst of one and must leave the same history: the
    /// same answer or error, clock, charges and stats after every op.
    #[test]
    fn cache_is_differentially_transparent(
        ops in proptest::collection::vec(store_op(), 0..60),
        capacity in 2usize..40,
    ) {
        for shards in [1usize, 4, 8] {
            let cache_over = |driver: &ObjRef| {
                StackBuilder::on(driver.clone())
                    .sharded_cache(capacity, shards)
                    .build()
                    .unwrap()
                    .top
            };
            let (mem_c, backing) = fresh_driver();
            let cache = cache_over(&backing);
            let (mem_t, twin_backing) = fresh_driver();
            let twin = cache_over(&twin_backing);
            let (_mem_r, raw) = fresh_driver();
            for op in &ops {
                let through_cache = apply(&cache, op, true, false);
                let through_raw = apply(&raw, op, false, false);
                prop_assert_eq!(
                    &through_cache, &through_raw,
                    "read divergence (shards={}, capacity={}, op={:?})", shards, capacity, op
                );
                let through_twin = apply(&twin, op, true, true);
                prop_assert_eq!(&through_twin, &through_cache, "burst of one: {:?}", op);
                prop_assert_eq!(
                    history(&mem_t, &twin_backing, &twin),
                    history(&mem_c, &backing, &cache),
                    "burst of one left another history: {:?}", op
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
        let writes = DriverStats::from_value(&dstats).unwrap().writes;
        assert_eq!(writes, 0, "nothing reached the disk");
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
    let (counted, calls) = counted(&driver);
    let cache = StackBuilder::on(counted).cache(8).build().unwrap().top;
    cache
        .invoke("blockdev", "write", &[Value::Int(0), sector_of(0x01)])
        .unwrap();
    let before = calls.load(Ordering::Relaxed);
    let pairs: Vec<(i64, bytes::Bytes)> = (0..64i64)
        .map(|sec| (sec, bytes::Bytes::from(vec![0x40 + sec as u8; SECTOR_SIZE])))
        .collect();
    let n = cache
        .invoke("blockdev", "write_many", &[pairs_arg(pairs)])
        .unwrap();
    assert_eq!(n, Value::Int(64));
    assert_eq!(
        calls.load(Ordering::Relaxed) - before,
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
    let (counted_a, calls_a) = counted(&driver_a);
    let t0 = mem_a.machine().lock().now();
    let inv0 = calls_a.load(Ordering::Relaxed);
    for sec in 0..N {
        counted_a
            .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
            .unwrap();
    }
    let per_sector_cost = mem_a.machine().lock().now() - t0;
    let per_sector_invocations = calls_a.load(Ordering::Relaxed) - inv0;

    // Batched: 256 dirty lines, one coalesced flush.
    let (mem_b, driver_b) = fresh_driver();
    let (counted_b, calls_b) = counted(&driver_b);
    let cache = StackBuilder::on(counted_b)
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
    let inv0 = calls_b.load(Ordering::Relaxed);
    assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(N));
    let batched_cost = mem_b.machine().lock().now() - t0;
    let batched_invocations = calls_b.load(Ordering::Relaxed) - inv0;

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
        let commit = |pairs: &[(i64, bytes::Bytes)]| {
            top.invoke("blockdev", "commit", &[pairs_arg(pairs.to_vec())])
        };

        // Visible once committed, and a re-sent commit changes nothing.
        say(
            "write 2",
            top.invoke("blockdev", "write", &[Value::Int(2), sector_of(0x10)]),
        );
        let batch = [(2, data(0xA2)), (3, data(0xA3))];
        say("commit", commit(&batch));
        say("read 2 after commit", read(2));
        say("read 3 after commit", read(3));
        say("commit again", commit(&batch));
        say("read 3 after commit again", read(3));
        // A batch with one bad write is refused whole.
        for (what, bad) in [
            ("past the end", (total, data(1))),
            ("negative", (-1, data(1))),
            ("short", (1, bytes::Bytes::from_static(b"short"))),
        ] {
            say(&format!("commit {what}"), commit(&[(5, data(0xB5)), bad]));
        }
        say("read 5 after refused commits", read(5));
        say("commit empty", commit(&[]));
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
        // carry is rejected whole, whichever layer it was sent to; a
        // stack without one takes a batch of any size.
        let limit = top.invoke("blockdev", "write_limit", &[]).unwrap();
        let limit = limit.as_int().unwrap();
        let oversized = (limit < i64::MAX).then(|| {
            let batch: Vec<_> = (0..=limit).map(|sec| (8 + sec, data(0xEE))).collect();
            let err = commit(&batch).unwrap_err().to_string();
            for sec in 0..=limit {
                let v = read(8 + sec).unwrap();
                assert_eq!(v.as_bytes().unwrap()[0], 0, "{name}: sector {sec} leaked");
            }
            err
        });
        transcripts.push((name, seen, oversized));
    }

    let (_, reference, _) = &transcripts[0];
    assert_eq!(reference[1], "commit: Int(2)");
    assert_eq!(reference[2], "read 2 after commit: 0xa2");
    assert_eq!(
        reference[6],
        "commit past the end: error: method failed: sector N out of range (device has N)"
    );
    assert_eq!(reference[9], "read 5 after refused commits: 0x00");
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
        Arc::new(move || Ok(StackBuilder::disk(&mem, KERNEL_DOMAIN).build()?.top))
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
    let s = CacheStats::from_value(&stats).unwrap();
    let total_ops = writes.load(Ordering::Relaxed) + 8 * 4 * 16;
    assert_eq!(
        s.hits + s.misses,
        total_ops,
        "hits+misses == every client op"
    );
    assert!(s.resident <= 32, "resident {} within capacity", s.resident);
    let shard_stats = shared.invoke("cache", "shard_stats", &[]).unwrap();
    let shard_stats = shard_stats.as_list().unwrap();
    assert_eq!(shard_stats.len(), 4);
    assert!(
        shard_stats
            .iter()
            .all(|sh| CacheStats::from_value(sh).unwrap().hits > 0),
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
