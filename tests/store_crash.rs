//! Crash-injection suite for the journalled store stack (PR 8).
//!
//! The machine can arm a power failure at an exact cost-model charge
//! event ([`Machine::arm_crash_after`]); the disk driver turns a crash
//! mid-batch into a committed prefix plus one torn sector. These tests
//! drive the journal through every such crash point and check the only
//! promise that matters after a power failure:
//!
//! > every operation the stack acknowledged is durable, and the
//! > operation in flight either happened entirely or not at all.
//!
//! - `committed_prefix_holds_at_every_crash_point`: a seeded random
//!   operation sequence is replayed with a crash injected at *every*
//!   charge step, remounted, and compared differentially against an
//!   in-memory oracle. The sweep itself is pinned: its charge-step
//!   count and the outcome at every step are part of the store's
//!   contract, so a change to how a layer batches or charges shows here.
//! - `on_disk_format_is_pinned`: the raw disk image a fixed script
//!   leaves behind, summed — the journal's record format and the order
//!   and content of every home write.
//! - `recovery_is_idempotent_even_when_recovery_crashes`: mount-time
//!   replay is itself crashed at progressively later points until it
//!   completes; replaying twice must equal replaying once.
//! - `torn_write_at_log_tail_is_detected`: a crash while appending a
//!   transaction tears its descriptor, payload, or commit marker; the
//!   checksummed records keep the half-written transaction invisible.
//! - `flush_homes_cache_dirty_data_before_checkpoint_truncates`: the
//!   cache-above-journal ordering pin — a full-stack flush must drain
//!   cache-dirty lines *through* the journal before the checkpoint
//!   truncates the log.
//! - `group_commit_coalesces_concurrent_commits`: concurrent committers
//!   over a slow backing store land in measurably fewer group appends
//!   than transactions.
//!
//! Profiles: debug (tier-1) and release (CI's workspace step) both matter —
//! group commit's leader/rider protocol is timing-sensitive.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};

use paramecium::core::memsvc::MemService;
use paramecium::machine::dev::disk::{Disk, SECTOR_SIZE};
use paramecium::obj::sum64;
use paramecium::prelude::*;
use paramecium::store::vectored::{pairs_arg, sectors_arg, txn_arg, txn_write_args};
use paramecium::store::{JournalConfig, StackBuilder};

/// Sector range the random sequences write: small enough that sectors
/// are overwritten many times and checkpoints matter.
const RANGE: i64 = 12;

/// A deliberately small log so sequences overflow it and exercise the
/// inline-checkpoint path under crashes.
const SMALL_LOG: JournalConfig = JournalConfig { log_sectors: 30 };

fn fresh() -> (Arc<MemService>, paramecium::store::StoreStack) {
    let machine = Arc::new(Mutex::new(Machine::new()));
    let mem = Arc::new(MemService::new(machine));
    let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
        .journal(SMALL_LOG)
        .build()
        .unwrap();
    (mem, stack)
}

fn sector_of(byte: u8) -> Value {
    Value::Bytes(Bytes::from(vec![byte; SECTOR_SIZE]))
}

fn jstats(j: &ObjRef) -> Vec<i64> {
    j.invoke("journal", "stats", &[])
        .unwrap()
        .as_list()
        .unwrap()
        .iter()
        .map(|v| v.as_int().unwrap())
        .collect()
}

/// One logical operation of the random sequence. Every variant is
/// atomic at the `blockdev` interface: after a crash it must be visible
/// entirely or not at all.
#[derive(Clone, Debug)]
enum Op {
    /// Bare single-sector write (an implicit transaction).
    Write(i64, u8),
    /// Vectorized batch (one atomic transaction).
    WriteMany(Vec<(i64, u8)>),
    /// Explicit begin/txn_write*/commit transaction.
    Txn(Vec<(i64, u8)>),
    /// Checkpoint: home the overlay, truncate the log.
    Flush,
}

fn gen_ops(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let writes = |rng: &mut StdRng, n: usize| -> Vec<(i64, u8)> {
        (0..n)
            .map(|_| (rng.gen_range(0..RANGE), rng.gen_range(1..256i64) as u8))
            .collect()
    };
    (0..14)
        .map(|_| match rng.gen_range(0..6u32) {
            0..=2 => {
                let (sec, val) = writes(&mut rng, 1)[0];
                Op::Write(sec, val)
            }
            3 => Op::WriteMany({
                let n = rng.gen_range(2..5usize);
                writes(&mut rng, n)
            }),
            4 => Op::Txn({
                let n = rng.gen_range(2..4usize);
                writes(&mut rng, n)
            }),
            _ => Op::Flush,
        })
        .collect()
}

/// Applies one op to the per-sector oracle (last writer wins).
fn apply(oracle: &mut [u8], op: &Op) {
    match op {
        Op::Write(sec, val) => oracle[*sec as usize] = *val,
        Op::WriteMany(pairs) | Op::Txn(pairs) => {
            for (sec, val) in pairs {
                oracle[*sec as usize] = *val;
            }
        }
        Op::Flush => {}
    }
}

/// Runs one op through the stack top. The whole op is one atomic unit:
/// an error anywhere means the op is in flight at the crash.
fn run_op(top: &ObjRef, op: &Op) -> Result<(), String> {
    let r = match op {
        Op::Write(sec, val) => top
            .invoke("blockdev", "write", &[Value::Int(*sec), sector_of(*val)])
            .map(|_| ()),
        Op::WriteMany(pairs) => {
            let batch: Vec<(i64, Bytes)> = pairs
                .iter()
                .map(|(sec, val)| (*sec, Bytes::from(vec![*val; SECTOR_SIZE])))
                .collect();
            top.invoke("blockdev", "write_many", &[pairs_arg(batch)])
                .map(|_| ())
        }
        Op::Txn(pairs) => (|| {
            let txn = top.invoke("blockdev", "begin_txn", &[])?.as_int()?;
            for (sec, val) in pairs {
                top.invoke(
                    "blockdev",
                    "txn_write",
                    &txn_write_args(txn, *sec, Bytes::from(vec![*val; SECTOR_SIZE])),
                )?;
            }
            top.invoke("blockdev", "commit", &txn_arg(txn)).map(|_| ())
        })(),
        Op::Flush => top.invoke("blockdev", "flush", &[]).map(|_| ()),
    };
    r.map_err(|e| e.to_string())
}

/// Runs ops until the first failure, returning how many were
/// acknowledged and whether one was in flight when the machine died.
fn run_until_crash(top: &ObjRef, ops: &[Op]) -> (usize, Option<usize>) {
    for (i, op) in ops.iter().enumerate() {
        if let Err(e) = run_op(top, op) {
            assert!(
                e.contains("power failure"),
                "only power failure may abort a valid op, got: {e}"
            );
            return (i, Some(i));
        }
    }
    (ops.len(), None)
}

/// Reads every data sector in [0, RANGE) through `top` as full sectors.
fn read_all(top: &ObjRef) -> Vec<Bytes> {
    top.invoke("blockdev", "read_many", &[sectors_arg(0..RANGE)])
        .unwrap()
        .as_list()
        .unwrap()
        .iter()
        .map(|v| v.as_bytes().unwrap().clone())
        .collect()
}

/// Whether the on-disk state equals the oracle (full-sector compare, so
/// a torn home sector that recovery failed to repair is caught).
fn matches_oracle(state: &[Bytes], oracle: &[u8]) -> bool {
    state
        .iter()
        .zip(oracle)
        .all(|(got, &val)| got.as_ref() == vec![val; SECTOR_SIZE].as_slice())
}

/// The sweep's shape per seed: how many charge steps the clean run
/// costs, and the [`sum64`] of `(acked, in-flight op applied?)` over
/// every crash step. Taken at PR 16; a layer that charges, batches or
/// orders its writes differently moves one of them.
const SWEEP_PINS: [(u64, u64); 3] = [
    (47, 0x27D8_3BE5_DECA_F3CE),
    (53, 0xCCC4_E543_09DB_CEF6),
    (49, 0x2A7F_36DB_4C30_116C),
];

#[test]
fn committed_prefix_holds_at_every_crash_point() {
    for (seed, pin) in [1u64, 2, 3].into_iter().zip(SWEEP_PINS) {
        let ops = gen_ops(seed);

        // Clean run: count the charge events the sequence costs. Every
        // one of them is a distinct crash point for the sweep below.
        let (mem, stack) = fresh();
        let c0 = mem.machine().lock().charge_events();
        let (acked, inflight) = run_until_crash(&stack.top, &ops);
        assert_eq!((acked, inflight), (ops.len(), None), "clean run crashed");
        let steps = mem.machine().lock().charge_events() - c0;
        assert!(steps > 20, "sequence too cheap to be interesting: {steps}");

        let mut outcomes = 0u64;
        for k in 1..=steps {
            let (mem, stack) = fresh();
            mem.machine().lock().arm_crash_after(k);
            let (acked, inflight) = run_until_crash(&stack.top, &ops);
            assert!(
                inflight.is_some(),
                "seed {seed}: crash at step {k} never fired"
            );
            drop(stack);
            {
                let mut m = mem.machine().lock();
                m.disarm_crash();
                m.reboot();
            }
            // Remount over the surviving disk: recovery replays the
            // committed prefix of the log.
            let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
                .journal(SMALL_LOG)
                .build()
                .unwrap();
            let state = read_all(&stack.top);

            // Exactly two outcomes are legal: the acknowledged prefix,
            // or the prefix plus the in-flight op applied atomically.
            let mut without = vec![0u8; RANGE as usize];
            for op in &ops[..acked] {
                apply(&mut without, op);
            }
            let mut with = without.clone();
            apply(&mut with, &ops[inflight.unwrap()]);
            let applied = !matches_oracle(&state, &without);
            assert!(
                !applied || matches_oracle(&state, &with),
                "seed {seed}, crash at step {k}/{steps}: state after recovery \
                 matches neither acked-prefix nor acked-prefix+in-flight \
                 (acked {acked} of {} ops: {:?})",
                ops.len(),
                ops[..=inflight.unwrap()].last()
            );
            outcomes = sum64::fold(outcomes, &[acked as u8, applied as u8]);
        }
        assert_eq!(
            (steps, outcomes),
            pin,
            "seed {seed}: the sweep's step count or per-step outcomes moved"
        );
    }
}

#[test]
fn on_disk_format_is_pinned() {
    // Single writes, an 8-sector batch, a 100-sector transaction that
    // does not fit behind them (so the log checkpoints inline), more
    // single writes, and no final flush: the image holds homed sectors,
    // both superblock copies, a live log tail and a retired epoch's
    // records under it.
    let machine = Arc::new(Mutex::new(Machine::new()));
    let mem = Arc::new(MemService::new(machine));
    let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
        .journal(JournalConfig::default())
        .build()
        .unwrap();
    let top = &stack.top;
    let payload = |sec: i64, round: u8| {
        let fill: Vec<u8> = (0..SECTOR_SIZE)
            .map(|k| (k as u8).wrapping_mul(31) ^ sec as u8 ^ round)
            .collect();
        Bytes::from(fill)
    };
    let single = |sec: i64, round: u8| {
        top.invoke(
            "blockdev",
            "write",
            &[Value::Int(sec), Value::Bytes(payload(sec, round))],
        )
        .unwrap();
    };
    for sec in [7, 3, 7, 4000, 12] {
        single(sec, 1);
    }
    let batch = [40, 41, 9, 3, 42, 43, 44, 8000].map(|sec| (sec, payload(sec, 2)));
    top.invoke("blockdev", "write_many", &[pairs_arg(batch)])
        .unwrap();
    let txn = top.invoke("blockdev", "begin_txn", &[]).unwrap();
    let txn = txn.as_int().unwrap();
    for k in 0..100i64 {
        // Descending, with sector 7 written twice: last writer wins.
        let sec = if k == 60 { 7 } else { 1000 - 3 * k };
        top.invoke(
            "blockdev",
            "txn_write",
            &txn_write_args(txn, sec, payload(sec, 3)),
        )
        .unwrap();
    }
    top.invoke("blockdev", "commit", &txn_arg(txn)).unwrap();
    for sec in [12, 5, 1000] {
        single(sec, 4);
    }
    let s = jstats(stack.journal.as_ref().unwrap());
    assert_eq!((s[0], s[3]), (10, 1), "ten commits, one inline checkpoint");

    let mut m = mem.machine().lock();
    let disk = m.device_mut::<Disk>("disk").unwrap();
    let image = (0..disk.sectors() as u64).fold(0, |h, sec| {
        sum64::fold(h, &disk.read_sector(sec).unwrap()[..])
    });
    // Taken at PR 16 (record format v2), before the write path was
    // rebuilt around the borrowed batch.
    assert_eq!(
        image, 0x5C3B_2BC9_3137_8DDD,
        "the raw disk image after the scripted sequence changed"
    );
}

#[test]
fn recovery_is_idempotent_even_when_recovery_crashes() {
    let (mem, stack) = fresh();
    // Commit a handful of transactions, none of them checkpointed: all
    // the data lives only in the log.
    for sec in 0..6i64 {
        stack
            .top
            .invoke(
                "blockdev",
                "write",
                &[Value::Int(sec), sector_of(0xC0 + sec as u8)],
            )
            .unwrap();
    }
    drop(stack);

    // Crash recovery itself at step 1, 2, 3, ... until one attempt gets
    // all the way through. Every failed attempt leaves the log intact
    // (home-writes-then-truncate), so the next one replays the same
    // committed prefix — mount is idempotent under its own crashes.
    let mut k = 1u64;
    let recovered = loop {
        assert!(k < 1000, "recovery never completed");
        {
            let mut m = mem.machine().lock();
            m.reboot();
            m.arm_crash_after(k);
        }
        match StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(SMALL_LOG)
            .build()
        {
            Ok(stack) => break stack,
            Err(_) => k += 1,
        }
    };
    mem.machine().lock().disarm_crash();
    assert!(k > 1, "recovery should charge more than one event");
    let replayed_once = jstats(recovered.journal.as_ref().unwrap())[4];
    assert_eq!(replayed_once, 6, "all six transactions replayed");
    for sec in 0..6i64 {
        let v = recovered
            .top
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xC0 + sec as u8);
    }
    drop(recovered);

    // Replay twice ≡ once: a second remount finds a truncated log,
    // replays nothing, and observes identical state.
    let again = StackBuilder::disk(&mem, KERNEL_DOMAIN)
        .journal(SMALL_LOG)
        .build()
        .unwrap();
    assert_eq!(jstats(again.journal.as_ref().unwrap())[4], 0);
    for sec in 0..6i64 {
        let v = again
            .top
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xC0 + sec as u8);
    }
}

#[test]
fn torn_write_at_log_tail_is_detected() {
    // A bare write appends three record sectors: descriptor, payload,
    // commit marker. Crashing on the k-th charge of that append tears
    // exactly the k-th record at the log tail.
    for (k, torn) in [(1, "descriptor"), (2, "payload"), (3, "commit marker")] {
        let (mem, stack) = fresh();
        stack
            .top
            .invoke("blockdev", "write", &[Value::Int(0), sector_of(0xA1)])
            .unwrap();
        mem.machine().lock().arm_crash_after(k);
        let err = stack
            .top
            .invoke("blockdev", "write", &[Value::Int(1), sector_of(0xB2)])
            .unwrap_err();
        assert!(err.to_string().contains("power failure"), "{err}");
        drop(stack);
        {
            let mut m = mem.machine().lock();
            m.disarm_crash();
            m.reboot();
        }
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(SMALL_LOG)
            .build()
            .unwrap();
        let j = stack.journal.as_ref().unwrap();
        assert_eq!(
            jstats(j)[4],
            1,
            "torn {torn}: only the acknowledged write replays"
        );
        let v = stack
            .top
            .invoke("blockdev", "read", &[Value::Int(0)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xA1, "acked write survives");
        let v = stack
            .top
            .invoke("blockdev", "read", &[Value::Int(1)])
            .unwrap();
        assert_eq!(
            v.as_bytes().unwrap()[0],
            0,
            "torn {torn}: unacknowledged write stays invisible"
        );
        // The truncated log scans clean.
        assert_eq!(j.invoke("journal", "scan", &[]).unwrap(), Value::Int(0));
    }
}

#[test]
fn flush_homes_cache_dirty_data_before_checkpoint_truncates() {
    let machine = Arc::new(Mutex::new(Machine::new()));
    let mem = Arc::new(MemService::new(machine));
    let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
        .journal(SMALL_LOG)
        .sharded_cache(8, 2)
        .build()
        .unwrap();

    // Writes park as dirty lines in the cache; the journal below sees
    // nothing yet.
    for sec in 0..4i64 {
        stack
            .top
            .invoke(
                "blockdev",
                "write",
                &[Value::Int(sec), sector_of(0xD0 + sec as u8)],
            )
            .unwrap();
    }

    // The ordering pin: a full-stack flush must push the cache's dirty
    // lines down *before* the journal checkpoint runs, so the
    // checkpoint journals-and-homes them rather than truncating a log
    // that never saw them. After the flush the data must sit at its
    // home location on the raw driver.
    stack.top.invoke("blockdev", "flush", &[]).unwrap();
    for sec in 0..4i64 {
        let v = stack
            .driver
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        assert_eq!(
            v.as_bytes().unwrap()[0],
            0xD0 + sec as u8,
            "sector {sec} homed"
        );
    }

    // A crash after the flush loses nothing: remount replays nothing
    // (everything is already home) and reads back the same data.
    mem.machine().lock().arm_crash_after(1);
    assert!(
        stack
            .top
            .invoke("blockdev", "write", &[Value::Int(9), sector_of(0xEE)])
            .is_err()
            || stack.top.invoke("blockdev", "flush", &[]).is_err()
    );
    drop(stack);
    {
        let mut m = mem.machine().lock();
        m.disarm_crash();
        m.reboot();
    }
    let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
        .journal(SMALL_LOG)
        .sharded_cache(8, 2)
        .build()
        .unwrap();
    assert_eq!(
        jstats(stack.journal.as_ref().unwrap())[4],
        0,
        "nothing to replay"
    );
    for sec in 0..4i64 {
        let v = stack
            .top
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xD0 + sec as u8);
    }
}

#[test]
fn flush_of_more_dirty_lines_than_one_log_transaction_succeeds() {
    // Regression: the cache used to write back every dirty line as one
    // `write_many`, which the journal takes as a single log transaction.
    // With the documented stack (default 126-slot log, 256-line cache)
    // any flush of more than ~122 dirty lines failed — and because a
    // failed flush leaves lines dirty, every retry failed too:
    // durability was permanently wedged. The cache now probes the
    // journal's `write_limit` and chunks.
    let machine = Arc::new(Mutex::new(Machine::new()));
    let mem = Arc::new(MemService::new(machine));
    let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
        .journal(JournalConfig::default())
        .sharded_cache(256, 4)
        .build()
        .unwrap();
    let limit = stack
        .journal
        .as_ref()
        .unwrap()
        .invoke("blockdev", "write_limit", &[])
        .unwrap()
        .as_int()
        .unwrap();
    assert!(
        limit < 200,
        "premise: the dirty set must exceed one transaction"
    );
    for sec in 0..200i64 {
        stack
            .top
            .invoke(
                "blockdev",
                "write",
                &[Value::Int(sec), sector_of(sec as u8)],
            )
            .unwrap();
    }
    // Flush drains all 200 lines through several journal transactions
    // and the checkpoint homes them.
    stack.top.invoke("blockdev", "flush", &[]).unwrap();
    for sec in 0..200i64 {
        let v = stack
            .driver
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], sec as u8, "sector {sec} homed");
    }
    // The barrier path chunks the same way, and everything it
    // acknowledged survives a reboot.
    for sec in 0..200i64 {
        stack
            .top
            .invoke(
                "blockdev",
                "write",
                &[Value::Int(sec), sector_of((sec as u8).wrapping_add(0x5A))],
            )
            .unwrap();
    }
    stack.top.invoke("blockdev", "barrier", &[]).unwrap();
    drop(stack);
    mem.machine().lock().reboot();
    let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
        .journal(JournalConfig::default())
        .sharded_cache(256, 4)
        .build()
        .unwrap();
    for sec in 0..200i64 {
        let v = stack
            .top
            .invoke("blockdev", "read", &[Value::Int(sec)])
            .unwrap();
        assert_eq!(
            v.as_bytes().unwrap()[0],
            (sec as u8).wrapping_add(0x5A),
            "sector {sec} durable after the barrier"
        );
    }
}

#[test]
fn group_commit_coalesces_concurrent_commits() {
    const THREADS: usize = 4;
    const WRITES_PER_THREAD: usize = 8;

    let machine = Arc::new(Mutex::new(Machine::new()));
    let mem = Arc::new(MemService::new(machine));
    let driver = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top;

    // A slow backing store: every append sleeps, so commits issued while
    // the leader's append is in flight pile up and ride the next group.
    let slow = {
        let inner = driver.clone();
        let i_read = inner.clone();
        let i_read_many = inner.clone();
        let i_write_many = inner.clone();
        let i_sectors = inner.clone();
        ObjectBuilder::new("slow-disk")
            .interface("blockdev", |i| {
                i.method("read", &[TypeTag::Int], TypeTag::Bytes, move |_, args| {
                    i_read.invoke("blockdev", "read", args)
                })
                .method(
                    "read_many",
                    &[TypeTag::List],
                    TypeTag::List,
                    move |_, args| i_read_many.invoke("blockdev", "read_many", args),
                )
                .method(
                    "write_many",
                    &[TypeTag::List],
                    TypeTag::Int,
                    move |_, args| {
                        std::thread::sleep(std::time::Duration::from_millis(3));
                        i_write_many.invoke("blockdev", "write_many", args)
                    },
                )
                .method("sectors", &[], TypeTag::Int, move |_, _| {
                    i_sectors.invoke("blockdev", "sectors", &[])
                })
            })
            .build()
    };
    let stack = StackBuilder::on(slow)
        .journal(JournalConfig::default())
        .build()
        .unwrap();
    let top = stack.top.clone();

    let start = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let top = top.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                for i in 0..WRITES_PER_THREAD {
                    let sec = (t * WRITES_PER_THREAD + i) as i64;
                    top.invoke(
                        "blockdev",
                        "write",
                        &[Value::Int(sec), sector_of(0x40 + sec as u8)],
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let s = jstats(stack.journal.as_ref().unwrap());
    let (commits, group_appends) = (s[0], s[1]);
    assert_eq!(commits, (THREADS * WRITES_PER_THREAD) as i64);
    assert!(
        group_appends < commits,
        "expected coalescing: {commits} commits in {group_appends} appends"
    );
    // Every acknowledged commit is readable back.
    for sec in 0..(THREADS * WRITES_PER_THREAD) as i64 {
        let v = top.invoke("blockdev", "read", &[Value::Int(sec)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x40 + sec as u8);
    }
}
