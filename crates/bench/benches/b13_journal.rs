//! E13 — what the request-path ledger cannot see of the write-ahead
//! journal: group-commit coalescing under concurrent committers (the ledger
//! is single-threaded) and recovery-scan throughput (it never remounts).
//! Append latency is the ledger's (`store_churn`: `store.write_p50_ns`,
//! `store.journal.self_ns_per_op`).
//!
//! Rows:
//! - `group_commit_4x16`: four OS threads each committing 16 writes to
//!   one shared journal. The leader/rider protocol folds concurrent
//!   commits into shared group appends; the observed batching factor
//!   (commits per group append) is printed after the run and pinned
//!   `> 1` under a slow backing store by `tests/store_crash.rs`.
//! - `recovery_scan_20txn`: the read-only log scan over 20 committed
//!   transactions — exactly the validation + payload-gathering work a
//!   mount-time replay performs, without the home writes.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use paramecium::machine::dev::disk::SECTOR_SIZE;
use paramecium::prelude::*;
use paramecium::store::journal::JournalStats;
use paramecium::store::{JournalConfig, StackBuilder, StoreStack};
use parking_lot::Mutex;
use std::sync::Arc;

fn sector_of(byte: u8) -> Value {
    Value::Bytes(bytes::Bytes::from(vec![byte; SECTOR_SIZE]))
}

fn fresh_journalled(cfg: JournalConfig) -> StoreStack {
    let machine = Arc::new(Mutex::new(paramecium::machine::Machine::new()));
    let mem = Arc::new(paramecium::core::memsvc::MemService::new(machine));
    StackBuilder::disk(&mem, KERNEL_DOMAIN)
        .journal(cfg)
        .build()
        .unwrap()
}

fn jstats(j: &ObjRef) -> JournalStats {
    JournalStats::from_value(&j.invoke("journal", "stats", &[]).unwrap()).unwrap()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_journal");

    // Concurrent committers: 4 threads × 16 writes through one journal.
    // Riders queue while the leader's append is in flight, so the group
    // count stays below the commit count whenever commits overlap.
    let stack = fresh_journalled(JournalConfig::default());
    let top = stack.top.clone();
    g.throughput(Throughput::Elements(64));
    g.bench_function("group_commit_4x16", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for t in 0..4i64 {
                    let top = &top;
                    scope.spawn(move || {
                        for i in 0..16i64 {
                            top.invoke(
                                "blockdev",
                                "write",
                                &[Value::Int(t * 16 + i), sector_of(i as u8)],
                            )
                            .unwrap();
                        }
                    });
                }
            })
        })
    });
    let s = jstats(stack.journal.as_ref().unwrap());
    if s.commits > 0 {
        eprintln!(
            "group_commit_4x16: {} commits in {} group appends (batching factor {:.2})",
            s.commits,
            s.group_appends,
            s.commits as f64 / s.group_appends.max(1) as f64
        );
    }

    // The same contention shape over a slow backing store (3 ms per
    // append, the realistic regime where device latency dwarfs CPU
    // time). Here wall time per iteration directly counts group
    // appends: 64 un-coalesced commits would cost ≥192 ms, so the
    // measured time IS the batching factor made visible — riders queue
    // while the leader's append is in flight and ride its successor.
    let machine = Arc::new(Mutex::new(paramecium::machine::Machine::new()));
    let mem = Arc::new(paramecium::core::memsvc::MemService::new(machine));
    let driver = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top;
    let slow = InterposerBuilder::new(driver)
        .override_method("blockdev", "write_many", |forward, args| {
            std::thread::sleep(std::time::Duration::from_millis(3));
            forward.call(args)
        })
        .build();
    let stack = StackBuilder::on(slow)
        .journal(JournalConfig::default())
        .build()
        .unwrap();
    let top = stack.top.clone();
    g.throughput(Throughput::Elements(64));
    g.bench_function("group_commit_4x16_slow3ms", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for t in 0..4i64 {
                    let top = &top;
                    scope.spawn(move || {
                        for i in 0..16i64 {
                            top.invoke(
                                "blockdev",
                                "write",
                                &[Value::Int(t * 16 + i), sector_of(i as u8)],
                            )
                            .unwrap();
                        }
                    });
                }
            })
        })
    });
    let s = jstats(stack.journal.as_ref().unwrap());
    if s.commits > 0 {
        eprintln!(
            "group_commit_4x16_slow3ms: {} commits in {} group appends (batching factor {:.2})",
            s.commits,
            s.group_appends,
            s.commits as f64 / s.group_appends.max(1) as f64
        );
    }

    // Recovery replay throughput: the read-only committed-prefix scan
    // (record validation + payload gathering) over a 20-transaction log.
    let stack = fresh_journalled(JournalConfig::default());
    let top = stack.top.clone();
    for sec in 0..20i64 {
        top.invoke(
            "blockdev",
            "write",
            &[Value::Int(sec), sector_of(sec as u8)],
        )
        .unwrap();
    }
    let j = stack.journal.as_ref().unwrap().clone();
    assert_eq!(
        j.invoke("journal", "scan", &[]).unwrap(),
        Value::Int(20),
        "log must hold exactly the 20 un-checkpointed transactions"
    );
    g.throughput(Throughput::Elements(20));
    g.bench_function("recovery_scan_20txn", |b| {
        b.iter(|| j.invoke("journal", "scan", &[]).unwrap())
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
