//! `store_hot` and `store_churn`: the store stack alone
//! (`driver → retry → journal → sharded cache`), driven by client
//! transactions of 16 calls each, every read checked against a shadow map.

use std::time::Instant;

use bytes::Bytes;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::adapt::{Blockdev, Clock, Res, Store, SECTOR};
use crate::measure::fnv;
use crate::trace::{self, Layer};
use crate::workload::{timed, Batch, CallTimes, Counts, Final, Workload};

#[derive(Clone, Copy)]
pub struct Params {
    /// Distinct sectors touched; the cache holds `adapt::CACHE_SECTORS`.
    pub working_set: usize,
    /// Calls that write, per thousand.
    pub write_permille: u32,
    /// Of the writes, per thousand that are 8-sector transactions.
    pub txn_permille: u32,
    /// A `flush` after this many calls (0: only at the end).
    pub flush_every: u64,
    /// Zipf exponent of the key popularity (0: uniform).
    pub zipf_s: f64,
}

/// Calls per client transaction (= per op).
pub const CALLS_PER_OP: usize = 16;
/// Ops per batch; only sets how often the slice loop looks at the clock.
const BATCH_OPS: usize = 64;
/// Sectors of a multi-sector transaction.
const TXN_SECTORS: usize = 8;

pub struct StoreWl {
    store: Store,
    clock: Clock,
    p: Params,
    rng: StdRng,
    /// Popularity rank → sector, shuffled so hot keys spread over shards.
    keys: Vec<i64>,
    /// Cumulative popularity by rank; empty when uniform.
    cdf: Vec<f64>,
    shadow: Vec<Option<Bytes>>,
    calls_done: u64,
    calls: Option<CallTimes>,
}

impl StoreWl {
    pub fn build(p: Params, seed: u64, traced: bool) -> Res<StoreWl> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (store, clock) = Store::standalone(true, traced)?;
        let sectors = store.sectors()? as usize;
        if p.working_set > sectors || !p.working_set.is_multiple_of(TXN_SECTORS) {
            return Err(format!("bad working set {} of {sectors}", p.working_set));
        }
        let mut keys: Vec<i64> = (0..p.working_set as i64).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..i + 1));
        }
        let cdf = if p.zipf_s > 0.0 {
            let w: Vec<f64> = (1..=keys.len())
                .map(|r| (r as f64).powf(-p.zipf_s))
                .collect();
            let total: f64 = w.iter().sum();
            w.iter()
                .scan(0.0, |acc, x| {
                    *acc += x / total;
                    Some(*acc)
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut w = StoreWl {
            store,
            clock,
            p,
            rng,
            keys,
            cdf,
            shadow: vec![None; sectors],
            calls_done: 0,
            calls: traced.then(CallTimes::with_room),
        };
        // Prefill, so every read has a known answer, and home it.
        for base in (0..p.working_set as i64).step_by(TXN_SECTORS) {
            w.write_txn(base)?;
        }
        w.store.top.flush()?;
        Ok(w)
    }

    fn sector_data(&mut self) -> Bytes {
        let mut data = vec![0u8; SECTOR];
        self.rng.fill(data.as_mut_slice());
        Bytes::from(data)
    }

    fn pick(&mut self) -> i64 {
        let rank = if self.cdf.is_empty() {
            self.rng.gen_range(0..self.keys.len())
        } else {
            let u: f64 = self.rng.gen();
            self.cdf
                .partition_point(|&c| c < u)
                .min(self.keys.len() - 1)
        };
        self.keys[rank]
    }

    fn write_txn(&mut self, base: i64) -> Res<()> {
        let pairs: Vec<(i64, Bytes)> = (0..TXN_SECTORS as i64)
            .map(|k| (base + k, self.sector_data()))
            .collect();
        for (sector, data) in &pairs {
            self.shadow[*sector as usize] = Some(data.clone());
        }
        let top = &self.store.top;
        timed(self.calls.as_mut().map(|c| &mut c.write_ns), || {
            top.write_many(pairs)
        })
    }

    /// One call of the mix. Returns whether a read disagreed with the
    /// shadow map.
    fn call(&mut self) -> Res<bool> {
        self.calls_done += 1;
        if self.p.flush_every > 0 && self.calls_done.is_multiple_of(self.p.flush_every) {
            self.store.top.flush()?;
        }
        let key = self.pick();
        if self.rng.gen_range(0..1000u32) >= self.p.write_permille {
            let top = &self.store.top;
            let got = timed(self.calls.as_mut().map(|c| &mut c.read_ns), || {
                top.read(key)
            })?;
            return Ok(self.shadow[key as usize].as_ref() != Some(&got));
        }
        if self.rng.gen_range(0..1000u32) < self.p.txn_permille {
            self.write_txn(key - key % TXN_SECTORS as i64)?;
        } else {
            let data = self.sector_data();
            self.shadow[key as usize] = Some(data.clone());
            let top = &self.store.top;
            timed(self.calls.as_mut().map(|c| &mut c.write_ns), || {
                top.write(key, data)
            })?;
        }
        Ok(false)
    }
}

impl Workload for StoreWl {
    fn run_batch(&mut self, lat_ns: &mut Vec<u32>) -> Res<Batch> {
        trace::manual(Layer::Harness, "batch", || {
            let mut failed = 0;
            for _ in 0..BATCH_OPS {
                let t = Instant::now();
                let mut bad = false;
                for _ in 0..CALLS_PER_OP {
                    bad |= self.call()?;
                }
                lat_ns.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                failed += u64::from(bad);
            }
            Ok(Batch {
                ops: BATCH_OPS as u64,
                failed,
            })
        })
    }

    fn counts(&self) -> Res<Counts> {
        let s = self.store.counters()?;
        let m = self.clock.counters();
        Ok(vec![
            ("cache.hits", s.cache_hits),
            ("cache.misses", s.cache_misses),
            ("cache.writebacks", s.cache_writebacks),
            ("cache.resident", s.cache_resident),
            ("driver.reads", s.disk_reads),
            ("driver.writes", s.disk_writes),
            ("retry.ops", s.retry_ops),
            ("retry.retries", s.retries),
            ("journal.commits", s.commits),
            ("journal.group_appends", s.group_appends),
            ("journal.appended_records", s.appended_records),
            ("journal.checkpoints", s.checkpoints),
            ("journal.user_sectors", s.cache_writebacks),
            ("machine.cycles", m.cycles),
            ("machine.charge_events", m.charge_events),
        ])
    }

    fn digest(&self) -> Res<u64> {
        let mut h = 0;
        for (sector, data) in self.shadow.iter().enumerate() {
            if let Some(d) = data {
                h = fnv(fnv(h, &(sector as u64).to_le_bytes()), d);
            }
        }
        Ok(fnv(h, &self.clock.now().to_le_bytes()))
    }

    fn call_times(&mut self) -> Option<&mut CallTimes> {
        self.calls.as_mut()
    }

    fn cycle_reader(&self) -> Box<dyn Fn() -> u64> {
        self.clock.reader()
    }

    fn finish(self: Box<Self>) -> Res<Final> {
        let t = Instant::now();
        self.store.top.flush()?;
        let flush_us = t.elapsed().as_secs_f64() * 1e6;
        let StoreWl { store, shadow, .. } = *self;
        read_back(&store.remount()?, &shadow, flush_us)
    }
}

/// Reads every sector the shadow map knows from `disk` and compares.
pub fn read_back(disk: &Blockdev, shadow: &[Option<Bytes>], flush_us: f64) -> Res<Final> {
    let known: Vec<i64> = (0..shadow.len() as i64)
        .filter(|&s| shadow[s as usize].is_some())
        .collect();
    let mut failed = 0;
    for chunk in known.chunks(64) {
        for (sector, got) in chunk.iter().zip(disk.read_many(chunk)?) {
            failed += u64::from(shadow[*sector as usize].as_ref() != Some(&got));
        }
    }
    Ok(Final {
        checked: known.len() as u64,
        failed,
        flush_us,
    })
}
