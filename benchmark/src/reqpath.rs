//! `req_few`, `req_many` and `bulk`: echo requests over the full path
//! (client tcp → arp → simlink ⇒ router → server tcp + bytecode filter →
//! journalled write → echo).
//!
//! Closed loop: a batch sends one request on each of its connections and
//! ends when every echo is back in full; a connection's next request
//! waits for the batch it is next part of. The server app echoes a request
//! only after its journalled write returned, so acknowledged = durable.

use std::time::Instant;

use bytes::Bytes;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::adapt::{Ep, ReqNet, Res, SECTOR};
use crate::measure::fnv;
use crate::trace::{self, Layer};
use crate::workload::{timed, Batch, CallTimes, Counts, Final, Workload};

#[derive(Clone, Copy)]
pub struct Params {
    /// Live connections, half behind each router interface.
    pub conns: usize,
    /// Connections with a request in flight per batch, in rotation.
    pub active: usize,
    /// Request size: 256 B (one sector, zero-padded) or 4 KiB (8 sectors,
    /// one `write_many` transaction).
    pub req_bytes: usize,
}

/// Clock advance that carries frames across a link (its delay is 1).
const TICK: u64 = 100;
/// Handshakes opened at once; under the default accept backlog of 64.
const CONNECT_BATCH: usize = 32;
/// Pump rounds a batch or handshake may take before it counts as stuck.
const MAX_ROUNDS: usize = 64;
/// Sectors each connection of `bulk` cycles through.
const BULK_REGION: i64 = 1024;

struct Conn {
    client: usize,
    cid: i64,
    sid: i64,
    /// Requests this connection has completed.
    laps: i64,
}

/// A request in flight.
struct Flight {
    conn: usize,
    sent: Bytes,
    heard: Vec<u8>,
    served: bool,
    echo: Vec<u8>,
    done_ns: Option<u32>,
}

pub struct ReqPath {
    net: ReqNet,
    p: Params,
    rng: StdRng,
    conns: Vec<Conn>,
    cursor: usize,
    /// What every store sector must hold: the oracle of the final
    /// read-back.
    shadow: Vec<Option<Bytes>>,
    calls: Option<CallTimes>,
    /// Sectors the server app asked the journal to write.
    user_sectors: i64,
}

impl ReqPath {
    /// Builds the topology, opens every connection and completes its
    /// handshake. `rng` has already been advanced by the caller's seed.
    pub fn build(p: Params, seed: u64, traced: bool) -> Res<ReqPath> {
        let mut rng = StdRng::seed_from_u64(seed);
        let link_seeds = [rng.gen::<u64>(), rng.gen::<u64>()];
        let net = ReqNet::build(link_seeds, traced)?;
        let sectors = net.store.sectors()? as usize;
        let need = match p.req_bytes {
            256 => p.conns,
            _ => p.conns * BULK_REGION as usize,
        };
        if need > sectors {
            return Err(format!("{need} sectors needed, the store has {sectors}"));
        }
        let mut w = ReqPath {
            net,
            p,
            rng,
            conns: Vec::with_capacity(p.conns),
            cursor: 0,
            shadow: vec![None; sectors],
            calls: traced.then(CallTimes::with_room),
            user_sectors: 0,
        };
        // Client 0's first handshake also resolves the server's MAC; it
        // goes alone so no SYN overflows the ARP layer's pending queue.
        let mut per_client = [Vec::new(), Vec::new()];
        per_client[0].extend(w.establish(0, 1)?);
        for (client, ids) in per_client.iter_mut().enumerate() {
            while ids.len() < p.conns / 2 {
                let k = CONNECT_BATCH.min(p.conns / 2 - ids.len());
                ids.extend(w.establish(client, k)?);
            }
        }
        // Interleave so every batch spans both router interfaces.
        for i in 0..p.conns {
            let (cid, sid) = per_client[i % 2][i / 2];
            w.conns.push(Conn {
                client: i % 2,
                cid,
                sid,
                laps: 0,
            });
        }
        Ok(w)
    }

    fn round_trip(&self) -> Res<()> {
        self.net.pump(Ep::Client(0))?;
        self.net.pump(Ep::Client(1))?;
        self.net.clock.tick(TICK);
        self.net.pump(Ep::Server)
    }

    /// Opens `k` connections from `client`; returns `(client id, server
    /// id)` pairs. Handshakes complete in the order they were opened
    /// (links are FIFO, endpoints service connections in id order), which
    /// the first echo on each connection then confirms.
    fn establish(&mut self, client: usize, k: usize) -> Res<Vec<(i64, i64)>> {
        let cids: Vec<i64> = (0..k)
            .map(|_| self.net.connect(client))
            .collect::<Res<_>>()?;
        let mut sids = Vec::with_capacity(k);
        for _ in 0..MAX_ROUNDS {
            self.round_trip()?;
            while let Some(sid) = self.net.accept()? {
                sids.push(sid);
            }
            self.net.clock.tick(TICK);
            if sids.len() == k {
                return Ok(cids.into_iter().zip(sids).collect());
            }
        }
        Err(format!("only {} of {k} handshakes completed", sids.len()))
    }

    /// The server app: journal the request, then echo it.
    fn serve(&mut self, f: &mut Flight) -> Res<()> {
        let c = &self.conns[f.conn];
        let request = Bytes::from(std::mem::take(&mut f.heard));
        let pairs: Vec<(i64, Bytes)> = if self.p.req_bytes < SECTOR {
            let mut sector = request.to_vec();
            sector.resize(SECTOR, 0);
            vec![(f.conn as i64, Bytes::from(sector))]
        } else {
            let base = f.conn as i64 * BULK_REGION;
            let n = (self.p.req_bytes / SECTOR) as i64;
            (0..n)
                .map(|k| {
                    let at = k as usize * SECTOR;
                    (
                        base + (c.laps * n + k) % BULK_REGION,
                        request.slice(at..at + SECTOR),
                    )
                })
                .collect()
        };
        for (sector, data) in &pairs {
            self.shadow[*sector as usize] = Some(data.clone());
        }
        self.user_sectors += pairs.len() as i64;
        let top = &self.net.store.top;
        let into = self.calls.as_mut().map(|c| &mut c.write_ns);
        timed(into, || match pairs.len() {
            1 => {
                let (sector, data) = pairs.into_iter().next().expect("one pair");
                top.write(sector, data)
            }
            _ => top.write_many(pairs),
        })?;
        let sent = self.net.send(Ep::Server, c.sid, request.clone())?;
        if sent != request.len() {
            return Err(format!(
                "server send took {sent} of {} bytes",
                request.len()
            ));
        }
        f.served = true;
        Ok(())
    }

    fn batch(&mut self, lat_ns: &mut Vec<u32>) -> Res<Batch> {
        let p = self.p;
        let mut flights: Vec<Flight> = (0..p.active)
            .map(|k| {
                let mut payload = vec![0u8; p.req_bytes];
                self.rng.fill(payload.as_mut_slice());
                Flight {
                    conn: (self.cursor + k) % p.conns,
                    sent: Bytes::from(payload),
                    heard: Vec::with_capacity(p.req_bytes),
                    served: false,
                    echo: Vec::with_capacity(p.req_bytes),
                    done_ns: None,
                }
            })
            .collect();
        self.cursor = (self.cursor + p.active) % p.conns;

        let t0 = Instant::now();
        for f in &flights {
            let c = &self.conns[f.conn];
            let n = self.net.send(Ep::Client(c.client), c.cid, f.sent.clone())?;
            if n != f.sent.len() {
                return Err(format!("client send took {n} of {} bytes", f.sent.len()));
            }
        }
        let mut open = flights.len();
        for _ in 0..MAX_ROUNDS {
            self.round_trip()?;
            for f in flights.iter_mut().filter(|f| !f.served) {
                let got = self.net.recv(Ep::Server, self.conns[f.conn].sid)?;
                f.heard.extend_from_slice(&got);
                if f.heard.len() >= p.req_bytes {
                    self.serve(f)?;
                }
            }
            self.net.pump(Ep::Server)?;
            self.net.clock.tick(TICK);
            self.net.pump(Ep::Client(0))?;
            self.net.pump(Ep::Client(1))?;
            for f in flights.iter_mut().filter(|f| f.done_ns.is_none()) {
                let c = &self.conns[f.conn];
                let got = self.net.recv(Ep::Client(c.client), c.cid)?;
                f.echo.extend_from_slice(&got);
                if f.echo.len() >= f.sent.len() {
                    f.done_ns = Some(t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
                    open -= 1;
                }
            }
            if open == 0 {
                break;
            }
        }
        if open > 0 {
            return Err(format!(
                "{open} echoes still missing after {MAX_ROUNDS} rounds"
            ));
        }
        let mut failed = 0;
        for f in &flights {
            self.conns[f.conn].laps += 1;
            lat_ns.push(f.done_ns.expect("all done"));
            failed += u64::from(f.echo != f.sent.as_ref());
        }
        Ok(Batch {
            ops: flights.len() as u64,
            failed,
        })
    }
}

impl Workload for ReqPath {
    fn run_batch(&mut self, lat_ns: &mut Vec<u32>) -> Res<Batch> {
        trace::manual(Layer::Harness, "batch", || self.batch(lat_ns))
    }

    fn counts(&self) -> Res<Counts> {
        let n = self.net.counters()?;
        let s = self.net.store.counters()?;
        let m = self.net.clock.counters();
        Ok(vec![
            ("tcp.segs_tx", n.segs_tx),
            ("tcp.segs_rx", n.segs_rx),
            ("tcp.bytes_tx", n.bytes_tx),
            ("tcp.retransmits", n.retransmits),
            ("tcp.malformed", n.malformed),
            ("filter.checked", n.filter_checked),
            ("filter.rejected", n.filtered),
            ("arp.hits", n.arp_hits),
            ("arp.misses", n.arp_misses),
            ("route.no_route", n.no_route),
            ("route.failover", n.failover),
            ("simlink.sent", n.link_sent),
            ("simlink.dropped", n.link_dropped),
            ("sfi.last_steps", n.filter_last_steps),
            ("driver.reads", s.disk_reads),
            ("driver.writes", s.disk_writes),
            ("retry.ops", s.retry_ops),
            ("retry.retries", s.retries),
            ("journal.commits", s.commits),
            ("journal.group_appends", s.group_appends),
            ("journal.appended_records", s.appended_records),
            ("journal.checkpoints", s.checkpoints),
            ("journal.user_sectors", self.user_sectors),
            ("machine.cycles", m.cycles),
            ("machine.charge_events", m.charge_events),
            ("machine.context_switches", m.context_switches),
            ("machine.tlb_misses", m.tlb_misses),
        ])
    }

    fn digest(&self) -> Res<u64> {
        let mut h = fnv(0, &self.net.counters()?.seg_digest.to_le_bytes());
        for (sector, data) in self.shadow.iter().enumerate() {
            if let Some(d) = data {
                h = fnv(fnv(h, &(sector as u64).to_le_bytes()), d);
            }
        }
        Ok(fnv(h, &self.net.clock.now().to_le_bytes()))
    }

    fn call_times(&mut self) -> Option<&mut CallTimes> {
        self.calls.as_mut()
    }

    fn cycle_reader(&self) -> Box<dyn Fn() -> u64> {
        self.net.clock.reader()
    }

    /// Flush, remount from the disk alone, and read back every sector the
    /// server ever acknowledged.
    fn finish(self: Box<Self>) -> Res<Final> {
        let t = Instant::now();
        self.net.store.top.flush()?;
        let flush_us = t.elapsed().as_secs_f64() * 1e6;
        let ReqPath { net, shadow, .. } = *self;
        let disk = net.store.remount()?;
        crate::storewl::read_back(&disk, &shadow, flush_us)
    }
}
