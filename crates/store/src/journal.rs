//! The write-ahead journal — crash-safe durability by interposition.
//!
//! The paper's extensibility story is that trusted components interpose
//! on each other through ordinary named interfaces. The journal is that
//! idiom applied to durability: an object exporting the same `blockdev`
//! interface as the disk driver, slotted *between* the shared cache and
//! the driver by [`crate::StackBuilder`]. Clients (and the cache) cannot
//! tell it is there — except that after a power failure, every write
//! they were told succeeded is still on the disk.
//!
//! # On-disk layout
//!
//! The journal reserves the tail of the device: two alternating
//! superblock sectors followed by a sequential log. Clients see a device
//! shrunk by the reserved region (`sectors()` reports only the data
//! area) and cannot address into it.
//!
//! ```text
//! | data sectors ... | SB0 | SB1 | log[0] | log[1] | ... | log[L-1] |
//! ```
//!
//! Every log record is tagged with the current *epoch* and checksummed:
//! its last 8 bytes are the [`sum64`] of the 504 before them (record
//! format v2; v1 used byte-serial FNV-1a 64, and its magics no longer
//! validate). A transaction is journalled as one or more *descriptor*
//! sectors (home sector ids), each followed by its raw payload sectors,
//! and ends with a *commit marker* carrying a checksum over all of the
//! transaction's payload bytes — the same sum, streamed through the
//! payload sectors in log order. The marker is the last sector of the
//! transaction in log order, so a torn or missing sector anywhere in the
//! record leaves the transaction uncommitted — the recovery scan stops
//! at the first sector that fails validation (wrong magic, wrong epoch,
//! bad checksum) and everything before it is the committed prefix.
//!
//! Truncation never rewrites the log: a checkpoint first writes every
//! committed payload to its home location, then bumps the epoch in the
//! inactive superblock copy. Old records instantly stop validating. The
//! home-writes-then-epoch-bump order is load-bearing — a crash between
//! the two replays the (idempotent) home writes at the next mount
//! instead of losing them.
//!
//! # Group commit
//!
//! Commits are coalesced leader/rider style: a committing thread queues
//! its transaction and, if no append is in flight, becomes the leader —
//! it drains *every* queued transaction into a single vectorized
//! `write_many` append (paying the driver's amortised batch cost), then
//! wakes the riders. Threads that arrive while the leader is writing
//! simply queue; the next leader takes them all in one more append. N
//! concurrent small commits thus reach the platter in far fewer than N
//! device invocations — the `journal` interface's `stats` reports both
//! counters so tests and benches can measure the batching factor. A
//! group whose *combined* records outgrow the log (each member fits
//! alone — that is the commit-time admission check) is split at
//! transaction boundaries into sequential appends, checkpointing
//! between them when the log fills.
//!
//! Committed-but-unhomed payloads are served from an in-memory overlay
//! until a checkpoint homes them, so reads through the journal always
//! observe committed data.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};

use paramecium_machine::dev::disk::SECTOR_SIZE;
use paramecium_obj::{sum64, ObjError, ObjRef, ObjResult, ObjectBuilder, TypeTag, Value};

use crate::vectored::{pairs_arg, parse_pairs, parse_sectors, sectors_arg, txn_verbs, SectorMap};

/// Magic tag of a superblock sector.
const SB_MAGIC: u64 = 0x504A_5342_4C4B_0002; // "PJSBLK" v2
/// Magic tag of a transaction descriptor sector.
const DESC_MAGIC: u64 = 0x504A_4445_5343_0002; // "PJDESC" v2
/// Magic tag of a commit marker sector.
const COMMIT_MAGIC: u64 = 0x504A_434D_5431_0002; // "PJCMT" v2

/// Home sector ids one descriptor sector can carry:
/// (payload area 504 − 32 bytes of header) / 8 bytes per id.
const DESC_CAPACITY: usize = (SECTOR_SIZE - 8 - 32) / 8;

/// Configuration for the journal layer.
#[derive(Clone, Copy, Debug)]
pub struct JournalConfig {
    /// Log length in sectors (the reserved region is `log_sectors + 2`,
    /// for the two superblock copies). Bounds the largest transaction
    /// and how much work can accumulate between checkpoints.
    pub log_sectors: i64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        // 126 log sectors + 2 superblocks = a 128-sector (64 KiB) region.
        JournalConfig { log_sectors: 126 }
    }
}

/// Resolved on-disk geometry.
#[derive(Clone, Copy)]
struct Geometry {
    /// Client-visible device size; also the absolute sector of SB0.
    data_sectors: i64,
    /// Absolute sector of `log[0]` (= `data_sectors + 2`).
    log_start: i64,
    log_len: i64,
}

impl Geometry {
    fn sb(&self, copy: u64) -> i64 {
        self.data_sectors + (copy % 2) as i64
    }
}

/// The checksum a commit marker carries: the transaction's payload
/// sectors, in log order, streamed through one running sum.
fn payload_sum(writes: &[(i64, Bytes)]) -> u64 {
    writes.iter().fold(0, |h, (_, data)| sum64::fold(h, data))
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8-byte slice"))
}

/// Seals a record sector: checksum over the first 504 bytes goes into
/// the last 8. The sum of 504 zero bytes is not zero, so an all-zero
/// sector never validates.
fn seal(mut buf: [u8; SECTOR_SIZE]) -> [u8; SECTOR_SIZE] {
    let sum = sum64::fold(0, &buf[..SECTOR_SIZE - 8]);
    put_u64(&mut buf, SECTOR_SIZE - 8, sum);
    buf
}

/// Validates a sealed record sector's trailing checksum.
fn sealed_ok(buf: &[u8]) -> bool {
    buf.len() == SECTOR_SIZE
        && get_u64(buf, SECTOR_SIZE - 8) == sum64::fold(0, &buf[..SECTOR_SIZE - 8])
}

fn sb_sector(epoch: u64) -> [u8; SECTOR_SIZE] {
    let mut buf = [0u8; SECTOR_SIZE];
    put_u64(&mut buf, 0, SB_MAGIC);
    put_u64(&mut buf, 8, epoch);
    seal(buf)
}

/// Parses a superblock copy, returning its epoch if valid.
fn parse_sb(buf: &[u8]) -> Option<u64> {
    (sealed_ok(buf) && get_u64(buf, 0) == SB_MAGIC).then(|| get_u64(buf, 8))
}

fn desc_sector(epoch: u64, txn: u64, chunk: &[(i64, Bytes)]) -> [u8; SECTOR_SIZE] {
    debug_assert!(chunk.len() <= DESC_CAPACITY);
    let mut buf = [0u8; SECTOR_SIZE];
    put_u64(&mut buf, 0, DESC_MAGIC);
    put_u64(&mut buf, 8, epoch);
    put_u64(&mut buf, 16, txn);
    put_u64(&mut buf, 24, chunk.len() as u64);
    for (k, (sec, _)) in chunk.iter().enumerate() {
        put_u64(&mut buf, 32 + 8 * k, *sec as u64);
    }
    seal(buf)
}

fn commit_sector(epoch: u64, txn: u64, payload_sum: u64) -> [u8; SECTOR_SIZE] {
    let mut buf = [0u8; SECTOR_SIZE];
    put_u64(&mut buf, 0, COMMIT_MAGIC);
    put_u64(&mut buf, 8, epoch);
    put_u64(&mut buf, 16, txn);
    put_u64(&mut buf, 24, payload_sum);
    seal(buf)
}

/// Committed transactions in commit order, as recovered by a log scan.
type CommittedTxns = Vec<(u64, Vec<(i64, Bytes)>)>;

/// One transaction queued for the next group append. `seq` orders the
/// queue and is the transaction id its log records carry.
struct PendingTxn {
    seq: u64,
    writes: Vec<(i64, Bytes)>,
}

/// Mutable journal state behind the single mutex. The `flushing` flag is
/// the append/checkpoint ownership token: whoever sets it may touch the
/// log and superblocks (with the lock *released* around backing-store
/// invocations) until they clear it and notify the condvar.
struct Inner {
    epoch: u64,
    /// Next free log slot, relative to `log_start`.
    head: i64,
    /// Committed, not-yet-homed payloads (read overlay).
    overlay: SectorMap<Bytes>,
    /// Group-commit queue and leader token.
    pending: Vec<PendingTxn>,
    flushing: bool,
    /// Threads blocked on the condvar. Whoever changes what they wait
    /// for wakes them only when there is one: an uncontended commit
    /// makes no futex call.
    waiters: usize,
    next_seq: u64,
    durable_seq: u64,
    /// Commit outcomes for riders whose group append failed.
    failed: HashMap<u64, String>,
    // Stats.
    commits: u64,
    group_appends: u64,
    appended_records: u64,
    checkpoints: u64,
    replayed: u64,
}

struct JournalShared {
    backing: ObjRef,
    geo: Geometry,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl JournalShared {
    fn read_backing(&self, sector: i64) -> ObjResult<Bytes> {
        let v = self
            .backing
            .invoke("blockdev", "read", &[Value::Int(sector)])?;
        Ok(v.as_bytes()?.clone())
    }

    fn write_backing(&self, batch: impl IntoIterator<Item = (i64, Bytes)>) -> ObjResult<()> {
        self.backing
            .invoke("blockdev", "write_many", &[pairs_arg(batch)])?;
        Ok(())
    }

    /// Blocks on the condvar, counted in `waiters` for [`Self::wake`].
    fn wait(&self, inner: &mut MutexGuard<'_, Inner>) {
        inner.waiters += 1;
        self.cv.wait(inner);
        inner.waiters -= 1;
    }

    /// Releases the lock and wakes whoever is waiting — decided under
    /// the lock, so a thread about to wait has either been counted or
    /// will see the new state before it blocks.
    fn wake(&self, inner: MutexGuard<'_, Inner>) {
        let waiting = inner.waiters > 0;
        drop(inner);
        if waiting {
            self.cv.notify_all();
        }
    }

    /// Log slots a transaction of `n` writes occupies: one descriptor
    /// per [`DESC_CAPACITY`] chunk, the payloads, and the commit marker.
    fn slots_needed(n: usize) -> i64 {
        (n.div_ceil(DESC_CAPACITY) + n + 1) as i64
    }

    /// Most payload sectors one transaction can carry — the mirror of
    /// [`Self::slots_needed`]: the largest `n` whose record sectors fit
    /// an empty log. Exported as the `write_limit` blockdev method so
    /// upper layers (the cache) can bound their writeback batches.
    fn txn_capacity(&self) -> i64 {
        let mut n = (self.geo.log_len - 2).max(0);
        while n > 0 && Self::slots_needed(n as usize) > self.geo.log_len {
            n -= 1;
        }
        n
    }

    /// Serialises `txns` into their `slots` log sectors starting at
    /// `head`, returning the absolute `(sector, data)` batch. Each
    /// transaction ends with its own commit marker, so a crash part-way
    /// through the batch leaves every fully-appended transaction
    /// committed and the one at the crash point invisible.
    fn encode_group(
        &self,
        epoch: u64,
        head: i64,
        slots: i64,
        txns: &[PendingTxn],
    ) -> Vec<(i64, Bytes)> {
        let mut batch = Vec::with_capacity(slots as usize);
        let start = self.geo.log_start + head;
        let mut put = |data| batch.push((start + batch.len() as i64, data));
        for t in txns {
            for chunk in t.writes.chunks(DESC_CAPACITY) {
                put(Bytes::copy_from_slice(&desc_sector(epoch, t.seq, chunk)));
                chunk.iter().for_each(|(_, data)| put(data.clone()));
            }
            let sum = payload_sum(&t.writes);
            put(Bytes::copy_from_slice(&commit_sector(epoch, t.seq, sum)));
        }
        debug_assert_eq!(batch.len() as i64, slots);
        batch
    }

    /// Scans the log and returns the committed transactions in commit
    /// order, plus the log head (first free slot). Read-only — safe to
    /// run at mount and for the idempotence tests. The scan stops at the
    /// first sector that fails validation: wrong magic or epoch, a torn
    /// record (trailing checksum), or a commit whose payload checksum
    /// does not match.
    fn scan_committed(&self, epoch: u64) -> ObjResult<(CommittedTxns, i64)> {
        let mut committed: CommittedTxns = Vec::new();
        // Fragments of transactions whose commit marker hasn't appeared
        // yet (multi-descriptor transactions).
        let mut open: HashMap<u64, Vec<(i64, Bytes)>> = HashMap::new();
        let mut pos: i64 = 0;
        while pos < self.geo.log_len {
            let head = self.read_backing(self.geo.log_start + pos)?;
            if !sealed_ok(&head) || get_u64(&head, 8) != epoch {
                break;
            }
            match get_u64(&head, 0) {
                DESC_MAGIC => {
                    let txn = get_u64(&head, 16);
                    let n = get_u64(&head, 24) as usize;
                    if n > DESC_CAPACITY || pos + 1 + n as i64 > self.geo.log_len {
                        break;
                    }
                    let payloads = self.backing.invoke(
                        "blockdev",
                        "read_many",
                        &[sectors_arg(
                            (0..n as i64).map(|k| self.geo.log_start + pos + 1 + k),
                        )],
                    )?;
                    let payloads = payloads.as_list()?;
                    let entry = open.entry(txn).or_default();
                    for (k, v) in payloads.iter().enumerate() {
                        let sec = get_u64(&head, 32 + 8 * k) as i64;
                        entry.push((sec, v.as_bytes()?.clone()));
                    }
                    pos += 1 + n as i64;
                }
                COMMIT_MAGIC => {
                    let txn = get_u64(&head, 16);
                    let writes = open.remove(&txn).unwrap_or_default();
                    if payload_sum(&writes) != get_u64(&head, 24) {
                        break;
                    }
                    committed.push((txn, writes));
                    pos += 1;
                }
                _ => break,
            }
        }
        Ok((committed, pos))
    }

    /// Homes `batch` — one payload per sector, as an overlay holds them
    /// — in elevator order and then truncates the log by bumping the
    /// epoch in the inactive superblock copy. The order is the
    /// checkpoint's whole correctness argument: until the new superblock
    /// is durable, the old epoch's records still validate and a remount
    /// replays them.
    fn home_and_truncate(&self, epoch: u64, mut batch: Vec<(i64, Bytes)>) -> ObjResult<i64> {
        batch.sort_unstable_by_key(|(sec, _)| *sec);
        let homed = batch.len() as i64;
        if !batch.is_empty() {
            self.write_backing(batch)?;
        }
        // Home writes are durable; only now may the records stop
        // validating.
        let next = epoch + 1;
        self.write_backing([(self.geo.sb(next), Bytes::copy_from_slice(&sb_sector(next)))])?;
        Ok(homed)
    }

    /// Becomes the append/checkpoint owner, waiting out any current one.
    fn acquire_flush_token(&self) {
        let mut inner = self.inner.lock();
        while inner.flushing {
            self.wait(&mut inner);
        }
        inner.flushing = true;
    }

    fn release_flush_token(&self) {
        let mut inner = self.inner.lock();
        inner.flushing = false;
        self.wake(inner);
    }

    /// Full checkpoint: homes the overlay, truncates the log. The caller
    /// holds the flush token (no appends in flight), so the overlay
    /// snapshot is the complete committed state.
    fn checkpoint_locked_out(&self) -> ObjResult<i64> {
        let (epoch, batch) = {
            let inner = self.inner.lock();
            let snapshot = inner.overlay.iter().map(|(sec, d)| (*sec, d.clone()));
            (inner.epoch, snapshot.collect::<Vec<_>>())
        };
        if batch.is_empty() {
            // Nothing committed since the last checkpoint, so there is
            // nothing to home and no epoch to retire. The overlay is
            // only ever empty right after a reset (mount, checkpoint),
            // when the head is already 0 — assert that invariant, and
            // re-pin it in release builds so [`Self::append_group`]'s
            // checkpoint-then-retry loop always regains log space.
            let mut inner = self.inner.lock();
            debug_assert_eq!(inner.head, 0, "empty overlay implies an empty log");
            inner.head = 0;
            return Ok(0);
        }
        let homed = self.home_and_truncate(epoch, batch)?;
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        inner.head = 0;
        inner.overlay.clear();
        inner.checkpoints += 1;
        Ok(homed)
    }

    /// The journal's one write path — `write`, `write_many` and `commit`
    /// all hand it their batch. Commits `writes` as one atomic
    /// transaction, group-coalescing with every other transaction queued
    /// while an append was in flight. Returns once the commit marker is
    /// durable (or delivery of the group's failure).
    fn commit_writes(&self, writes: Vec<(i64, Bytes)>) -> ObjResult<()> {
        let limit = self.txn_capacity();
        if writes.len() as i64 > limit {
            return Err(ObjError::failed(format!(
                "transaction of {} sectors exceeds the {}-sector log's \
                 {limit}-sector transaction limit",
                writes.len(),
                self.geo.log_len
            )));
        }
        let my_seq = {
            let mut inner = self.inner.lock();
            let seq = inner.next_seq;
            inner.next_seq += 1;
            inner.pending.push(PendingTxn { seq, writes });
            seq
        };
        loop {
            let mut inner = self.inner.lock();
            if inner.durable_seq >= my_seq && inner.pending.iter().all(|p| p.seq != my_seq) {
                return match inner.failed.remove(&my_seq) {
                    None => Ok(()),
                    Some(msg) => Err(ObjError::failed(msg)),
                };
            }
            if inner.flushing {
                self.wait(&mut inner);
                continue;
            }
            // Become the leader: drain the whole queue into one append.
            inner.flushing = true;
            let mut group: Vec<PendingTxn> = std::mem::take(&mut inner.pending);
            drop(inner);
            let result = self.append_group(&group);
            let mut inner = self.inner.lock();
            let top_seq = group.iter().map(|p| p.seq).max().expect("non-empty group");
            match &result {
                Ok((records, appends)) => {
                    // Head and overlay were updated per sub-batch inside
                    // append_group; only the counters are left.
                    inner.commits += group.len() as u64;
                    inner.group_appends += appends;
                    inner.appended_records += records;
                }
                Err(e) => {
                    // The group append failed (e.g. power loss). Nothing
                    // in this group is acknowledged; a prefix may still
                    // have committed on disk, which recovery surfaces as
                    // whole transactions — never partial ones.
                    for p in &group {
                        inner.failed.insert(p.seq, e.to_string());
                    }
                }
            }
            inner.durable_seq = inner.durable_seq.max(top_seq);
            inner.flushing = false;
            if inner.pending.capacity() == 0 {
                // Nobody queued meanwhile: the next commit's push finds
                // this round's queue, emptied, instead of allocating one.
                group.clear();
                inner.pending = group;
            }
            self.wake(inner);
            // Loop back to pick up our own outcome.
        }
    }

    /// Appends `group` to the log, returning the record-sector and
    /// device-append counts. The caller holds the flush token.
    ///
    /// The group is split at transaction boundaries into sequential
    /// sub-batches that each fit the remaining log, checkpointing inline
    /// whenever the next transaction does not — so a coalesced group
    /// whose *combined* size exceeds the log (every member fits alone,
    /// per [`Self::commit_writes`]'s admission check) still commits,
    /// just in more than one device invocation. Head and overlay are
    /// advanced after every sub-batch lands: the inline checkpoint homes
    /// the overlay, so the earlier sub-batches' transactions must
    /// already be in it or the epoch bump would silently discard them.
    fn append_group(&self, group: &[PendingTxn]) -> ObjResult<(u64, u64)> {
        let (mut epoch, mut head) = {
            let inner = self.inner.lock();
            (inner.epoch, inner.head)
        };
        let mut records = 0u64;
        let mut appends = 0u64;
        let mut i = 0;
        while i < group.len() {
            // Longest prefix of the remaining transactions that fits.
            let mut j = i;
            let mut need = 0i64;
            while j < group.len() {
                let n = Self::slots_needed(group[j].writes.len());
                if head + need + n > self.geo.log_len {
                    break;
                }
                need += n;
                j += 1;
            }
            if j == i {
                // Not even one transaction fits the remaining log:
                // checkpoint inline (the token is already ours) and
                // retry. The admission check guarantees progress — every
                // transaction fits an empty log.
                debug_assert!(head > 0, "admitted transaction cannot fit an empty log");
                self.checkpoint_locked_out()?;
                let inner = self.inner.lock();
                epoch = inner.epoch;
                head = inner.head;
                continue;
            }
            records += need as u64;
            appends += 1;
            self.write_backing(self.encode_group(epoch, head, need, &group[i..j]))?;
            head += need;
            let mut inner = self.inner.lock();
            inner.head = head;
            for p in &group[i..j] {
                for (sec, data) in &p.writes {
                    inner.overlay.insert(*sec, data.clone());
                }
            }
            i = j;
        }
        Ok((records, appends))
    }
}

/// Builds a journal over `backing` and mounts it: reads the superblocks
/// (formatting a fresh device), replays committed transactions to their
/// home locations, and truncates the log. Mount is idempotent — a crash
/// anywhere during recovery replays the same committed prefix next time.
///
/// Returns an object exporting `blockdev` (see the [crate docs](crate)
/// for the full method list) plus a `journal` interface:
/// - `stats() -> [commits, group_appends, appended_records, checkpoints,
///   replayed, head, overlay]`,
/// - `geometry() -> [data_sectors, log_start, log_len]`,
/// - `scan() -> int` (read-only committed-transaction count, for tests
///   and benches).
pub fn mount_journal(backing: ObjRef, cfg: JournalConfig) -> ObjResult<ObjRef> {
    let s = mount_shared(backing, cfg)?;
    Ok(build_journal_object(s))
}

/// The mount itself — geometry resolution, superblock election, replay,
/// truncation — without the object wrapper, so unit tests can reach the
/// internal state machine ([`JournalShared::append_group`] and friends).
fn mount_shared(backing: ObjRef, cfg: JournalConfig) -> ObjResult<Arc<JournalShared>> {
    let total = backing.invoke("blockdev", "sectors", &[])?.as_int()?;
    let log_len = cfg.log_sectors;
    if log_len < 4 || log_len + 2 >= total {
        return Err(ObjError::failed(format!(
            "journal of {log_len} log sectors does not fit a {total}-sector device"
        )));
    }
    let geo = Geometry {
        data_sectors: total - log_len - 2,
        log_start: total - log_len,
        log_len,
    };
    let shared = Arc::new(JournalShared {
        backing,
        geo,
        inner: Mutex::new(Inner {
            epoch: 0,
            head: 0,
            overlay: SectorMap::default(),
            pending: Vec::new(),
            flushing: false,
            waiters: 0,
            next_seq: 1,
            durable_seq: 0,
            failed: HashMap::new(),
            commits: 0,
            group_appends: 0,
            appended_records: 0,
            checkpoints: 0,
            replayed: 0,
        }),
        cv: Condvar::new(),
    });

    // Mount: pick the valid superblock with the highest epoch, or format
    // a fresh device at epoch 1.
    let sb0 = parse_sb(&shared.read_backing(geo.sb(0))?);
    let sb1 = parse_sb(&shared.read_backing(geo.sb(1))?);
    let epoch = match sb0.into_iter().chain(sb1).max() {
        Some(e) => e,
        None => {
            shared.write_backing([(geo.sb(1), Bytes::copy_from_slice(&sb_sector(1)))])?;
            1
        }
    };
    // Replay the committed prefix, home it, truncate. Replay order is
    // commit order, so later transactions overwrite earlier ones — the
    // same last-writer-wins the overlay gave live readers.
    let (committed, _head) = shared.scan_committed(epoch)?;
    let replayed = committed.len() as u64;
    let epoch = if committed.is_empty() {
        epoch
    } else {
        let writes = committed.into_iter().flat_map(|(_, w)| w);
        let overlay: SectorMap<Bytes> = writes.collect();
        shared.home_and_truncate(epoch, overlay.into_iter().collect())?;
        epoch + 1
    };
    {
        let mut inner = shared.inner.lock();
        inner.epoch = epoch;
        inner.replayed = replayed;
    }
    Ok(shared)
}

/// Wraps a mounted journal in its `blockdev` + `journal` object.
fn build_journal_object(s: Arc<JournalShared>) -> ObjRef {
    ObjectBuilder::new("journal")
        .interface("blockdev", |i| {
            let s_read = s.clone();
            let s_write = s.clone();
            let s_read_many = s.clone();
            let s_write_many = s.clone();
            let s_sectors = s.clone();
            let s_limit = s.clone();
            let s_stats = s.clone();
            let s_flush = s.clone();
            let s_barrier = s.clone();
            let geo = s.geo;
            let s_commit = s.clone();
            let i = txn_verbs(
                i,
                move |_, sector| check_data_sector(&geo, sector),
                move |_, writes| s_commit.commit_writes(writes),
            );
            i.method("read", &[TypeTag::Int], TypeTag::Bytes, move |_, args| {
                let sector = args[0].as_int()?;
                check_data_sector(&s_read.geo, sector)?;
                if let Some(data) = s_read.inner.lock().overlay.get(&sector) {
                    return Ok(Value::Bytes(data.clone()));
                }
                s_read
                    .backing
                    .invoke("blockdev", "read", &[Value::Int(sector)])
            })
            .method(
                "write",
                &[TypeTag::Int, TypeTag::Bytes],
                TypeTag::Unit,
                move |_, args| {
                    let sector = args[0].as_int()?;
                    let data = args[1].as_bytes()?;
                    check_data_sector(&s_write.geo, sector)?;
                    if data.len() != SECTOR_SIZE {
                        return Err(ObjError::failed(format!(
                            "sector writes must be exactly {SECTOR_SIZE} bytes, got {}",
                            data.len()
                        )));
                    }
                    // A bare write is an implicit single-write
                    // transaction: journalled, group-committed, durable
                    // by return.
                    s_write.commit_writes(vec![(sector, data.clone())])?;
                    Ok(Value::Unit)
                },
            )
            .method(
                "read_many",
                &[TypeTag::List],
                TypeTag::List,
                move |_, args| {
                    let sectors = parse_sectors(&args[0])?;
                    for &sec in &sectors {
                        check_data_sector(&s_read_many.geo, sec)?;
                    }
                    // Serve overlay hits locally, batch the rest below.
                    let overlay_hits: Vec<Option<Bytes>> = {
                        let inner = s_read_many.inner.lock();
                        sectors
                            .iter()
                            .map(|sec| inner.overlay.get(sec).cloned())
                            .collect()
                    };
                    let missing: Vec<i64> = sectors
                        .iter()
                        .zip(&overlay_hits)
                        .filter_map(|(&sec, hit)| hit.is_none().then_some(sec))
                        .collect();
                    let mut fetched = if missing.is_empty() {
                        Vec::new()
                    } else {
                        s_read_many
                            .backing
                            .invoke(
                                "blockdev",
                                "read_many",
                                &[sectors_arg(missing.iter().copied())],
                            )?
                            .as_list()?
                            .to_vec()
                    };
                    let mut next = fetched.drain(..);
                    let out: Vec<Value> = overlay_hits
                        .into_iter()
                        .map(|hit| match hit {
                            Some(data) => Ok(Value::Bytes(data)),
                            None => next.next().ok_or_else(|| {
                                ObjError::failed("backing read_many returned a short batch")
                            }),
                        })
                        .collect::<ObjResult<_>>()?;
                    Ok(Value::List(out))
                },
            )
            .method(
                "write_many",
                &[TypeTag::List],
                TypeTag::Int,
                move |_, args| {
                    let pairs = parse_pairs(&args[0])?;
                    for (sec, _) in &pairs {
                        check_data_sector(&s_write_many.geo, *sec)?;
                    }
                    if pairs.is_empty() {
                        return Ok(Value::Int(0));
                    }
                    // One batch = one atomic transaction: after a crash,
                    // either every pair is visible or none is.
                    let n = pairs.len() as i64;
                    s_write_many.commit_writes(pairs)?;
                    Ok(Value::Int(n))
                },
            )
            .method("sectors", &[], TypeTag::Int, move |_, _| {
                Ok(Value::Int(s_sectors.geo.data_sectors))
            })
            .method("write_limit", &[], TypeTag::Int, move |_, _| {
                // Largest write_many batch (= transaction payload) the
                // log can hold as one atomic record. Upper layers chunk
                // their non-atomic writeback batches to this.
                Ok(Value::Int(s_limit.txn_capacity()))
            })
            .method("stats", &[], TypeTag::List, move |_, _| {
                s_stats.backing.invoke("blockdev", "stats", &[])
            })
            .method("flush", &[], TypeTag::Int, move |_, _| {
                // Checkpoint: home every committed payload, truncate the
                // log. Returns the number of sectors homed.
                s_flush.acquire_flush_token();
                let result = s_flush.checkpoint_locked_out();
                s_flush.release_flush_token();
                // Forward so lower layers (an inner journal, a write
                // buffer) drain too.
                let below = s_flush.backing.invoke("blockdev", "flush", &[]);
                let homed = result?;
                let below = match below {
                    Ok(v) => v.as_int()?,
                    // A minimal backing may have nothing to flush.
                    Err(ObjError::NoSuchMethod { .. }) => 0,
                    Err(e) => return Err(e),
                };
                Ok(Value::Int(homed + below))
            })
            .method("barrier", &[], TypeTag::Unit, move |_, _| {
                // Every acknowledged commit is already durable (commit
                // returns only after its group append lands), so a
                // barrier only needs to wait out any in-flight append
                // and order against the layer below.
                s_barrier.acquire_flush_token();
                s_barrier.release_flush_token();
                s_barrier.backing.invoke("blockdev", "barrier", &[])
            })
        })
        .interface("journal", |i| {
            let s_stats = s.clone();
            let s_geo = s.clone();
            let s_scan = s.clone();
            i.method("stats", &[], TypeTag::List, move |_, _| {
                let inner = s_stats.inner.lock();
                Ok(Value::List(vec![
                    Value::Int(inner.commits as i64),
                    Value::Int(inner.group_appends as i64),
                    Value::Int(inner.appended_records as i64),
                    Value::Int(inner.checkpoints as i64),
                    Value::Int(inner.replayed as i64),
                    Value::Int(inner.head),
                    Value::Int(inner.overlay.len() as i64),
                ]))
            })
            .method("geometry", &[], TypeTag::List, move |_, _| {
                Ok(Value::List(vec![
                    Value::Int(s_geo.geo.data_sectors),
                    Value::Int(s_geo.geo.log_start),
                    Value::Int(s_geo.geo.log_len),
                ]))
            })
            .method("scan", &[], TypeTag::Int, move |_, _| {
                let epoch = s_scan.inner.lock().epoch;
                let (committed, _) = s_scan.scan_committed(epoch)?;
                Ok(Value::Int(committed.len() as i64))
            })
        })
        .build()
}

/// Rejects sectors outside the client-visible data area (negative or
/// inside the reserved journal region).
fn check_data_sector(geo: &Geometry, sector: i64) -> ObjResult<()> {
    if sector < 0 || sector >= geo.data_sectors {
        return Err(ObjError::failed(format!(
            "sector {sector} out of range (device has {})",
            geo.data_sectors
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackBuilder;
    use paramecium_core::{domain::KERNEL_DOMAIN, memsvc::MemService};
    use paramecium_machine::Machine;
    use std::sync::Arc;

    fn setup() -> (Arc<MemService>, ObjRef, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(JournalConfig::default())
            .build()
            .unwrap();
        (mem, stack.driver, stack.top)
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

    #[test]
    fn writes_are_journalled_then_homed_by_flush() {
        let (_mem, driver, j) = setup();
        j.invoke("blockdev", "write", &[Value::Int(3), sector_of(0xAD)])
            .unwrap();
        // Readable through the journal (overlay) immediately...
        let v = j.invoke("blockdev", "read", &[Value::Int(3)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xAD);
        // ...but the home location is untouched until checkpoint.
        let v = driver.invoke("blockdev", "read", &[Value::Int(3)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0);
        let homed = j
            .invoke("blockdev", "flush", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(homed, 1);
        let v = driver.invoke("blockdev", "read", &[Value::Int(3)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xAD);
        // Overlay drained, checkpoint counted.
        let s = jstats(&j);
        assert_eq!(s[6], 0, "overlay empty after checkpoint");
        assert_eq!(s[3], 1, "one checkpoint");
    }

    #[test]
    fn flush_reports_a_failed_layer_below_but_tolerates_one_without_flush() {
        use paramecium_obj::{InterfaceBuilder, InterposerBuilder};
        // A backing whose flush fails (a cache whose writeback failed, a
        // dead machine): the journal's own checkpoint succeeded, but
        // "flushed" must not be reported for the stack as a whole.
        let (_mem, driver, _j) = setup();
        let failing = InterposerBuilder::new(driver)
            .override_method("blockdev", "flush", |_, _| {
                Err(ObjError::failed("injected flush failure"))
            })
            .build();
        let j = mount_journal(failing, JournalConfig::default()).unwrap();
        j.invoke("blockdev", "write", &[Value::Int(3), sector_of(0xAD)])
            .unwrap();
        let err = j.invoke("blockdev", "flush", &[]).unwrap_err();
        assert!(err.to_string().contains("injected flush failure"), "{err}");

        // A backing that exports only what the journal needs and has no
        // `flush` at all: the journal still answers with its own count.
        let (_mem, driver, _j) = setup();
        let mut bare = InterfaceBuilder::new("blockdev");
        for (verb, params, returns) in [
            ("read", &[TypeTag::Int][..], TypeTag::Bytes),
            ("read_many", &[TypeTag::List], TypeTag::List),
            ("write_many", &[TypeTag::List], TypeTag::Int),
            ("sectors", &[], TypeTag::Int),
        ] {
            let driver = driver.clone();
            bare = bare.method(verb, params, returns, move |_, args| {
                driver.invoke("blockdev", verb, args)
            });
        }
        let bare = ObjectBuilder::new("bare-blockdev")
            .raw_interface(bare.finish())
            .build();
        let j = mount_journal(bare, JournalConfig::default()).unwrap();
        j.invoke("blockdev", "write", &[Value::Int(3), sector_of(0xAE)])
            .unwrap();
        assert_eq!(j.invoke("blockdev", "flush", &[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn remount_replays_committed_transactions() {
        let (mem, _driver, j) = setup();
        j.invoke("blockdev", "write", &[Value::Int(11), sector_of(0x5A)])
            .unwrap();
        drop(j);
        // No flush: the data lives only in the log. A fresh mount over
        // the same device must replay it to its home location.
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(JournalConfig::default())
            .build()
            .unwrap();
        let j2 = stack.top;
        assert_eq!(jstats(&j2)[4], 1, "one transaction replayed");
        let v = j2.invoke("blockdev", "read", &[Value::Int(11)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x5A);
        // And the home location really holds it (not just an overlay).
        let v = stack
            .driver
            .invoke("blockdev", "read", &[Value::Int(11)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x5A);
    }

    #[test]
    fn log_full_checkpoints_inline_and_keeps_going() {
        let (_mem, driver, j) = setup();
        // Each bare write costs 3 log slots (desc + payload + commit);
        // 126 log sectors hold 42. Write far more than that.
        for round in 0..100i64 {
            j.invoke(
                "blockdev",
                "write",
                &[Value::Int(round % 8), sector_of(round as u8)],
            )
            .unwrap();
        }
        let s = jstats(&j);
        assert!(s[3] >= 2, "inline checkpoints happened: {s:?}");
        j.invoke("blockdev", "flush", &[]).unwrap();
        for sec in 0..8i64 {
            // Last round that wrote this sector.
            let expect = (99 - ((99 - sec) % 8)) as u8;
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], expect, "sector {sec}");
        }
    }

    #[test]
    fn journal_region_is_invisible_and_unwritable() {
        let (_mem, _driver, j) = setup();
        let data_sectors = j
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        let geo = j.invoke("journal", "geometry", &[]).unwrap();
        let geo = geo.as_list().unwrap();
        assert_eq!(geo[0].as_int().unwrap(), data_sectors);
        // The reserved region (superblocks + log) is not addressable.
        assert!(j
            .invoke("blockdev", "read", &[Value::Int(data_sectors)])
            .is_err());
        assert!(j
            .invoke(
                "blockdev",
                "write",
                &[Value::Int(data_sectors + 1), sector_of(1)]
            )
            .is_err());
    }

    #[test]
    fn oversized_group_splits_and_checkpoints_between_appends() {
        // Regression: commit_writes admits each transaction alone, but a
        // coalesced group's combined records can outgrow the log. The
        // leader must split the group at transaction boundaries, not
        // encode past the device end and fail every member's commit.
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        let driver = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top;
        let cfg = JournalConfig { log_sectors: 16 };
        let s = mount_shared(driver.clone(), cfg).unwrap();
        // A 6-write transaction needs 8 slots (desc + 6 payloads +
        // commit): two fit the 16-slot log together, three do not.
        let group: Vec<PendingTxn> = (0..3u64)
            .map(|t| PendingTxn {
                seq: t + 1,
                writes: (0..6i64)
                    .map(|k| {
                        (
                            t as i64 * 6 + k,
                            Bytes::from(vec![0x60 + t as u8; SECTOR_SIZE]),
                        )
                    })
                    .collect(),
            })
            .collect();
        s.inner.lock().flushing = true; // what a leader would hold
        let (records, appends) = s.append_group(&group).unwrap();
        s.release_flush_token();
        assert_eq!(records, 24, "8 record sectors per transaction");
        assert_eq!(appends, 2, "split into two sequential appends");
        {
            let inner = s.inner.lock();
            assert_eq!(inner.checkpoints, 1, "inline checkpoint between them");
            assert_eq!(inner.head, 8, "only the third transaction in the new log");
            assert_eq!(inner.overlay.len(), 6);
        }
        // The checkpoint homed the first two transactions — the epoch
        // bump must not have discarded them.
        for sec in 0..12i64 {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0x60 + (sec / 6) as u8);
        }
        // And the third is committed on disk: a fresh mount replays it.
        drop(s);
        let s2 = mount_shared(driver.clone(), cfg).unwrap();
        assert_eq!(s2.inner.lock().replayed, 1);
        for sec in 12..18i64 {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0x62);
        }
    }

    #[test]
    fn concurrent_commits_that_outgrow_the_log_together_all_succeed() {
        // The same overflow through the public interface: concurrent
        // committers whose transactions fit individually must never see
        // a spurious commit error just because they were coalesced.
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(JournalConfig { log_sectors: 16 })
            .build()
            .unwrap();
        let top = stack.top.clone();
        let start = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4u8)
            .map(|t| {
                let top = top.clone();
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    for round in 0..8i64 {
                        let pairs: Vec<(i64, Bytes)> = (0..6i64)
                            .map(|k| {
                                (
                                    t as i64 * 48 + round * 6 + k,
                                    Bytes::from(vec![0xB0 + t; SECTOR_SIZE]),
                                )
                            })
                            .collect();
                        top.invoke("blockdev", "write_many", &[pairs_arg(pairs)])
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        top.invoke("blockdev", "flush", &[]).unwrap();
        for t in 0..4i64 {
            for k in 0..48i64 {
                let v = stack
                    .driver
                    .invoke("blockdev", "read", &[Value::Int(t * 48 + k)])
                    .unwrap();
                assert_eq!(v.as_bytes().unwrap()[0], 0xB0 + t as u8);
            }
        }
    }

    #[test]
    fn write_limit_reports_the_transaction_capacity() {
        let (_mem, _driver, j) = setup();
        let limit = j
            .invoke("blockdev", "write_limit", &[])
            .unwrap()
            .as_int()
            .unwrap();
        // Default 126-slot log: 122 payloads + 3 descriptors + 1 commit.
        assert_eq!(limit, 122);
        // The limit is exact: a write_many of `limit` commits, one more
        // is rejected.
        let pairs: Vec<(i64, Bytes)> = (0..=limit)
            .map(|sec| (sec, Bytes::from(vec![0x31; SECTOR_SIZE])))
            .collect();
        assert!(j
            .invoke("blockdev", "write_many", &[pairs_arg(pairs.clone())])
            .is_err());
        let n = j
            .invoke(
                "blockdev",
                "write_many",
                &[pairs_arg(pairs[..limit as usize].to_vec())],
            )
            .unwrap();
        assert_eq!(n, Value::Int(limit));
    }

    #[test]
    fn oversized_transaction_is_rejected_whole() {
        use crate::vectored::{txn_arg, txn_write_args};
        let (_mem, driver, j) = setup();
        let txn = j
            .invoke("blockdev", "begin_txn", &[])
            .unwrap()
            .as_int()
            .unwrap();
        // 126 log sectors can hold at most ~120 payloads; 200 cannot fit.
        for sec in 0..200i64 {
            j.invoke(
                "blockdev",
                "txn_write",
                &txn_write_args(txn, sec, Bytes::from(vec![0xFF; SECTOR_SIZE])),
            )
            .unwrap();
        }
        assert!(j.invoke("blockdev", "commit", &txn_arg(txn)).is_err());
        // Nothing leaked to disk or overlay.
        let v = driver.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0);
        assert_eq!(jstats(&j)[6], 0);
    }
}
