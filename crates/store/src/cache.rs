//! The shared block cache — the paper's canonical certified component.
//!
//! "Certified kernel components can include protocol stack
//! implementations that are shared between multiple non-cooperating
//! users, security modules, shared caches, etc. Trust and sharing are
//! important notions in an operating system kernel that are hard to
//! formalize and even harder to check automatically." (paper, section 4).
//!
//! A write-back LRU cache over any `blockdev` object. Because it exports
//! `blockdev` itself, it is installed by *interposition*: replace the
//! `/dev/disk` binding with the cache wrapping the old driver, and every
//! client — from any protection domain — transparently shares it. That
//! sharing is exactly why software verification is not enough (the cache
//! sees everyone's data) and certification is the paper's answer.
//!
//! # What the cache is
//!
//! - **Sharded.** Lines are partitioned `N` ways by sector
//!   (`sector % N`). Each shard owns an independent index, LRU list and
//!   hit/miss/writeback counters; the `cache` interface aggregates them.
//!   One object still exports `blockdev`, so interposition and
//!   certification are unchanged.
//! - **O(1) LRU.** Each shard keeps its lines in a slot arena threaded
//!   with an index-based intrusive doubly-linked list (no unsafe, no
//!   per-node allocation): touch, insert and evict are all O(1).
//! - **Zero-copy hits.** Lines store [`bytes::Bytes`]; a hit returns a
//!   ref-counted clone of the resident buffer — no 512-byte copies on
//!   the hot path.
//! - **One write path.** `write` and `write_many` make their sectors
//!   resident and dirty; whatever needs room — a write, a batch, a read
//!   fill — gets it from the one eviction routine, `make_room`. A
//!   transaction is a buffered batch that `commit` writes *through* in
//!   one un-split `write_many` (atomic and durable-by-return under a
//!   journal), refreshing the lines it overlaps: transaction data never
//!   becomes a cache line, and no resident line outlives a commit stale.
//! - **Coalesced writeback.** Eviction and `flush` gather dirty lines
//!   into sector-sorted (elevator-order) batches and issue one
//!   vectorized `write_many` to the backing store, which charges the
//!   amortised batch transfer cost — instead of one full-price object
//!   invocation per sector. An eviction opportunistically takes up to
//!   `EVICTION_WRITEBACK_BATCH` dirty lines from the cold end of the
//!   LRU with it, so write-heavy scans retire their writeback debt in
//!   bursts.
//! - **Durability.** Dirty lines are marked clean only *after* the
//!   backing write succeeds, checked against a per-line version so a
//!   line rewritten while its writeback was in flight stays dirty. A
//!   failed backing write loses nothing: flush leaves every line dirty
//!   and eviction reinserts the victim.
//! - **Strict capacity.** Eviction happens *before* insertion, so the
//!   cache never holds more than `capacity` lines, even transiently.
//! - **Per-shard locking.** Each shard sits behind its own spin
//!   [`TryLock`] rather than the object's exclusive instance state, so
//!   concurrent clients on real OS threads (the world pool) proceed in
//!   parallel on disjoint shards. Uncontended acquisition is one atomic
//!   swap, and no lock is ever held across a backing-store invocation.
//!   Every path holds at most one shard lock at a time, except
//!   `read_many`'s hit pass, which takes all of them in ascending index
//!   order — so no acquisition cycle can form. Multi-shard operations
//!   are therefore atomic per shard, not across the cache, under
//!   concurrency (a single client cannot tell).

use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use paramecium_machine::dev::disk::SECTOR_SIZE;
use paramecium_obj::{
    delegate_interface, InterfaceBuilder, ObjError, ObjRef, ObjResult, ObjectBuilder, TryLock,
    TryLockGuard, TypeTag, Value,
};

use crate::vectored::{pairs_arg, sectors_arg, txn_verbs, view_pairs, Pairs, SectorMap};

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// Most dirty lines one eviction writeback will coalesce (the victim plus
/// opportunistic extras from the cold end of the LRU list). Bounded so a
/// single miss never turns into an unbounded flush.
const EVICTION_WRITEBACK_BATCH: usize = 8;

/// One cache line. LRU threading lives in the shard's parallel `links`
/// array so the hot touch path only writes the compact link table, not
/// three of these ~48-byte entries.
struct Line {
    sector: i64,
    data: Bytes,
    dirty: bool,
    /// Drawn from the shard's monotonic `version_clock` on every insert
    /// and overwrite. A completed writeback only clears the dirty bit if
    /// the version still matches the snapshot it wrote, so a line
    /// rewritten (or evicted and re-inserted) mid-writeback stays dirty
    /// (durability).
    version: u64,
}

/// Intrusive doubly-linked list node: `(prev, next)` slot indices.
type Link = (u32, u32);

/// One shard: an independent slot arena + hash index + LRU list + stats.
struct Shard {
    /// sector → slot index.
    map: SectorMap<u32>,
    /// Slot arena; freed slots are recycled via `free`.
    slots: Vec<Line>,
    /// LRU threading parallel to `slots`: 8 bytes per line keeps the
    /// touch path's writes inside a handful of cache lines.
    links: Vec<Link>,
    free: Vec<u32>,
    /// Most-recently-used end of the intrusive list.
    head: u32,
    /// Least-recently-used end (eviction candidate).
    tail: u32,
    capacity: usize,
    /// Monotonic source for line versions. Never reused — a re-inserted
    /// sector gets a fresh version, so an in-flight writeback snapshot
    /// can never mistake new data for the bytes it wrote.
    version_clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: SectorMap::default(),
            slots: Vec::new(),
            links: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
            version_clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Next unique line version.
    fn next_version(&mut self) -> u64 {
        self.version_clock += 1;
        self.version_clock
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = self.links[idx as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.links[prev as usize].1 = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next as usize].0 = prev;
        }
    }

    fn link_front(&mut self, idx: u32) {
        let old = self.head;
        self.links[idx as usize] = (NIL, old);
        if old == NIL {
            self.tail = idx;
        } else {
            self.links[old as usize].0 = idx;
        }
        self.head = idx;
    }

    /// O(1) LRU touch: move the slot to the MRU end.
    #[inline]
    fn touch(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
    }

    /// Inserts a new line at the MRU end. The caller guarantees the sector
    /// is absent and the shard has room.
    fn insert(&mut self, sector: i64, data: Bytes, dirty: bool) {
        debug_assert!(self.len() < self.capacity);
        let line = Line {
            sector,
            data,
            dirty,
            version: self.next_version(),
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = line;
                i
            }
            None => {
                self.slots.push(line);
                self.links.push((NIL, NIL));
                (self.slots.len() - 1) as u32
            }
        };
        self.link_front(idx);
        self.map.insert(sector, idx);
    }

    /// Removes the LRU line, returning `(sector, data, dirty)`.
    fn pop_lru(&mut self) -> Option<(i64, Bytes, bool)> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.unlink(idx);
        self.free.push(idx);
        let line = &mut self.slots[idx as usize];
        self.map.remove(&line.sector);
        Some((line.sector, std::mem::take(&mut line.data), line.dirty))
    }

    /// Snapshots dirty lines starting from the LRU end into `out` until
    /// it holds `max`, without clearing their dirty bits (that happens
    /// only after the backing write succeeds, version-checked).
    fn dirty_from_lru(&self, max: usize, out: &mut Vec<(i64, Bytes, Option<u64>)>) {
        let mut idx = self.tail;
        while idx != NIL && out.len() < max {
            let l = &self.slots[idx as usize];
            if l.dirty {
                out.push((l.sector, l.data.clone(), Some(l.version)));
            }
            idx = self.links[idx as usize].0;
        }
    }

    /// Snapshots every dirty line in the shard (for `flush`).
    fn all_dirty(&self) -> impl Iterator<Item = (i64, Bytes, u64)> + '_ {
        self.map.values().filter_map(|&idx| {
            let l = &self.slots[idx as usize];
            l.dirty.then(|| (l.sector, l.data.clone(), l.version))
        })
    }

    /// Clears the dirty bit of `sector` if still resident at `version`.
    fn mark_clean_if_unchanged(&mut self, sector: i64, version: u64) {
        if let Some(&idx) = self.map.get(&sector) {
            let line = &mut self.slots[idx as usize];
            if line.version == version {
                line.dirty = false;
            }
        }
    }

    /// The in-place update: new bytes, a fresh version, MRU position.
    /// `dirty` for a client write the backing store has not seen; clean
    /// when the same bytes have just been written through.
    fn overwrite_line(&mut self, idx: u32, data: &Bytes, dirty: bool) {
        let version = self.next_version();
        let line = &mut self.slots[idx as usize];
        line.data = data.clone();
        line.dirty = dirty;
        line.version = version;
        self.touch(idx);
    }
}

/// Shared cache instance: the backing `blockdev`, the shard array — each
/// shard behind its own spin lock — and the lazily fetched device size.
///
/// Every method closure captures this as an `Arc`, bypassing the object's
/// exclusive instance state entirely: two clients touching different
/// shards never serialize, which is what lets one shared cache serve many
/// concurrent worlds (the world pool) without a global lock. The per-shard
/// invariants are unchanged from the exclusive design — evict-before-
/// insert, dirty lines cleaned only after a version-checked successful
/// backing write, failed batches reinsert their victims. The one semantic
/// narrowing under *concurrent* clients: multi-shard operations
/// (`read_many`, `write_many`, `flush`, `stats`) lock one shard at a
/// time, so they are atomic per shard rather than across the whole cache;
/// single-client behaviour is bit-identical to the old global-lock
/// design.
struct CacheShared {
    backing: ObjRef,
    /// Always a power-of-two length so routing is a mask, not a divide.
    /// Each shard is independently locked; the uncontended acquire is one
    /// atomic swap, so a warmed single-client hit costs what it did under
    /// the exclusive-state design.
    shards: Vec<TryLock<Shard>>,
    shard_mask: u64,
    /// Per-shard line capacity (uniform across shards), readable without
    /// any lock for batch planning.
    per_shard: usize,
    /// Largest batch the backing store accepts as one `write_many` —
    /// a journal below bounds it by its log capacity (its `write_limit`
    /// method); a backing without the method is unbounded
    /// (`usize::MAX`). Probed once at build time. Every internal
    /// writeback path chunks to this, so a flush of more dirty lines
    /// than one journal transaction can carry degrades into several
    /// transactions instead of an unservable oversized one that would
    /// leave the lines dirty forever.
    write_limit: usize,
    /// Backing device size, fetched lazily on the first dirty write and
    /// used to reject out-of-range writes up front — an unwritable sector
    /// must never become a dirty line, or it would poison every later
    /// all-or-nothing writeback batch.
    total_sectors: OnceLock<i64>,
}

impl CacheShared {
    #[inline]
    fn shard_of(&self, sector: i64) -> usize {
        (sector as u64 & self.shard_mask) as usize
    }

    /// Locks the shard owning `sector`.
    #[inline]
    fn shard(&self, sector: i64) -> TryLockGuard<'_, Shard> {
        self.shards[self.shard_of(sector)].lock()
    }

    /// The backing device's sector count (cached after the first query).
    fn backing_sectors(&self) -> ObjResult<i64> {
        if let Some(&n) = self.total_sectors.get() {
            return Ok(n);
        }
        let n = self.backing.invoke("blockdev", "sectors", &[])?.as_int()?;
        // A racing fetch computed the same value; first writer wins.
        let _ = self.total_sectors.set(n);
        Ok(n)
    }

    /// Rejects sectors the backing store could never write back.
    fn check_writable_sector(&self, sector: i64) -> ObjResult<()> {
        if sector < 0 {
            return Err(ObjError::failed("negative sector"));
        }
        let total = self.backing_sectors()?;
        if sector >= total {
            return Err(ObjError::failed(format!(
                "sector {sector} out of range (device has {total})"
            )));
        }
        Ok(())
    }
}

/// Writes an internal writeback `batch` (sector-sorted by the caller,
/// borrowed from wherever the lines live) to the backing store, split
/// into sub-batches no larger than the backing's atomic-write limit (see
/// `CacheShared::write_limit`). Writeback needs every sector durable,
/// not one atomic unit, so the split never weakens a guarantee —
/// client-visible atomicity comes from the transaction verbs, which
/// bypass this path entirely. Against an unbounded backing this is
/// exactly one `write_many`.
fn write_back_chunked<'a>(
    shared: &CacheShared,
    batch: impl ExactSizeIterator<Item = (i64, &'a Bytes)>,
) -> ObjResult<()> {
    let mut batch = batch.map(|(sec, data)| (sec, data.clone()));
    while batch.len() > 0 {
        let chunk = pairs_arg(batch.by_ref().take(shared.write_limit));
        shared.backing.invoke("blockdev", "write_many", &[chunk])?;
    }
    Ok(())
}

/// The cache's one eviction path. Makes room for `wanted` — distinct
/// sectors, at most a shard's capacity of them per shard — so that each
/// can be inserted without its shard exceeding capacity: eviction happens
/// *before* insertion, never after.
///
/// Wanted lines already resident move to the MRU end (they are about to
/// be rewritten) and cost no room; for the rest the LRU is popped until
/// they fit. Clean victims just drop. Dirty ones leave through one
/// sector-sorted batched `write_many`, together with up to
/// [`EVICTION_WRITEBACK_BATCH`] cold dirty lines of the same shards, which
/// stay resident and are marked clean by version afterwards. If the
/// backing write fails the victims are reinserted and the error
/// surfaces: no acknowledged write is ever dropped. One shard is locked
/// at a time and never across the backing invocation, so the caller
/// re-checks for room under its own lock.
fn make_room(shared: &CacheShared, wanted: impl Iterator<Item = i64> + Clone) -> ObjResult<()> {
    loop {
        // `(sector, data, version)`: evicted victims carry no version,
        // still-resident extras the one their snapshot was taken at.
        let mut batch: Vec<(i64, Bytes, Option<u64>)> = Vec::new();
        for (i, lock) in shared.shards.iter().enumerate() {
            let mut mine = wanted
                .clone()
                .filter(|sec| shared.shard_of(*sec) == i)
                .peekable();
            if mine.peek().is_none() {
                continue;
            }
            let mut sh = lock.lock();
            let mut demand = 0;
            for sec in mine {
                match sh.map.get(&sec).copied() {
                    Some(idx) => sh.touch(idx),
                    None => demand += 1,
                }
            }
            let before = batch.len();
            while sh.len() + demand > sh.capacity {
                let (vsec, vdata, vdirty) =
                    sh.pop_lru().expect("over-demand shard has an LRU line");
                if vdirty {
                    batch.push((vsec, vdata, None));
                }
            }
            if batch.len() > before {
                sh.dirty_from_lru(EVICTION_WRITEBACK_BATCH, &mut batch);
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        batch.sort_unstable_by_key(|(sec, _, _)| *sec);
        let written = write_back_chunked(shared, batch.iter().map(|(sec, data, _)| (*sec, data)));
        for (sec, data, version) in batch {
            let mut sh = shared.shard(sec);
            if written.is_ok() {
                sh.writebacks += 1;
                if let Some(version) = version {
                    sh.mark_clean_if_unchanged(sec, version);
                }
            } else if version.is_none() && !sh.map.contains_key(&sec) && sh.len() < sh.capacity {
                // Durability: the backing write failed, so the evicted
                // dirty data goes back into the cache. (The slot its
                // eviction freed is still free unless a concurrent client
                // took it.)
                sh.insert(sec, data, true);
            }
        }
        written?;
        // Loop: re-check in case a concurrent client (or the backing
        // re-entering the cache) took the room during the writeback.
    }
}

/// Makes `sector` resident with `data`.
///
/// With `dirty` the line is (over)written and marked dirty — a client
/// write, recorded as one hit or miss; without it the call only *fills*
/// (the read that fetched the data already recorded its miss) — an
/// already-resident line is left untouched so a fetch completing late
/// can never clobber newer client data. Only the one shard owning
/// `sector` is ever locked, and never across [`make_room`]'s backing
/// invocation.
fn insert_line(shared: &CacheShared, sector: i64, data: &Bytes, dirty: bool) -> ObjResult<()> {
    let mut count = dirty;
    loop {
        {
            let mut sh = shared.shard(sector);
            if let Some(idx) = sh.map.get(&sector).copied() {
                sh.hits += u64::from(count);
                if dirty {
                    sh.overwrite_line(idx, data, true);
                } else {
                    sh.touch(idx);
                }
                return Ok(());
            }
            sh.misses += u64::from(count);
            count = false;
            if sh.len() < sh.capacity {
                sh.insert(sector, data.clone(), dirty);
                return Ok(());
            }
        }
        make_room(shared, std::iter::once(sector))?;
    }
}

fn cache_read(shared: &CacheShared, sector: i64) -> ObjResult<Value> {
    // Fast path: a hit returns a ref-counted clone of the resident
    // buffer — no byte copy, one O(1) LRU touch, one shard lock.
    let hit = {
        let mut sh = shared.shard(sector);
        match sh.map.get(&sector).copied() {
            Some(idx) => {
                sh.hits += 1;
                sh.touch(idx);
                Some(sh.slots[idx as usize].data.clone())
            }
            None => {
                sh.misses += 1;
                None
            }
        }
    };
    if let Some(data) = hit {
        return Ok(Value::Bytes(data));
    }
    // Miss: fetch with no lock held (the backing store may itself be an
    // object graph).
    let fetched = shared
        .backing
        .invoke("blockdev", "read", &[Value::Int(sector)])?;
    let data = fetched.as_bytes()?.clone();
    if data.len() != SECTOR_SIZE {
        return Err(ObjError::failed("backing store returned a short sector"));
    }
    insert_line(shared, sector, &data, false)?;
    Ok(Value::Bytes(data))
}

fn cache_read_many(shared: &CacheShared, sectors: &[Value]) -> ObjResult<Value> {
    // One pass builds the result list in place, re-locking only when the
    // owning shard changes — a single-shard cache pays exactly one lock
    // for the whole batch, and runs of shard-local sectors amortize
    // theirs. At most one shard lock is ever held (the previous guard is
    // dropped before the next acquire), so concurrent batches cannot
    // deadlock however their shard orders interleave. Hits resolve to a
    // zero-copy clone immediately, misses leave a `Unit` placeholder.
    let mut results: Vec<Value> = Vec::with_capacity(sectors.len());
    let mut missing: Vec<i64> = Vec::new();
    {
        // Take every shard guard up front, in ascending index order —
        // the one multi-lock site in the cache, and every other path
        // holds at most one shard at a time, so no acquisition cycle can
        // form. This keeps the hit pass identical to the single-lock
        // original (one pass, no per-sector lock traffic, no grouping
        // allocations): the whole batch pays `nshards` uncontended
        // atomic swaps, not one per sector. Guards drop before the miss
        // path runs, so no shard lock is held across a backing
        // invocation.
        let mut guards: Vec<TryLockGuard<'_, Shard>> =
            shared.shards.iter().map(|s| s.lock()).collect();
        for v in sectors {
            let sec = v.as_int()?;
            let sh = &mut guards[shared.shard_of(sec)];
            match sh.map.get(&sec).copied() {
                Some(slot) => {
                    sh.hits += 1;
                    sh.touch(slot);
                    results.push(Value::Bytes(sh.slots[slot as usize].data.clone()));
                }
                None => {
                    sh.misses += 1;
                    missing.push(sec);
                    results.push(Value::Unit);
                }
            }
        }
    }
    if !missing.is_empty() {
        // One vectorized backing fetch for all misses, in elevator order.
        // (Negative sectors land here too and are rejected by the
        // backing driver's own validation.)
        missing.sort_unstable();
        missing.dedup();
        let fetched = shared.backing.invoke(
            "blockdev",
            "read_many",
            &[sectors_arg(missing.iter().copied())],
        )?;
        let list = fetched.as_list()?;
        if list.len() != missing.len() {
            return Err(ObjError::failed("backing read_many returned a short batch"));
        }
        let mut by_sector = SectorMap::default();
        by_sector.reserve(missing.len());
        for (&sec, v) in missing.iter().zip(list.iter()) {
            let data = v.as_bytes()?.clone();
            if data.len() != SECTOR_SIZE {
                return Err(ObjError::failed("backing store returned a short sector"));
            }
            insert_line(shared, sec, &data, false)?;
            by_sector.insert(sec, data);
        }
        for (pos, v) in sectors.iter().enumerate() {
            if matches!(results[pos], Value::Unit) {
                results[pos] = Value::Bytes(by_sector[&v.as_int()?].clone());
            }
        }
    }
    Ok(Value::List(results))
}

/// Refreshes the resident lines among `pairs` as clean, after the same
/// bytes were written through to the backing store: the cache never
/// answers with (or later writes back) what the write-through replaced.
/// Non-resident sectors stay non-resident.
fn refresh_clean<'a>(shared: &CacheShared, pairs: impl Iterator<Item = (i64, &'a Bytes)>) {
    for (sec, data) in pairs {
        let mut sh = shared.shard(sec);
        if let Some(idx) = sh.map.get(&sec).copied() {
            sh.overwrite_line(idx, data, false);
        }
    }
}

/// Applies a validated batch of `(sector, data)` writes with the
/// driver's no-partial-effects contract: room for every batch sector is
/// made (evicting, writing dirty victims back) *before* any pair is
/// cached, so a failed eviction writeback surfaces with the cache
/// unchanged, and the apply pass cannot fail for a single client (a
/// concurrent one that takes the room sends it back through
/// [`make_room`]). Batches too large for their shards bypass the cache as
/// one streaming write-through.
fn cache_write_many(shared: &CacheShared, pairs: Pairs<'_>) -> ObjResult<Value> {
    // Distinct batch sectors per shard decide whether the batch can be
    // fully resident after the apply pass. Capacities are fixed, so this
    // plan needs no locks at all — and no hash set: sort by sector, keep
    // each sector's first position, sort back into batch order.
    let mut wanted: Vec<(i64, usize)> = pairs.iter().map(|(sec, _)| sec).zip(0..).collect();
    wanted.sort_unstable();
    wanted.dedup_by_key(|(sec, _)| *sec);
    wanted.sort_unstable_by_key(|&(_, pos)| pos);
    let wanted = wanted.iter().map(|&(sec, _)| sec);
    let mine = |i| wanted.clone().filter(move |sec| shared.shard_of(*sec) == i);
    if wanted.len() > shared.per_shard
        && (0..shared.shards.len()).any(|i| mine(i).count() > shared.per_shard)
    {
        // One sector-sorted backing write (a stable sort keeps
        // duplicate-sector order, so last-wins is preserved — chunks
        // land in order, so it survives the split too).
        let mut batch: Vec<(i64, &Bytes)> = pairs.iter().collect();
        batch.sort_by_key(|(sec, _)| *sec);
        write_back_chunked(shared, batch.into_iter())?;
        refresh_clean(shared, pairs.iter());
    } else {
        make_room(shared, wanted)?;
        for (sec, data) in pairs.iter() {
            insert_line(shared, sec, data, true)?;
        }
    }
    Ok(Value::Int(pairs.len() as i64))
}

fn cache_flush(shared: &CacheShared) -> ObjResult<Value> {
    // Snapshot every dirty line (without clearing — lines are marked
    // clean only after the backing write succeeds), one shard at a time.
    let mut dirty: Vec<(i64, Bytes, u64)> = Vec::new();
    for lock in &shared.shards {
        dirty.extend(lock.lock().all_dirty());
    }
    if dirty.is_empty() {
        return Ok(Value::Int(0));
    }
    // Elevator order, chunked to the backing's atomic-write limit: a
    // journal below takes each chunk as one log transaction, so a flush
    // of more dirty lines than its log can hold in a single record
    // still drains completely. Lines are marked clean per landed chunk,
    // so a failure mid-flush leaves exactly the unwritten lines dirty
    // for the retry.
    dirty.sort_unstable_by_key(|(sec, _, _)| *sec);
    for chunk in dirty.chunks(shared.write_limit) {
        write_back_chunked(shared, chunk.iter().map(|(sec, data, _)| (*sec, data)))?;
        for (sec, _, version) in chunk {
            // Clean bits only now that the write succeeded, attributing
            // the writeback to the shard that owned the line.
            let mut sh = shared.shard(*sec);
            sh.mark_clean_if_unchanged(*sec, *version);
            sh.writebacks += 1;
        }
    }
    Ok(Value::Int(dirty.len() as i64))
}

/// Builds a block cache of `capacity` total sectors over `backing`,
/// sharded `shards` ways by sector — the implementation behind
/// [`crate::StackBuilder`]'s cache layer. The shard count is rounded up
/// to the next power of two so routing a sector to its shard is a mask
/// rather than a division; capacity is split evenly across shards
/// (rounded up, so every shard holds at least one line).
///
/// Each shard sits behind its own lock, so concurrent clients — e.g. the
/// worlds of a world pool running on separate OS threads — proceed in
/// parallel whenever they touch different shards;
/// nothing in the cache takes a global lock.
///
/// The cache exports:
/// - the full `blockdev` interface (drop-in for the driver; the
///   [crate docs](crate) list every method). Durability methods flush
///   the cache's own dirty lines *before* forwarding down — the order
///   matters: a journal checkpoint below must see these writes in its
///   log before it truncates, or "flushed" data would survive only in
///   cache memory. A `commit` is written through as one batch
///   (transaction data never becomes cache lines) and refreshes the
///   resident copies of the sectors it wrote.
/// - a `cache` interface:
///   - `stats() -> [hits, misses, writebacks, resident]` (aggregated),
///   - `shard_stats() -> list of per-shard [hits, misses, writebacks, resident]`,
///   - `shards() -> int`,
///   - `flush() -> int` (write-backs performed, batched in elevator order).
pub(crate) fn build_sharded_block_cache(backing: ObjRef, capacity: usize, shards: usize) -> ObjRef {
    let nshards = shards.max(1).next_power_of_two();
    let per_shard = capacity.max(1).div_ceil(nshards);
    // One build-time probe (not per flush, so invocation-counting tests
    // and benches see only the writebacks themselves): a backing that
    // does not export `write_limit` takes unbounded batches.
    let write_limit = backing
        .invoke("blockdev", "write_limit", &[])
        .ok()
        .and_then(|v| v.as_int().ok())
        .filter(|&n| n > 0)
        .map(|n| n as usize)
        .unwrap_or(usize::MAX);
    let shared = Arc::new(CacheShared {
        backing,
        shards: (0..nshards)
            .map(|_| TryLock::new(Shard::new(per_shard)))
            .collect(),
        shard_mask: nshards as u64 - 1,
        per_shard,
        write_limit,
        total_sectors: OnceLock::new(),
    });
    let blockdev = {
        let s_read = shared.clone();
        let s_write = shared.clone();
        let s_read_many = shared.clone();
        let s_write_many = shared.clone();
        let s_bd_flush = shared.clone();
        let s_bd_barrier = shared.clone();
        let s_check = shared.clone();
        let s_commit = shared.clone();
        let i = InterfaceBuilder::new("blockdev")
            .method("read", &[TypeTag::Int], TypeTag::Bytes, move |_, args| {
                cache_read(&s_read, args[0].as_int()?)
            })
            .method(
                "write",
                &[TypeTag::Int, TypeTag::Bytes],
                TypeTag::Unit,
                move |_, args| {
                    let sector = args[0].as_int()?;
                    let incoming = args[1].as_bytes()?;
                    if incoming.len() != SECTOR_SIZE {
                        return Err(ObjError::failed(format!(
                            "sector writes must be exactly {SECTOR_SIZE} bytes"
                        )));
                    }
                    s_write.check_writable_sector(sector)?;
                    insert_line(&s_write, sector, incoming, true)?;
                    Ok(Value::Unit)
                },
            )
            .method(
                "read_many",
                &[TypeTag::List],
                TypeTag::List,
                move |_, args| cache_read_many(&s_read_many, args[0].as_list()?),
            )
            .method(
                "write_many",
                &[TypeTag::List],
                TypeTag::Int,
                move |_, args| {
                    let pairs = view_pairs(&args[0])?;
                    // Validate the whole batch before caching any of it,
                    // matching the driver's no-partial-effects contract.
                    for (sector, _) in pairs.iter() {
                        s_write_many.check_writable_sector(sector)?;
                    }
                    cache_write_many(&s_write_many, pairs)
                },
            )
            .method("flush", &[], TypeTag::Int, move |_, _| {
                // Own dirty lines first, then the layer below — a
                // journal checkpoint must find these writes in its log
                // before it truncates (see the builder docs).
                let own = cache_flush(&s_bd_flush)?.as_int()?;
                let below = s_bd_flush
                    .backing
                    .invoke("blockdev", "flush", &[])?
                    .as_int()?;
                Ok(Value::Int(own + below))
            })
            .method("barrier", &[], TypeTag::Unit, move |_, _| {
                // Same ordering as flush: acknowledged writes living as
                // dirty lines must reach the backing store before the
                // barrier below makes "everything so far" durable.
                cache_flush(&s_bd_barrier)?;
                s_bd_barrier.backing.invoke("blockdev", "barrier", &[])
            });
        // A commit is one *un-split* write-through: atomic and
        // durable-by-return under a journal, which a writeback chunked to
        // `write_limit` would not be. Transaction data never becomes a
        // cache line; lines already resident are refreshed.
        txn_verbs(
            i,
            move |_, sector| s_check.check_writable_sector(sector),
            move |_, writes| {
                s_commit.backing.invoke(
                    "blockdev",
                    "write_many",
                    &[pairs_arg(writes.iter().cloned())],
                )?;
                refresh_clean(&s_commit, writes.iter().map(|(sec, data)| (*sec, data)));
                Ok(())
            },
        )
        .finish()
    };
    ObjectBuilder::new("block-cache")
        // What the cache does not reimplement (`sectors`, `stats`,
        // `write_limit`, ...) is the backing store's to answer.
        .raw_interface(delegate_interface(blockdev, shared.backing.clone()))
        .interface("cache", move |i| {
            let s_stats = shared.clone();
            let s_shard_stats = shared.clone();
            let s_shards = shared.clone();
            let s_flush = shared.clone();
            i.method("stats", &[], TypeTag::List, move |_, _| {
                let (mut hits, mut misses, mut wb, mut resident) = (0u64, 0u64, 0u64, 0usize);
                for lock in &s_stats.shards {
                    let sh = lock.lock();
                    hits += sh.hits;
                    misses += sh.misses;
                    wb += sh.writebacks;
                    resident += sh.len();
                }
                Ok(Value::List(vec![
                    Value::Int(hits as i64),
                    Value::Int(misses as i64),
                    Value::Int(wb as i64),
                    Value::Int(resident as i64),
                ]))
            })
            .method("shard_stats", &[], TypeTag::List, move |_, _| {
                Ok(Value::List(
                    s_shard_stats
                        .shards
                        .iter()
                        .map(|lock| {
                            let sh = lock.lock();
                            Value::List(vec![
                                Value::Int(sh.hits as i64),
                                Value::Int(sh.misses as i64),
                                Value::Int(sh.writebacks as i64),
                                Value::Int(sh.len() as i64),
                            ])
                        })
                        .collect(),
                ))
            })
            .method("shards", &[], TypeTag::Int, move |_, _| {
                Ok(Value::Int(s_shards.shards.len() as i64))
            })
            .method("flush", &[], TypeTag::Int, move |_, _| {
                cache_flush(&s_flush)
            })
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackBuilder;
    use paramecium_core::{domain::KERNEL_DOMAIN, memsvc::MemService};
    use paramecium_machine::dev::disk::SECTOR_TRANSFER_COST;
    use paramecium_machine::Machine;
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn setup(capacity: usize) -> (Arc<MemService>, ObjRef, ObjRef) {
        setup_sharded(capacity, 1)
    }

    fn setup_sharded(capacity: usize, shards: usize) -> (Arc<MemService>, ObjRef, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .sharded_cache(capacity, shards)
            .build()
            .unwrap();
        (mem, stack.driver, stack.top)
    }

    fn sector_of(byte: u8) -> Value {
        Value::Bytes(bytes::Bytes::from(vec![byte; SECTOR_SIZE]))
    }

    fn cache_stats(cache: &ObjRef) -> Vec<i64> {
        cache
            .invoke("cache", "stats", &[])
            .unwrap()
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn hot_reads_skip_the_disk() {
        let (mem, _driver, cache) = setup(8);
        cache
            .invoke("blockdev", "write", &[Value::Int(3), sector_of(7)])
            .unwrap();
        // First read: served from the (write-allocated) cache line.
        let t0 = mem.machine().lock().now();
        for _ in 0..10 {
            let v = cache.invoke("blockdev", "read", &[Value::Int(3)]).unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 7);
        }
        // Ten hot reads cost less than one disk transfer.
        assert!(mem.machine().lock().now() - t0 < SECTOR_TRANSFER_COST);
        let s = cache_stats(&cache);
        assert_eq!(s[0], 10); // 10 read hits.
        assert_eq!(s[1], 1); // The initial write-allocate miss.
    }

    #[test]
    fn writeback_happens_on_eviction_only() {
        let (_mem, driver, cache) = setup(2);
        for sec in 0..2i64 {
            cache
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(sec as u8)],
                )
                .unwrap();
        }
        // Nothing on disk yet: write-back cache.
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(dstats.as_list().unwrap()[1], Value::Int(0));
        // Third write evicts the LRU line (sector 0) to disk. The eviction
        // coalesces the other dirty line (sector 1) into the same batch.
        cache
            .invoke("blockdev", "write", &[Value::Int(2), sector_of(2)])
            .unwrap();
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(dstats.as_list().unwrap()[1], Value::Int(2));
        // And the evicted data is really there.
        let v = driver.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0);
        // Sector 1 was written back too but stays resident (now clean), so
        // a second eviction round does not rewrite it.
        let v = driver.invoke("blockdev", "read", &[Value::Int(1)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 1);
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        let (_mem, _driver, cache) = setup(2);
        cache
            .invoke("blockdev", "write", &[Value::Int(0), sector_of(0)])
            .unwrap();
        cache
            .invoke("blockdev", "write", &[Value::Int(1), sector_of(1)])
            .unwrap();
        // Touch 0 so 1 becomes LRU.
        cache.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
        cache
            .invoke("blockdev", "write", &[Value::Int(2), sector_of(2)])
            .unwrap();
        // 0 still resident (hit), 1 evicted (miss).
        let before = cache_stats(&cache);
        cache.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
        let after_hit = cache_stats(&cache);
        assert_eq!(after_hit[0], before[0] + 1);
        cache.invoke("blockdev", "read", &[Value::Int(1)]).unwrap();
        let after_miss = cache_stats(&cache);
        assert_eq!(after_miss[1], after_hit[1] + 1);
    }

    #[test]
    fn flush_writes_all_dirty_lines() {
        let (_mem, driver, cache) = setup(8);
        for sec in 0..5i64 {
            cache
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(0xC0 + sec as u8)],
                )
                .unwrap();
        }
        let flushed = cache.invoke("cache", "flush", &[]).unwrap();
        assert_eq!(flushed, Value::Int(5));
        for sec in 0..5i64 {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0xC0 + sec as u8);
        }
        // Second flush is a no-op.
        assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(0));
    }

    #[test]
    fn flush_batches_into_one_backing_invocation() {
        let (_mem, driver, cache) = setup(512);
        for sec in 0..256i64 {
            cache
                .invoke("blockdev", "write", &[Value::Int(sec), sector_of(1)])
                .unwrap();
        }
        let before = driver.invocation_count();
        assert_eq!(
            cache.invoke("cache", "flush", &[]).unwrap(),
            Value::Int(256)
        );
        // 256 dirty sectors, ONE vectorized backing call.
        assert_eq!(driver.invocation_count() - before, 1);
    }

    #[test]
    fn caches_stack_like_any_blockdev() {
        let (_mem, _driver, l2) = setup(16);
        let l1 = StackBuilder::on(l2.clone()).cache(4).build().unwrap().top;
        l1.invoke("blockdev", "write", &[Value::Int(9), sector_of(0x99)])
            .unwrap();
        let v = l1.invoke("blockdev", "read", &[Value::Int(9)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x99);
        // Vectorized ops stack too (L1 eviction/flush land in L2 batched).
        l1.invoke("cache", "flush", &[]).unwrap();
        let v = l2.invoke("blockdev", "read", &[Value::Int(9)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x99);
    }

    #[test]
    fn read_through_miss_populates_from_disk() {
        let (_mem, driver, cache) = setup(4);
        driver
            .invoke("blockdev", "write", &[Value::Int(7), sector_of(0x42)])
            .unwrap();
        let v = cache.invoke("blockdev", "read", &[Value::Int(7)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x42);
        // Now it hits.
        cache.invoke("blockdev", "read", &[Value::Int(7)]).unwrap();
        let s = cache_stats(&cache);
        assert_eq!(s[0], 1);
        assert_eq!(s[1], 1);
    }

    #[test]
    fn capacity_is_never_exceeded_even_transiently() {
        // Evict-before-insert: drive a working set far over capacity and
        // check residency after every single operation.
        for shards in [1usize, 4] {
            let (_mem, _driver, cache) = setup_sharded(8, shards);
            for round in 0..3 {
                for sec in 0..32i64 {
                    cache
                        .invoke(
                            "blockdev",
                            "write",
                            &[Value::Int(sec), sector_of(round as u8)],
                        )
                        .unwrap();
                    let resident = cache_stats(&cache)[3];
                    assert!(
                        resident <= 8,
                        "resident {resident} exceeds capacity 8 (shards={shards})"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_cache_spreads_lines_and_aggregates_stats() {
        let (_mem, _driver, cache) = setup_sharded(16, 4);
        assert_eq!(cache.invoke("cache", "shards", &[]).unwrap(), Value::Int(4));
        for sec in 0..8i64 {
            cache
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(sec as u8)],
                )
                .unwrap();
        }
        // 8 sectors round-robin over 4 shards: two lines per shard.
        let per_shard = cache.invoke("cache", "shard_stats", &[]).unwrap();
        let per_shard = per_shard.as_list().unwrap();
        assert_eq!(per_shard.len(), 4);
        for sh in per_shard {
            let sh = sh.as_list().unwrap();
            assert_eq!(sh[3], Value::Int(2), "each shard holds 2 lines");
        }
        let s = cache_stats(&cache);
        assert_eq!(s[1], 8, "aggregated misses");
        assert_eq!(s[3], 8, "aggregated resident");
        // Hits land in the right shard and still aggregate.
        for sec in 0..8i64 {
            let v = cache
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], sec as u8);
        }
        assert_eq!(cache_stats(&cache)[0], 8);
    }

    #[test]
    fn vectorized_reads_hit_and_batch_fill() {
        let (_mem, driver, cache) = setup(16);
        for sec in 0..6i64 {
            driver
                .invoke(
                    "blockdev",
                    "write",
                    &[Value::Int(sec), sector_of(0x10 + sec as u8)],
                )
                .unwrap();
        }
        // Warm two of six.
        cache.invoke("blockdev", "read", &[Value::Int(1)]).unwrap();
        cache.invoke("blockdev", "read", &[Value::Int(4)]).unwrap();
        let before = driver.invocation_count();
        let out = cache
            .invoke(
                "blockdev",
                "read_many",
                &[sectors_arg([5, 1, 0, 4, 2, 3, 1])],
            )
            .unwrap();
        let out = out.as_list().unwrap();
        assert_eq!(out.len(), 7);
        for (v, sec) in out.iter().zip([5i64, 1, 0, 4, 2, 3, 1]) {
            assert_eq!(v.as_bytes().unwrap()[0], 0x10 + sec as u8);
        }
        // The four distinct misses were fetched in ONE backing call.
        assert_eq!(driver.invocation_count() - before, 1);
        // Everything resident now: a repeat is pure hits, zero backing.
        let before = driver.invocation_count();
        cache
            .invoke("blockdev", "read_many", &[sectors_arg(0..6)])
            .unwrap();
        assert_eq!(driver.invocation_count(), before);
    }

    #[test]
    fn vectorized_writes_populate_dirty_lines() {
        let (_mem, driver, cache) = setup(16);
        let pairs: Vec<(i64, Bytes)> = (0..5i64)
            .map(|sec| (sec, Bytes::from(vec![0xA0 + sec as u8; SECTOR_SIZE])))
            .collect();
        let n = cache
            .invoke("blockdev", "write_many", &[pairs_arg(pairs)])
            .unwrap();
        assert_eq!(n, Value::Int(5));
        // Write-back: nothing on disk until flush.
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(dstats.as_list().unwrap()[1], Value::Int(0));
        cache.invoke("cache", "flush", &[]).unwrap();
        for sec in 0..5i64 {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0xA0 + sec as u8);
        }
    }

    #[test]
    fn unwritable_sectors_are_rejected_before_caching() {
        // A sector the backing store can never write must not become a
        // dirty line: it would poison every later all-or-nothing
        // writeback batch and wedge flush forever.
        let (_mem, driver, cache) = setup(8);
        let total = driver
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert!(cache
            .invoke("blockdev", "write", &[Value::Int(-1), sector_of(1)])
            .is_err());
        assert!(cache
            .invoke("blockdev", "write", &[Value::Int(total), sector_of(1)])
            .is_err());
        // A batch containing one bad pair caches nothing.
        let good = bytes::Bytes::from(vec![1u8; SECTOR_SIZE]);
        assert!(cache
            .invoke(
                "blockdev",
                "write_many",
                &[pairs_arg([(0, good.clone()), (total, good)])]
            )
            .is_err());
        assert_eq!(cache_stats(&cache)[3], 0, "nothing resident");
        // The cache still works: a valid write and flush succeed.
        cache
            .invoke("blockdev", "write", &[Value::Int(0), sector_of(3)])
            .unwrap();
        assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(1));
    }

    #[test]
    fn blockdev_flush_and_barrier_drain_dirty_lines_first() {
        let (_mem, driver, cache) = setup(8);
        cache
            .invoke("blockdev", "write", &[Value::Int(1), sector_of(0xF1)])
            .unwrap();
        // blockdev flush = own dirty lines + whatever the layer below
        // homes (the bare driver homes nothing).
        let flushed = cache
            .invoke("blockdev", "flush", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(flushed, 1);
        let v = driver.invoke("blockdev", "read", &[Value::Int(1)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xF1);
        // Barrier also pushes acknowledged writes down before ordering.
        cache
            .invoke("blockdev", "write", &[Value::Int(2), sector_of(0xF2)])
            .unwrap();
        cache.invoke("blockdev", "barrier", &[]).unwrap();
        let v = driver.invoke("blockdev", "read", &[Value::Int(2)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0xF2);
    }

    #[test]
    fn commit_writes_through_and_refreshes_resident_lines() {
        use crate::vectored::{txn_arg, txn_write_args};
        // Whatever the cache held for sector 4 before the commit — a
        // dirty line (regression: the stale line kept answering, and the
        // next flush wrote it over the committed data), a clean line, or
        // nothing — afterwards the cache and, once flushed, the driver
        // both answer with the committed bytes, and transaction data
        // never becomes a cache line of its own.
        for (before, resident_after) in [("dirty", 1), ("clean", 1), ("absent", 0)] {
            let (_mem, driver, cache) = setup(8);
            match before {
                "dirty" => {
                    cache
                        .invoke("blockdev", "write", &[Value::Int(4), sector_of(0x11)])
                        .unwrap();
                }
                "clean" => {
                    cache.invoke("blockdev", "read", &[Value::Int(4)]).unwrap();
                }
                _ => {}
            }
            let txn = cache
                .invoke("blockdev", "begin_txn", &[])
                .unwrap()
                .as_int()
                .unwrap();
            cache
                .invoke(
                    "blockdev",
                    "txn_write",
                    &txn_write_args(txn, 4, Bytes::from(vec![0x44; SECTOR_SIZE])),
                )
                .unwrap();
            cache.invoke("blockdev", "commit", &txn_arg(txn)).unwrap();
            assert_eq!(cache_stats(&cache)[3], resident_after, "{before}");
            let v = cache.invoke("blockdev", "read", &[Value::Int(4)]).unwrap();
            assert_eq!(
                v.as_bytes().unwrap()[0],
                0x44,
                "{before}: through the cache"
            );
            // The commit itself reached the driver, and no stale dirty
            // line is left to be written over it.
            assert_eq!(
                cache.invoke("blockdev", "flush", &[]).unwrap(),
                Value::Int(0)
            );
            let v = driver.invoke("blockdev", "read", &[Value::Int(4)]).unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0x44, "{before}: on the driver");
        }
    }

    /// 10 dirty lines over an 8-sector journal (6-sector transaction
    /// limit) somewhere below `top`: the flush must split into two
    /// journal transactions instead of failing one oversized one.
    fn assert_flush_chunks_to_write_limit(top: &ObjRef, journal: &ObjRef, driver: &ObjRef) {
        assert_eq!(
            top.invoke("blockdev", "write_limit", &[]).unwrap(),
            Value::Int(6)
        );
        for sec in 0..10i64 {
            top.invoke(
                "blockdev",
                "write",
                &[Value::Int(sec), sector_of(0x90 + sec as u8)],
            )
            .unwrap();
        }
        assert_eq!(top.invoke("cache", "flush", &[]).unwrap(), Value::Int(10));
        let s = journal.invoke("journal", "stats", &[]).unwrap();
        let s = s.as_list().unwrap();
        assert_eq!(s[0], Value::Int(2), "two chunked commits");
        // Nothing left dirty, and a full-stack flush homes everything.
        assert_eq!(top.invoke("cache", "flush", &[]).unwrap(), Value::Int(0));
        top.invoke("blockdev", "flush", &[]).unwrap();
        for sec in 0..10i64 {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            assert_eq!(v.as_bytes().unwrap()[0], 0x90 + sec as u8);
        }
    }

    #[test]
    fn flush_chunks_to_the_backing_write_limit() {
        // Regression: flush used to send every dirty line as ONE
        // write_many. Under a journal that is a single log transaction,
        // so any dirty set larger than the log's capacity failed — and
        // since failed flushes leave lines dirty, durability wedged
        // permanently. The cache must chunk to the probed write_limit.
        use crate::JournalConfig;
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(JournalConfig { log_sectors: 8 })
            .cache(16)
            .build()
            .unwrap();
        let journal = stack.journal.as_ref().unwrap();
        assert_flush_chunks_to_write_limit(&stack.top, journal, &stack.driver);
    }

    #[test]
    fn write_limit_reaches_the_cache_through_a_layer_that_never_heard_of_it() {
        // Regression: retry listed the `blockdev` methods it passed
        // through, `write_limit` was not on the list, so a cache above
        // retry-over-journal probed "unbounded" and its flush failed on
        // every attempt. Forwarding "the rest" cannot go stale that way.
        use crate::{make_retry, mount_journal, JournalConfig, RetryConfig};
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine.clone()));
        let driver = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top;
        let journal = mount_journal(driver.clone(), JournalConfig { log_sectors: 8 }).unwrap();
        let retry = make_retry(machine, journal.clone(), RetryConfig::default());
        assert_eq!(
            retry.invoke("blockdev", "write_limit", &[]).unwrap(),
            Value::Int(6)
        );
        let cache = StackBuilder::on(retry).cache(16).build().unwrap().top;
        assert_flush_chunks_to_write_limit(&cache, &journal, &driver);
    }

    #[test]
    fn eviction_coalesces_cold_dirty_lines() {
        // Capacity 4, all dirty; one more write evicts the LRU victim and
        // takes the other dirty lines (≤ batch limit) with it in a single
        // backing invocation.
        let (_mem, driver, cache) = setup(4);
        for sec in 0..4i64 {
            cache
                .invoke("blockdev", "write", &[Value::Int(sec), sector_of(9)])
                .unwrap();
        }
        let before = driver.invocation_count();
        cache
            .invoke("blockdev", "write", &[Value::Int(4), sector_of(9)])
            .unwrap();
        assert_eq!(
            driver.invocation_count() - before,
            1,
            "victim + coalesced extras must share one backing call"
        );
        let dstats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(
            dstats.as_list().unwrap()[1],
            Value::Int(4),
            "all four dirty lines written in the batch"
        );
        // The survivors are clean now: flush has nothing left but the
        // newly written sector 4.
        assert_eq!(cache.invoke("cache", "flush", &[]).unwrap(), Value::Int(1));
    }
}
