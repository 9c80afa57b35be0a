//! Wire helpers for the vectorized and transactional `blockdev`
//! operations.
//!
//! `read_many` takes a list of sector numbers and returns a list of
//! sector payloads in request order; `write_many` takes one flat list,
//! `[sector, data, sector, data, …]`. The transaction verbs use a typed
//! triple (`txn_write(txn, sector, data)`) and a bare transaction handle
//! (`commit(txn)` / `abort(txn)`). Both sides of the interface (the disk
//! driver, the journal, the block cache, interposers and tests) build
//! and parse those values through these helpers so the encoding cannot
//! drift — no call site hand-rolls argument packing, and this is the
//! only module that knows the wire form. The transaction verbs
//! themselves are written here once too ([`txn_verbs`]): a layer
//! supplies its sector check and its batch write and gets the four
//! methods.
//!
//! A write batch crosses several objects on its way to the platter, so
//! a layer reads it in place: [`view_pairs`] validates the whole list
//! once and lends out `(sector, &data)` pairs, with no intermediate
//! vector and no reference-count traffic. [`parse_pairs`] is for the one
//! layer that keeps the batch (the journal's commit queue).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use paramecium_machine::dev::disk::SECTOR_SIZE;
use paramecium_obj::{InterfaceBuilder, ObjError, ObjRef, ObjResult, TypeTag, Value};

/// Builds the `read_many` argument from sector numbers.
pub fn sectors_arg(sectors: impl IntoIterator<Item = i64>) -> Value {
    Value::List(sectors.into_iter().map(Value::Int).collect())
}

/// Parses the `read_many` argument, rejecting negative sectors.
pub fn parse_sectors(v: &Value) -> ObjResult<Vec<i64>> {
    v.as_list()?
        .iter()
        .map(|s| {
            let sec = s.as_int()?;
            if sec < 0 {
                return Err(ObjError::failed("negative sector"));
            }
            Ok(sec)
        })
        .collect()
}

/// Builds the `write_many` argument from `(sector, data)` pairs.
pub fn pairs_arg(pairs: impl IntoIterator<Item = (i64, Bytes)>) -> Value {
    let pairs = pairs.into_iter();
    let mut flat = Vec::with_capacity(2 * pairs.size_hint().0);
    for (sec, data) in pairs {
        flat.push(Value::Int(sec));
        flat.push(Value::Bytes(data));
    }
    Value::List(flat)
}

/// A validated `write_many` argument, read where it lies.
#[derive(Clone, Copy)]
pub struct Pairs<'a>(&'a [Value]);

/// Validates the `write_many` argument — the whole batch, before the
/// caller applies any of it — rejecting a list that is not sector/data
/// pairs, negative sectors and payloads that are not exactly one sector.
pub fn view_pairs(v: &Value) -> ObjResult<Pairs<'_>> {
    let flat = v.as_list()?;
    if flat.len() % 2 != 0 {
        return Err(ObjError::failed("write_many expects sector, data pairs"));
    }
    for pair in flat.chunks_exact(2) {
        check_write(pair[0].as_int()?, pair[1].as_bytes()?)?;
    }
    Ok(Pairs(flat))
}

/// What every write must satisfy before a layer looks at it: a sector
/// number that is not negative and a payload of exactly one sector.
fn check_write(sector: i64, data: &Bytes) -> ObjResult<()> {
    if sector < 0 {
        return Err(ObjError::failed("negative sector"));
    }
    if data.len() != SECTOR_SIZE {
        return Err(ObjError::failed(format!(
            "sector writes must be exactly {SECTOR_SIZE} bytes, got {}",
            data.len()
        )));
    }
    Ok(())
}

impl<'a> Pairs<'a> {
    /// Pairs in the batch.
    pub fn len(&self) -> usize {
        self.0.len() / 2
    }

    /// Whether the batch holds no pair.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The pairs in batch order, borrowed from the argument.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (i64, &'a Bytes)> + Clone {
        self.0.chunks_exact(2).map(|pair| match pair {
            [Value::Int(sec), Value::Bytes(data)] => (*sec, data),
            _ => unreachable!("view_pairs checked every pair"),
        })
    }
}

/// Parses the `write_many` argument into a batch the caller owns, with
/// [`view_pairs`]' validation.
pub fn parse_pairs(v: &Value) -> ObjResult<Vec<(i64, Bytes)>> {
    let pairs = view_pairs(v)?.iter();
    Ok(pairs.map(|(sec, data)| (sec, data.clone())).collect())
}

/// Multiplicative hasher for sector numbers (Fibonacci mixing). Sector
/// keys are small trusted integers, so a sector-keyed map doesn't need
/// SipHash's flooding resistance — and on the cache's warmed hit path
/// the default hasher costs more than the rest of the lookup combined.
#[derive(Default)]
pub(crate) struct SectorHasher(u64);

impl Hasher for SectorHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
}

/// Every sector-keyed map in the crate.
pub(crate) type SectorMap<V> = HashMap<i64, V, BuildHasherDefault<SectorHasher>>;

/// Parameter signature of `txn_write(txn, sector, data)`, shared by
/// every layer that implements the method so the signatures cannot
/// diverge.
pub const TXN_WRITE_PARAMS: &[TypeTag] = &[TypeTag::Int, TypeTag::Int, TypeTag::Bytes];

/// Builds the `txn_write` argument vector.
pub fn txn_write_args(txn: i64, sector: i64, data: Bytes) -> [Value; 3] {
    [Value::Int(txn), Value::Int(sector), Value::Bytes(data)]
}

/// Parses the `txn_write` arguments, validating the sector number and
/// payload size exactly like [`parse_pairs`] does for `write_many`.
pub fn parse_txn_write(args: &[Value]) -> ObjResult<(i64, i64, Bytes)> {
    if args.len() != 3 {
        return Err(ObjError::failed("txn_write expects (txn, sector, data)"));
    }
    let txn = parse_txn(&args[0])?;
    let (sector, data) = (args[1].as_int()?, args[2].as_bytes()?);
    check_write(sector, data)?;
    Ok((txn, sector, data.clone()))
}

/// Builds the single-argument vector for `commit(txn)` / `abort(txn)`.
pub fn txn_arg(txn: i64) -> [Value; 1] {
    [Value::Int(txn)]
}

/// Parses a transaction handle, rejecting non-positive ids (handles are
/// allocated from 1 by `begin_txn`).
pub fn parse_txn(v: &Value) -> ObjResult<i64> {
    let txn = v.as_int()?;
    if txn <= 0 {
        return Err(ObjError::failed(format!("bad transaction handle {txn}")));
    }
    Ok(txn)
}

/// Most transactions one layer holds open at once. `begin_txn` refuses
/// past it, so a client that never commits or aborts cannot grow the
/// table without bound.
pub const MAX_OPEN_TXNS: usize = 64;

/// Open transactions of one layer: the handle allocator and each
/// handle's buffered writes, in `txn_write` order.
struct TxnTable {
    next: i64,
    open: HashMap<i64, Vec<(i64, Bytes)>>,
}

/// Adds `begin_txn`/`txn_write`/`commit`/`abort` to a layer's `blockdev`
/// interface. A transaction is a buffered batch: `txn_write` admits a
/// sector through the layer's `check`, and `commit` hands the whole
/// batch to `apply` — the function the layer's `write_many` runs — so a
/// commit is exactly as atomic and as durable as the layer's batch
/// write. The table's lock is never held across `check` or `apply`
/// (either may invoke the layer below).
pub(crate) fn txn_verbs(
    i: InterfaceBuilder,
    check: impl Fn(&ObjRef, i64) -> ObjResult<()> + Send + Sync + 'static,
    apply: impl Fn(&ObjRef, Vec<(i64, Bytes)>) -> ObjResult<()> + Send + Sync + 'static,
) -> InterfaceBuilder {
    fn no_txn(txn: i64) -> ObjError {
        ObjError::failed(format!("no open transaction {txn}"))
    }
    let table = Arc::new(Mutex::new(TxnTable {
        next: 1,
        open: HashMap::new(),
    }));
    let (t_begin, t_write, t_commit, t_abort) =
        (table.clone(), table.clone(), table.clone(), table);
    i.method("begin_txn", &[], TypeTag::Int, move |_, _| {
        let mut t = t_begin.lock();
        if t.open.len() >= MAX_OPEN_TXNS {
            return Err(ObjError::failed(format!(
                "too many open transactions (limit {MAX_OPEN_TXNS}): commit or abort one first"
            )));
        }
        let id = t.next;
        t.next += 1;
        t.open.insert(id, Vec::new());
        Ok(Value::Int(id))
    })
    .method(
        "txn_write",
        TXN_WRITE_PARAMS,
        TypeTag::Unit,
        move |this, args| {
            let (txn, sector, data) = parse_txn_write(args)?;
            check(this, sector)?;
            t_write
                .lock()
                .open
                .get_mut(&txn)
                .ok_or_else(|| no_txn(txn))?
                .push((sector, data));
            Ok(Value::Unit)
        },
    )
    .method(
        "commit",
        &[TypeTag::Int],
        TypeTag::Unit,
        move |this, args| {
            let txn = parse_txn(&args[0])?;
            let writes = t_commit
                .lock()
                .open
                .remove(&txn)
                .ok_or_else(|| no_txn(txn))?;
            if !writes.is_empty() {
                apply(this, writes)?;
            }
            Ok(Value::Unit)
        },
    )
    .method("abort", &[TypeTag::Int], TypeTag::Unit, move |_, args| {
        let txn = parse_txn(&args[0])?;
        t_abort
            .lock()
            .open
            .remove(&txn)
            .ok_or_else(|| no_txn(txn))?;
        Ok(Value::Unit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sectors_roundtrip() {
        let v = sectors_arg([3, 0, 7]);
        assert_eq!(parse_sectors(&v).unwrap(), vec![3, 0, 7]);
        assert!(parse_sectors(&sectors_arg([-1])).is_err());
        assert!(parse_sectors(&Value::Int(1)).is_err());
    }

    #[test]
    fn pairs_roundtrip_and_validate() {
        let data = Bytes::from(vec![7u8; SECTOR_SIZE]);
        let v = pairs_arg([(5, data.clone())]);
        // One flat list on the wire; the view lends what the parse copies.
        assert_eq!(v.as_list().unwrap().len(), 2);
        let parsed = parse_pairs(&v).unwrap();
        assert_eq!(parsed, vec![(5, data.clone())]);
        let view = view_pairs(&v).unwrap();
        assert_eq!((view.len(), view.is_empty()), (1, false));
        assert_eq!(view.iter().collect::<Vec<_>>(), vec![(5, &data)]);
        assert!(view_pairs(&pairs_arg([])).unwrap().is_empty());
        // Short payload, negative sector and malformed pairs all fail.
        assert!(parse_pairs(&pairs_arg([(0, Bytes::from_static(b"short"))])).is_err());
        assert!(parse_pairs(&pairs_arg([(-2, data.clone())])).is_err());
        assert!(parse_pairs(&Value::List(vec![Value::Int(1)])).is_err());
        assert!(parse_pairs(&Value::List(vec![Value::List(vec![Value::Int(1)])])).is_err());
    }

    #[test]
    fn txn_codec_roundtrip_and_validate() {
        let data = Bytes::from(vec![3u8; SECTOR_SIZE]);
        let args = txn_write_args(7, 12, data.clone());
        assert_eq!(parse_txn_write(&args).unwrap(), (7, 12, data.clone()));
        assert_eq!(parse_txn(&txn_arg(7)[0]).unwrap(), 7);
        // Bad handle, negative sector, short payload, wrong arity.
        assert!(parse_txn(&Value::Int(0)).is_err());
        assert!(parse_txn(&Value::Int(-3)).is_err());
        assert!(parse_txn_write(&txn_write_args(1, -1, data.clone())).is_err());
        assert!(parse_txn_write(&txn_write_args(1, 0, Bytes::from_static(b"x"))).is_err());
        assert!(parse_txn_write(&args[..2]).is_err());
    }

    #[test]
    fn open_transactions_are_bounded() {
        use paramecium_core::{domain::KERNEL_DOMAIN, memsvc::MemService};
        use paramecium_machine::Machine;
        let mem = Arc::new(MemService::new(Arc::new(Mutex::new(Machine::new()))));
        let dev = crate::StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .build()
            .unwrap()
            .top;
        let begin = || dev.invoke("blockdev", "begin_txn", &[]);
        let handles: Vec<Value> = (0..MAX_OPEN_TXNS).map(|_| begin().unwrap()).collect();
        let err = begin().unwrap_err().to_string();
        assert!(err.contains(&format!("limit {MAX_OPEN_TXNS}")), "{err}");
        // Closing any one makes room for exactly one more.
        dev.invoke("blockdev", "abort", &handles[7..8]).unwrap();
        begin().unwrap();
        assert!(begin().is_err());
    }
}
