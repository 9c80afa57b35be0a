//! Wire helpers for the vectorized `blockdev` operations, and the data
//! path built from them.
//!
//! `read_many` takes a list of sector numbers and returns a list of
//! sector payloads in request order; `write_many` and `commit` take one
//! flat list, `[sector, data, sector, data, …]`. Both sides of the
//! interface (the disk driver, the journal, the block cache, interposers
//! and tests) build and parse those values through these helpers so the
//! encoding cannot drift — no call site hand-rolls argument packing, and
//! this is the only module that knows the wire form.
//!
//! The interface ([`BLOCKDEV`]) and its verbs are written here once too:
//! `blockdev_methods` makes the data path from a layer's read body and
//! write body.
//!
//! A write batch crosses several objects on its way to the platter, so
//! a layer reads it in place: [`view_pairs`] validates the whole list
//! once and lends out `(sector, &data)` pairs, with no intermediate
//! vector and no reference-count traffic; [`Pairs::to_vec`] is for a
//! caller that keeps the batch.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use bytes::Bytes;

use paramecium_machine::{dev::disk::SECTOR_SIZE, MachineError, MachineResult};
use paramecium_obj::{InterfaceBuilder, MethodSig, ObjError, ObjRef, ObjResult, TypeTag, Value};

/// The `blockdev` interface, sorted by name: its only declaration. Every
/// layer exports exactly this set; the [crate docs](crate) say what each
/// method does.
pub const BLOCKDEV: &[MethodSig] = &[
    MethodSig::new("barrier", &[], TypeTag::Unit),
    MethodSig::new("commit", &[TypeTag::List], TypeTag::Int),
    MethodSig::new("flush", &[], TypeTag::Int),
    MethodSig::new("read", &[TypeTag::Int], TypeTag::Bytes),
    MethodSig::new("read_many", &[TypeTag::List], TypeTag::List),
    MethodSig::new("sectors", &[], TypeTag::Int),
    MethodSig::new("stats", &[], TypeTag::List),
    MethodSig::new("write", &[TypeTag::Int, TypeTag::Bytes], TypeTag::Unit),
    MethodSig::new("write_limit", &[], TypeTag::Int),
    MethodSig::new("write_many", &[TypeTag::List], TypeTag::Int),
];

/// Builds the `read_many` argument from sector numbers.
pub fn sectors_arg(sectors: impl IntoIterator<Item = i64>) -> Value {
    Value::List(sectors.into_iter().map(Value::Int).collect())
}

/// What one read call asks for: `read`'s sector or `read_many`'s list,
/// checked by [`blockdev_methods`] to hold sectors that are not negative.
pub(crate) struct Reads<'a> {
    method: &'static str,
    args: &'a [Value],
    sectors: &'a [Value],
}

impl<'a> Reads<'a> {
    /// The sectors in request order, read where the caller holds them.
    pub(crate) fn sectors(&self) -> impl ExactSizeIterator<Item = i64> + Clone + 'a {
        self.sectors.iter().map(|s| match s {
            Value::Int(sec) => *sec,
            _ => unreachable!("blockdev_methods checked every sector"),
        })
    }

    /// Hands the caller's own call to `lower` as it arrived and moves the
    /// answer into `out`: a layer with nothing to change in a request
    /// adds no list of its own.
    pub(crate) fn forward(&self, lower: &ObjRef, out: &mut [Value]) -> ObjResult<()> {
        match (lower.invoke("blockdev", self.method, self.args)?, out) {
            (one @ Value::Bytes(_), [slot]) => {
                *slot = one;
                Ok(())
            }
            (got, out) => fill(out, got),
        }
    }
}

/// Moves the list a lower layer answered into the slots of `out` still
/// empty (`Unit`), in order — all of them for a forwarded request, the
/// misses for one a layer served in part.
pub(crate) fn fill(out: &mut [Value], got: Value) -> ObjResult<()> {
    let Value::List(got) = got else {
        return Err(ObjError::type_mismatch(TypeTag::List, got.tag()));
    };
    let empty = |slot: &&mut Value| matches!(slot, Value::Unit);
    if out.iter_mut().filter(empty).count() != got.len() {
        return Err(ObjError::failed("backing read_many returned a short batch"));
    }
    out.iter_mut()
        .filter(empty)
        .zip(got)
        .for_each(|(slot, v)| *slot = v);
    Ok(())
}

/// Starts a layer's `blockdev` ([`BLOCKDEV`]) with the data path from
/// one body per direction: `read` fills one `Unit` slot per
/// requested sector with its payload, `write` applies a batch. `read(s)`
/// is the read body over one sector and one slot on the stack, `write(s,
/// d)` the write body over its own arguments, already a one-pair flat
/// list — so a scalar call is observably a burst of one. `commit` is
/// `write_many` under the name that promises an atomic, durable batch; a
/// layer whose batch write keeps no such promise replaces it. A
/// malformed burst is rejected whole, before the body sees any of it.
pub(crate) fn blockdev_methods<R, W>(read: R, write: W) -> InterfaceBuilder
where
    R: Fn(&ObjRef, Reads<'_>, &mut [Value]) -> ObjResult<()> + Clone + Send + Sync + 'static,
    W: Fn(&ObjRef, Pairs<'_>) -> ObjResult<()> + Clone + Send + Sync + 'static,
{
    let mut i = InterfaceBuilder::declared("blockdev", BLOCKDEV);
    for method in ["read", "read_many"] {
        let read = read.clone();
        i = i.provide(method, move |this, args| {
            let sectors = match &args[0] {
                Value::List(list) => list.as_slice(),
                _ => args,
            };
            for s in sectors {
                match s {
                    Value::Int(sec) if *sec >= 0 => {}
                    Value::Int(_) => return Err(MachineError::NegativeSector.into()),
                    other => return Err(ObjError::type_mismatch(TypeTag::Int, other.tag())),
                }
            }
            let reads = Reads {
                method,
                args,
                sectors,
            };
            if let [Value::Int(_)] = args {
                let mut one = Value::Unit;
                read(this, reads, std::slice::from_mut(&mut one))?;
                return Ok(one);
            }
            let mut out = vec![Value::Unit; sectors.len()];
            read(this, reads, &mut out)?;
            Ok(Value::List(out))
        });
    }
    for method in ["write", "write_many", "commit"] {
        let write = write.clone();
        i = i.provide(method, move |this, args| {
            let [flat] = args else {
                check_write(args[0].as_int()?, args[1].as_bytes()?)?;
                write(this, Pairs(args))?;
                return Ok(Value::Unit);
            };
            let pairs = view_pairs(flat)?;
            write(this, pairs)?;
            Ok(Value::Int(pairs.len() as i64))
        });
    }
    i
}

/// Builds the `write_many` and `commit` argument from `(sector, data)`
/// pairs.
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

/// Refuses the first sector of `batch` outside `0..sectors`, the size of
/// the device or of the area a layer exposes.
pub(crate) fn check_sectors(batch: impl Iterator<Item = i64>, sectors: i64) -> MachineResult<()> {
    for sector in batch {
        if !(0..sectors).contains(&sector) {
            return Err(MachineError::SectorOutOfRange { sector, sectors });
        }
    }
    Ok(())
}

/// What every write must satisfy before a layer looks at it: a sector
/// number that is not negative and a payload of exactly one sector.
pub(crate) fn check_write(sector: i64, data: &Bytes) -> ObjResult<()> {
    if sector < 0 {
        return Err(MachineError::NegativeSector.into());
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

    /// The batch as one the caller owns.
    pub fn to_vec(&self) -> Vec<(i64, Bytes)> {
        self.iter().map(|(sec, data)| (sec, data.clone())).collect()
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sectors_roundtrip() {
        use paramecium_obj::ObjectBuilder;
        // A layer whose read body answers each sector with its number.
        let numbers = blockdev_methods(
            |_, reads, out| {
                for (sec, slot) in reads.sectors().zip(out) {
                    *slot = Value::Bytes(Bytes::from(vec![sec as u8]));
                }
                Ok(())
            },
            |_, _| Ok(()),
        );
        let dev = ObjectBuilder::new("numbers")
            .raw_interface(numbers.finish())
            .build();
        let read = |method, arg| dev.invoke("blockdev", method, &[arg]);
        let answer = |sec: u8| Value::Bytes(Bytes::from(vec![sec]));
        let got = read("read_many", sectors_arg([3, 0, 7])).unwrap();
        assert_eq!(got, Value::List(vec![answer(3), answer(0), answer(7)]));
        assert_eq!(read("read", Value::Int(5)).unwrap(), answer(5));
        // Negative sectors and non-sectors are refused, anywhere in a burst.
        assert!(read("read", Value::Int(-1)).is_err());
        assert!(read("read_many", sectors_arg([0, -1])).is_err());
        assert!(read("read_many", Value::List(vec![Value::Unit])).is_err());
        // Answers land in the empty slots, in order, and must be exactly
        // as many as those slots.
        let mut out = [Value::Int(9), Value::Unit, Value::Unit];
        fill(&mut out, Value::List(vec![Value::Int(1), Value::Int(2)])).unwrap();
        assert_eq!(out, [Value::Int(9), Value::Int(1), Value::Int(2)]);
        assert!(fill(&mut [Value::Unit], sectors_arg([])).is_err());
        assert!(fill(&mut [Value::Unit], sectors_arg([1, 2])).is_err());
        assert!(fill(&mut [Value::Unit], Value::Int(1)).is_err());
    }

    #[test]
    fn pairs_roundtrip_and_validate() {
        let data = Bytes::from(vec![7u8; SECTOR_SIZE]);
        let v = pairs_arg([(5, data.clone())]);
        // One flat list on the wire; the view lends what `to_vec` copies.
        assert_eq!(v.as_list().unwrap().len(), 2);
        let view = view_pairs(&v).unwrap();
        assert_eq!(view.to_vec(), vec![(5, data.clone())]);
        assert_eq!((view.len(), view.is_empty()), (1, false));
        assert_eq!(view.iter().collect::<Vec<_>>(), vec![(5, &data)]);
        assert!(view_pairs(&pairs_arg([])).unwrap().is_empty());
        // Short payload, negative sector and malformed pairs all fail.
        assert!(view_pairs(&pairs_arg([(0, Bytes::from_static(b"short"))])).is_err());
        assert!(view_pairs(&pairs_arg([(-2, data.clone())])).is_err());
        assert!(view_pairs(&Value::List(vec![Value::Int(1)])).is_err());
        assert!(view_pairs(&Value::List(vec![Value::List(vec![Value::Int(1)])])).is_err());
    }
}
