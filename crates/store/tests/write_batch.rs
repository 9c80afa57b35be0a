//! The `write_many` batch, as every layer reads it.
//!
//! [`view_pairs`] (the one parse every layer applies a batch through)
//! must accept exactly the well-formed lists, and the owned copy a layer
//! keeps (`Pairs::to_vec`, the journal's commit queue) must hold what the
//! view lends — and a batch any layer rejects, by its form or by where
//! it points, must leave that layer and everything under it untouched:
//! no charge event, no disk write, no overlay entry, no cache line.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::prelude::*;

use paramecium_core::{domain::KERNEL_DOMAIN, memsvc::MemService};
use paramecium_machine::dev::disk::{Disk, SECTOR_SIZE};
use paramecium_machine::Machine;
use paramecium_obj::{ObjRef, Value};
use paramecium_store::vectored::view_pairs;
use paramecium_store::{JournalConfig, RetryConfig, StackBuilder, StoreStack};

fn payload(sec: i64, len: usize) -> Value {
    Value::Bytes(Bytes::from(vec![sec as u8 ^ 0xA5; len]))
}

/// Spoils the flat list `flat` at pair `at` in one of the ways a batch
/// can be wrong. Returns whether the codec still accepts it and whether
/// a layer still can.
fn spoil(flat: &mut Vec<Value>, defect: usize, at: usize) -> (bool, bool) {
    if flat.is_empty() {
        return (true, true);
    }
    let k = 2 * (at % (flat.len() / 2));
    match defect {
        // Duplicates and reorderings are legal: last writer wins.
        0 => flat.extend_from_within(k..k + 2),
        // Odd length: a sector without its data.
        1 => drop(flat.pop()),
        2 => drop(flat.remove(k)),
        // Wrong tags in either position.
        3 => flat[k] = payload(0, SECTOR_SIZE),
        4 => flat[k] = Value::Str("7".into()),
        5 => flat[k + 1] = Value::Int(7),
        // The form this one replaced: a list per pair.
        6 => {
            let pair = flat.drain(k..k + 2).collect();
            flat.insert(k, Value::List(pair));
        }
        7 => flat[k] = Value::Int(-1 - k as i64),
        8 => flat[k + 1] = payload(0, SECTOR_SIZE - 1),
        9 => flat[k + 1] = payload(0, SECTOR_SIZE + 1),
        // Well-formed, but past the end of any device here.
        _ => {
            flat[k] = Value::Int(1 << 40);
            return (true, false);
        }
    }
    (defect == 0, defect == 0)
}

struct Probe {
    mem: Arc<MemService>,
    stack: StoreStack,
}

impl Probe {
    fn new(build: fn(StackBuilder) -> StackBuilder) -> Self {
        let mem = Arc::new(MemService::new(Arc::new(Mutex::new(Machine::new()))));
        let stack = build(StackBuilder::disk(&mem, KERNEL_DOMAIN))
            .build()
            .unwrap();
        Probe { mem, stack }
    }

    /// Everything a partial effect would move, layer by layer.
    fn observe(&self) -> Vec<i64> {
        let stats = |o: Option<&ObjRef>, iface: &str| match o {
            Some(o) => o.invoke(iface, "stats", &[]).unwrap(),
            None => Value::List(Vec::new()),
        };
        let mut m = self.mem.machine().lock();
        let events = m.charge_events() as i64;
        let written = m.device_mut::<Disk>("disk").unwrap().write_count() as i64;
        drop(m);
        [
            Value::List(vec![Value::Int(events), Value::Int(written)]),
            stats(Some(&self.stack.driver), "blockdev"),
            stats(self.stack.journal.as_ref(), "journal"),
            stats(self.stack.cache.as_ref(), "cache"),
        ]
        .iter()
        .flat_map(|v| v.as_list().unwrap().iter())
        .map(|v| v.as_int().unwrap())
        .collect()
    }
}

proptest! {
    #[test]
    fn prop_view_and_parse_agree_and_a_rejected_batch_changes_nothing(
        sectors in proptest::collection::vec(0i64..48, 0..12),
        defect in 0usize..11,
        at in any::<usize>(),
    ) {
        let mut flat: Vec<Value> = sectors
            .iter()
            .flat_map(|&sec| [Value::Int(sec), payload(sec, SECTOR_SIZE)])
            .collect();
        let (well_formed, writable) = spoil(&mut flat, defect, at);
        let arg = Value::List(flat);

        let view = view_pairs(&arg);
        prop_assert_eq!(view.is_ok(), well_formed, "view: {:?}", view.as_ref().err());
        if let Ok(view) = view {
            let owned = view.to_vec();
            prop_assert_eq!((view.len(), view.is_empty()), (owned.len(), owned.is_empty()));
            prop_assert!(view.iter().eq(owned.iter().map(|(sec, d)| (*sec, d))));
        }

        let stacks: [fn(StackBuilder) -> StackBuilder; 4] = [
            |b| b,
            |b| b.retry(RetryConfig::default()).journal(JournalConfig::default()),
            |b| b.sharded_cache(8, 2),
            |b| b.journal(JournalConfig::default()).sharded_cache(8, 2),
        ];
        for (which, build) in stacks.into_iter().enumerate() {
            let probe = Probe::new(build);
            // Something resident, dirty and logged to disturb.
            let warm = [Value::Int(5), payload(5, SECTOR_SIZE)];
            probe.stack.top.invoke("blockdev", "write", &warm).unwrap();
            let before = probe.observe();
            let written = probe.stack.top.invoke("blockdev", "write_many", std::slice::from_ref(&arg));
            if writable {
                prop_assert_eq!(written.ok(), Some(Value::Int(arg.as_list().unwrap().len() as i64 / 2)));
            } else {
                prop_assert!(written.is_err(), "stack {} took a bad batch", which);
                prop_assert_eq!(probe.observe(), before, "stack {} after {:?}", which, written);
            }
        }
    }
}
