//! The disk driver object — the bottom layer of the store stack.
//!
//! Exports the full `blockdev` interface (the canonical method list
//! lives in the [crate docs](crate)): single-sector `read`/`write`, the
//! vectorized `read_many`/`write_many`, `sectors`/`stats`, and the
//! durability/transaction surface `flush`/`barrier`/`begin_txn`/
//! `txn_write`/`commit`/`abort`.
//!
//! Single-sector operations charge the full sector transfer cost — the
//! latency the shared cache exists to hide. The vectorized operations
//! charge the amortised [`batch_transfer_cost`]: one request setup, then
//! the streaming rate per additional sector — but charge it *per sector*
//! (setup on the first, streaming on the rest), so an injected power
//! failure ([`Machine::arm_crash_after`]) can land between any two
//! sectors of a batch. A crash mid-batch leaves the batch's prefix fully
//! written and the in-flight sector *torn* (half new, half old bytes) —
//! exactly the failure surface the `store::journal` layer's checksummed
//! records exist to survive.
//!
//! The driver's transaction verbs are **volatile**: `commit` applies the
//! buffered writes as one batch, atomic against validation errors but
//! *not* against power failure. Crash-atomic commit is the journal
//! layer's job; the driver implements the verbs so every layer of the
//! stack speaks the same `blockdev` interface and a journal can be
//! slotted in (or left out) without changing any client.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use paramecium_core::{domain::DomainId, memsvc::MemService, CoreResult};
use paramecium_machine::{
    dev::disk::{Disk, SECTOR_SIZE, SECTOR_STREAM_COST, SECTOR_TRANSFER_COST},
    io::IoSharing,
    machine::ChargeMeter,
    Machine, MachineError,
};
use paramecium_obj::{ObjError, ObjRef, ObjResult, ObjectBuilder, TypeTag, Value};

use crate::vectored::{parse_sectors, txn_verbs, view_pairs};

/// Bytes of a sector that still reach the platter when a power failure
/// interrupts its transfer: the torn-write model (half the sector).
const TORN_WRITE_PREFIX: usize = SECTOR_SIZE / 2;

/// Driver instance state.
struct DriverState {
    machine: Arc<Mutex<Machine>>,
    reads: u64,
    writes: u64,
}

impl DriverState {
    /// The driver's one write path — `write`, `write_many` and `commit`
    /// all hand it their batch, borrowed: refuse on a dead machine,
    /// validate every sector before anything is charged or written (no
    /// partial effects for invalid batches), then write, charging the
    /// amortised batch cost one sector at a time (request setup for the
    /// first, streaming rate for the rest) and checking for an injected
    /// power failure between charges. On a crash the in-flight sector is
    /// torn ([`TORN_WRITE_PREFIX`] bytes land) and the error surfaces;
    /// earlier sectors of the batch are fully durable.
    fn apply<'a>(
        &mut self,
        batch: impl ExactSizeIterator<Item = (i64, &'a Bytes)> + Clone,
    ) -> ObjResult<()> {
        let mut m = self.machine.lock();
        let (disk, meter) = powered_disk(&mut m)?;
        check_sectors(disk, batch.clone().map(|(sec, _)| sec))?;
        let sectors = batch.len() as u64;
        for (k, (sec, data)) in batch.enumerate() {
            charge_transfer(disk, meter, k);
            let data = data[..].try_into().expect("one validated sector");
            if meter.check_power().is_err() {
                // Power died during this sector's transfer: only a prefix
                // reaches the platter.
                disk.write_sector_prefix(sec as u64, data, TORN_WRITE_PREFIX)
                    .map_err(dev_err)?;
                return Err(dev_err(MachineError::PowerFailure));
            }
            disk.write_sector(sec as u64, data).map_err(dev_err)?;
        }
        self.writes += sectors;
        Ok(())
    }
}

/// Converts machine errors, keeping the power-failure case recognisable.
fn dev_err(e: MachineError) -> ObjError {
    ObjError::failed(e.to_string())
}

/// The disk and the charge meter in one borrow of the machine — found
/// once per request, not per sector. Fails (without charging) when the
/// machine has lost power.
fn powered_disk(m: &mut Machine) -> ObjResult<(&mut Disk, &mut ChargeMeter)> {
    m.check_power().map_err(dev_err)?;
    m.device_and_meter("disk")
        .ok_or_else(|| ObjError::failed("disk device missing"))
}

/// Charges the `k`-th sector transfer of a request — setup for the
/// first, streaming rate for the rest — plus whatever an injected
/// latency spike ([`Disk::inject_latency`]) adds.
fn charge_transfer(disk: &mut Disk, meter: &mut ChargeMeter, k: usize) {
    let cost = if k == 0 {
        SECTOR_TRANSFER_COST
    } else {
        SECTOR_STREAM_COST
    };
    meter.charge(cost + disk.take_op_latency());
}

/// Charges and performs the `k`-th sector read of a request: the sector
/// goes from the platter to its `Bytes` in one copy.
fn charged_read(disk: &mut Disk, meter: &mut ChargeMeter, k: usize, sec: i64) -> ObjResult<Value> {
    charge_transfer(disk, meter, k);
    meter.check_power().map_err(dev_err)?;
    let data = disk.read_sector(sec as u64).map_err(dev_err)?;
    Ok(Value::Bytes(Bytes::copy_from_slice(data)))
}

/// Rejects any of `sectors` outside the device bounds.
fn check_sectors(disk: &Disk, sectors: impl IntoIterator<Item = i64>) -> ObjResult<()> {
    let total = disk.sectors() as i64;
    for sec in sectors {
        if sec < 0 || sec >= total {
            return Err(ObjError::failed(format!(
                "sector {sec} out of range (device has {total})"
            )));
        }
    }
    Ok(())
}

/// Builds the disk driver for `domain`, claiming the disk's register
/// region exclusively. This is the layer [`crate::StackBuilder`] places
/// at the bottom of every stack; use the builder rather than calling
/// this directly.
pub(crate) fn build_disk_driver(mem: &Arc<MemService>, domain: DomainId) -> CoreResult<ObjRef> {
    // Reuse the device's regions if a previous driver allocated them, so
    // exclusivity is genuinely contended.
    let existing = {
        let machine = mem.machine().clone();
        let m = machine.lock();
        m.io.regions_of("disk").iter().map(|r| r.id).next()
    };
    let regs = match existing {
        Some(id) => id,
        None => mem.io_allocate("disk", 0x10, IoSharing::Exclusive)?,
    };
    mem.io_claim(domain, regs)?;

    Ok(ObjectBuilder::new("disk-driver")
        .state(DriverState {
            machine: mem.machine().clone(),
            reads: 0,
            writes: 0,
        })
        .interface("blockdev", |i| {
            // Transaction surface (volatile: see the module docs).
            let i = txn_verbs(
                i,
                |this, sector| {
                    this.with_state(|s: &mut DriverState| {
                        check_sectors(powered_disk(&mut s.machine.lock())?.0, [sector])
                    })
                },
                |this, writes| {
                    let batch = writes.iter().map(|(sec, data)| (*sec, data));
                    this.with_state(|s: &mut DriverState| s.apply(batch))
                },
            );
            i.method("read", &[TypeTag::Int], TypeTag::Bytes, |this, args| {
                let sector = args[0].as_int()?;
                if sector < 0 {
                    return Err(ObjError::failed("negative sector"));
                }
                this.with_state(|s: &mut DriverState| {
                    let mut m = s.machine.lock();
                    let (disk, meter) = powered_disk(&mut m)?;
                    let data = charged_read(disk, meter, 0, sector)?;
                    s.reads += 1;
                    Ok(data)
                })
            })
            .method(
                "write",
                &[TypeTag::Int, TypeTag::Bytes],
                TypeTag::Unit,
                |this, args| {
                    let sector = args[0].as_int()?;
                    let data = args[1].as_bytes()?;
                    if sector < 0 {
                        return Err(ObjError::failed("negative sector"));
                    }
                    if data.len() != SECTOR_SIZE {
                        return Err(ObjError::failed(format!(
                            "sector writes must be exactly {SECTOR_SIZE} bytes, got {}",
                            data.len()
                        )));
                    }
                    this.with_state(|s: &mut DriverState| s.apply([(sector, data)].into_iter()))?;
                    Ok(Value::Unit)
                },
            )
            .method(
                "read_many",
                &[TypeTag::List],
                TypeTag::List,
                |this, args| {
                    let sectors = parse_sectors(&args[0])?;
                    this.with_state(|s: &mut DriverState| {
                        let mut m = s.machine.lock();
                        let (disk, meter) = powered_disk(&mut m)?;
                        // Validate the whole batch before charging.
                        check_sectors(disk, sectors.iter().copied())?;
                        let mut out = Vec::with_capacity(sectors.len());
                        for (k, &sec) in sectors.iter().enumerate() {
                            out.push(charged_read(disk, meter, k, sec)?);
                        }
                        s.reads += sectors.len() as u64;
                        Ok(Value::List(out))
                    })
                },
            )
            .method(
                "write_many",
                &[TypeTag::List],
                TypeTag::Int,
                |this, args| {
                    let pairs = view_pairs(&args[0])?;
                    this.with_state(|s: &mut DriverState| s.apply(pairs.iter()))?;
                    Ok(Value::Int(pairs.len() as i64))
                },
            )
            .method("sectors", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    let sectors = powered_disk(&mut s.machine.lock())?.0.sectors();
                    Ok(Value::Int(sectors as i64))
                })
            })
            .method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    Ok(Value::List(vec![
                        Value::Int(s.reads as i64),
                        Value::Int(s.writes as i64),
                    ]))
                })
            })
            // Durability surface. The raw driver has no volatile write
            // state of its own (every acked write reached the platter),
            // so `flush` has nothing to do and `barrier` only verifies
            // the machine is alive.
            .method("flush", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    s.machine.lock().check_power().map_err(dev_err)?;
                    Ok(Value::Int(0))
                })
            })
            .method("barrier", &[], TypeTag::Unit, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    s.machine.lock().check_power().map_err(dev_err)?;
                    Ok(Value::Unit)
                })
            })
        })
        .build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackBuilder;
    use paramecium_core::domain::KERNEL_DOMAIN;
    use paramecium_machine::dev::disk::batch_transfer_cost;

    fn setup() -> (Arc<MemService>, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        let driver = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap().top;
        (mem, driver)
    }

    fn sector_of(byte: u8) -> Value {
        Value::Bytes(Bytes::from(vec![byte; SECTOR_SIZE]))
    }

    #[test]
    fn read_write_roundtrip_charges_transfer_cost() {
        let (mem, driver) = setup();
        let t0 = mem.machine().lock().now();
        driver
            .invoke("blockdev", "write", &[Value::Int(5), sector_of(0xAB)])
            .unwrap();
        let data = driver.invoke("blockdev", "read", &[Value::Int(5)]).unwrap();
        assert_eq!(data.as_bytes().unwrap()[0], 0xAB);
        assert!(mem.machine().lock().now() - t0 >= 2 * SECTOR_TRANSFER_COST);
        let stats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(stats, Value::List(vec![Value::Int(1), Value::Int(1)]));
    }

    #[test]
    fn wrong_sized_writes_rejected() {
        let (_, driver) = setup();
        let r = driver.invoke(
            "blockdev",
            "write",
            &[Value::Int(0), Value::Bytes(Bytes::from_static(b"short"))],
        );
        assert!(r.is_err());
        assert!(driver
            .invoke("blockdev", "read", &[Value::Int(-1)])
            .is_err());
    }

    #[test]
    fn out_of_range_sector_fails() {
        let (_, driver) = setup();
        let sectors = driver
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert!(driver
            .invoke("blockdev", "read", &[Value::Int(sectors)])
            .is_err());
    }

    #[test]
    fn exclusive_claim_blocks_second_driver() {
        let (mem, _driver) = setup();
        assert!(StackBuilder::disk(&mem, DomainId(7)).build().is_err());
    }

    #[test]
    fn vectorized_ops_roundtrip_and_charge_amortised_cost() {
        use crate::vectored::{pairs_arg, sectors_arg};
        let (mem, driver) = setup();
        let pairs: Vec<(i64, Bytes)> = (0..64i64)
            .map(|sec| (sec, Bytes::from(vec![sec as u8; SECTOR_SIZE])))
            .collect();
        let t0 = mem.machine().lock().now();
        let written = driver
            .invoke("blockdev", "write_many", &[pairs_arg(pairs)])
            .unwrap();
        assert_eq!(written, Value::Int(64));
        let batch_cost = mem.machine().lock().now() - t0;
        assert_eq!(batch_cost, batch_transfer_cost(64));
        assert!(batch_cost < 64 * SECTOR_TRANSFER_COST);

        let out = driver
            .invoke("blockdev", "read_many", &[sectors_arg(0..64)])
            .unwrap();
        let out = out.as_list().unwrap();
        assert_eq!(out.len(), 64);
        for (sec, v) in out.iter().enumerate() {
            assert_eq!(v.as_bytes().unwrap()[0], sec as u8);
        }
        // One batched call counts every sector in the stats.
        let stats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(stats, Value::List(vec![Value::Int(64), Value::Int(64)]));
    }

    #[test]
    fn vectorized_ops_reject_bad_batches() {
        use crate::vectored::{pairs_arg, sectors_arg};
        let (_, driver) = setup();
        let sectors = driver
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert!(driver
            .invoke("blockdev", "read_many", &[sectors_arg([0, sectors])])
            .is_err());
        let good = Bytes::from(vec![1u8; SECTOR_SIZE]);
        // Out-of-range anywhere in the batch writes nothing.
        assert!(driver
            .invoke(
                "blockdev",
                "write_many",
                &[pairs_arg([(0, good.clone()), (sectors, good)])]
            )
            .is_err());
        let stats = driver.invoke("blockdev", "stats", &[]).unwrap();
        assert_eq!(stats.as_list().unwrap()[1], Value::Int(0));
    }

    #[test]
    fn crash_mid_batch_leaves_prefix_plus_torn_sector() {
        use crate::vectored::pairs_arg;
        let (mem, driver) = setup();
        let pairs: Vec<(i64, Bytes)> = (0..4i64)
            .map(|sec| (sec, Bytes::from(vec![0xEE; SECTOR_SIZE])))
            .collect();
        // Fire the crash on the third sector's transfer charge.
        mem.machine().lock().arm_crash_after(3);
        let err = driver
            .invoke("blockdev", "write_many", &[pairs_arg(pairs)])
            .unwrap_err();
        assert!(err.to_string().contains("power failure"), "{err}");
        // Everything fails until reboot.
        assert!(driver.invoke("blockdev", "read", &[Value::Int(0)]).is_err());
        mem.machine().lock().reboot();
        // Sectors 0 and 1 are fully written, sector 2 is torn (prefix
        // only), sector 3 never started.
        for (sec, full, torn) in [(0, true, false), (1, true, false), (2, false, true)] {
            let v = driver
                .invoke("blockdev", "read", &[Value::Int(sec)])
                .unwrap();
            let b = v.as_bytes().unwrap();
            if full {
                assert!(b.iter().all(|&x| x == 0xEE), "sector {sec} must be whole");
            }
            if torn {
                assert!(b[..TORN_WRITE_PREFIX].iter().all(|&x| x == 0xEE));
                assert!(b[TORN_WRITE_PREFIX..].iter().all(|&x| x == 0));
            }
        }
        let v = driver.invoke("blockdev", "read", &[Value::Int(3)]).unwrap();
        assert!(v.as_bytes().unwrap().iter().all(|&x| x == 0));
    }
}
