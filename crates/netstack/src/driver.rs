//! The network device driver object.
//!
//! A native component from the toolbox: it claims the NIC's register
//! region (exclusive) and buffer region (shared) through the memory
//! service's I/O-space allocator — "allowing device registers to be mapped
//! privately and on-device buffers to be shared by other contexts" — and
//! exports the `netdev` interface:
//!
//! - `send_many(frames: list) -> unit`, `recv_many(max: int) -> list`
//!   and the scalar calls derived from them (see [`crate::burst`]):
//!   `send(frame: bytes) -> unit`, `recv() -> bytes` (empty when nothing
//!   is pending)
//! - `pending() -> int`
//! - `stats() -> list [rx_frames, tx_frames, rx_bytes, tx_bytes, dropped]`
//!
//! Registered as `/shared/network`, it is the object the paper's
//! interposing-agent example wraps.

use std::sync::Arc;

use parking_lot::Mutex;

use paramecium_core::{domain::DomainId, memsvc::MemService, CoreResult, Nucleus};
use paramecium_machine::{
    dev::nic::{self, Nic},
    io::{IoRegionId, IoSharing},
    Machine,
};
use paramecium_obj::{ObjError, ObjRef, ObjectBuilder, TypeTag, Value};

use crate::burst::netdev_methods;

/// Driver instance state.
struct DriverState {
    machine: Arc<Mutex<Machine>>,
    mem: Arc<MemService>,
    domain: DomainId,
    nic: String,
    regs: IoRegionId,
    #[allow(dead_code)] // Held to model the shared buffer claim.
    buffers: IoRegionId,
    rx_frames: u64,
    tx_frames: u64,
    rx_bytes: u64,
    tx_bytes: u64,
}

impl DriverState {
    /// Refuses to touch the device unless the driver's domain still holds
    /// its register claim — the I/O-space protection model.
    fn check_claim(&self) -> Result<(), ObjError> {
        if self.mem.io_is_claimant(self.domain, self.regs) {
            Ok(())
        } else {
            Err(ObjError::Denied(format!(
                "domain {} lost its NIC register claim",
                self.domain.0
            )))
        }
    }
}

/// Builds the driver for the machine's primary NIC (device `"nic"`).
pub fn make_driver(mem: &Arc<MemService>, domain: DomainId) -> CoreResult<ObjRef> {
    make_driver_on(mem, domain, "nic")
}

/// Builds a NIC driver object for `domain` over the named NIC device,
/// allocating and claiming its I/O regions. Multi-homed machines register
/// extra [`Nic`]s under their own names and run one driver per device.
pub fn make_driver_on(mem: &Arc<MemService>, domain: DomainId, nic: &str) -> CoreResult<ObjRef> {
    // The NIC's regions exist once per device: reuse them if an earlier
    // driver instance allocated them, so exclusivity is actually contended.
    let existing: Vec<(IoRegionId, IoSharing)> = {
        let machine = mem.machine().clone();
        let m = machine.lock();
        m.io.regions_of(nic)
            .iter()
            .map(|r| (r.id, r.sharing))
            .collect()
    };
    let regs = match existing.iter().find(|(_, s)| *s == IoSharing::Exclusive) {
        Some((id, _)) => *id,
        None => mem.io_allocate(nic, 0x20, IoSharing::Exclusive)?,
    };
    let buffers = match existing.iter().find(|(_, s)| *s == IoSharing::Shared) {
        Some((id, _)) => *id,
        None => mem.io_allocate(nic, nic::RX_RING * nic::MAX_FRAME, IoSharing::Shared)?,
    };
    mem.io_claim(domain, regs)?;
    mem.io_claim(domain, buffers)?;
    let state = DriverState {
        machine: mem.machine().clone(),
        mem: mem.clone(),
        domain,
        nic: nic.to_string(),
        regs,
        buffers,
        rx_frames: 0,
        tx_frames: 0,
        rx_bytes: 0,
        tx_bytes: 0,
    };

    Ok(ObjectBuilder::new("nic-driver")
        .state(state)
        .interface("netdev", |i| {
            // Per frame a burst charges what the scalar call charges:
            // one I/O access per take attempt, the copy per frame moved.
            netdev_methods(
                i,
                |this, tx| {
                    this.with_state(|s: &mut DriverState| {
                        s.check_claim()?;
                        let mut m = s.machine.lock();
                        // Refcounted views: no copy of a frame body here
                        // (the copy *cost* still models the DMA transfer).
                        for frame in tx.frames() {
                            // Programmed I/O: register write plus the copy
                            // into the device buffer.
                            let cost = m.cost.io_access + m.cost.copy_cost(frame.len());
                            m.charge(cost);
                            m.device_mut::<Nic>(&s.nic)
                                .ok_or_else(|| ObjError::failed("nic device missing"))?
                                .tx(frame.clone())
                                .map_err(|e| ObjError::failed(e.to_string()))?;
                            s.tx_frames += 1;
                            s.tx_bytes += frame.len() as u64;
                        }
                        Ok(())
                    })
                },
                |this, max, out| {
                    this.with_state(|s: &mut DriverState| {
                        s.check_claim()?;
                        let mut m = s.machine.lock();
                        while out.len() < max {
                            let cost = m.cost.io_access;
                            m.charge(cost);
                            let Some(frame) = m
                                .device_mut::<Nic>(&s.nic)
                                .ok_or_else(|| ObjError::failed("nic device missing"))?
                                .rx_take()
                            else {
                                break;
                            };
                            let cost = m.cost.copy_cost(frame.len());
                            m.charge(cost);
                            s.rx_frames += 1;
                            s.rx_bytes += frame.len() as u64;
                            out.push(Value::Bytes(frame));
                        }
                        Ok(())
                    })
                },
            )
            .method("pending", &[], TypeTag::Int, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    s.check_claim()?;
                    let mut m = s.machine.lock();
                    let avail = m
                        .io_read(&s.nic, nic::regs::RX_AVAIL)
                        .map_err(|e| ObjError::failed(e.to_string()))?;
                    Ok(Value::Int(i64::from(avail)))
                })
            })
            .method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut DriverState| {
                    let dropped = {
                        let mut m = s.machine.lock();
                        m.io_read(&s.nic, nic::regs::RX_DROPPED)
                            .map_err(|e| ObjError::failed(e.to_string()))?
                    };
                    Ok(Value::List(vec![
                        Value::Int(s.rx_frames as i64),
                        Value::Int(s.tx_frames as i64),
                        Value::Int(s.rx_bytes as i64),
                        Value::Int(s.tx_bytes as i64),
                        Value::Int(i64::from(dropped)),
                    ]))
                })
            })
        })
        .build())
}

/// Builds the driver in `domain` and registers it at `/shared/network`
/// in that domain's name space.
pub fn install_driver(nucleus: &Nucleus, domain: DomainId) -> CoreResult<ObjRef> {
    let driver = make_driver(&nucleus.mem, domain)?;
    nucleus.register(domain, "/shared/network", driver.clone())?;
    Ok(driver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{inject_frame, test_driver, tx_take, udp_frame_to};
    use paramecium_core::domain::KERNEL_DOMAIN;

    fn setup() -> (Arc<MemService>, ObjRef) {
        test_driver()
    }

    fn inject(mem: &Arc<MemService>, frame: Vec<u8>) {
        inject_frame(mem.machine(), frame);
    }

    #[test]
    fn recv_returns_injected_frames_in_order() {
        let (mem, driver) = setup();
        inject(&mem, vec![1, 2, 3]);
        inject(&mem, vec![4, 5]);
        assert_eq!(
            driver.invoke("netdev", "pending", &[]).unwrap(),
            Value::Int(2)
        );
        let f1 = driver.invoke("netdev", "recv", &[]).unwrap();
        assert_eq!(f1.as_bytes().unwrap().as_ref(), &[1, 2, 3]);
        let f2 = driver.invoke("netdev", "recv", &[]).unwrap();
        assert_eq!(f2.as_bytes().unwrap().as_ref(), &[4, 5]);
        let empty = driver.invoke("netdev", "recv", &[]).unwrap();
        assert!(empty.as_bytes().unwrap().is_empty());
    }

    #[test]
    fn send_reaches_the_wire() {
        let (mem, driver) = setup();
        let frame = udp_frame_to(20, b"out");
        driver
            .invoke(
                "netdev",
                "send",
                &[Value::Bytes(bytes::Bytes::from(frame.clone()))],
            )
            .unwrap();
        assert_eq!(tx_take(mem.machine()), Some(frame));
    }

    #[test]
    fn stats_track_traffic() {
        let (mem, driver) = setup();
        inject(&mem, vec![0u8; 100]);
        driver.invoke("netdev", "recv", &[]).unwrap();
        driver
            .invoke(
                "netdev",
                "send",
                &[Value::Bytes(bytes::Bytes::from(vec![0u8; 60]))],
            )
            .unwrap();
        let stats = driver.invoke("netdev", "stats", &[]).unwrap();
        let s = stats.as_list().unwrap();
        assert_eq!(s[0], Value::Int(1)); // rx frames
        assert_eq!(s[1], Value::Int(1)); // tx frames
        assert_eq!(s[2], Value::Int(100)); // rx bytes
        assert_eq!(s[3], Value::Int(60)); // tx bytes
    }

    #[test]
    fn second_driver_cannot_claim_registers() {
        let (mem, _driver) = setup();
        assert!(make_driver(&mem, DomainId(5)).is_err());
    }

    #[test]
    fn released_claim_denies_device_access() {
        let (mem, driver) = setup();
        // Find the exclusive register region and revoke the claim.
        let machine = mem.machine().clone();
        let regs = {
            let m = machine.lock();
            m.io.regions_of("nic")
                .into_iter()
                .find(|r| r.sharing == IoSharing::Exclusive)
                .unwrap()
                .id
        };
        mem.io_release(KERNEL_DOMAIN, regs).unwrap();
        let r = driver.invoke("netdev", "recv", &[]);
        assert!(matches!(r, Err(ObjError::Denied(_))));
    }

    #[test]
    fn io_costs_are_charged() {
        let (mem, driver) = setup();
        let machine = mem.machine().clone();
        let before = machine.lock().now();
        driver
            .invoke(
                "netdev",
                "send",
                &[Value::Bytes(bytes::Bytes::from(vec![0u8; 1500]))],
            )
            .unwrap();
        let elapsed = machine.lock().now() - before;
        let floor = {
            let m = machine.lock();
            m.cost.io_access + m.cost.copy_cost(1500)
        };
        assert!(elapsed >= floor);
    }
}
