//! Shared test support for the network stack.
//!
//! Every layer's unit tests — and the workspace integration tests — used
//! to carry their own copy of "boot a machine, claim the NIC, build a
//! canonical UDP frame, poke it into the receive ring". This module is
//! the single copy: canonical addresses, machine/driver bootstrap, and
//! frame injection against the machine's virtual NIC.
//!
//! It is an ordinary public module (not `#[cfg(test)]`) so integration
//! tests and benches can reach it as `paramecium_netstack::testkit`;
//! nothing in it is used by the production objects.

use std::sync::Arc;

use paramecium_core::{domain::KERNEL_DOMAIN, memsvc::MemService};
use paramecium_machine::{dev::nic::Nic, Machine};
use paramecium_obj::ObjRef;
use parking_lot::Mutex;

use crate::driver::make_driver;
use crate::wire::{self, Mac};

/// The IP the local endpoint owns in canonical test topologies.
pub const MY_IP: u32 = 0x0A00_0001;
/// The canonical remote peer.
pub const PEER_IP: u32 = 0x0A00_0002;
/// MAC of the local endpoint.
pub const MY_MAC: Mac = [2, 0, 0, 0, 0, 1];
/// MAC the canonical peer sends from.
pub const PEER_MAC: Mac = [2, 0, 0, 0, 0, 9];
/// Source port the canonical peer sends from.
pub const PEER_PORT: u16 = 4444;

/// A booted machine wrapped for sharing.
pub(crate) fn test_machine() -> Arc<Mutex<Machine>> {
    Arc::new(Mutex::new(Machine::new()))
}

/// Machine + memory service + NIC driver claimed in the kernel domain —
/// the smallest real `netdev` stack.
pub fn test_driver() -> (Arc<MemService>, ObjRef) {
    let mem = Arc::new(MemService::new(test_machine()));
    let driver = make_driver(&mem, KERNEL_DOMAIN).expect("driver claims the NIC");
    (mem, driver)
}

/// Injects a raw frame into the machine's NIC receive ring and ticks the
/// clock so interrupt-driven paths observe it.
pub fn inject_frame(machine: &Arc<Mutex<Machine>>, frame: Vec<u8>) {
    let mut m = machine.lock();
    m.device_mut::<Nic>("nic")
        .expect("nic present")
        .inject_rx(frame);
    m.tick(1);
}

/// Builds the canonical UDP test frame: `PEER -> MY_IP:dst_port`.
pub(crate) fn udp_frame_to(dst_port: u16, payload: &[u8]) -> Vec<u8> {
    wire::build_udp_frame(
        PEER_MAC, MY_MAC, PEER_IP, MY_IP, PEER_PORT, dst_port, payload,
    )
}

/// Injects the canonical UDP test frame.
pub fn inject_udp(machine: &Arc<Mutex<Machine>>, dst_port: u16, payload: &[u8]) {
    inject_frame(machine, udp_frame_to(dst_port, payload));
}

/// Takes the next transmitted frame off the NIC, if any.
pub fn tx_take(machine: &Arc<Mutex<Machine>>) -> Option<Vec<u8>> {
    machine
        .lock()
        .device_mut::<Nic>("nic")
        .expect("nic present")
        .tx_take()
        .map(|f| f.to_vec())
}
