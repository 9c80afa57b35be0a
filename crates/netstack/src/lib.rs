//! Network components for the Paramecium reproduction.
//!
//! The paper's motivating scenario (section 1) is "inserting application
//! components for fast protocol processing into a shared network device
//! driver" — and the security problem that motivates certification:
//! "software verification of the component cannot easily reveal packet
//! snooping". This crate provides that scenario as a *stack of
//! interchangeable objects*: every layer both consumes and exports the
//! `netdev` interface, so any layer can be slid between any other two —
//! including across protection domains — without either side knowing.
//!
//! | `netdev` method | |
//! |---|---|
//! | `send_many(frames: list) -> unit` | the transmit primitive: a burst of frames, in order |
//! | `recv_many(max: int) -> list` | the receive primitive: up to `max` frames, short when the device ran dry |
//! | `send(frame: bytes) -> unit` | derived: `send_many([frame])` |
//! | `recv() -> bytes` | derived: `recv_many(1)`, empty when nothing is pending |
//! | `pending() -> int`, `stats() -> list` | per provider |
//!
//! A frame crosses five objects between the TCP pump and the wire, so it
//! travels in bursts and each exporter writes the burst pair only
//! ([`burst`] derives the scalar calls). The contract: **a burst of n is
//! observably n scalar calls in the same order** — frames handed down and
//! up, every counter, every link RNG draw, every cycle charged
//! (`tests/burst_equivalence.rs`). Two stated exceptions: a layer that
//! found a member or device dry does not poll it again within the burst,
//! and the segments TCP emits *while receiving* (SYN-ACK, RST) leave
//! with the pump's one burst, after — not between — the ARP layer's own
//! replies of that pump.
//!
//! Bottom to top:
//!
//! - [`burst`] — `netdev_methods` (the four data-path methods from one
//!   transmit and one receive body) and `Drain` (pulling from a lower
//!   `netdev` in bursts without losing frames to a mid-burst error).
//! - [`wire`] — pure codecs: Ethernet, ARP, IPv4, UDP and TCP headers,
//!   the Internet checksum and the TCP pseudo-header checksum. Every
//!   parser is total (malformed input returns `None`, never panics) and
//!   round-trips with its builder; `tests/wire_codecs.rs` pins both by
//!   property.
//! - **netdev providers** — the objects that put frames on a wire:
//!   [`driver`] (the NIC driver at `/shared/network`, built on the
//!   machine's NIC device through I/O-space claims and interrupts) and
//!   [`simlink`] (a seeded in-memory lossy link that drops, duplicates,
//!   reorders, corrupts and delays frames deterministically — the
//!   adversary the test suites run against).
//! - **netdev interposers** — layers that wrap a lower `netdev` and
//!   export `netdev` themselves: [`arp`] (IPv4↔MAC resolution with
//!   request queuing and reply generation), [`route`] (a longest-prefix
//!   router spanning two or more lower drivers, with per-route counters)
//!   and [`monitor`] (the paper's interposing network monitor, installed
//!   by replacing `/shared/network` in the name space).
//! - **endpoints** — [`stack`] (a UDP/IP endpoint) and [`tcp`] (a
//!   minimal-but-correct TCP: 3-way handshake, sequence/ack tracking,
//!   retransmission with exponential RTO backoff, sliding-window flow
//!   control and FIN teardown, all driven by the machine's virtual
//!   clock so every exchange replays bit-identically).
//! - [`filter`] — packet filters installed *into* an endpoint's receive
//!   path: a native counting filter and a bytecode UDP-port filter (the
//!   downloadable component of the experiments).
//! - [`testkit`] — the shared single-NIC test fixture used by the
//!   in-crate suites and integration tests.
//!
//! Frames travel the whole stack as refcounted [`bytes::Bytes`] views:
//! a received frame is parsed in place and its payload handed to the
//! application as a slice of the original buffer — no copies between
//! the device queue and the socket, pinned by an allocation-counting
//! test (`tests/alloc_counting.rs`).

#![forbid(unsafe_code)]

pub mod arp;
pub mod burst;
pub mod driver;
pub mod filter;
pub mod monitor;
pub mod route;
pub mod simlink;
pub mod stack;
pub mod tcp;
pub mod testkit;
pub mod wire;

pub use driver::{install_driver, make_driver};
pub use filter::{make_native_port_filter, udp_port_filter_program};
pub use monitor::make_network_monitor;
pub use stack::make_udp_stack;
