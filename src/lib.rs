//! # Paramecium
//!
//! A reproduction of **"Paramecium: an extensible object-based kernel"**
//! (van Doorn, Homburg, Tanenbaum — HotOS-V, 1995) as a deterministic
//! user-mode simulation in Rust.
//!
//! Paramecium is a kernel whose contents are *negotiable*: a minimal
//! nucleus provides processor events, memory management, an object name
//! space, and certificate validation; everything else — thread packages,
//! drivers, protocol stacks, application components — lives in a toolbox
//! and is placed in the kernel or a user protection domain *by the user*,
//! with a certification authority (and its delegated subordinates)
//! deciding what is trustworthy enough for the kernel domain.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`obj`] | Object model: named interfaces, delegation, composition, interposers |
//! | [`machine`] | Simulated SPARC-like hardware: MMU contexts, TLB, traps, IRQs, devices, cycle costs |
//! | [`crypto`] | From-scratch SHA-256, bignum, Miller–Rabin, RSA |
//! | [`sfi`] | Component bytecode + the software-protection baselines (SFI, load-time verifier) |
//! | [`cert`] | Certificates, authority, delegation chains, certifier subordinates, escape hatch |
//! | [`core`] | **The nucleus**: domains, the four services, proxies, repository, loader |
//! | [`threads`] | Thread package with pop-up threads and the proto-thread fast path |
//! | [`netstack`] | NIC driver and the seeded lossy `simlink`, ARP, LPM router, TCP/UDP, filters, monitor; every layer exports `netdev`, whose burst pair is the primitive (`netstack::burst` derives the scalar calls) |
//! | [`store`] | Crash-safe store stack: disk driver, retry, write-ahead journal, sharded cache |
//! | [`harness`], [`pool`], [`chaos`] | This crate's own modules: `World` (machine + nucleus + authority), `WorldPool` (many worlds over OS threads, cross-world active messages), `ChaosPlan`/`ChaosController`/`Supervisor` (seeded fault schedules and reboot-and-remount recovery) |
//!
//! Outside the workspace, `benchmark/` is a package of its own: the
//! request-path ledger behind `BENCHMARK.json`. What gates what: *green* is
//! `cargo build --release && cargo test -q`, which is every workspace
//! member (`default-members`); *fast* is the ledger, parent against change
//! in alternating pairs. The criterion targets under `crates/bench` are
//! instruments for what the ledger cannot see, not a gate
//! (`bench-records/README.md`; `scripts/reproduce.sh` regenerates it).
//!
//! ## Quick start
//!
//! ```
//! use paramecium::harness::World;
//! use paramecium::core::{domain::KERNEL_DOMAIN, LoadOptions};
//! use paramecium::cert::Right;
//! use paramecium::obj::Value;
//!
//! // Boot a world: machine + nucleus + certification authority.
//! let world = World::boot();
//!
//! // Put a downloadable component in the repository and certify it.
//! let program = paramecium::sfi::workloads::checksum_loop_verified(64, 1);
//! world.nucleus.repository.add_bytecode("csum", &program);
//! world.certify("csum", &[Right::RunKernel]).unwrap();
//!
//! // The user asks for kernel placement; certification permits it.
//! let report = world
//!     .nucleus
//!     .load("csum", &LoadOptions::kernel("/kernel/csum"))
//!     .unwrap();
//! assert_eq!(report.protection, paramecium::core::Protection::CertifiedNative);
//!
//! // Bind and invoke it like any object.
//! let obj = world.nucleus.bind(KERNEL_DOMAIN, "/kernel/csum").unwrap();
//! let sum = obj
//!     .invoke("component", "run",
//!             &[Value::Bytes(bytes::Bytes::from(vec![1u8; 64])), Value::Int(0)])
//!     .unwrap();
//! assert_eq!(sum, Value::Int(64));
//! ```

pub use paramecium_cert as cert;
pub use paramecium_core as core;
pub use paramecium_crypto as crypto;
pub use paramecium_machine as machine;
pub use paramecium_netstack as netstack;
pub use paramecium_obj as obj;
pub use paramecium_sfi as sfi;
pub use paramecium_store as store;
pub use paramecium_threads as threads;

pub mod chaos;
pub mod harness;
pub mod pool;

/// Commonly used items, for `use paramecium::prelude::*`.
pub mod prelude {
    pub use crate::cert::{Certifier, CertifyOutcome, Right};
    pub use crate::chaos::{ChaosController, ChaosPlan, Fault, Supervisor};
    pub use crate::core::{
        domain::{DomainId, KERNEL_DOMAIN},
        LoadOptions, Nucleus, Placement, Protection,
    };
    pub use crate::harness::World;
    pub use crate::machine::{CostModel, Machine};
    pub use crate::obj::{
        CompositionBuilder, InterfaceBuilder, InterposerBuilder, ObjRef, ObjectBuilder, TypeTag,
        Value,
    };
    pub use crate::pool::{PoolRunReport, PoolWorld, WorldPool};
    pub use crate::threads::{PopupEngine, PopupMode, Scheduler, Step};
}
