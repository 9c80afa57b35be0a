//! [`StackBuilder`] — the one way to assemble a store stack.
//!
//! Wiring the layers together by hand would make every call site learn
//! the journal's mount story, so the constructors are a builder over
//! the fixed layering
//!
//! ```text
//! driver  →  retry (optional)  →  journal (optional)  →  cache (optional)
//! ```
//!
//! where every layer exports `blockdev` and each optional layer is one
//! builder call.
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use parking_lot::Mutex;
//! # use paramecium_core::{domain::KERNEL_DOMAIN, memsvc::MemService};
//! # use paramecium_machine::Machine;
//! use paramecium_store::{JournalConfig, StackBuilder};
//!
//! # let mem = Arc::new(MemService::new(Arc::new(Mutex::new(Machine::new()))));
//! let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
//!     .journal(JournalConfig::default())
//!     .sharded_cache(256, 4)
//!     .build()?;
//! stack.top.invoke("blockdev", "read", &[paramecium_obj::Value::Int(0)])?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use paramecium_core::{domain::DomainId, memsvc::MemService, CoreError, CoreResult};
use paramecium_obj::ObjRef;

use crate::cache::build_sharded_block_cache;
use crate::driver::build_disk_driver;
use crate::journal::{mount_journal, JournalConfig};
use crate::retry::{make_retry, RetryConfig};

/// What the stack stands on.
enum Base {
    /// Build the disk driver for this domain (claiming the device).
    Disk {
        mem: Arc<MemService>,
        domain: DomainId,
    },
    /// Stack on an existing `blockdev` object (another stack's top, a
    /// test double, an interposer…).
    Object(ObjRef),
}

/// Layered constructor for the store stack. See the
/// [module docs](self) for the shape and an example.
pub struct StackBuilder {
    base: Base,
    retry: Option<RetryConfig>,
    journal: Option<JournalConfig>,
    cache: Option<(usize, usize)>,
}

/// A built stack: the top object clients should bind, plus each layer
/// for tests and interposers that need to reach around.
pub struct StoreStack {
    /// The object to hand to clients (the highest layer built).
    pub top: ObjRef,
    /// The bottom `blockdev` (the disk driver, or the base object).
    pub driver: ObjRef,
    /// The retry interposer, when one was requested.
    pub retry: Option<ObjRef>,
    /// The journal layer, when one was requested.
    pub journal: Option<ObjRef>,
    /// The cache layer, when one was requested.
    pub cache: Option<ObjRef>,
}

impl StackBuilder {
    /// Starts a stack on the machine's disk: the bottom layer will be
    /// the disk driver, built for `domain`.
    pub fn disk(mem: &Arc<MemService>, domain: DomainId) -> Self {
        StackBuilder {
            base: Base::Disk {
                mem: mem.clone(),
                domain,
            },
            retry: None,
            journal: None,
            cache: None,
        }
    }

    /// Starts a stack on an existing `blockdev` object.
    pub fn on(base: ObjRef) -> Self {
        StackBuilder {
            base: Base::Object(base),
            retry: None,
            journal: None,
            cache: None,
        }
    }

    /// Adds the transient-fault retry interposer directly above the disk
    /// driver (see [`crate::retry`]). Only disk-based stacks can take
    /// one: the backoff sleeps on the machine's virtual clock.
    pub fn retry(mut self, cfg: RetryConfig) -> Self {
        self.retry = Some(cfg);
        self
    }

    /// Adds the write-ahead journal layer (mounted — and committed
    /// transactions replayed — during [`StackBuilder::build`]).
    pub fn journal(mut self, cfg: JournalConfig) -> Self {
        self.journal = Some(cfg);
        self
    }

    /// Adds a single-shard block cache of `capacity` sectors.
    pub fn cache(self, capacity: usize) -> Self {
        self.sharded_cache(capacity, 1)
    }

    /// Adds a block cache of `capacity` total sectors, sharded `shards`
    /// ways by sector.
    pub fn sharded_cache(mut self, capacity: usize, shards: usize) -> Self {
        self.cache = Some((capacity, shards));
        self
    }

    /// Builds the stack bottom-up: driver, then journal (mount +
    /// recovery), then cache.
    pub fn build(self) -> CoreResult<StoreStack> {
        let (driver, machine) = match self.base {
            Base::Disk { mem, domain } => {
                let machine = mem.machine().clone();
                (build_disk_driver(&mem, domain)?, Some(machine))
            }
            Base::Object(obj) => (obj, None),
        };
        let mut top = driver.clone();
        let retry = match self.retry {
            Some(cfg) => {
                let machine = machine.ok_or_else(|| {
                    CoreError::Obj(paramecium_obj::ObjError::failed(
                        "retry layer requires a disk-based stack (backoff uses the machine clock)",
                    ))
                })?;
                let r = make_retry(machine, top.clone(), cfg);
                top = r.clone();
                Some(r)
            }
            None => None,
        };
        let journal = match self.journal {
            Some(cfg) => {
                let j = mount_journal(top.clone(), cfg).map_err(CoreError::Obj)?;
                top = j.clone();
                Some(j)
            }
            None => None,
        };
        let cache = self.cache.map(|(capacity, shards)| {
            let c = build_sharded_block_cache(top.clone(), capacity, shards);
            top = c.clone();
            c
        });
        Ok(StoreStack {
            top,
            driver,
            retry,
            journal,
            cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use paramecium_core::domain::KERNEL_DOMAIN;
    use paramecium_machine::dev::disk::SECTOR_SIZE;
    use paramecium_machine::Machine;
    use paramecium_obj::Value;
    use parking_lot::Mutex;

    fn mem() -> Arc<MemService> {
        Arc::new(MemService::new(Arc::new(Mutex::new(Machine::new()))))
    }

    #[test]
    fn full_stack_reads_and_writes_through_all_three_layers() {
        let mem = mem();
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(JournalConfig::default())
            .sharded_cache(64, 4)
            .build()
            .unwrap();
        assert!(stack.journal.is_some());
        assert!(stack.cache.is_some());
        let data = Value::Bytes(Bytes::from(vec![0x3C; SECTOR_SIZE]));
        stack
            .top
            .invoke("blockdev", "write", &[Value::Int(5), data])
            .unwrap();
        let v = stack
            .top
            .invoke("blockdev", "read", &[Value::Int(5)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x3C);
        // A full flush drains cache → journal → home locations.
        stack.top.invoke("blockdev", "flush", &[]).unwrap();
        let v = stack
            .driver
            .invoke("blockdev", "read", &[Value::Int(5)])
            .unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 0x3C);
    }

    #[test]
    fn layers_are_optional() {
        let mem = mem();
        let bare = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap();
        assert!(bare.journal.is_none() && bare.cache.is_none());
        // The driver-only stack's top IS the driver.
        assert_eq!(
            bare.top.invoke("blockdev", "sectors", &[]).unwrap(),
            bare.driver.invoke("blockdev", "sectors", &[]).unwrap()
        );
        let cached = StackBuilder::on(bare.top).cache(16).build().unwrap();
        assert!(cached.journal.is_none() && cached.cache.is_some());
        // With a journal, the client-visible device shrinks.
        let with_j = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .journal(JournalConfig::default())
            .build()
            .unwrap();
        let total = with_j
            .driver
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        let visible = with_j
            .top
            .invoke("blockdev", "sectors", &[])
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(visible, total - JournalConfig::default().log_sectors - 2);
    }
}
