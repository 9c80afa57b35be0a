//! The retrying block-driver interposer — self-healing for *transient*
//! disk faults.
//!
//! Sits between the raw disk driver and the journal (see
//! [`crate::StackBuilder::retry`]) and re-issues failed operations with
//! bounded exponential backoff plus seeded jitter, advancing the virtual
//! clock while it waits so drills stay deterministic. An error's class
//! is its variant:
//!
//! - **transient** — [`MachineError::Transient`] (what
//!   [`Disk::inject_transient_errors`] arms): retried up to
//!   [`RetryConfig::max_attempts`] total attempts; if every attempt
//!   fails, the *last* error surfaces unchanged.
//! - **permanent** — every other error, notably a power failure, a sector
//!   out of range and any [`ObjError::Failed`] whatever its text: fails
//!   fast, zero retries. Retrying a power loss would only burn the crash
//!   budget; retrying a bad address would never succeed.
//!
//! Only idempotent verbs are retried: `read_many`, `write_many`,
//! `commit`, `flush`, `barrier`, and the scalar `read` and `write` too,
//! because a layer above forwards a call it has nothing to change in as
//! it arrived (a journal read that misses its overlay reaches retry as
//! `read`). Sector writes are exactly-once at the device and a `commit`
//! carries its whole batch, so re-issuing a failed one has the effect of
//! issuing it once. Everything else is delegated to the lower object
//! untouched.
//!
//! [`Disk::inject_transient_errors`]: paramecium_machine::dev::disk::Disk::inject_transient_errors

use std::sync::Arc;

use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};

use paramecium_machine::{cost::Cycles, Machine, MachineError};
use paramecium_obj::{
    counters, delegate_interface, InterfaceBuilder, ObjError, ObjRef, ObjResult, ObjectBuilder,
    TypeTag, Value,
};

use crate::vectored::BLOCKDEV;

/// Retry policy for the interposer.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Total attempts per operation (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Cycles,
    /// Backoff ceiling.
    pub max_backoff: Cycles,
    /// Seed for the jitter RNG (deterministic per stack).
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 5,
            base_backoff: 2_000,
            max_backoff: 200_000,
            seed: 0,
        }
    }
}

counters! {
    /// Per-error-class counters: the `retry stats` block.
    pub struct RetryStats {
        /// Operations issued (not counting re-issues).
        pub ops: u64,
        /// Re-issues after a transient failure.
        pub retries: u64,
        /// Operations that failed transiently but eventually succeeded.
        pub recovered: u64,
        /// Operations that exhausted every attempt (error surfaced).
        pub exhausted: u64,
        /// Operations that failed permanently (fail-fast passthrough).
        pub permanent: u64,
    }
}

struct RetryState {
    machine: Arc<Mutex<Machine>>,
    lower: ObjRef,
    cfg: RetryConfig,
    rng: StdRng,
    stats: RetryStats,
}

/// Whether `e` is the one class worth re-issuing (see the module docs).
fn is_transient(e: &ObjError) -> bool {
    matches!(e, ObjError::Machine(MachineError::Transient(_)))
}

impl RetryState {
    /// Drives one operation through the retry loop. Backoff advances the
    /// virtual clock, so time-under-fault is visible to every layer and
    /// replays exactly.
    fn drive(&mut self, method: &'static str, args: &[Value]) -> ObjResult<Value> {
        self.stats.ops += 1;
        let mut attempt = 1u32;
        loop {
            match self.lower.invoke("blockdev", method, args) {
                Ok(v) => {
                    if attempt > 1 {
                        self.stats.recovered += 1;
                    }
                    return Ok(v);
                }
                Err(e) if is_transient(&e) && attempt < self.cfg.max_attempts => {
                    let exp = (attempt - 1).min(32);
                    let delay = self
                        .cfg
                        .base_backoff
                        .saturating_mul(1u64 << exp)
                        .min(self.cfg.max_backoff);
                    let jitter = if delay >= 4 {
                        self.rng.gen_range(0..delay / 4)
                    } else {
                        0
                    };
                    self.machine.lock().tick(delay + jitter);
                    self.stats.retries += 1;
                    attempt += 1;
                }
                Err(e) => {
                    if is_transient(&e) {
                        self.stats.exhausted += 1;
                    } else {
                        self.stats.permanent += 1;
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// Builds the retry interposer over `lower`. Prefer
/// [`crate::StackBuilder::retry`], which slots it between driver and
/// journal.
pub fn make_retry(machine: Arc<Mutex<Machine>>, lower: ObjRef, cfg: RetryConfig) -> ObjRef {
    assert!(cfg.max_attempts >= 1, "retry needs at least one attempt");
    let rng = StdRng::seed_from_u64(cfg.seed);
    // The verbs worth re-issuing; `sectors`, `stats` and `write_limit`
    // are delegated to the lower object untouched.
    let mut blockdev = InterfaceBuilder::declared("blockdev", BLOCKDEV);
    let verbs = BLOCKDEV.iter().map(|sig| sig.name);
    for verb in verbs.filter(|v| !matches!(*v, "sectors" | "stats" | "write_limit")) {
        blockdev = blockdev.provide(verb, move |this, args| {
            this.with_state(|s: &mut RetryState| s.drive(verb, args))
        });
    }
    ObjectBuilder::new("retry-blockdev")
        .raw_interface(delegate_interface(blockdev.finish(), lower.clone()))
        .state(RetryState {
            machine,
            lower,
            cfg,
            rng,
            stats: RetryStats::default(),
        })
        .interface("retry", |i| {
            i.method("stats", &[], TypeTag::List, |this, _| {
                this.with_state(|s: &mut RetryState| Ok(s.stats.to_value()))
            })
        })
        .build()
}

/// Position of [`RetryStats::ops`] in the `retry stats` list.
pub const RETRY_STAT_OPS: usize = 0;
/// Position of [`RetryStats::retries`] in the `retry stats` list.
pub const RETRY_STAT_RETRIES: usize = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectored::{pairs_arg, sectors_arg};
    use crate::StackBuilder;
    use bytes::Bytes;
    use paramecium_core::{domain::KERNEL_DOMAIN, memsvc::MemService};
    use paramecium_machine::dev::disk::{Disk, SECTOR_SIZE, SECTOR_TRANSFER_COST};
    use paramecium_obj::InterposerBuilder;

    fn setup(cfg: RetryConfig) -> (Arc<Mutex<Machine>>, ObjRef) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine.clone()));
        let stack = StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .retry(cfg)
            .build()
            .unwrap();
        (machine, stack.top)
    }

    fn inject(machine: &Arc<Mutex<Machine>>, n: u64) {
        machine
            .lock()
            .device_mut::<Disk>("disk")
            .unwrap()
            .inject_transient_errors(n);
    }

    fn retry_stats(top: &ObjRef) -> RetryStats {
        RetryStats::from_value(&top.invoke("retry", "stats", &[]).unwrap()).unwrap()
    }

    #[test]
    fn transient_faults_recover_within_the_attempt_budget() {
        let (machine, top) = setup(RetryConfig::default());
        inject(&machine, 3);
        let t0 = machine.lock().now();
        top.invoke(
            "blockdev",
            "write",
            &[
                Value::Int(2),
                Value::Bytes(Bytes::from(vec![9; SECTOR_SIZE])),
            ],
        )
        .unwrap();
        // Three backoffs were slept on the virtual clock.
        assert!(machine.lock().now() > t0);
        let v = top.invoke("blockdev", "read", &[Value::Int(2)]).unwrap();
        assert_eq!(v.as_bytes().unwrap()[0], 9);
        let st = retry_stats(&top);
        assert_eq!(st.retries, 3);
        assert_eq!(st.recovered, 1);
        assert_eq!(st.exhausted, 0);
        // A commit carries its whole batch, so it is re-issued like any
        // other data-path verb.
        inject(&machine, 2);
        let batch = pairs_arg([3, 4].map(|sec| (sec, Bytes::from(vec![sec as u8; SECTOR_SIZE]))));
        let n = top.invoke("blockdev", "commit", &[batch]).unwrap();
        assert_eq!(n, Value::Int(2));
        let v = top
            .invoke("blockdev", "read_many", &[sectors_arg([3, 4])])
            .unwrap();
        let got: Vec<u8> = v
            .as_list()
            .unwrap()
            .iter()
            .map(|b| b.as_bytes().unwrap()[0])
            .collect();
        assert_eq!(got, [3, 4]);
        let st = retry_stats(&top);
        assert_eq!((st.retries, st.recovered, st.exhausted), (5, 2, 0));
    }

    #[test]
    fn exhausted_attempts_surface_the_original_error() {
        let (machine, top) = setup(RetryConfig {
            max_attempts: 3,
            ..RetryConfig::default()
        });
        inject(&machine, 100);
        let err = top
            .invoke("blockdev", "read", &[Value::Int(0)])
            .unwrap_err();
        assert_eq!(err, MachineError::Transient("disk").into());
        let st = retry_stats(&top);
        assert_eq!(st.retries, 2); // 3 attempts = 2 retries
        assert_eq!(st.exhausted, 1);
        // Clear the window: the device still works afterwards.
        machine
            .lock()
            .device_mut::<Disk>("disk")
            .unwrap()
            .clear_faults();
        top.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
    }

    #[test]
    fn permanent_errors_fail_fast_without_retries() {
        let (machine, top) = setup(RetryConfig::default());
        // Out of range: no retry (the single attempt's transfer charge is
        // the only time that passes — no backoff sleeps).
        let t0 = machine.lock().now();
        let err = top
            .invoke("blockdev", "read", &[Value::Int(1 << 40)])
            .unwrap_err();
        assert!(
            matches!(
                err,
                ObjError::Machine(MachineError::SectorOutOfRange {
                    sector: 0x100_0000_0000,
                    ..
                })
            ),
            "{err}"
        );
        assert!(machine.lock().now() - t0 <= SECTOR_TRANSFER_COST);
        // Power failure: fail fast too (retrying would burn crash state).
        machine.lock().arm_crash_after(1);
        let err = top
            .invoke("blockdev", "read", &[Value::Int(0)])
            .unwrap_err();
        assert_eq!(err, MachineError::PowerFailure.into());
        let st = retry_stats(&top);
        assert_eq!(st.retries, 0);
        assert_eq!(st.permanent, 2);
    }

    #[test]
    fn errors_are_classified_by_variant_not_by_text() {
        // Under retry, a driver whose `read` fails with a message that
        // reads like a disk transient but is only text.
        let machine = Arc::new(Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine.clone()));
        let driver = StackBuilder::disk(&mem, KERNEL_DOMAIN).build().unwrap();
        let worded = InterposerBuilder::new(driver.top)
            .override_method("blockdev", "read", |_, _| {
                Err(ObjError::failed("disk: transient I/O error (injected)"))
            })
            .build();
        let top = make_retry(machine.clone(), worded, RetryConfig::default());
        let write = |sec: i64| {
            let data = Value::Bytes(Bytes::from(vec![7; SECTOR_SIZE]));
            top.invoke("blockdev", "write", &[Value::Int(sec), data])
        };
        let stats = || {
            let st = retry_stats(&top);
            (st.retries, st.recovered, st.permanent)
        };

        // The text is not the variant: permanent, not retried.
        let err = top
            .invoke("blockdev", "read", &[Value::Int(0)])
            .unwrap_err();
        assert!(matches!(err, ObjError::Failed(_)), "{err}");
        assert_eq!(stats(), (0, 0, 1));

        // A power failure is permanent by its type.
        machine.lock().arm_crash_after(1);
        assert_eq!(write(0), Err(MachineError::PowerFailure.into()));
        assert_eq!(stats(), (0, 0, 2));
        {
            let mut m = machine.lock();
            m.disarm_crash();
            m.reboot();
        }

        // The disk's own transient is retried, and the write lands.
        inject(&machine, 2);
        write(1).unwrap();
        assert_eq!(stats(), (2, 1, 2));

        // A result carries its error inline: the machine's error widens
        // neither an error nor a result on the hit path.
        assert_eq!(std::mem::size_of::<ObjError>(), 56);
        assert_eq!(std::mem::size_of::<ObjResult<Value>>(), 56);
    }

    #[test]
    fn same_seed_same_backoff_schedule() {
        let elapsed = |seed: u64| {
            let (machine, top) = setup(RetryConfig {
                seed,
                ..RetryConfig::default()
            });
            inject(&machine, 3);
            let t0 = machine.lock().now();
            top.invoke("blockdev", "read", &[Value::Int(0)]).unwrap();
            let t1 = machine.lock().now();
            t1 - t0
        };
        assert_eq!(elapsed(7), elapsed(7));
        assert_ne!(elapsed(7), elapsed(8));
    }
}
