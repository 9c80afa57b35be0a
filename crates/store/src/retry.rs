//! The retrying block-driver interposer — self-healing for *transient*
//! disk faults.
//!
//! Sits between the raw disk driver and the journal (see
//! [`crate::StackBuilder::retry`]) and re-issues failed operations with
//! bounded exponential backoff plus seeded jitter, advancing the virtual
//! clock while it waits so drills stay deterministic. Error classes:
//!
//! - **transient** — the error message contains `"transient"` (the class
//!   [`Disk::inject_transient_errors`] arms): retried up to
//!   [`RetryConfig::max_attempts`] total attempts; if every attempt
//!   fails, the *last* error surfaces unchanged.
//! - **permanent** — everything else, notably power failure and
//!   out-of-range sectors: fails fast, zero retries. Retrying a power
//!   loss would only burn the crash budget; retrying a bad address would
//!   never succeed.
//!
//! Only idempotent verbs are retried (`read`/`write`/`read_many`/
//! `write_many`/`flush`/`barrier` — sector writes are exactly-once at
//! the device, so re-issuing a failed one is safe). Everything else is
//! delegated to the lower object untouched — notably the transaction
//! verbs: a `commit` that consumed its buffered writes must not be
//! re-driven blindly; crash-atomic commit is the journal's job, one layer
//! up.
//!
//! [`Disk::inject_transient_errors`]: paramecium_machine::dev::disk::Disk::inject_transient_errors

use std::sync::Arc;

use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};

use paramecium_machine::{cost::Cycles, Machine};
use paramecium_obj::{
    delegate_interface, InterfaceBuilder, ObjError, ObjRef, ObjResult, ObjectBuilder, TypeTag,
    Value,
};

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

/// Per-error-class counters, exported on the `retry` interface.
#[derive(Default)]
struct RetryStats {
    /// Operations issued (not counting re-issues).
    ops: u64,
    /// Re-issues after a transient failure.
    retries: u64,
    /// Operations that failed transiently but eventually succeeded.
    recovered: u64,
    /// Operations that exhausted every attempt (error surfaced).
    exhausted: u64,
    /// Operations that failed permanently (fail-fast passthrough).
    permanent: u64,
}

struct RetryState {
    machine: Arc<Mutex<Machine>>,
    lower: ObjRef,
    cfg: RetryConfig,
    rng: StdRng,
    stats: RetryStats,
}

/// Transient faults are self-identifying by message; see the module docs
/// for why classification is textual (the `blockdev` interface has one
/// error type for every layer).
fn is_transient(e: &ObjError) -> bool {
    let msg = e.to_string();
    msg.contains("transient") && !msg.contains("power failure")
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

/// The verbs worth re-issuing, with their `blockdev` signatures. Every
/// other `blockdev` method is delegated to the lower object untouched.
const RETRIED: [(&str, &[TypeTag], TypeTag); 6] = [
    ("read", &[TypeTag::Int], TypeTag::Bytes),
    ("write", &[TypeTag::Int, TypeTag::Bytes], TypeTag::Unit),
    ("read_many", &[TypeTag::List], TypeTag::List),
    ("write_many", &[TypeTag::List], TypeTag::Int),
    ("flush", &[], TypeTag::Int),
    ("barrier", &[], TypeTag::Unit),
];

/// Builds the retry interposer over `lower`. Prefer
/// [`crate::StackBuilder::retry`], which slots it between driver and
/// journal.
pub fn make_retry(machine: Arc<Mutex<Machine>>, lower: ObjRef, cfg: RetryConfig) -> ObjRef {
    assert!(cfg.max_attempts >= 1, "retry needs at least one attempt");
    let rng = StdRng::seed_from_u64(cfg.seed);
    let mut blockdev = InterfaceBuilder::new("blockdev");
    for (verb, params, returns) in RETRIED {
        blockdev = blockdev.method(verb, params, returns, move |this, args| {
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
                this.with_state(|s: &mut RetryState| {
                    let st = &s.stats;
                    Ok(Value::List(vec![
                        Value::Int(st.ops as i64),
                        Value::Int(st.retries as i64),
                        Value::Int(st.recovered as i64),
                        Value::Int(st.exhausted as i64),
                        Value::Int(st.permanent as i64),
                    ]))
                })
            })
        })
        .build()
}

/// Indices into the `retry stats` list.
pub const RETRY_STAT_OPS: usize = 0;
/// Re-issues after transient failures.
pub const RETRY_STAT_RETRIES: usize = 1;
/// Transient failures that recovered.
pub const RETRY_STAT_RECOVERED: usize = 2;
/// Operations that exhausted all attempts.
pub const RETRY_STAT_EXHAUSTED: usize = 3;
/// Fail-fast permanent errors.
pub const RETRY_STAT_PERMANENT: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackBuilder;
    use bytes::Bytes;
    use paramecium_core::{domain::KERNEL_DOMAIN, memsvc::MemService};
    use paramecium_machine::dev::disk::{Disk, SECTOR_SIZE, SECTOR_TRANSFER_COST};

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

    fn retry_stats(top: &ObjRef) -> Vec<i64> {
        top.invoke("retry", "stats", &[])
            .unwrap()
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
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
        assert_eq!(st[RETRY_STAT_RETRIES], 3);
        assert_eq!(st[RETRY_STAT_RECOVERED], 1);
        assert_eq!(st[RETRY_STAT_EXHAUSTED], 0);
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
        assert!(err.to_string().contains("transient"), "{err}");
        let st = retry_stats(&top);
        assert_eq!(st[RETRY_STAT_RETRIES], 2); // 3 attempts = 2 retries
        assert_eq!(st[RETRY_STAT_EXHAUSTED], 1);
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
        assert!(top
            .invoke("blockdev", "read", &[Value::Int(1 << 40)])
            .is_err());
        assert!(machine.lock().now() - t0 <= SECTOR_TRANSFER_COST);
        // Power failure: fail fast too (retrying would burn crash state).
        machine.lock().arm_crash_after(1);
        let err = top
            .invoke("blockdev", "read", &[Value::Int(0)])
            .unwrap_err();
        assert!(err.to_string().contains("power failure"), "{err}");
        let st = retry_stats(&top);
        assert_eq!(st[RETRY_STAT_RETRIES], 0);
        assert_eq!(st[RETRY_STAT_PERMANENT], 2);
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
