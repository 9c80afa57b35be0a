//! Cross-domain invocation through proxies.
//!
//! "Cross-domain invocations are implemented using proxies. Importing an
//! object from another protection domain, by means of the directory
//! service, causes a proxy to appear. This proxy provides exactly the same
//! set of interfaces as the original object, but each interface entry will
//! cause a page fault when referenced. Control is then transferred to a per
//! page fault handler which will map in arguments into the object's
//! protection domain, switch context, and invoke the actual method. Return
//! values are handled similarly." (paper, section 3).
//!
//! The proxy here does exactly that dance against the simulated machine:
//! each proxy owns an intentionally unmapped page in the caller's domain
//! with a per-page fault handler registered in the memory service; every
//! invocation touches that page, takes the real MMU fault, delivers it
//! through the event service (trap costs), marshals arguments (copy costs,
//! with object handles translated into nested proxies), switches context,
//! invokes the target, and marshals the result back.

use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use parking_lot::Mutex;

use paramecium_machine::{mmu::Access, trap::Trap, Machine, MachineError};
use paramecium_obj::{
    forward::WrapFn, forwarding_interface, value::ArgFrame, Forward, Interface, ObjError, ObjRef,
    ObjectBuilder, Value,
};

use crate::{domain::DomainId, events::EventService, memsvc::MemService};

/// Counters for cross-domain traffic.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Cross-domain invocations performed.
    pub crossings: AtomicU64,
    /// Argument + result bytes marshalled.
    pub bytes_marshalled: AtomicU64,
    /// Nested proxies created for handle arguments/results.
    pub nested_proxies: AtomicU64,
    /// Arguments transferred by page *mapping* rather than copying.
    pub args_mapped: AtomicU64,
    /// Byte threshold at or above which a byte-string argument is mapped
    /// instead of copied; 0 disables mapping (always copy). The paper's
    /// fault handler "will map in arguments into the object's protection
    /// domain" — this knob lets experiments compare both transports.
    pub map_threshold: AtomicU64,
}

impl ProxyStats {
    /// Total crossings so far.
    pub fn crossings(&self) -> u64 {
        self.crossings.load(Ordering::Relaxed)
    }

    /// Total marshalled bytes so far.
    pub fn bytes(&self) -> u64 {
        self.bytes_marshalled.load(Ordering::Relaxed)
    }
}

/// Everything a proxy needs to perform a crossing.
pub struct ProxyCtx {
    /// The machine (for faults, context switches and cycle accounting).
    pub machine: Arc<Mutex<Machine>>,
    /// The event service traps are delivered through.
    pub events: Arc<EventService>,
    /// The memory service holding the per-page fault handlers.
    pub mem: Arc<MemService>,
    /// Shared traffic counters.
    pub stats: Arc<ProxyStats>,
}

impl Clone for ProxyCtx {
    fn clone(&self) -> Self {
        ProxyCtx {
            machine: self.machine.clone(),
            events: self.events.clone(),
            mem: self.mem.clone(),
            stats: self.stats.clone(),
        }
    }
}

/// Builds a proxy in `caller` domain standing for `target` living in
/// `target_domain`.
///
/// The proxy exports exactly the same interfaces as the target (including
/// a forwarding fallback for methods added later).
pub fn make_proxy(
    ctx: &ProxyCtx,
    target: ObjRef,
    target_domain: DomainId,
    caller: DomainId,
) -> ObjRef {
    // The fault page: reserved, never mapped, with a per-page handler.
    let fault_vaddr = ctx.mem.reserve_vaddr(caller, 1);
    {
        let stats = ctx.stats.clone();
        ctx.mem.set_fault_handler(
            caller,
            fault_vaddr,
            Arc::new(move |_fault| {
                stats.crossings.fetch_add(1, Ordering::Relaxed);
            }),
        );
    }

    let cross = CrossCall {
        ctx: ctx.clone(),
        target_domain,
        caller,
        fault_vaddr,
    };

    // Every interface entry is a forward with the crossing wrapped around
    // it: the target's method handle is resolved once per entry and
    // revalidated against the target's export generation on every
    // crossing, so a re-export on the target can never reach the
    // superseded implementation.
    let crossing: WrapFn =
        Arc::new(move |forward: &Forward<'_>, args: &[Value]| cross.invoke(forward, args));
    let mut builder = ObjectBuilder::new(format!("proxy<{}>", target.class()));
    for desc in target.descriptors() {
        let target = target.clone();
        builder = builder.raw_interface(forwarding_interface(
            Interface::new(desc.interface),
            desc.methods,
            move |_| Ok(target.clone()),
            |_| Some(crossing.clone()),
        ));
    }
    builder.build()
}

/// The captured state of one proxy.
struct CrossCall {
    ctx: ProxyCtx,
    target_domain: DomainId,
    caller: DomainId,
    fault_vaddr: u64,
}

impl CrossCall {
    fn map_threshold(&self) -> usize {
        self.ctx.stats.map_threshold.load(Ordering::Relaxed) as usize
    }

    /// Performs one cross-domain invocation.
    fn invoke(&self, forward: &Forward<'_>, args: &[Value]) -> Result<Value, ObjError> {
        // 1. Reference the fault page: a genuine MMU fault in the caller's
        //    context.
        let fault = {
            let mut m = self.ctx.machine.lock();
            // The caller runs in its own context when it touches the proxy.
            let _ = m.switch_context(self.caller.context());
            match m.translate(self.caller.context(), self.fault_vaddr, Access::Exec) {
                Err(MachineError::Fault(f)) => f,
                Err(e) => return Err(ObjError::failed(format!("proxy fault setup: {e}"))),
                Ok(_) => {
                    return Err(ObjError::failed(
                        "proxy fault page unexpectedly mapped".to_owned(),
                    ))
                }
            }
        };

        // 2. Deliver the trap: event service charges trap costs and runs
        //    the nucleus's page-fault call-back, which routes to our
        //    per-page handler.
        self.ctx
            .events
            .deliver(&self.ctx.machine, &Trap::page_fault(fault));

        // 3. Map in (marshal) the arguments and switch to the target's
        //    context. The translated frame lives in an `ArgFrame`: small
        //    flat frames stay entirely on the stack instead of paying a
        //    `Vec` allocation per crossing.
        let mut bytes = 0usize;
        let mut sent = ArgFrame::with_capacity(args.len());
        for a in args {
            let (v, n) = self.translate_value(a, self.caller, self.target_domain)?;
            bytes += n;
            sent.push(v);
        }
        {
            let mut m = self.ctx.machine.lock();
            let cost = m.cost.copy_cost(bytes);
            m.charge(cost);
            m.switch_context(self.target_domain.context())
                .map_err(|e| ObjError::failed(format!("context switch: {e}")))?;
        }

        // 4. Invoke the actual method in the target's domain, through the
        //    proxy entry's pinned method handle when it is still current.
        let result = forward.call(sent.as_slice());

        // 5. Marshal the result back and return to the caller's context.
        let back = match result {
            Ok(v) => {
                let (v, n) = self.translate_value(&v, self.target_domain, self.caller)?;
                bytes += n;
                Ok(v)
            }
            Err(e) => Err(e),
        };
        {
            let mut m = self.ctx.machine.lock();
            let ret_bytes = if back.is_ok() { bytes } else { 0 };
            let cost = m.cost.copy_cost(ret_bytes);
            m.charge(cost);
            let _ = m.switch_context(self.caller.context());
        }
        self.ctx
            .stats
            .bytes_marshalled
            .fetch_add(bytes as u64, Ordering::Relaxed);
        back
    }

    /// Marshals one value across the boundary: flat values are encoded and
    /// decoded (a genuine copy), handles become nested proxies pointing
    /// back at `from`.
    fn translate_value(
        &self,
        v: &Value,
        from: DomainId,
        to: DomainId,
    ) -> Result<(Value, usize), ObjError> {
        match v {
            Value::Handle(h) => {
                self.ctx
                    .stats
                    .nested_proxies
                    .fetch_add(1, Ordering::Relaxed);
                let proxy = make_proxy(&self.ctx, h.clone(), from, to);
                Ok((Value::Handle(proxy), v.marshalled_size()))
            }
            Value::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                let mut bytes = 5; // List framing.
                for item in items {
                    let (tv, n) = self.translate_value(item, from, to)?;
                    bytes += n;
                    out.push(tv);
                }
                Ok((Value::List(out), bytes))
            }
            Value::Bytes(b) if self.map_threshold() > 0 && b.len() >= self.map_threshold() => {
                // Large payload: map the backing pages instead of copying.
                // The page-table writes are charged here; the byte count
                // recorded is 0 because no bytes move.
                let pages = b.len().div_ceil(paramecium_machine::PAGE_SIZE) as u64;
                let mut m = self.ctx.machine.lock();
                let cost = pages * m.cost.page_map;
                m.charge(cost);
                drop(m);
                self.ctx.stats.args_mapped.fetch_add(1, Ordering::Relaxed);
                Ok((Value::Bytes(b.clone()), 0))
            }
            flat => {
                let mut buf = Vec::with_capacity(flat.marshalled_size());
                flat.encode(&mut buf)?;
                let mut pos = 0;
                let copied = Value::decode(&buf, &mut pos)?;
                Ok((copied, buf.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        domain::{DomainId, KERNEL_DOMAIN},
        events::EventService,
        memsvc::MemService,
    };
    use paramecium_machine::trap::TrapKind;
    use paramecium_obj::{ObjectBuilder, TypeTag};

    /// Builds a two-domain world with the page-fault wiring the nucleus
    /// normally installs.
    fn world() -> (ProxyCtx, DomainId) {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let user = DomainId::from(machine.lock().mmu.create_context());
        let events = Arc::new(EventService::new());
        let mem = Arc::new(MemService::new(machine.clone()));
        let mem_for_faults = mem.clone();
        events
            .register(
                TrapKind::PageFault.vector(),
                KERNEL_DOMAIN,
                Arc::new(move |trap: &Trap| {
                    if let Some(fault) = &trap.fault {
                        mem_for_faults.handle_fault(fault);
                    }
                }),
            )
            .unwrap();
        (
            ProxyCtx {
                machine,
                events,
                mem,
                stats: Arc::new(ProxyStats::default()),
            },
            user,
        )
    }

    fn adder() -> ObjRef {
        ObjectBuilder::new("adder")
            .state(0i64)
            .interface("math", |i| {
                i.method(
                    "add",
                    &[TypeTag::Int, TypeTag::Int],
                    TypeTag::Int,
                    |_, args| Ok(Value::Int(args[0].as_int()? + args[1].as_int()?)),
                )
                .method("acc", &[TypeTag::Int], TypeTag::Int, |this, args| {
                    let v = args[0].as_int()?;
                    this.with_state(|s: &mut i64| {
                        *s += v;
                        Ok(Value::Int(*s))
                    })
                })
            })
            .build()
    }

    #[test]
    fn proxy_invokes_target_transparently() {
        let (ctx, user) = world();
        let target = adder();
        let proxy = make_proxy(&ctx, target.clone(), KERNEL_DOMAIN, user);
        assert_eq!(proxy.class(), "proxy<adder>");
        let r = proxy
            .invoke("math", "add", &[Value::Int(2), Value::Int(40)])
            .unwrap();
        assert_eq!(r, Value::Int(42));
        assert_eq!(ctx.stats.crossings(), 1);
        assert!(ctx.stats.bytes() > 0);
    }

    #[test]
    fn proxy_state_lives_in_target() {
        let (ctx, user) = world();
        let target = adder();
        let proxy = make_proxy(&ctx, target.clone(), KERNEL_DOMAIN, user);
        proxy.invoke("math", "acc", &[Value::Int(10)]).unwrap();
        proxy.invoke("math", "acc", &[Value::Int(5)]).unwrap();
        // Direct call sees the accumulated state.
        assert_eq!(
            target.invoke("math", "acc", &[Value::Int(0)]).unwrap(),
            Value::Int(15)
        );
    }

    #[test]
    fn crossing_charges_trap_and_switch_costs() {
        let (ctx, user) = world();
        let proxy = make_proxy(&ctx, adder(), KERNEL_DOMAIN, user);
        let before = ctx.machine.lock().now();
        proxy
            .invoke("math", "add", &[Value::Int(1), Value::Int(1)])
            .unwrap();
        let elapsed = ctx.machine.lock().now() - before;
        let floor = {
            let m = ctx.machine.lock();
            // At minimum: trap enter+exit and two context switches.
            m.cost.trap_enter + m.cost.trap_exit + 2 * m.cost.context_switch
        };
        assert!(elapsed >= floor, "elapsed {elapsed} < floor {floor}");
    }

    #[test]
    fn larger_arguments_cost_more() {
        let (ctx, user) = world();
        let echo = ObjectBuilder::new("echo")
            .interface("echo", |i| {
                i.method("echo", &[TypeTag::Bytes], TypeTag::Bytes, |_, args| {
                    Ok(args[0].clone())
                })
            })
            .build();
        let proxy = make_proxy(&ctx, echo, KERNEL_DOMAIN, user);
        let small_cost = {
            let before = ctx.machine.lock().now();
            proxy
                .invoke(
                    "echo",
                    "echo",
                    &[Value::Bytes(bytes::Bytes::from(vec![0u8; 16]))],
                )
                .unwrap();
            ctx.machine.lock().now() - before
        };
        let big_cost = {
            let before = ctx.machine.lock().now();
            proxy
                .invoke(
                    "echo",
                    "echo",
                    &[Value::Bytes(bytes::Bytes::from(vec![0u8; 4096]))],
                )
                .unwrap();
            ctx.machine.lock().now() - before
        };
        assert!(
            big_cost > small_cost,
            "big {big_cost} <= small {small_cost}"
        );
    }

    #[test]
    fn large_args_can_be_mapped_instead_of_copied() {
        let (ctx, user) = world();
        let echo = ObjectBuilder::new("echo")
            .interface("echo", |i| {
                i.method("echo", &[TypeTag::Bytes], TypeTag::Bytes, |_, args| {
                    Ok(args[0].clone())
                })
            })
            .build();
        let proxy = make_proxy(&ctx, echo, KERNEL_DOMAIN, user);
        let big = Value::Bytes(bytes::Bytes::from(vec![7u8; 16 * 4096]));

        // Copy transport.
        let t0 = ctx.machine.lock().now();
        proxy
            .invoke("echo", "echo", std::slice::from_ref(&big))
            .unwrap();
        let copy_cost = ctx.machine.lock().now() - t0;

        // Map transport for payloads ≥ one page.
        ctx.stats.map_threshold.store(4096, Ordering::Relaxed);
        let t0 = ctx.machine.lock().now();
        let out = proxy
            .invoke("echo", "echo", std::slice::from_ref(&big))
            .unwrap();
        let map_cost = ctx.machine.lock().now() - t0;
        assert_eq!(out, big, "mapping is transparent to the callee");
        assert_eq!(ctx.stats.args_mapped.load(Ordering::Relaxed), 2); // Arg + result.
        assert!(
            map_cost < copy_cost,
            "mapping 64 KiB ({map_cost}) should beat copying it ({copy_cost})"
        );

        // Small args still copy even with mapping enabled.
        let before = ctx.stats.args_mapped.load(Ordering::Relaxed);
        proxy
            .invoke(
                "echo",
                "echo",
                &[Value::Bytes(bytes::Bytes::from_static(b"tiny"))],
            )
            .unwrap();
        assert_eq!(ctx.stats.args_mapped.load(Ordering::Relaxed), before);
    }

    #[test]
    fn handle_arguments_become_nested_proxies() {
        let (ctx, user) = world();
        // A kernel service that calls back into whatever handle you give it.
        let invoker = ObjectBuilder::new("invoker")
            .interface("run", |i| {
                i.method("call", &[TypeTag::Handle], TypeTag::Int, |_, args| {
                    let h = args[0].as_handle()?;
                    h.invoke("math", "add", &[Value::Int(20), Value::Int(22)])
                })
            })
            .build();
        let proxy = make_proxy(&ctx, invoker, KERNEL_DOMAIN, user);
        // The user passes a handle to its own (user-domain) object.
        let user_obj = adder();
        let r = proxy
            .invoke("run", "call", &[Value::Handle(user_obj)])
            .unwrap();
        assert_eq!(r, Value::Int(42));
        // Outer call + nested callback = 2 crossings, 1 nested proxy.
        assert_eq!(ctx.stats.crossings(), 2);
        assert_eq!(ctx.stats.nested_proxies.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn errors_propagate_across_domains() {
        let (ctx, user) = world();
        let proxy = make_proxy(&ctx, adder(), KERNEL_DOMAIN, user);
        assert!(matches!(
            proxy.invoke("math", "nope", &[]),
            Err(ObjError::NoSuchMethod { .. })
        ));
        assert!(matches!(
            proxy.invoke("nope", "add", &[]),
            Err(ObjError::NoSuchInterface { .. })
        ));
        // Type errors are caught by the proxy's copied signatures before
        // any crossing happens.
        let before = ctx.stats.crossings();
        assert!(proxy
            .invoke("math", "add", &[Value::Str("x".into()), Value::Int(1)])
            .is_err());
        assert_eq!(ctx.stats.crossings(), before);
    }

    #[test]
    fn caller_context_is_restored_after_call() {
        let (ctx, user) = world();
        let proxy = make_proxy(&ctx, adder(), KERNEL_DOMAIN, user);
        proxy
            .invoke("math", "add", &[Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(ctx.machine.lock().mmu.current_context(), user.context());
    }

    #[test]
    fn page_fault_events_are_visible_in_event_stats() {
        let (ctx, user) = world();
        let proxy = make_proxy(&ctx, adder(), KERNEL_DOMAIN, user);
        for _ in 0..3 {
            proxy
                .invoke("math", "add", &[Value::Int(1), Value::Int(2)])
                .unwrap();
        }
        let s = ctx.events.stats(TrapKind::PageFault.vector());
        assert_eq!(s.delivered, 3);
    }
}
