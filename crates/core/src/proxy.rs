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
//!
//! # Lock scopes
//!
//! A crossing takes the machine lock three times, each scope running a
//! run of trap steps back to back:
//!
//! 1. the fault, the trap entry and the switch into the fault call-back's
//!    domain;
//! 2. the trap exit, marshalling the arguments and the switch into the
//!    target's domain;
//! 3. marshalling the result back and the switch into the caller's domain.
//!
//! The event service hands the held machine through the delivery
//! (`EventService::deliver_held`) and releases it while the fault
//! call-back runs, and the target runs between scopes 2 and 3: both may
//! make nested crossings of their own, which take the machine themselves.
//! Marshalling charges page mapping on the held machine, and building a
//! nested proxy for a handle (`make_proxy`) never locks the machine, so
//! it is safe under the lock. Every charge is issued in the order the
//! steps run.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

use parking_lot::Mutex;

use paramecium_machine::{mmu::Access, trap::Trap, Machine, MachineError};
use paramecium_obj::{
    forward::WrapFn, forwarding_interface, Forward, Interface, ObjError, ObjRef, ObjectBuilder,
    Target, Value,
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
    /// Crossings whose callee panicked: each returned
    /// [`ObjError::DomainFault`] to its caller.
    pub faults: AtomicU64,
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
#[derive(Clone)]
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

/// Builds a proxy in `caller` domain standing for `target` living in
/// `target_domain`.
///
/// The proxy exports exactly the same interfaces as the target, under the
/// same signatures, and answers exactly their methods. Building one never
/// locks the machine, so a crossing builds nested proxies under its lock.
pub(crate) fn make_proxy(
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
    // it: the call inside the crossing is the target's own `invoke`.
    let crossing: WrapFn =
        Arc::new(move |forward: &Forward<'_>, args: &[Value]| cross.invoke(forward, args));
    let mut builder = ObjectBuilder::new(format!("proxy<{}>", target.class()));
    let target = Target::new(target.clone(), target.interface_names().collect());
    for &name in target.forwarded() {
        builder = builder.raw_interface(forwarding_interface(
            Interface::new(name),
            target.clone(),
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
        let machine = &*self.ctx.machine;
        // 1. Reference the fault page: a genuine MMU fault in the caller's
        //    context. The caller runs in its own context when it touches
        //    the proxy.
        let mut m = machine.lock();
        let _ = m.switch_context(self.caller.context());
        let fault = match m.translate(self.caller.context(), self.fault_vaddr, Access::Exec) {
            Err(MachineError::Fault(f)) => f,
            Err(e) => return Err(e.into()),
            Ok(_) => return Err(ObjError::failed("proxy fault page unexpectedly mapped")),
        };

        // 2. Deliver the trap: event service charges trap costs and runs
        //    the nucleus's page-fault call-back, which routes to our
        //    per-page handler. The machine comes back held.
        let (mut m, _) = self
            .ctx
            .events
            .deliver_held(machine, m, &Trap::page_fault(fault));

        // 3. Map in (marshal) the arguments and switch to the target's
        //    context. Values are immutable, so a frame with no handle in it
        //    crosses as the caller's own slice; only a frame carrying a
        //    handle is rebuilt, around its nested proxies.
        let mut bytes = 0usize;
        let rebuilt =
            self.translate_frame(&mut m, args, self.caller, self.target_domain, &mut bytes);
        let cost = m.cost.copy_cost(bytes);
        m.charge(cost);
        let entered = m.switch_context(self.target_domain.context());
        drop(m);

        // 4. Invoke the actual method in the target's domain. A failed
        //    switch is the call's result, and returns like any failure. A
        //    panic in the callee stops at the domain's boundary as a typed
        //    fault, and the return below still runs.
        let result = entered.map_err(ObjError::from).and_then(|()| {
            panic::catch_unwind(AssertUnwindSafe(|| {
                forward.call(rebuilt.as_deref().unwrap_or(args))
            }))
            .unwrap_or_else(|_| {
                self.ctx.stats.faults.fetch_add(1, Ordering::Relaxed);
                Err(ObjError::DomainFault {
                    domain: self.target_domain.0,
                })
            })
        });

        // 5. Marshal the result back and return to the caller's context.
        let mut m = machine.lock();
        let back = result.map(|v| {
            self.translate_value(&mut m, &v, self.target_domain, self.caller, &mut bytes)
                .unwrap_or(v)
        });
        let ret_bytes = if back.is_ok() { bytes } else { 0 };
        let cost = m.cost.copy_cost(ret_bytes);
        m.charge(cost);
        let _ = m.switch_context(self.caller.context());
        drop(m);
        self.ctx
            .stats
            .bytes_marshalled
            .fetch_add(bytes as u64, Ordering::Relaxed);
        back
    }

    /// Marshals a frame of values across the boundary, in order, on the
    /// held machine `m`, adding what it costs to `bytes`. Returns the
    /// frame to send in its place only when some value in it holds a
    /// handle; `None` means the values cross as they are.
    fn translate_frame(
        &self,
        m: &mut Machine,
        values: &[Value],
        from: DomainId,
        to: DomainId,
        bytes: &mut usize,
    ) -> Option<Vec<Value>> {
        let mut rebuilt: Option<Vec<Value>> = None;
        for (i, v) in values.iter().enumerate() {
            let translated = self.translate_value(m, v, from, to, bytes);
            match (&mut rebuilt, translated) {
                (Some(out), t) => out.push(t.unwrap_or_else(|| v.clone())),
                (None, Some(t)) => {
                    let mut out = Vec::with_capacity(values.len());
                    out.extend_from_slice(&values[..i]);
                    out.push(t);
                    rebuilt = Some(out);
                }
                (None, None) => {}
            }
        }
        rebuilt
    }

    /// Marshals one value across the boundary on the held machine `m`,
    /// adding its `marshalled_size` to `bytes`: values are immutable, so a
    /// flat one is the callee's as it is, and only handles — at any depth
    /// of a list — become nested proxies pointing back at `from`. Returns
    /// the value to send in `v`'s place when it holds a handle.
    fn translate_value(
        &self,
        m: &mut Machine,
        v: &Value,
        from: DomainId,
        to: DomainId,
        bytes: &mut usize,
    ) -> Option<Value> {
        match v {
            Value::Handle(h) => {
                self.ctx
                    .stats
                    .nested_proxies
                    .fetch_add(1, Ordering::Relaxed);
                *bytes += v.marshalled_size();
                Some(Value::Handle(make_proxy(&self.ctx, h.clone(), from, to)))
            }
            Value::List(items) => {
                *bytes += 5; // List framing.
                self.translate_frame(m, items, from, to, bytes)
                    .map(Value::List)
            }
            Value::Bytes(b) if self.map_threshold() > 0 && b.len() >= self.map_threshold() => {
                // Large payload: map the backing pages instead of copying.
                // The page-table writes are charged here; the byte count
                // recorded is 0 because no bytes move.
                let pages = b.len().div_ceil(paramecium_machine::PAGE_SIZE) as u64;
                let cost = pages * m.cost.page_map;
                m.charge(cost);
                self.ctx.stats.args_mapped.fetch_add(1, Ordering::Relaxed);
                None
            }
            flat => {
                *bytes += flat.marshalled_size();
                None
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
        let user = DomainId::from(machine.lock().mmu.create_context().unwrap());
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
    fn handles_nested_in_lists_become_nested_proxies() {
        let (ctx, user) = world();
        // A kernel service that calls back into the handle it finds inside
        // its list argument — which must be a proxy, not the raw handle.
        let invoker = ObjectBuilder::new("invoker")
            .interface("run", |i| {
                i.method("call", &[TypeTag::List], TypeTag::Int, |_, args| {
                    let [by, h] = args[0].as_list()? else {
                        return Err(ObjError::failed("expected [by, handle]"));
                    };
                    let h = h.as_handle()?;
                    if h.class() != "proxy<adder>" {
                        return Err(ObjError::failed(format!("got {}", h.class())));
                    }
                    h.invoke("math", "acc", std::slice::from_ref(by))
                })
            })
            .build();
        let proxy = make_proxy(&ctx, invoker, KERNEL_DOMAIN, user);
        let user_obj = adder();
        let arg = Value::List(vec![Value::Int(7), Value::Handle(user_obj.clone())]);
        let r = proxy.invoke("run", "call", &[arg]).unwrap();
        assert_eq!(r, Value::Int(7));
        // The callback reached the caller's own object.
        assert_eq!(
            user_obj.invoke("math", "acc", &[Value::Int(0)]).unwrap(),
            Value::Int(7)
        );
        assert_eq!(ctx.stats.crossings(), 2);
        assert_eq!(ctx.stats.nested_proxies.load(Ordering::Relaxed), 1);
        // Outer: list 5 + int 9 + handle 9, int result 9; callback: int 9
        // each way.
        assert_eq!(ctx.stats.bytes(), 5 + 9 + 9 + 9 + 9 + 9);
    }

    #[test]
    fn errors_propagate_across_domains() {
        let (ctx, user) = world();
        let proxy = make_proxy(&ctx, adder(), KERNEL_DOMAIN, user);
        // A method the interface lacks is refused by the proxy itself,
        // before any crossing.
        assert!(matches!(
            proxy.invoke("math", "nope", &[]),
            Err(ObjError::NoSuchMethod { .. })
        ));
        assert_eq!(ctx.stats.crossings(), 0);
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
    fn a_panicking_callee_faults_its_domain_and_the_crossing_returns() {
        let (ctx, user) = world();
        let server = DomainId::from(ctx.machine.lock().mmu.create_context().unwrap());
        let bomb = ObjectBuilder::new("bomb")
            .interface("math", |i| {
                i.method(
                    "add",
                    &[TypeTag::Int, TypeTag::Int],
                    TypeTag::Int,
                    |_, _| panic!("a buggy extension"),
                )
            })
            .build();
        let bomb = make_proxy(&ctx, bomb, server, user);
        let sound = make_proxy(&ctx, adder(), server, user);
        let args = [Value::Int(1), Value::Int(2)];
        let switches = |ctx: &ProxyCtx| ctx.machine.lock().mmu.switch_count();

        // The machine boots in the kernel's context: the first call also
        // switches into the caller's.
        sound.invoke("math", "add", &args).unwrap();
        let before = switches(&ctx);
        sound.invoke("math", "add", &args).unwrap();
        let per_call = switches(&ctx) - before;

        let before = switches(&ctx);
        let bytes = ctx.stats.bytes();
        let r = bomb.invoke("math", "add", &args);
        assert_eq!(r, Err(ObjError::DomainFault { domain: server.0 }));
        assert_eq!(
            ctx.machine.lock().mmu.current_context(),
            user.context(),
            "the caller runs in its own context again"
        );
        // The return ran: it switched back like any call, and the
        // arguments' bytes were counted (a fault marshals no result).
        assert_eq!(switches(&ctx) - before, per_call);
        assert_eq!(ctx.stats.bytes() - bytes, 9 + 9);
        assert_eq!(ctx.stats.faults.load(Ordering::Relaxed), 1);

        // Neither the caller nor the server domain is left broken.
        assert_eq!(sound.invoke("math", "add", &args).unwrap(), Value::Int(3));
        assert!(bomb.invoke("math", "add", &args).is_err());
        assert_eq!(ctx.stats.faults.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn caller_context_is_restored_after_a_failed_switch() {
        let (ctx, user) = world();
        let server = DomainId::from(ctx.machine.lock().mmu.create_context().unwrap());
        let proxy = make_proxy(&ctx, adder(), server, user);
        ctx.machine
            .lock()
            .mmu
            .destroy_context(server.context())
            .unwrap();
        let switches = ctx.machine.lock().mmu.switch_count();
        let r = proxy.invoke("math", "add", &[Value::Int(1), Value::Int(2)]);
        assert_eq!(
            r,
            Err(ObjError::Machine(MachineError::NoSuchContext(server.0)))
        );
        let m = ctx.machine.lock();
        assert_eq!(m.mmu.current_context(), user.context());
        // Into the caller to touch the fault page (the machine boots in the
        // kernel), into the kernel for the fault call-back, and back.
        assert_eq!(m.mmu.switch_count() - switches, 3);
    }

    #[test]
    fn a_fault_call_back_can_make_a_nested_crossing() {
        // A second page-fault call-back crosses into the kernel itself the
        // first time it runs. Delivery must have let go of the machine
        // before running it, or the nested crossing would block on it.
        let (ctx, user) = world();
        let inner: Arc<std::sync::OnceLock<ObjRef>> = Arc::default();
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let inner_result = Arc::new(Mutex::new(None));
        {
            let (inner, armed, inner_result) = (inner.clone(), armed.clone(), inner_result.clone());
            ctx.events
                .register(
                    TrapKind::PageFault.vector(),
                    KERNEL_DOMAIN,
                    Arc::new(move |_: &Trap| {
                        if armed.swap(false, Ordering::Relaxed) {
                            let r = inner.get().expect("set before the first crossing").invoke(
                                "math",
                                "add",
                                &[Value::Int(20), Value::Int(22)],
                            );
                            *inner_result.lock() = Some(r);
                        }
                    }),
                )
                .unwrap();
        }
        let _ = inner.set(make_proxy(&ctx, adder(), KERNEL_DOMAIN, user));
        let outer = make_proxy(&ctx, adder(), KERNEL_DOMAIN, user);
        let r = outer
            .invoke("math", "add", &[Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(r, Value::Int(3));
        assert_eq!(inner_result.lock().take(), Some(Ok(Value::Int(42))));
        assert_eq!(ctx.stats.crossings(), 2);
        assert_eq!(ctx.events.stats(TrapKind::PageFault.vector()).delivered, 2);
        assert_eq!(ctx.machine.lock().mmu.current_context(), user.context());
    }

    #[test]
    fn a_crossing_with_a_handle_and_a_mapped_payload_costs_what_it_did() {
        // A kernel service that calls back into the handle it is given and
        // echoes the payload: the outer crossing maps 8 KiB each way and
        // builds a nested proxy, whose call-back crosses back to the user.
        let (ctx, user) = world();
        let service = ObjectBuilder::new("service")
            .interface("run", |i| {
                i.method(
                    "call",
                    &[TypeTag::Handle, TypeTag::Bytes],
                    TypeTag::Bytes,
                    |_, args| {
                        let h = args[0].as_handle()?;
                        h.invoke("math", "add", &[Value::Int(20), Value::Int(22)])?;
                        Ok(args[1].clone())
                    },
                )
            })
            .build();
        let proxy = make_proxy(&ctx, service, KERNEL_DOMAIN, user);
        ctx.stats.map_threshold.store(4096, Ordering::Relaxed);
        let payload = Value::Bytes(bytes::Bytes::from(vec![3u8; 8192]));
        let (cycles, events, switches) = {
            let m = ctx.machine.lock();
            (m.now(), m.charge_events(), m.mmu.switch_count())
        };
        let out = proxy
            .invoke("run", "call", &[Value::Handle(adder()), payload.clone()])
            .unwrap();
        assert_eq!(out, payload);
        let m = ctx.machine.lock();
        // Pinned: the values the six-lock crossing gave. Taking the machine
        // in three scopes moves no charge.
        assert_eq!(
            (
                m.now() - cycles,
                m.charge_events() - events,
                m.mmu.switch_count() - switches
            ),
            (2948, 17, 5)
        );
        assert_eq!(ctx.stats.crossings(), 2);
        assert_eq!(ctx.stats.args_mapped.load(Ordering::Relaxed), 2);
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
