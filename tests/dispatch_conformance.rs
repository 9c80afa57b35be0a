//! Dispatch conformance suite: fast path ≡ slow path, differentially.
//!
//! The invocation stack serves repeated calls from one cache: the
//! per-object inline cache behind `Object::invoke`, invalidated by the
//! object's export generation. Every interposer, composition, delegation
//! and cross-domain proxy forwards through it too — a forwarded call is the
//! current target's own `invoke` — so a retarget, a child replacement or a
//! re-export must each take effect on the very next call.
//! Because that cache silently touches every call path, this suite pins
//! its semantics against the cache-free reference
//! (`Object::invoke_uncached`) for every dispatch flavour: twin objects
//! are built from one factory and driven through the same call script,
//! one twin through the cached fast path (repeating each call so the warm
//! path is actually exercised), the other through the uncached slow path;
//! the transcripts must be identical, including errors and per-object
//! invocation accounting.
//!
//! Profiles: debug (tier-1) and release (CI's workspace step) both matter —
//! inline caches and lock-free snapshots are optimisation-sensitive.

use paramecium::obj::{
    compose::COMPOSITION_IFACE, delegate_interface, interpose::INTERPOSER_IFACE, InterfaceBuilder,
    ObjError,
};
use paramecium::prelude::*;
use paramecium::store::vectored::{pairs_arg, view_pairs};
use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};

/// One scripted call: `(interface, method, args)`.
type Call = (&'static str, &'static str, Vec<Value>);

/// A transcript entry: the canonicalised outcome of one call.
///
/// `Value::Handle` compares by identity, which can never match across
/// twins, so outcomes are canonicalised structurally (handles render as
/// their class name).
fn canon(r: &Result<Value, ObjError>) -> String {
    fn v(val: &Value) -> String {
        match val {
            Value::Handle(h) => format!("handle<{}>", h.class()),
            Value::List(items) => {
                let inner: Vec<String> = items.iter().map(v).collect();
                format!("[{}]", inner.join(","))
            }
            other => format!("{other:?}"),
        }
    }
    match r {
        Ok(val) => format!("ok:{}", v(val)),
        Err(e) => format!("err:{e:?}"),
    }
}

/// Drives `obj` through `script`. With `fast` each call runs three times
/// through the cached path (cold populate, then two warm hits) and the
/// transcript records the *last* (fully warm) outcome; without it, every
/// call takes the uncached reference path exactly three times too, so
/// state mutations and invocation counts stay comparable.
fn drive(obj: &ObjRef, script: &[Call], fast: bool) -> Vec<String> {
    script
        .iter()
        .map(|(iface, method, args)| {
            let mut last = None;
            for _ in 0..3 {
                let r = if fast {
                    obj.invoke(iface, method, args)
                } else {
                    obj.invoke_uncached(iface, method, args)
                };
                last = Some(r);
            }
            canon(&last.expect("script ran"))
        })
        .collect()
}

/// Builds twins from `factory`, runs `script` fast and slow, and asserts
/// transcript + invocation-count equivalence.
fn assert_conformance(factory: impl Fn() -> ObjRef, script: &[Call]) {
    let fast_obj = factory();
    let slow_obj = factory();
    let fast = drive(&fast_obj, script, true);
    let slow = drive(&slow_obj, script, false);
    assert_eq!(fast, slow, "fast-path transcript diverged from slow path");
    assert_eq!(
        fast_obj.invocation_count(),
        slow_obj.invocation_count(),
        "invocation accounting diverged"
    );
}

fn counter_interface() -> paramecium::obj::Interface {
    InterfaceBuilder::new("ctr")
        .method("incr", &[TypeTag::Int], TypeTag::Int, |this, args| {
            let by = args[0].as_int()?;
            this.with_state(|n: &mut i64| {
                *n += by;
                Ok(Value::Int(*n))
            })
        })
        .method("get", &[], TypeTag::Int, |this, _| {
            this.with_state(|n: &mut i64| Ok(Value::Int(*n)))
        })
        .method("name", &[], TypeTag::Str, |_, _| {
            Ok(Value::Str("counter".into()))
        })
        .finish()
}

fn counter() -> ObjRef {
    ObjectBuilder::new("counter")
        .state(0i64)
        .raw_interface(counter_interface())
        .build()
}

/// A child delegating `ctr` to a counter that exports it only *after*
/// the child was wired, so every delegated call is served by the
/// child's fallback (delegation installs forwards for what the target
/// exports at wiring time).
fn late_bound_child() -> (ObjRef, ObjRef) {
    let base = ObjectBuilder::new("counter").state(0i64).build();
    let child = ObjectBuilder::new("child")
        .raw_interface(delegate_interface(
            InterfaceBuilder::new("ctr").finish(),
            base.clone(),
        ))
        .build();
    base.export_interface(counter_interface());
    (child, base)
}

/// The standard probe script: state mutation, reads, arity error, type
/// error, missing method, missing interface.
fn counter_script() -> Vec<Call> {
    vec![
        ("ctr", "incr", vec![Value::Int(2)]),
        ("ctr", "get", vec![]),
        ("ctr", "name", vec![]),
        ("ctr", "incr", vec![]),                       // arity error
        ("ctr", "incr", vec![Value::Str("x".into())]), // type error
        ("ctr", "nope", vec![]),                       // missing method
        ("nope", "get", vec![]),                       // missing interface
        ("ctr", "incr", vec![Value::Int(5)]),
        ("ctr", "get", vec![]),
    ]
}

// ------------------------------------------------------------- flavour 1

#[test]
fn direct_dispatch_fast_equals_slow() {
    assert_conformance(counter, &counter_script());
}

#[test]
fn direct_dispatch_many_methods_exceeding_cache_slots() {
    // More hot methods than the dispatch cache holds: the overflow must be
    // served correctly (from the slow path), not wrongly or not at all.
    const WIDE: [&str; 12] = [
        "m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9", "m10", "m11",
    ];
    let factory = || {
        ObjectBuilder::new("wide")
            .interface("wide", |mut i| {
                for (k, name) in (0i64..).zip(WIDE) {
                    i = i.method(name, &[], TypeTag::Int, move |_, _| Ok(Value::Int(k)));
                }
                i
            })
            .build()
    };
    let script: Vec<Call> = WIDE
        .iter()
        .cycle()
        .take(36)
        .map(|&name| ("wide", name, vec![]))
        .collect();
    assert_conformance(factory, &script);
}

// ------------------------------------------------------------- flavour 2

#[test]
fn bound_method_equals_interface_call_and_invoke() {
    let via_bound = counter();
    let via_iface = counter();
    let via_invoke = counter();
    let bound = via_bound
        .interface("ctr")
        .unwrap()
        .bind_method(&via_bound, "incr")
        .unwrap();
    let iface = via_iface.interface("ctr").unwrap();
    for step in [3i64, -1, 40] {
        let args = [Value::Int(step)];
        let a = canon(&bound.call(&args));
        let b = canon(&iface.call(&via_iface, "incr", &args));
        let c = canon(&via_invoke.invoke("ctr", "incr", &args));
        assert_eq!(a, b, "bound vs interface.call");
        assert_eq!(b, c, "interface.call vs invoke");
    }
    // Type errors agree too.
    let bad = [Value::Str("x".into())];
    assert_eq!(
        canon(&bound.call(&bad)),
        canon(&via_invoke.invoke("ctr", "incr", &bad))
    );
    assert_eq!(bound.signature().name, "incr");
}

// ------------------------------------------------------------- flavour 3

#[test]
fn delegated_and_fallback_dispatch_fast_equals_slow() {
    let factory = || {
        let base = counter();
        let iface = InterfaceBuilder::new("ctr")
            .method("name", &[], TypeTag::Str, |_, _| {
                Ok(Value::Str("child".into()))
            })
            .finish();
        ObjectBuilder::new("child")
            .raw_interface(delegate_interface(iface, base))
            .build()
    };
    let script = vec![
        ("ctr", "name", vec![]),                       // own method wins
        ("ctr", "incr", vec![Value::Int(4)]),          // delegated, target state
        ("ctr", "get", vec![]),                        // delegated read
        ("ctr", "incr", vec![Value::Str("x".into())]), // type error at target
        ("ctr", "ghost", vec![]),                      // missing everywhere
        ("ctr", "incr", vec![Value::Int(1)]),
    ];
    assert_conformance(factory, &script);
}

#[test]
fn unpinned_fallback_fast_equals_slow_and_follows_re_export() {
    // A method served by an interface's delegation fallback is never
    // pinned in the dispatch cache: every call re-resolves, as the slow
    // path does. Repeated calls must (a) behave exactly like the slow path,
    // and (b) reach whatever a re-export installs, direct method or new
    // delegation target, on the very next call.
    let (fast_obj, _fast_base) = late_bound_child();
    let (slow_obj, _slow_base) = late_bound_child();
    // Every call below is fallback-served.
    let script = vec![
        ("ctr", "incr", vec![Value::Int(2)]),
        ("ctr", "get", vec![]),
        ("ctr", "incr", vec![Value::Int(3)]),
        ("ctr", "get", vec![]),
    ];
    assert_eq!(
        drive(&fast_obj, &script, true),
        drive(&slow_obj, &script, false)
    );
    // Re-export the delegating interface with a DIRECT `get`: the old
    // fallback must never answer `get` again.
    for obj in [&fast_obj, &slow_obj] {
        let base2 = counter();
        let replacement = InterfaceBuilder::new("ctr")
            .method("get", &[], TypeTag::Int, |_, _| Ok(Value::Int(-77)))
            .finish();
        obj.export_interface(delegate_interface(replacement, base2));
    }
    let post = vec![
        ("ctr", "get", vec![]),               // direct now
        ("ctr", "incr", vec![Value::Int(1)]), // delegated to the NEW base
        ("ctr", "ghost", vec![]),             // still missing everywhere
    ];
    let fast = drive(&fast_obj, &post, true);
    let slow = drive(&slow_obj, &post, false);
    assert_eq!(fast, slow);
    assert_eq!(
        fast[0], "ok:Int(-77)",
        "the old fallback must not shadow the re-exported direct method"
    );
    assert_eq!(
        fast[1], "ok:Int(3)",
        "delegation must reach the new target after re-export (3 warm calls x incr 1)"
    );
    // Revoking the interface surfaces as a clean error on the fast path.
    assert!(fast_obj.revoke_interface("ctr"));
    assert!(matches!(
        fast_obj.invoke("ctr", "get", &[]),
        Err(ObjError::NoSuchInterface { .. })
    ));
}

#[test]
fn unpinned_fallback_follows_a_re_export_on_the_delegation_target() {
    // The fallback consults the delegation target on every call: a
    // re-export on the *target* (not the delegator) moves no generation
    // of the delegator's, and must still be observed on the next call.
    let (child, base) = late_bound_child();
    for _ in 0..3 {
        child.invoke("ctr", "name", &[]).unwrap();
    }
    let replacement = InterfaceBuilder::new("ctr")
        .method("name", &[], TypeTag::Str, |_, _| {
            Ok(Value::Str("renamed".into()))
        })
        .finish();
    base.export_interface(replacement);
    assert_eq!(
        child.invoke("ctr", "name", &[]).unwrap(),
        Value::Str("renamed".into()),
        "a repeated delegated call must re-resolve against the re-exported target"
    );
}

#[test]
fn delegation_chain_fast_equals_slow() {
    let factory = || {
        let base = counter();
        let mid = ObjectBuilder::new("mid")
            .raw_interface(delegate_interface(
                InterfaceBuilder::new("ctr").finish(),
                base,
            ))
            .build();
        ObjectBuilder::new("top")
            .raw_interface(delegate_interface(
                InterfaceBuilder::new("ctr").finish(),
                mid,
            ))
            .build()
    };
    assert_conformance(factory, &counter_script());
}

// ------------------------------------------------------------- flavour 4

#[test]
fn interposed_chain_fast_equals_slow_with_hooks_and_overrides() {
    let fast_hooks = Arc::new(AtomicU64::new(0));
    let slow_hooks = Arc::new(AtomicU64::new(0));
    let factory = |hooks: Arc<AtomicU64>| {
        move || {
            let mut obj = counter();
            for layer in 0..3 {
                let mut b = InterposerBuilder::new(obj);
                if layer == 1 {
                    // One layer doubles every increment.
                    b = b.override_method("ctr", "incr", |forward, args| {
                        forward.call(&[Value::Int(args[0].as_int()? * 2)])
                    });
                }
                let h = hooks.clone();
                b = b.before(move |_, _, _| {
                    h.fetch_add(1, Ordering::Relaxed);
                });
                obj = b.build();
            }
            obj
        }
    };
    let script = counter_script();
    let fast_obj = factory(fast_hooks.clone())();
    let slow_obj = factory(slow_hooks.clone())();
    let fast = drive(&fast_obj, &script, true);
    let slow = drive(&slow_obj, &script, false);
    assert_eq!(fast, slow);
    assert_eq!(
        fast_hooks.load(Ordering::Relaxed),
        slow_hooks.load(Ordering::Relaxed),
        "hooks must observe the same calls on both paths"
    );
}

#[test]
fn interposer_retarget_invalidates_cached_forward() {
    // Warm the chain, retarget mid-stream, and require the very next call
    // to reach the new target — a stale cached hop must re-resolve, never
    // call the old instance.
    let factory = || {
        let a = counter();
        let agent = InterposerBuilder::new(a.clone()).build();
        (agent, a)
    };
    let (fast_agent, fast_a) = factory();
    let (slow_agent, slow_a) = factory();
    let b_fast = counter();
    let b_slow = counter();
    for _ in 0..3 {
        fast_agent.invoke("ctr", "incr", &[Value::Int(1)]).unwrap();
        slow_agent
            .invoke_uncached("ctr", "incr", &[Value::Int(1)])
            .unwrap();
    }
    fast_agent
        .invoke(
            INTERPOSER_IFACE,
            "retarget",
            &[Value::Handle(b_fast.clone())],
        )
        .unwrap();
    slow_agent
        .invoke_uncached(
            INTERPOSER_IFACE,
            "retarget",
            &[Value::Handle(b_slow.clone())],
        )
        .unwrap();
    let rf = fast_agent.invoke("ctr", "incr", &[Value::Int(10)]).unwrap();
    let rs = slow_agent
        .invoke_uncached("ctr", "incr", &[Value::Int(10)])
        .unwrap();
    assert_eq!(rf, Value::Int(10), "fast path must hit the NEW target");
    assert_eq!(canon(&Ok(rf)), canon(&Ok(rs)));
    // The old targets saw exactly the pre-retarget traffic.
    assert_eq!(fast_a.invoke("ctr", "get", &[]).unwrap(), Value::Int(3));
    assert_eq!(slow_a.invoke("ctr", "get", &[]).unwrap(), Value::Int(3));
    assert_eq!(b_fast.invoke("ctr", "get", &[]).unwrap(), Value::Int(10));
}

// ------------------------------------------------------------- flavour 5

#[test]
fn composed_dispatch_fast_equals_slow() {
    let factory = || {
        CompositionBuilder::new("comp")
            .child("c", counter())
            .export("ctr", "c")
            .build()
            .unwrap()
    };
    assert_conformance(factory, &counter_script());
}

#[test]
fn composition_replace_invalidates_cached_forward() {
    let factory = || {
        CompositionBuilder::new("comp")
            .child("c", counter())
            .export("ctr", "c")
            .build()
            .unwrap()
    };
    let fast_obj = factory();
    let slow_obj = factory();
    let script_pre = vec![("ctr", "incr", vec![Value::Int(7)])];
    let fast_pre = drive(&fast_obj, &script_pre, true);
    let slow_pre = drive(&slow_obj, &script_pre, false);
    assert_eq!(fast_pre, slow_pre);
    // Replace the child on both twins; calls must hit the fresh instance.
    for (obj, fast) in [(&fast_obj, true), (&slow_obj, false)] {
        let args = [Value::Str("c".into()), Value::Handle(counter())];
        if fast {
            obj.invoke(COMPOSITION_IFACE, "replace", &args).unwrap();
        } else {
            obj.invoke_uncached(COMPOSITION_IFACE, "replace", &args)
                .unwrap();
        }
    }
    let script_post = vec![("ctr", "get", vec![]), ("ctr", "incr", vec![Value::Int(1)])];
    let fast_post = drive(&fast_obj, &script_post, true);
    let slow_post = drive(&slow_obj, &script_post, false);
    assert_eq!(fast_post, slow_post);
    assert_eq!(
        fast_post[0], "ok:Int(0)",
        "cached forward must miss to the replacement"
    );
}

// ------------------------------------------------------------- flavour 6

#[test]
fn cross_domain_proxy_fast_equals_slow() {
    let world = World::boot();
    let n = &world.nucleus;
    n.register(KERNEL_DOMAIN, "/svc/fast", counter()).unwrap();
    n.register(KERNEL_DOMAIN, "/svc/slow", counter()).unwrap();
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
    let fast_proxy = n.bind(app.id, "/svc/fast").unwrap();
    let slow_target = n.bind(KERNEL_DOMAIN, "/svc/slow").unwrap();

    // The proxy is driven warm (cached method handle); the reference twin
    // is the *direct* uncached object — marshalling of flat values must be
    // transparent, so the transcripts agree exactly. (The missing-interface
    // probe is asserted by kind separately: that error legitimately names
    // the proxy's own class, `proxy<counter>`.)
    let script: Vec<Call> = counter_script()
        .into_iter()
        .filter(|(iface, _, _)| *iface != "nope")
        .collect();
    let fast = drive(&fast_proxy, &script, true);
    let slow = drive(&slow_target, &script, false);
    assert_eq!(fast, slow, "proxy dispatch must be transparent");
    assert!(matches!(
        fast_proxy.invoke("nope", "get", &[]),
        Err(ObjError::NoSuchInterface { .. })
    ));
    assert!(matches!(
        slow_target.invoke_uncached("nope", "get", &[]),
        Err(ObjError::NoSuchInterface { .. })
    ));
    assert!(world.nucleus.proxy_stats().crossings() > 0);
}

#[test]
fn cross_domain_proxy_marshalling_bytes_cold_equals_warm() {
    // The cached-method fast path must not change what gets marshalled:
    // byte counts for identical calls agree between the first (cold,
    // resolving) crossing and later (warm, pinned-handle) crossings.
    let world = World::boot();
    let n = &world.nucleus;
    n.register(KERNEL_DOMAIN, "/svc/echo2", paramecium_bench_echo())
        .unwrap();
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
    let proxy = n.bind(app.id, "/svc/echo2").unwrap();
    let stats = n.proxy_stats();
    let args = [
        Value::Bytes(bytes::Bytes::from(vec![7u8; 300])),
        Value::Str("tag".into()),
        Value::List(vec![Value::Int(1), Value::Unit]),
    ];
    let mut per_call = Vec::new();
    for _ in 0..4 {
        let before = stats.bytes();
        proxy.invoke("echo", "echo", &args).unwrap();
        per_call.push(stats.bytes() - before);
    }
    assert!(per_call[0] > 0);
    assert!(
        per_call.windows(2).all(|w| w[0] == w[1]),
        "cold vs warm crossings must marshal identical byte counts: {per_call:?}"
    );
}

fn paramecium_bench_echo() -> ObjRef {
    use TypeTag::{Bytes, List, Str};
    ObjectBuilder::new("echo")
        .interface("echo", |i| {
            i.method("echo", &[Bytes, Str, List], List, |_, args| {
                Ok(Value::List(args.to_vec()))
            })
        })
        .build()
}

// ------------------------------------------------------------- flavour 7

#[test]
fn nested_handle_marshalling_fast_equals_slow() {
    let world = World::boot();
    let n = &world.nucleus;
    // A kernel service invoking whatever handle it is given.
    let invoker = ObjectBuilder::new("invoker")
        .interface("run", |i| {
            i.method("call", &[TypeTag::Handle], TypeTag::Int, |_, args| {
                let h = args[0].as_handle()?;
                h.invoke("ctr", "incr", &[Value::Int(21)])
            })
        })
        .build();
    n.register(KERNEL_DOMAIN, "/svc/invoker", invoker.clone())
        .unwrap();
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
    let proxy = n.bind(app.id, "/svc/invoker").unwrap();

    // Fast: repeated warm crossings with a handle argument (each crossing
    // builds a fresh nested proxy). Slow: the same calls against the
    // invoker directly, uncached.
    let user_fast = counter();
    let user_slow = counter();
    let nested_before = n.proxy_stats().nested_proxies.load(Ordering::Relaxed);
    for round in 1..=3i64 {
        let f = proxy
            .invoke("run", "call", &[Value::Handle(user_fast.clone())])
            .unwrap();
        let s = invoker
            .invoke_uncached("run", "call", &[Value::Handle(user_slow.clone())])
            .unwrap();
        assert_eq!(canon(&Ok(f)), canon(&Ok(s)));
        assert_eq!(
            user_fast.invoke("ctr", "get", &[]).unwrap(),
            Value::Int(21 * round),
            "nested proxy must reach the caller's object"
        );
    }
    assert_eq!(
        n.proxy_stats().nested_proxies.load(Ordering::Relaxed) - nested_before,
        3,
        "each handle crossing synthesises one nested proxy"
    );
}

// ------------------------------------------------------------- flavour 8

#[test]
fn re_export_invalidates_object_dispatch_cache() {
    let factory = counter;
    let fast_obj = factory();
    let slow_obj = factory();
    // Warm the fast twin's cache thoroughly.
    let warm = vec![("ctr", "name", vec![])];
    assert_eq!(
        drive(&fast_obj, &warm, true),
        drive(&slow_obj, &warm, false)
    );
    // Replace the interface with one whose `name` answers differently.
    for obj in [&fast_obj, &slow_obj] {
        let replacement = InterfaceBuilder::new("ctr")
            .method("name", &[], TypeTag::Str, |_, _| {
                Ok(Value::Str("reborn".into()))
            })
            .finish();
        obj.export_interface(replacement);
    }
    let post = vec![
        ("ctr", "name", vec![]),
        ("ctr", "incr", vec![Value::Int(1)]), // dropped by the re-export
    ];
    let fast = drive(&fast_obj, &post, true);
    let slow = drive(&slow_obj, &post, false);
    assert_eq!(fast, slow);
    assert_eq!(
        fast[0], "ok:Str(\"reborn\")",
        "stale cached method must never run"
    );
}

#[test]
fn re_export_invalidates_cached_proxy_method_handle() {
    // The satellite case: interface re-export racing a warmed proxy. The
    // pinned handle must miss cleanly and re-resolve — never call the old
    // implementation — and revocation must surface as a clean error.
    let world = World::boot();
    let n = &world.nucleus;
    let target = ObjectBuilder::new("svc")
        .interface("svc", |i| {
            i.method("ver", &[], TypeTag::Int, |_, _| Ok(Value::Int(1)))
        })
        .build();
    n.register(KERNEL_DOMAIN, "/svc/ver", target.clone())
        .unwrap();
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
    let proxy = n.bind(app.id, "/svc/ver").unwrap();

    for _ in 0..3 {
        assert_eq!(proxy.invoke("svc", "ver", &[]).unwrap(), Value::Int(1));
    }
    // Re-export with a new implementation behind the same interface name.
    let v2 = InterfaceBuilder::new("svc")
        .method("ver", &[], TypeTag::Int, |_, _| Ok(Value::Int(2)))
        .finish();
    target.export_interface(v2);
    assert_eq!(
        proxy.invoke("svc", "ver", &[]).unwrap(),
        Value::Int(2),
        "stale pinned handle called the superseded implementation"
    );
    // Revocation: the warmed handle must miss and report the missing
    // interface, then recover after re-export.
    assert!(target.revoke_interface("svc"));
    assert!(matches!(
        proxy.invoke("svc", "ver", &[]),
        Err(ObjError::NoSuchInterface { .. })
    ));
    let v3 = InterfaceBuilder::new("svc")
        .method("ver", &[], TypeTag::Int, |_, _| Ok(Value::Int(3)))
        .finish();
    target.export_interface(v3);
    assert_eq!(proxy.invoke("svc", "ver", &[]).unwrap(), Value::Int(3));
}

#[test]
fn re_export_invalidates_interposer_forward_cache() {
    let target = counter();
    let agent = InterposerBuilder::new(target.clone()).build();
    for _ in 0..3 {
        agent.invoke("ctr", "name", &[]).unwrap();
    }
    // Swap the *target's* interface out from under the warmed agent.
    let replacement = InterfaceBuilder::new("ctr")
        .method("name", &[], TypeTag::Str, |_, _| {
            Ok(Value::Str("swapped".into()))
        })
        .finish();
    target.export_interface(replacement);
    assert_eq!(
        agent.invoke("ctr", "name", &[]).unwrap(),
        Value::Str("swapped".into()),
        "cached hop must re-resolve against the re-exported target"
    );
    // Revoking the target interface surfaces cleanly through the agent.
    assert!(target.revoke_interface("ctr"));
    assert!(agent.invoke("ctr", "name", &[]).is_err());
}

// ------------------------------------------------------------- flavour 9

/// A pure stand-in for the object below a forwarder: every real method
/// of `iface` under its real signature, answers a function of the
/// arguments and `tag` alone. `grown` adds a method no layer was written
/// against.
fn probe_interface(iface: &'static str, tag: i64, grown: bool) -> paramecium::obj::Interface {
    use TypeTag::{Bytes, Int, List, Unit};
    let sector = |v: &Value| Ok(Value::Bytes(vec![v.as_int()? as u8; 512].into()));
    let int = move |_: &ObjRef, _: &[Value]| Ok(Value::Int(tag));
    let unit = |_: &ObjRef, _: &[Value]| Ok(Value::Unit);
    let b = InterfaceBuilder::new(iface);
    let b = match iface {
        "netdev" => b
            .method("send", &[Bytes], Unit, unit)
            .method("recv", &[], Bytes, |_, _| {
                Ok(Value::Bytes(Vec::new().into()))
            })
            .method("send_many", &[List], Unit, unit)
            .method("recv_many", &[Int], List, |_, _| {
                Ok(Value::List(Vec::new()))
            })
            .method("pending", &[], Int, int)
            .method("stats", &[], List, move |_, _| {
                Ok(Value::List(vec![Value::Int(tag)]))
            }),
        "blockdev" => b
            .method("read", &[Int], Bytes, move |_, a| sector(&a[0]))
            .method("write", &[Int, Bytes], Unit, unit)
            .method("read_many", &[List], List, move |_, a| {
                Ok(Value::List(
                    a[0].as_list()?
                        .iter()
                        .map(sector)
                        .collect::<Result<_, _>>()?,
                ))
            })
            .method("write_many", &[List], Int, |_, a| {
                Ok(Value::Int(view_pairs(&a[0])?.len() as i64))
            })
            .method("sectors", &[], Int, |_, _| Ok(Value::Int(64)))
            .method("write_limit", &[], Int, int)
            .method("stats", &[], List, move |_, _| {
                Ok(Value::List(vec![Value::Int(tag), Value::Int(0)]))
            })
            .method("flush", &[], Int, |_, _| Ok(Value::Int(0)))
            .method("barrier", &[], Unit, unit)
            .method("commit", &[List], Int, |_, a| {
                Ok(Value::Int(view_pairs(&a[0])?.len() as i64))
            }),
        other => panic!("no probe for `{other}`"),
    };
    if grown {
        b.method("grown", &[], Int, move |_, _| Ok(Value::Int(tag + 1000)))
    } else {
        b
    }
    .finish()
}

fn probe(iface: &'static str, tag: i64) -> ObjRef {
    ObjectBuilder::new("probe")
        .raw_interface(probe_interface(iface, tag, false))
        .build()
}

/// Arguments that satisfy `sig`: sector 1, one sector of data, a
/// one-element batch.
fn args_for(sig: &paramecium::obj::MethodSig) -> Vec<Value> {
    let data = || Value::Bytes(vec![1u8; 512].into());
    sig.params
        .iter()
        .map(|p| match p {
            TypeTag::Int => Value::Int(1),
            TypeTag::Bytes => data(),
            TypeTag::List if matches!(sig.name, "write_many" | "commit") => {
                pairs_arg([(1, vec![1u8; 512].into())])
            }
            TypeTag::List if sig.name == "send_many" => Value::List(vec![data()]),
            TypeTag::List => Value::List(vec![Value::Int(1)]),
            other => panic!("no probe argument of type {other}"),
        })
        .collect()
}

#[test]
fn every_forwarder_is_transparent_late_bound_and_follows_its_target() {
    use paramecium::netstack::{arp::make_arp, monitor::make_network_monitor};
    use paramecium::store::{make_retry, RetryConfig, StackBuilder};

    let world = World::boot();
    let n = &world.nucleus;
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
    let machine = n.machine().clone();

    type Build<'a> = Box<dyn Fn(ObjRef) -> ObjRef + 'a>;
    let table: Vec<(&str, &'static str, Build)> = vec![
        (
            "interposer",
            "blockdev",
            Box::new(|l| InterposerBuilder::new(l).build()),
        ),
        (
            "hooked interposer",
            "netdev",
            Box::new(|l| InterposerBuilder::new(l).before(|_, _, _| {}).build()),
        ),
        (
            "composition",
            "blockdev",
            Box::new(|l| {
                CompositionBuilder::new("comp")
                    .child("c", l)
                    .export("blockdev", "c")
                    .build()
                    .unwrap()
            }),
        ),
        (
            "proxy",
            "blockdev",
            Box::new(|l| {
                n.register(KERNEL_DOMAIN, "/svc/probe", l).unwrap();
                n.bind(app.id, "/svc/probe").unwrap()
            }),
        ),
        (
            "delegation",
            "netdev",
            Box::new(|l| {
                ObjectBuilder::new("child")
                    .raw_interface(delegate_interface(
                        InterfaceBuilder::new("netdev").finish(),
                        l,
                    ))
                    .build()
            }),
        ),
        (
            "network monitor",
            "netdev",
            Box::new(|l| make_network_monitor(l).0),
        ),
        (
            "arp",
            "netdev",
            Box::new(|l| make_arp(l, 0x0A00_0001, [2, 0, 0, 0, 0, 1])),
        ),
        (
            "retry",
            "blockdev",
            Box::new(|l| make_retry(machine.clone(), l, RetryConfig::default())),
        ),
        (
            "block cache",
            "blockdev",
            Box::new(|l| StackBuilder::on(l).cache(16).build().unwrap().top),
        ),
    ];

    for (name, iface, build) in &table {
        let lower = probe(iface, 7);
        let layer = build(lower.clone());

        // Every method below is a method above, with the same answer.
        // (Descriptor order is sorted, so `flush` runs before any write
        // could leave the cache a dirty line of its own to count.)
        let twin = probe(iface, 7);
        for sig in twin.interface(iface).unwrap().descriptor().methods {
            let args = args_for(&sig);
            for _ in 0..2 {
                assert_eq!(
                    canon(&layer.invoke(iface, sig.name, &args)),
                    canon(&twin.invoke(iface, sig.name, &args)),
                    "{name}: {iface}.{}",
                    sig.name
                );
            }
        }

        // A method the lower object grows after the layer was built.
        lower.export_interface(probe_interface(iface, 7, true));
        assert_eq!(
            layer.invoke(iface, "grown", &[]).unwrap(),
            Value::Int(1007),
            "{name}: method re-exported below after the layer was built"
        );

        // Re-pointing the layer takes effect on the very next call.
        let other = Value::Handle(probe(iface, 8));
        let tagged = if *iface == "netdev" {
            "pending"
        } else {
            "write_limit"
        };
        if layer.has_interface(INTERPOSER_IFACE) {
            layer
                .invoke(INTERPOSER_IFACE, "retarget", &[other])
                .unwrap();
        } else if layer.has_interface(COMPOSITION_IFACE) {
            layer
                .invoke(
                    COMPOSITION_IFACE,
                    "replace",
                    &[Value::Str("c".into()), other],
                )
                .unwrap();
        } else {
            continue;
        }
        assert_eq!(
            layer.invoke(iface, tagged, &[]).unwrap(),
            Value::Int(8),
            "{name}: first call after re-pointing"
        );
    }
}
