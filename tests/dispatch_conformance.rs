//! Dispatch conformance suite: every way of reaching a method agrees.
//!
//! An object's interfaces are fixed when it is built, so `Object::invoke`
//! has one lookup path and nothing to keep in step with it. What is left to
//! pin is that the other ways of reaching a method agree with it: a bound
//! method and a direct `Interface::call` answer as `invoke` does, a
//! crossing marshals the same bytes on every call, and every forwarder —
//! interposer, composition, proxy, delegation and the stack layers built
//! on them — is transparent, serves a method only a later target has, and
//! follows its target on the very next call.
//!
//! Profiles: debug (tier-1) and release (CI's workspace step) both matter —
//! the lock-free target cell is optimisation-sensitive.

use paramecium::obj::{
    compose::COMPOSITION_IFACE, delegate_interface, interpose::INTERPOSER_IFACE, InterfaceBuilder,
    ObjError,
};
use paramecium::prelude::*;
use paramecium::store::vectored::{pairs_arg, view_pairs};

/// A transcript entry: the canonicalised outcome of one call.
///
/// `Value::Handle` compares by identity, which can never match across
/// objects, so outcomes are canonicalised structurally (handles render as
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

fn counter() -> ObjRef {
    ObjectBuilder::new("counter")
        .state(0i64)
        .interface("ctr", |i| {
            i.method("incr", &[TypeTag::Int], TypeTag::Int, |this, args| {
                let by = args[0].as_int()?;
                this.with_state(|n: &mut i64| {
                    *n += by;
                    Ok(Value::Int(*n))
                })
            })
            .method("get", &[], TypeTag::Int, |this, _| {
                this.with_state(|n: &mut i64| Ok(Value::Int(*n)))
            })
        })
        .build()
}

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

#[test]
fn cross_domain_proxy_marshalling_bytes_cold_equals_warm() {
    // A crossing marshals what the call carries, nothing else: byte
    // counts for identical calls agree between the first crossing and
    // every later one.
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
        "the first and later crossings must marshal identical byte counts: {per_call:?}"
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

fn probe(iface: &'static str, tag: i64, grown: bool) -> ObjRef {
    ObjectBuilder::new("probe")
        .raw_interface(probe_interface(iface, tag, grown))
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
        let lower = probe(iface, 7, false);
        let layer = build(lower.clone());

        // Every method below is a method above, with the same answer.
        // (Descriptor order is sorted, so `flush` runs before any write
        // could leave the cache a dirty line of its own to count.)
        let twin = probe(iface, 7, false);
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

        // Re-pointing the layer takes effect on the very next call, and a
        // method only the new target has is served all the same.
        let other = Value::Handle(probe(iface, 8, true));
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
        assert_eq!(
            layer.invoke(iface, "grown", &[]).unwrap(),
            Value::Int(1008),
            "{name}: a method only the new target has"
        );
    }
}
