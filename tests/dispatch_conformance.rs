//! Dispatch conformance suite: every way of reaching a method agrees.
//!
//! An object's interfaces are fixed when it is built, so `Object::invoke`
//! has one lookup path and nothing to keep in step with it. What is left to
//! pin is that the other ways of reaching a method agree with it: a bound
//! method and a direct `Interface::call` answer as `invoke` does, a
//! crossing marshals the same bytes on every call, and every forwarder —
//! interposer, composition, proxy, delegation and the stack layers built
//! on them — is transparent and follows its target on the very next call.
//!
//! An interface name is one type: every layer exporting `blockdev` or
//! `netdev` exports exactly `BLOCKDEV` or `NETDEV`, and every place where
//! objects are joined — `retarget`, `replace`, `Nucleus::interpose`,
//! `StackBuilder::on` — refuses an object whose interface of that name has
//! other signatures, and keeps the old one serving.
//!
//! Profiles: debug (tier-1) and release (CI's workspace step) both matter —
//! the lock-free target cell is optimisation-sensitive.

use paramecium::core::CoreError;
use paramecium::netstack::burst::NETDEV;
use paramecium::obj::{
    compose::COMPOSITION_IFACE, delegate_interface, interpose::INTERPOSER_IFACE, InterfaceBuilder,
    MethodSig, ObjError,
};
use paramecium::prelude::*;
use paramecium::store::vectored::{pairs_arg, view_pairs, BLOCKDEV};
use paramecium::store::{JournalConfig, RetryConfig, StackBuilder};

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

/// The one declaration of the interface named `iface`.
fn declared(iface: &str) -> &'static [MethodSig] {
    match iface {
        "netdev" => NETDEV,
        "blockdev" => BLOCKDEV,
        other => panic!("no declaration of `{other}`"),
    }
}

/// A pure stand-in for the object below a forwarder: every method of
/// `iface` under its declared signature, answers a function of the
/// arguments and `tag` alone.
fn probe_interface(iface: &'static str, tag: i64) -> InterfaceBuilder {
    let sector = |v: &Value| Ok(Value::Bytes(vec![v.as_int()? as u8; 512].into()));
    let b = InterfaceBuilder::declared(iface, declared(iface));
    let b = b.provide("stats", move |_, _| {
        Ok(Value::List(vec![Value::Int(tag), Value::Int(0)]))
    });
    match iface {
        "netdev" => b
            .provide("send", |_, _| Ok(Value::Unit))
            .provide("recv", |_, _| Ok(Value::Bytes(Vec::new().into())))
            .provide("send_many", |_, _| Ok(Value::Unit))
            .provide("recv_many", |_, _| Ok(Value::List(Vec::new())))
            .provide("pending", move |_, _| Ok(Value::Int(tag))),
        _ => b
            .provide("read", move |_, a| sector(&a[0]))
            .provide("write", |_, _| Ok(Value::Unit))
            .provide("read_many", move |_, a| {
                let sectors = a[0].as_list()?.iter().map(sector);
                Ok(Value::List(sectors.collect::<Result<_, _>>()?))
            })
            .provide("write_many", |_, a| {
                Ok(Value::Int(view_pairs(&a[0])?.len() as i64))
            })
            .provide("commit", |_, a| {
                Ok(Value::Int(view_pairs(&a[0])?.len() as i64))
            })
            .provide("sectors", |_, _| Ok(Value::Int(64)))
            .provide("write_limit", move |_, _| Ok(Value::Int(tag)))
            .provide("flush", |_, _| Ok(Value::Int(0)))
            .provide("barrier", |_, _| Ok(Value::Unit)),
    }
}

fn probe(iface: &'static str, tag: i64) -> ObjRef {
    ObjectBuilder::new("probe")
        .raw_interface(probe_interface(iface, tag).finish())
        .build()
}

/// A `blockdev` whose `read` takes a `List`: the same name, another type.
fn mistyped_blockdev() -> ObjRef {
    let iface =
        probe_interface("blockdev", 9).method("read", &[TypeTag::List], TypeTag::Bytes, |_, _| {
            Ok(Value::Bytes(vec![9u8; 512].into()))
        });
    ObjectBuilder::new("mistyped")
        .raw_interface(iface.finish())
        .build()
}

/// A probe whose `iface` has one method more than its declaration.
fn grown(iface: &'static str, tag: i64) -> ObjRef {
    let iface = probe_interface(iface, tag)
        .method("grown", &[], TypeTag::Int, move |_, _| Ok(Value::Int(tag)));
    ObjectBuilder::new("grown")
        .raw_interface(iface.finish())
        .build()
}

fn refused_binding<T: std::fmt::Debug>(r: Result<T, ObjError>, what: &str) {
    assert!(matches!(r, Err(ObjError::Binding(_))), "{what}: {r:?}");
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
    use paramecium::store::make_retry;

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
        assert!(
            layer
                .interface(iface)
                .unwrap()
                .signatures()
                .eq(declared(iface)),
            "{name}: {iface} is its declaration"
        );

        // Every method below is a method above, with the same answer.
        // (Signature order is sorted, so `flush` runs before any write
        // could leave the cache a dirty line of its own to count.)
        let twin = probe(iface, 7);
        for sig in declared(iface) {
            let args = args_for(sig);
            for _ in 0..2 {
                assert_eq!(
                    canon(&layer.invoke(iface, sig.name, &args)),
                    canon(&twin.invoke(iface, sig.name, &args)),
                    "{name}: {iface}.{}",
                    sig.name
                );
            }
        }
        // A method the interface lacks is refused by the layer itself.
        assert_eq!(
            layer.invoke(iface, "grown", &[]),
            Err(ObjError::NoSuchMethod {
                interface: iface.to_string(),
                method: "grown".into()
            }),
            "{name}"
        );

        // Re-pointing the layer takes effect on the very next call; a
        // target whose interface of that name is another type (here: one
        // method more) is refused, and the last one keeps serving.
        let repoint = |to: ObjRef| {
            if layer.has_interface(INTERPOSER_IFACE) {
                layer.invoke(INTERPOSER_IFACE, "retarget", &[Value::Handle(to)])
            } else {
                let args = [Value::Str("c".into()), Value::Handle(to)];
                layer.invoke(COMPOSITION_IFACE, "replace", &args)
            }
        };
        if !layer.has_interface(INTERPOSER_IFACE) && !layer.has_interface(COMPOSITION_IFACE) {
            continue;
        }
        let tagged = if *iface == "netdev" {
            "pending"
        } else {
            "write_limit"
        };
        repoint(probe(iface, 8)).unwrap();
        assert_eq!(
            layer.invoke(iface, tagged, &[]).unwrap(),
            Value::Int(8),
            "{name}: first call after re-pointing"
        );
        refused_binding(repoint(grown(iface, 9)), name);
        assert_eq!(
            layer.invoke(iface, tagged, &[]).unwrap(),
            Value::Int(8),
            "{name}: a refused swap keeps the last target"
        );
    }
}

/// A `blockdev` whose `read` takes a `List` is refused at every place
/// objects are joined, and what was there keeps serving. (At the parent
/// of this change every one of these joins accepted it.)
#[test]
fn a_mistyped_blockdev_is_refused_at_every_join() {
    let kept = |obj: &ObjRef, what: &str| {
        let limit = obj.invoke("blockdev", "write_limit", &[]);
        assert_eq!(limit, Ok(Value::Int(7)), "{what}: the old target serves");
    };

    let agent = InterposerBuilder::new(probe("blockdev", 7)).build();
    let to = [Value::Handle(mistyped_blockdev())];
    refused_binding(agent.invoke(INTERPOSER_IFACE, "retarget", &to), "retarget");
    kept(&agent, "retarget");

    let comp = CompositionBuilder::new("comp")
        .child("c", probe("blockdev", 7))
        .export("blockdev", "c")
        .build()
        .unwrap();
    let args = [Value::Str("c".into()), Value::Handle(mistyped_blockdev())];
    refused_binding(comp.invoke(COMPOSITION_IFACE, "replace", &args), "replace");
    kept(&comp, "replace");

    let world = World::boot();
    let n = &world.nucleus;
    n.register(KERNEL_DOMAIN, "/dev/probe", probe("blockdev", 7))
        .unwrap();
    let r = n.interpose(KERNEL_DOMAIN, "/dev/probe", mistyped_blockdev());
    assert!(
        matches!(r, Err(CoreError::Obj(ObjError::Binding(_)))),
        "interpose: {r:?}"
    );
    let bound = n.bind(KERNEL_DOMAIN, "/dev/probe").unwrap();
    assert_eq!(bound.class(), "probe");
    kept(&bound, "interpose");
    // A stand-in may export more interfaces than the object it replaces.
    let agent = InterposerBuilder::new(bound).build();
    n.interpose(KERNEL_DOMAIN, "/dev/probe", agent).unwrap();

    let r = StackBuilder::on(mistyped_blockdev()).cache(8).build().err();
    assert!(
        matches!(r, Some(CoreError::Obj(ObjError::Binding(_)))),
        "on: {r:?}"
    );
    let stack = StackBuilder::on(probe("blockdev", 7)).cache(8).build();
    kept(&stack.unwrap().top, "on");
}

/// Every ordering `StackBuilder` builds: every layer's `blockdev` is
/// `BLOCKDEV`, and `write_limit` is answered at every layer — the
/// journal's transaction capacity at and above the journal, the driver's
/// `i64::MAX` below it or without one.
#[test]
fn every_store_layer_is_a_blockdev_and_answers_write_limit() {
    use paramecium::core::memsvc::MemService;
    // A 16-sector log carries at most 14 payload sectors per transaction.
    let log = JournalConfig { log_sectors: 16 };
    for shape in 0..8u8 {
        let machine = std::sync::Arc::new(parking_lot::Mutex::new(Machine::new()));
        let mem = std::sync::Arc::new(MemService::new(machine));
        let mut b = StackBuilder::disk(&mem, KERNEL_DOMAIN);
        if shape & 1 != 0 {
            b = b.retry(RetryConfig::default());
        }
        if shape & 2 != 0 {
            b = b.journal(log);
        }
        if shape & 4 != 0 {
            b = b.cache(8);
        }
        let stack = b.build().unwrap();
        let layers = [
            ("driver", Some(&stack.driver)),
            ("retry", stack.retry.as_ref()),
            ("journal", stack.journal.as_ref()),
            ("cache", stack.cache.as_ref()),
        ];
        let mut limit = i64::MAX;
        for (name, layer) in layers {
            let Some(layer) = layer else { continue };
            if name == "journal" {
                limit = 14;
            }
            let blockdev = layer.interface("blockdev").unwrap().signatures();
            assert!(blockdev.eq(BLOCKDEV), "shape {shape}: {name}");
            assert_eq!(
                layer.invoke("blockdev", "write_limit", &[]),
                Ok(Value::Int(limit)),
                "shape {shape}: {name}"
            );
        }
        assert_eq!(
            stack.top.invoke("blockdev", "write_limit", &[]),
            Ok(Value::Int(limit))
        );
    }
}

/// Every object exporting `netdev` exports exactly `NETDEV`.
#[test]
fn every_netdev_layer_is_a_netdev() {
    use paramecium::netstack::route::{make_router, RouteIf};
    use paramecium::netstack::simlink::{make_simlink, LinkConfig};
    use paramecium::netstack::{arp::make_arp, make_network_monitor, testkit};

    let (_mem, nic) = testkit::test_driver();
    let machine = std::sync::Arc::new(parking_lot::Mutex::new(Machine::new()));
    let (a, b) = make_simlink(machine, LinkConfig::perfect(5));
    let ip = testkit::MY_IP;
    let mac = testkit::MY_MAC;
    let router = make_router(vec![RouteIf {
        dev: a.clone(),
        ip,
        mac,
    }]);
    let layers = [
        ("nic driver", nic.clone()),
        ("simlink endpoint", b),
        ("router", router),
        ("arp", make_arp(a, ip, mac)),
        ("network monitor", make_network_monitor(nic).0),
    ];
    for (name, layer) in layers {
        let netdev = layer.interface("netdev").unwrap().signatures();
        assert!(netdev.eq(NETDEV), "{name}");
    }
}
