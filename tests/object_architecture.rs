//! Integration: the software-architecture claims of paper §2, exercised
//! end-to-end through the nucleus — interface evolution, delegation,
//! dynamic composition, overrides, and the inline-dispatch fast path.

use paramecium::obj::compose::COMPOSITION_IFACE;
use paramecium::prelude::*;

/// "Adding a measurement interface to an RPC object does not require
/// recompilation of its users, since the RPC interface itself does not
/// change."
#[test]
fn interface_evolution_does_not_disturb_existing_bindings() {
    let world = World::boot();
    let n = &world.nucleus;

    let rpc = ObjectBuilder::new("rpc")
        .state(0i64)
        .interface("rpc", |i| {
            i.method("call", &[TypeTag::Str], TypeTag::Str, |this, args| {
                let req = args[0].as_str()?.to_owned();
                this.with_state(|calls: &mut i64| {
                    *calls += 1;
                    Ok(Value::Str(format!("reply:{req}")))
                })
            })
        })
        .build();
    n.register(KERNEL_DOMAIN, "/svc/rpc", rpc).unwrap();

    // An old client binds and uses the object.
    let old_client = n.bind(KERNEL_DOMAIN, "/svc/rpc").unwrap();
    old_client
        .invoke("rpc", "call", &[Value::Str("a".into())])
        .unwrap();

    // Later, a measurement interface is added the paper's way: an agent
    // that exports a superset of the live instance's interfaces replaces
    // its handle in the name space.
    let live = n.bind(KERNEL_DOMAIN, "/svc/rpc").unwrap();
    let measured = live.clone();
    let measurement = InterfaceBuilder::new("measurement")
        .method("calls", &[], TypeTag::Int, move |_, _| {
            measured.with_state(|calls: &mut i64| Ok(Value::Int(*calls)))
        })
        .finish();
    let agent = InterposerBuilder::new(live)
        .extra_interface(measurement)
        .build();
    n.interpose(KERNEL_DOMAIN, "/svc/rpc", agent).unwrap();

    // The old client keeps working through its existing handle…
    old_client
        .invoke("rpc", "call", &[Value::Str("b".into())])
        .unwrap();
    // …and a monitoring tool reads the new interface off the same name,
    // where the old one still answers too.
    let monitor = n.bind(KERNEL_DOMAIN, "/svc/rpc").unwrap();
    assert_eq!(
        monitor.invoke("measurement", "calls", &[]).unwrap(),
        Value::Int(2)
    );
    monitor
        .invoke("rpc", "call", &[Value::Str("c".into())])
        .unwrap();
    assert_eq!(
        monitor.invoke("measurement", "calls", &[]).unwrap(),
        Value::Int(3)
    );
}

/// "To support code sharing the architecture supports method delegation" —
/// several specialised instances sharing one generic implementation.
#[test]
fn delegation_shares_one_implementation_across_instances() {
    use paramecium::obj::{delegate_interface, InterfaceBuilder};

    let world = World::boot();
    let n = &world.nucleus;

    // The shared generic layer.
    let generic = ObjectBuilder::new("generic-proto")
        .state(0i64)
        .interface("proto", |i| {
            i.method("checksum", &[TypeTag::Bytes], TypeTag::Int, |_, args| {
                let b = args[0].as_bytes()?;
                Ok(Value::Int(b.iter().map(|&x| i64::from(x)).sum()))
            })
            .method("mtu", &[], TypeTag::Int, |_, _| Ok(Value::Int(1500)))
        })
        .build();

    // Two specialisations overriding only `mtu`.
    for (name, mtu) in [("jumbo", 9000i64), ("slip", 296)] {
        let iface = InterfaceBuilder::new("proto")
            .method("mtu", &[], TypeTag::Int, move |_, _| Ok(Value::Int(mtu)))
            .finish();
        let spec = ObjectBuilder::new(name)
            .raw_interface(delegate_interface(iface, generic.clone()))
            .build();
        n.register(KERNEL_DOMAIN, &format!("/proto/{name}"), spec)
            .unwrap();
    }

    let jumbo = n.bind(KERNEL_DOMAIN, "/proto/jumbo").unwrap();
    let slip = n.bind(KERNEL_DOMAIN, "/proto/slip").unwrap();
    assert_eq!(jumbo.invoke("proto", "mtu", &[]).unwrap(), Value::Int(9000));
    assert_eq!(slip.invoke("proto", "mtu", &[]).unwrap(), Value::Int(296));
    // The shared method is the same code, reached by delegation.
    let payload = Value::Bytes(bytes::Bytes::from_static(&[1, 2, 3]));
    let args = std::slice::from_ref(&payload);
    assert_eq!(
        jumbo.invoke("proto", "checksum", args).unwrap(),
        Value::Int(6)
    );
    assert_eq!(
        slip.invoke("proto", "checksum", args).unwrap(),
        Value::Int(6)
    );
}

/// "The latter is the most common form of object composition since it
/// allows for the composing objects to be replaced by new instances" —
/// dynamic composition with live replacement, published in the name space.
#[test]
fn dynamic_composition_supports_live_component_replacement() {
    let world = World::boot();
    let n = &world.nucleus;

    let v1 = ObjectBuilder::new("codec-v1")
        .interface("codec", |i| {
            i.method("version", &[], TypeTag::Int, |_, _| Ok(Value::Int(1)))
        })
        .build();
    let pipeline = CompositionBuilder::new("pipeline")
        .child("codec", v1)
        .export("codec", "codec")
        .build()
        .unwrap();
    n.register(KERNEL_DOMAIN, "/app/pipeline", pipeline)
        .unwrap();

    let client = n.bind(KERNEL_DOMAIN, "/app/pipeline").unwrap();
    assert_eq!(
        client.invoke("codec", "version", &[]).unwrap(),
        Value::Int(1)
    );

    // Hot-swap the codec inside the running composition.
    let v2 = ObjectBuilder::new("codec-v2")
        .interface("codec", |i| {
            i.method("version", &[], TypeTag::Int, |_, _| Ok(Value::Int(2)))
        })
        .build();
    client
        .invoke(
            COMPOSITION_IFACE,
            "replace",
            &[Value::Str("codec".into()), Value::Handle(v2)],
        )
        .unwrap();
    // The client's existing handle now reaches the new instance.
    assert_eq!(
        client.invoke("codec", "version", &[]).unwrap(),
        Value::Int(2)
    );
}

/// The bound-method fast path ("run time inline techniques", §2) agrees
/// with dynamic dispatch and survives heavy use.
#[test]
fn inline_fast_path_agrees_with_dynamic_dispatch() {
    let obj = ObjectBuilder::new("acc")
        .state(0i64)
        .interface("acc", |i| {
            i.method("add", &[TypeTag::Int], TypeTag::Int, |this, args| {
                let v = args[0].as_int()?;
                this.with_state(|s: &mut i64| {
                    *s += v;
                    Ok(Value::Int(*s))
                })
            })
        })
        .build();
    let bound = obj
        .interface("acc")
        .unwrap()
        .bind_method(&obj, "add")
        .unwrap();
    let mut expect = 0i64;
    for i in 0..1000i64 {
        expect += i;
        let via = if i % 2 == 0 {
            bound.call(&[Value::Int(i)]).unwrap()
        } else {
            obj.invoke("acc", "add", &[Value::Int(i)]).unwrap()
        };
        assert_eq!(via, Value::Int(expect));
    }
}

/// Overrides are *local*: "control the child objects it will import" —
/// three sibling domains, three different views of the same path, while
/// interposition on the shared binding reaches everyone.
#[test]
fn override_locality_vs_interposition_globality() {
    use paramecium::core::directory::NsEntry;

    let world = World::boot();
    let n = &world.nucleus;
    n.register(
        KERNEL_DOMAIN,
        "/lib/log",
        ObjectBuilder::new("syslog").build(),
    )
    .unwrap();

    let quiet = n
        .create_domain(
            "quiet",
            KERNEL_DOMAIN,
            [(
                "/lib/log".to_owned(),
                NsEntry {
                    obj: ObjectBuilder::new("null-log").build(),
                    home: KERNEL_DOMAIN,
                },
            )],
        )
        .unwrap();
    let verbose = n
        .create_domain(
            "verbose",
            KERNEL_DOMAIN,
            [(
                "/lib/log".to_owned(),
                NsEntry {
                    obj: ObjectBuilder::new("debug-log").build(),
                    home: KERNEL_DOMAIN,
                },
            )],
        )
        .unwrap();
    let plain = n.create_domain("plain", KERNEL_DOMAIN, []).unwrap();

    assert_eq!(
        n.bind(quiet.id, "/lib/log").unwrap().class(),
        "proxy<null-log>"
    );
    assert_eq!(
        n.bind(verbose.id, "/lib/log").unwrap().class(),
        "proxy<debug-log>"
    );
    assert_eq!(
        n.bind(plain.id, "/lib/log").unwrap().class(),
        "proxy<syslog>"
    );

    // Interpose on the *shared* binding: only inheritors without local
    // overrides see the agent.
    let target = n.bind(KERNEL_DOMAIN, "/lib/log").unwrap();
    let agent = InterposerBuilder::new(target).class("log-agent").build();
    n.interpose(KERNEL_DOMAIN, "/lib/log", agent).unwrap();
    assert_eq!(
        n.bind(plain.id, "/lib/log").unwrap().class(),
        "proxy<log-agent>"
    );
    assert_eq!(
        n.bind(quiet.id, "/lib/log").unwrap().class(),
        "proxy<null-log>"
    );
}
