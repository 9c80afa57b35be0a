//! Integration: boot invariants, domain lifecycle, name-space visibility,
//! and syscall-style access to nucleus services through proxies.

use paramecium::core::directory::NsEntry;
use paramecium::prelude::*;

#[test]
fn boot_exposes_all_four_services_as_objects() {
    let world = World::boot();
    let n = &world.nucleus;
    for (path, iface, method, args) in [
        (
            "/nucleus/events",
            "events",
            "callbacks",
            vec![Value::Int(1)],
        ),
        ("/nucleus/memory", "memory", "stats", vec![]),
        (
            "/nucleus/directory",
            "directory",
            "list",
            vec![Value::Str("/".into())],
        ),
        (
            "/nucleus/certification",
            "certification",
            "is_certified",
            vec![Value::Bytes(bytes::Bytes::from_static(b"x"))],
        ),
    ] {
        let obj = n.bind(KERNEL_DOMAIN, path).unwrap();
        obj.invoke(iface, method, &args)
            .unwrap_or_else(|e| panic!("{path}.{iface}::{method} failed: {e}"));
    }
}

#[test]
fn kernel_is_a_composition_of_its_services() {
    let world = World::boot();
    let kernel = world.nucleus.bind(KERNEL_DOMAIN, "/nucleus").unwrap();
    // The composition interface lists the four children.
    let children = kernel
        .invoke(paramecium::obj::compose::COMPOSITION_IFACE, "children", &[])
        .unwrap();
    let names: Vec<String> = children
        .as_list()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_owned())
        .collect();
    assert_eq!(names, ["certification", "directory", "events", "memory"]);
    // And re-exports their interfaces.
    assert!(kernel.has_interface("events"));
    assert!(kernel.has_interface("memory"));
    assert!(kernel.has_interface("directory"));
    assert!(kernel.has_interface("certification"));
}

#[test]
fn user_domain_reaches_nucleus_services_via_proxy_syscalls() {
    let world = World::boot();
    let n = &world.nucleus;
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
    let dir = n.bind(app.id, "/nucleus/directory").unwrap();
    assert!(dir.class().starts_with("proxy<"));
    let crossings_before = n.proxy_stats().crossings();
    let listed = dir
        .invoke("directory", "list", &[Value::Str("/nucleus".into())])
        .unwrap();
    assert_eq!(listed.as_list().unwrap().len(), 5);
    assert_eq!(n.proxy_stats().crossings(), crossings_before + 1);
}

#[test]
fn namespace_views_are_per_domain() {
    let world = World::boot();
    let n = &world.nucleus;
    // Kernel registers a default allocator; app A overrides it; app B
    // registers its own private object.
    n.register(
        KERNEL_DOMAIN,
        "/lib/alloc",
        ObjectBuilder::new("default-alloc").build(),
    )
    .unwrap();
    let fake = ObjectBuilder::new("debug-alloc").build();
    let a = n
        .create_domain(
            "a",
            KERNEL_DOMAIN,
            [(
                "/lib/alloc".to_owned(),
                NsEntry {
                    obj: fake,
                    home: KERNEL_DOMAIN,
                },
            )],
        )
        .unwrap();
    let b = n.create_domain("b", KERNEL_DOMAIN, []).unwrap();
    n.register(b.id, "/b/private", ObjectBuilder::new("private").build())
        .unwrap();

    // A sees its override; B sees the default.
    assert_eq!(
        n.bind(a.id, "/lib/alloc").unwrap().class(),
        "proxy<debug-alloc>"
    );
    assert_eq!(
        n.bind(b.id, "/lib/alloc").unwrap().class(),
        "proxy<default-alloc>"
    );
    // B's private object is invisible to A and to the kernel.
    assert!(n.bind(a.id, "/b/private").is_err());
    assert!(n.bind(KERNEL_DOMAIN, "/b/private").is_err());
    assert_eq!(n.bind(b.id, "/b/private").unwrap().class(), "private");
}

#[test]
fn domain_destruction_reclaims_everything() {
    let world = World::boot();
    let n = &world.nucleus;
    let app = n.create_domain("doomed", KERNEL_DOMAIN, []).unwrap();
    let base = n
        .mem
        .alloc(app.id, 8, paramecium::machine::Perms::RW)
        .unwrap();
    n.mem.write(app.id, base, b"data").unwrap();
    let frames = n.machine().lock().phys.allocated_frames();
    assert_eq!(frames, 8);
    n.destroy_domain(app.id).unwrap();
    assert_eq!(n.machine().lock().phys.allocated_frames(), 0);
    // Shared frames survive if another domain still maps them.
    let survivor = n.create_domain("survivor", KERNEL_DOMAIN, []).unwrap();
    let kbase = n
        .mem
        .alloc(KERNEL_DOMAIN, 2, paramecium::machine::Perms::RW)
        .unwrap();
    n.mem
        .share(
            KERNEL_DOMAIN,
            kbase,
            2,
            survivor.id,
            paramecium::machine::Perms::R,
        )
        .unwrap();
    n.destroy_domain(survivor.id).unwrap();
    assert_eq!(n.machine().lock().phys.allocated_frames(), 2);
}

#[test]
fn cross_domain_memory_isolation_holds() {
    let world = World::boot();
    let n = &world.nucleus;
    let a = n.create_domain("a", KERNEL_DOMAIN, []).unwrap();
    let b = n.create_domain("b", KERNEL_DOMAIN, []).unwrap();
    let base_a = n
        .mem
        .alloc(a.id, 1, paramecium::machine::Perms::RW)
        .unwrap();
    n.mem.write(a.id, base_a, b"secret").unwrap();
    // B cannot read A's page, even at the same virtual address.
    let mut buf = [0u8; 6];
    assert!(n.mem.read(b.id, base_a, &mut buf).is_err());
}

#[test]
fn simulated_time_is_deterministic_across_runs() {
    let run = || {
        let world = World::boot();
        let n = &world.nucleus;
        let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
        let svc = ObjectBuilder::new("svc")
            .interface("svc", |i| {
                i.method("nop", &[], TypeTag::Unit, |_, _| Ok(Value::Unit))
            })
            .build();
        n.register(KERNEL_DOMAIN, "/svc/x", svc).unwrap();
        let proxy = n.bind(app.id, "/svc/x").unwrap();
        for _ in 0..10 {
            proxy.invoke("svc", "nop", &[]).unwrap();
        }
        n.now()
    };
    assert_eq!(run(), run());
}

#[test]
fn a_dropped_world_is_freed() {
    use paramecium::obj::ObjError;
    use paramecium::sfi::workloads;
    use std::sync::Arc;

    let world = World::boot();
    let n = &world.nucleus;
    // A life's worth of state first: a sandboxed kernel component, a user
    // domain, and a crossing through the proxy it binds.
    n.repository
        .add_bytecode("soft", &workloads::checksum_loop(64, 1));
    n.load("soft", &LoadOptions::kernel("/kernel/soft"))
        .unwrap();
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap().id;
    let soft = n.bind(app, "/kernel/soft").unwrap();
    let frame = Value::Bytes(bytes::Bytes::from(vec![1u8; 64]));
    let sum = soft.invoke("component", "run", &[frame, Value::Int(0)]);
    assert_eq!(sum.unwrap(), Value::Int(64));
    drop(soft);

    let directory = n.bind(KERNEL_DOMAIN, "/nucleus/directory").unwrap();
    let (nucleus, machine) = (Arc::downgrade(n), Arc::downgrade(n.machine()));
    drop(world);
    assert!(
        nucleus.upgrade().is_none(),
        "the nucleus outlived its world"
    );
    assert!(
        machine.upgrade().is_none(),
        "the machine outlived its world"
    );

    // The directory object outlived the name space it serves.
    let err = directory
        .invoke("directory", "list", &[Value::Str("/".into())])
        .unwrap_err();
    assert!(matches!(err, ObjError::Binding(_)), "{err}");
}
