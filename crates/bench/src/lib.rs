//! Shared helpers for the Criterion benchmarks.
//!
//! Each bench target (`benches/b1_…` onwards) times one of the paper's
//! quantitative claims. Criterion measures host wall-clock of
//! the real code paths; the deterministic simulated-cycle tables come from
//! `cargo run --release --example experiments` in the root crate.

use paramecium::prelude::*;

/// Builds a counter object used by the invocation benches.
pub fn counter_obj() -> ObjRef {
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
        })
        .build()
}

/// Builds an echo object (bytes in → bytes out) for marshalling benches.
pub fn echo_obj() -> ObjRef {
    ObjectBuilder::new("echo")
        .interface("echo", |i| {
            i.method("echo", &[TypeTag::Bytes], TypeTag::Bytes, |_, args| {
                Ok(args[0].clone())
            })
        })
        .build()
}

/// A booted world with an echo service registered at `/svc/echo` and one
/// user domain; returns the world and the user domain id.
pub fn world_with_echo() -> (World, DomainId) {
    let world = World::boot();
    world
        .nucleus
        .register(KERNEL_DOMAIN, "/svc/echo", echo_obj())
        .unwrap();
    let app = world
        .nucleus
        .create_domain("bench-app", KERNEL_DOMAIN, [])
        .unwrap();
    let id = app.id;
    (world, id)
}
