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
