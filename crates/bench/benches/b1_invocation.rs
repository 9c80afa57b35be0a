//! E1 — method invocation overhead (paper §2).
//!
//! Direct Rust call vs interface dispatch vs delegation vs stacked
//! interposers.

use criterion::{criterion_group, criterion_main, Criterion};
use paramecium::prelude::*;
use paramecium_bench::counter_obj;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_invocation");
    let args = [Value::Int(1)];

    // Direct Rust baseline: same state mutation, no dispatch.
    let cell = std::cell::Cell::new(0i64);
    g.bench_function("direct_rust", |b| {
        b.iter(|| {
            cell.set(std::hint::black_box(cell.get() + 1));
        })
    });

    let obj = counter_obj();
    g.bench_function("interface_dispatch", |b| {
        b.iter(|| {
            obj.invoke("ctr", "incr", std::hint::black_box(&args))
                .unwrap()
        })
    });

    // The paper's "run time inline technique": a pre-bound method handle.
    let bound = obj
        .interface("ctr")
        .unwrap()
        .bind_method(&obj, "incr")
        .unwrap();
    g.bench_function("bound_method", |b| {
        b.iter(|| bound.call(std::hint::black_box(&args)).unwrap())
    });

    let delegated = {
        let base = counter_obj();
        let iface = paramecium::obj::InterfaceBuilder::new("ctr").finish();
        ObjectBuilder::new("child")
            .raw_interface(paramecium::obj::delegate_interface(iface, base))
            .build()
    };
    g.bench_function("delegated_1hop", |b| {
        b.iter(|| {
            delegated
                .invoke("ctr", "incr", std::hint::black_box(&args))
                .unwrap()
        })
    });

    for hops in [1usize, 2, 4, 8] {
        let mut wrapped = counter_obj();
        for _ in 0..hops {
            wrapped = InterposerBuilder::new(wrapped).build();
        }
        g.bench_function(format!("interposed_x{hops}"), |b| {
            b.iter(|| {
                wrapped
                    .invoke("ctr", "incr", std::hint::black_box(&args))
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
