//! E15 — the chaos engine's idle cost (PR 10): proof that wiring a
//! [`ChaosController`] hook into a production pump loop is free until a
//! storm is actually due.
//!
//! Rows:
//! - `unarmed_poll`: `poll()` on a controller with no plan — the
//!   drained/unarmed fast path, a bounds check and a return, no locks.
//! - `armed_pending_poll`: `poll()` with a plan whose first event is
//!   far in the future — the hook takes the machine lock to read the
//!   clock, finds nothing due. This is the steady-state cost while a
//!   drill is armed but quiet.
//! - `echo_round_bare`: one 256-byte TCP echo round-trip over a perfect
//!   simlink, no chaos hook — the baseline pump loop.
//! - `echo_round_hooked`: the identical round with an unarmed `poll()`
//!   where a drill loop would put it. The delta against
//!   `echo_round_bare` is the real-world price of leaving chaos wired
//!   in, and it should be lost in the host's run-to-run noise.

use criterion::{criterion_group, criterion_main, Criterion};
use paramecium::chaos::{ChaosController, ChaosPlan, Fault};
use paramecium::machine::Machine;
use paramecium::netstack::simlink::{make_simlink, LinkConfig};
use paramecium::netstack::tcp::make_tcp;
use paramecium::obj::{ObjRef, Value};
use parking_lot::Mutex;
use std::sync::Arc;

const PORT: i64 = 7;
const CHUNK: usize = 256;
const TICK: u64 = 25_000;

/// Two TCP endpoints on a perfect wire with one established connection.
struct Echo {
    machine: Arc<Mutex<Machine>>,
    a: ObjRef,
    b: ObjRef,
    id_a: i64,
    id_b: i64,
}

fn echo_pair(seed: u64) -> Echo {
    let machine = Arc::new(Mutex::new(Machine::new()));
    let (end_a, end_b) = make_simlink(machine.clone(), LinkConfig::perfect(seed));
    let a = make_tcp(machine.clone(), end_a, 0x0A00_0001, [2, 0, 0, 0, 0, 0x0A]);
    let b = make_tcp(machine.clone(), end_b, 0x0A00_0002, [2, 0, 0, 0, 0, 0x0B]);
    b.invoke("tcp", "listen", &[Value::Int(PORT)]).unwrap();
    let id_a = a
        .invoke(
            "tcp",
            "connect",
            &[Value::Int(0x0A00_0002), Value::Int(PORT)],
        )
        .unwrap()
        .as_int()
        .unwrap();
    let mut id_b = -1;
    for _ in 0..16 {
        for t in [&a, &b] {
            t.invoke("tcp", "pump", &[]).unwrap();
        }
        machine.lock().tick(TICK);
        id_b = b
            .invoke("tcp", "accept", &[Value::Int(PORT)])
            .unwrap()
            .as_int()
            .unwrap();
        if id_b >= 0 {
            break;
        }
    }
    assert!(id_b >= 0, "handshake must complete");
    Echo {
        machine,
        a,
        b,
        id_a,
        id_b,
    }
}

/// One echo round-trip: A sends a chunk, B echoes it, A drains it.
fn round(e: &Echo, payload: &Value, hook: Option<&mut ChaosController>) {
    if let Some(ctl) = hook {
        ctl.poll().unwrap();
    }
    e.a.invoke(
        "tcp",
        "send",
        &[Value::Int(e.id_a), std::hint::black_box(payload.clone())],
    )
    .unwrap();
    let mut got = 0;
    while got < CHUNK {
        e.a.invoke("tcp", "pump", &[]).unwrap();
        e.b.invoke("tcp", "pump", &[]).unwrap();
        let v =
            e.b.invoke("tcp", "recv", &[Value::Int(e.id_b), Value::Int(65_536)])
                .unwrap();
        let data = v.as_bytes().unwrap();
        if !data.is_empty() {
            e.b.invoke(
                "tcp",
                "send",
                &[Value::Int(e.id_b), Value::Bytes(data.clone())],
            )
            .unwrap();
        }
        e.b.invoke("tcp", "pump", &[]).unwrap();
        e.a.invoke("tcp", "pump", &[]).unwrap();
        let v =
            e.a.invoke("tcp", "recv", &[Value::Int(e.id_a), Value::Int(65_536)])
                .unwrap();
        got += v.as_bytes().unwrap().len();
        e.machine.lock().tick(TICK);
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e15_chaos");

    // The bare hook, nothing armed: this is what every pump round of a
    // production loop pays for keeping chaos wired in.
    let machine = Arc::new(Mutex::new(Machine::new()));
    let mut ctl = ChaosController::new(machine.clone());
    g.bench_function("unarmed_poll", |b| {
        b.iter(|| std::hint::black_box(ctl.poll().unwrap()))
    });

    // Armed but quiet: the first event sits far in the future, so every
    // poll reads the clock and returns.
    let mut ctl = ChaosController::new(machine.clone());
    ctl.arm(ChaosPlan::new().at(
        u64::MAX,
        Fault::PowerCrash {
            after_charges: u64::MAX,
        },
    ));
    g.bench_function("armed_pending_poll", |b| {
        b.iter(|| std::hint::black_box(ctl.poll().unwrap()))
    });

    // A real pump loop, without and with the hook. The two rows should
    // be indistinguishable inside the noise envelope.
    let payload = Value::Bytes(bytes::Bytes::from(vec![0x5A; CHUNK]));
    let e = echo_pair(1);
    g.bench_function("echo_round_bare", |b| b.iter(|| round(&e, &payload, None)));

    let e = echo_pair(2);
    let mut ctl = ChaosController::new(e.machine.clone());
    g.bench_function("echo_round_hooked", |b| {
        b.iter(|| round(&e, &payload, Some(&mut ctl)))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
