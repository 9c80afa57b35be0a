//! Heap-allocation accounting for the dispatch fast path.
//!
//! The no-alloc invocation pipeline promises that a warmed flat-args
//! dispatch performs **zero** heap allocations, and that each interposer
//! hop adds none either. This binary installs a counting
//! `#[global_allocator]` and pins those budgets; a regression that
//! reintroduces a per-call `Vec` clone or `Box` fails here, not in a
//! benchmark someone has to eyeball.
//!
//! Counting is **per thread** (const-initialised TLS, so the allocator
//! hooks never allocate): the default test harness runs `#[test]`s on
//! parallel threads, and a process-global counter would pick up sibling
//! tests' setup allocations and flake.
//!
//! Profiles: debug (tier-1) and release (CI's workspace step) both matter —
//! iterator size hints and inlining decide several of the store write
//! path's budgets.

use paramecium::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn record_alloc() {
    // TLS access can itself recurse into the allocator during teardown on
    // some platforms; `try_with` makes that path a no-op instead of UB.
    let _ = TL_COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = TL_ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Returns the number of heap allocations performed by `f` on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    TL_ALLOCS.with(|a| a.set(0));
    TL_COUNTING.with(|c| c.set(true));
    f();
    TL_COUNTING.with(|c| c.set(false));
    TL_ALLOCS.with(|a| a.get())
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
        })
        .build()
}

const CALLS: u64 = 1_000;

#[test]
fn flat_args_dispatch_fast_path_is_zero_alloc() {
    let obj = counter();
    let args = [Value::Int(1)];
    // Warm: first call resolves and publishes the cache snapshot.
    for _ in 0..8 {
        obj.invoke("ctr", "incr", &args).unwrap();
    }
    let allocs = count_allocs(|| {
        for _ in 0..CALLS {
            obj.invoke("ctr", "incr", &args).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "warmed flat-args dispatch must not touch the heap ({allocs} allocs / {CALLS} calls)"
    );
}

#[test]
fn bound_method_call_is_zero_alloc() {
    let obj = counter();
    let bound = obj
        .interface("ctr")
        .unwrap()
        .bind_method(&obj, "incr")
        .unwrap();
    let args = [Value::Int(2)];
    bound.call(&args).unwrap();
    let allocs = count_allocs(|| {
        for _ in 0..CALLS {
            bound.call(&args).unwrap();
        }
    });
    assert_eq!(allocs, 0, "bound-method calls must not touch the heap");
}

#[test]
fn interposer_hops_are_zero_alloc_once_warm() {
    // Every forwarded hop goes through a warmed forward cache, whichever
    // forwarder makes it — a 4-deep hook-free interposer chain, a method
    // `retry` merely passes through, one `arp` merely passes through. The
    // budget is zero allocations per call *per hop*.
    use paramecium::netstack::arp::make_arp;
    use paramecium::store::{make_retry, RetryConfig};

    let mut chain = counter();
    for _ in 0..4 {
        chain = InterposerBuilder::new(chain).build();
    }
    let lower = |iface: &str, method: &str| {
        ObjectBuilder::new("lower")
            .interface(iface, |i| {
                i.method(method, &[], TypeTag::Int, |_, _| Ok(Value::Int(0)))
            })
            .build()
    };
    let machine = std::sync::Arc::new(parking_lot::Mutex::new(Machine::new()));
    let retry = make_retry(
        machine,
        lower("blockdev", "begin_txn"),
        RetryConfig::default(),
    );
    let arp = make_arp(lower("netdev", "pending"), 0x0A00_0001, [2, 0, 0, 0, 0, 1]);

    for (obj, iface, method, args) in [
        (chain, "ctr", "incr", vec![Value::Int(1)]),
        (retry, "blockdev", "begin_txn", vec![]),
        (arp, "netdev", "pending", vec![]),
    ] {
        for _ in 0..8 {
            obj.invoke(iface, method, &args).unwrap();
        }
        let allocs = count_allocs(|| {
            for _ in 0..CALLS {
                obj.invoke(iface, method, &args).unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "warmed forward of {iface}.{method} must not touch the heap ({allocs} allocs / {CALLS} calls)"
        );
    }
}

#[test]
fn hooked_interposer_hops_have_bounded_allocations() {
    // Hooks are user code, so the budget is looser, but the *dispatch*
    // machinery still must not allocate: with counting-only hooks the
    // whole chain stays at zero.
    let hook_calls = std::sync::Arc::new(AtomicU64::new(0));
    let mut obj = counter();
    for _ in 0..2 {
        let h = hook_calls.clone();
        obj = InterposerBuilder::new(obj)
            .before(move |_, _, _| {
                h.fetch_add(1, Ordering::Relaxed);
            })
            .build();
    }
    let args = [Value::Int(1)];
    for _ in 0..8 {
        obj.invoke("ctr", "incr", &args).unwrap();
    }
    let allocs = count_allocs(|| {
        for _ in 0..CALLS {
            obj.invoke("ctr", "incr", &args).unwrap();
        }
    });
    assert_eq!(allocs, 0, "hook wrappers must not allocate per call");
    assert!(hook_calls.load(Ordering::Relaxed) >= 2 * CALLS);
}

#[test]
fn delegated_dispatch_has_bounded_allocations() {
    // A delegated method is a forward like any other hop; the budget
    // pins it so regressions (e.g. a per-call argument clone) cannot
    // hide: zero allocations per call.
    let base = counter();
    let iface = paramecium::obj::InterfaceBuilder::new("ctr").finish();
    let child = ObjectBuilder::new("child")
        .raw_interface(paramecium::obj::delegate_interface(iface, base))
        .build();
    let args = [Value::Int(1)];
    for _ in 0..8 {
        child.invoke("ctr", "incr", &args).unwrap();
    }
    let allocs = count_allocs(|| {
        for _ in 0..CALLS {
            child.invoke("ctr", "incr", &args).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "warmed delegated dispatch must not touch the heap ({allocs} allocs / {CALLS} calls)"
    );
}

#[test]
fn zero_copy_frame_path_is_alloc_free_once_warm() {
    // The netstack threads refcounted `bytes::Bytes` views from the NIC
    // device through the driver object: `send` hands the caller's buffer
    // to the device and `recv` hands the device's buffer to the caller,
    // neither copying the frame body. With the dispatch path warm and the
    // device queues grown, a full send + receive round trip must not
    // touch the heap at all — a regression that reintroduces a per-frame
    // `to_vec()` fails here.
    use paramecium::core::memsvc::MemService;
    use paramecium::machine::{dev::nic::Nic, Machine};
    use paramecium::netstack::make_driver;

    let machine = std::sync::Arc::new(parking_lot::Mutex::new(Machine::new()));
    let mem = std::sync::Arc::new(MemService::new(machine.clone()));
    let driver = make_driver(&mem, KERNEL_DOMAIN).unwrap();
    let frame = bytes::Bytes::from(vec![0u8; 1024]);
    let args = [Value::Bytes(frame.clone())];

    let roundtrip = |assert_len: bool| {
        driver.invoke("netdev", "send", &args).unwrap();
        let mut m = machine.lock();
        let nic = m.device_mut::<Nic>("nic").unwrap();
        let wire_frame = nic.tx_take().unwrap();
        nic.inject_rx(wire_frame);
        drop(m);
        let got = driver.invoke("netdev", "recv", &[]).unwrap();
        if assert_len {
            assert_eq!(got.as_bytes().unwrap().len(), 1024);
        }
    };

    // Warm: dispatch caches publish, device queues reach steady capacity.
    for _ in 0..8 {
        roundtrip(true);
    }
    let allocs = count_allocs(|| {
        for _ in 0..CALLS {
            roundtrip(false);
        }
    });
    assert_eq!(
        allocs, 0,
        "frame send + recv round trips must not copy or allocate \
         ({allocs} allocs / {CALLS} round trips)"
    );
}

#[test]
fn arg_frame_inline_push_is_zero_alloc() {
    use paramecium::obj::value::{ArgFrame, ARG_FRAME_INLINE};
    let allocs = count_allocs(|| {
        for _ in 0..CALLS {
            let mut frame = ArgFrame::new();
            for i in 0..ARG_FRAME_INLINE {
                frame.push(Value::Int(i as i64));
            }
            assert!(frame.is_inline());
            std::hint::black_box(frame.as_slice());
        }
    });
    assert_eq!(allocs, 0, "inline frames must live entirely on the stack");
}

#[test]
fn idle_tcp_pump_allocations_do_not_grow_with_open_connections() {
    // The TCP engine visits only connections an event touched or whose
    // timer ran out, so a pump with nothing to do costs the same heap
    // traffic — the lower netdev's empty `recv` and nothing else —
    // whether the endpoint holds no connection or a thousand idle ones.
    // A per-pump list of every connection id fails here.
    use paramecium::machine::Machine;
    use paramecium::netstack::simlink::{make_simlink, LinkConfig};
    use paramecium::netstack::tcp::{make_tcp, BASE_RTO};
    use std::sync::Arc;

    const OPEN: i64 = 1024;
    let pair = || {
        let machine = Arc::new(parking_lot::Mutex::new(Machine::new()));
        let (end_a, end_b) = make_simlink(machine.clone(), LinkConfig::perfect(5));
        let a = make_tcp(machine.clone(), end_a, 0x0A00_0001, [2, 0, 0, 0, 0, 0xAA]);
        let b = make_tcp(machine.clone(), end_b, 0x0A00_0002, [2, 0, 0, 0, 0, 0xBB]);
        (machine, a, b)
    };
    let idle_pump_allocs = |ep: &ObjRef| {
        ep.invoke("tcp", "pump", &[]).unwrap();
        count_allocs(|| {
            for _ in 0..CALLS {
                ep.invoke("tcp", "pump", &[]).unwrap();
            }
        })
    };

    let (_machine, empty, _peer) = pair();
    let none_open = idle_pump_allocs(&empty);

    let (machine, a, b) = pair();
    b.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
    b.invoke("tcp", "set_backlog", &[Value::Int(80), Value::Int(OPEN)])
        .unwrap();
    let ids: Vec<i64> = (0..OPEN)
        .map(|_| {
            a.invoke("tcp", "connect", &[Value::Int(0x0A00_0002), Value::Int(80)])
                .unwrap()
                .as_int()
                .unwrap()
        })
        .collect();
    for _ in 0..6 {
        a.invoke("tcp", "pump", &[]).unwrap();
        b.invoke("tcp", "pump", &[]).unwrap();
        machine.lock().tick(BASE_RTO / 4);
    }
    for id in ids {
        let state = a.invoke("tcp", "state", &[Value::Int(id)]).unwrap();
        assert_eq!(state, Value::Str("established".into()));
    }
    for (side, ep) in [("client", &a), ("server", &b)] {
        let many_open = idle_pump_allocs(ep);
        assert!(
            many_open <= none_open,
            "{side}: {many_open} allocs / {CALLS} idle pumps with {OPEN} connections open, \
             {none_open} with none"
        );
    }
}

#[test]
fn loaded_bytecode_component_runs_without_allocating() {
    // A loaded component owns its lowered program, register file and data
    // segment from load time on; a run copies the frame in and goes. Under
    // every software regime that is zero allocations per warmed
    // `component.run` — an engine that clones its code or builds a fresh
    // data segment per run fails here — and the step count the virtual
    // charge rides on is still the checked oracle's.
    use paramecium::netstack::filter::adapt_bytecode_filter;
    use paramecium::sfi::{sandbox_rewrite, workloads, Interp};

    let world = World::boot();
    let n = &world.nucleus;
    let certified = workloads::checksum_loop_verified(256, 1);
    // A different image: a certificate covers every copy of the bytes.
    let verifiable = workloads::checksum_loop_verified(256, 2);
    let raw = workloads::checksum_loop(256, 1);
    let (rewritten, _) = sandbox_rewrite(&raw);
    let frame: Vec<u8> = (0..=255).collect();
    let args = [
        Value::Bytes(bytes::Bytes::from(frame.clone())),
        Value::Int(0),
    ];

    for (name, program, oracle, certify, want) in [
        (
            "cert",
            &certified,
            &certified,
            true,
            Protection::CertifiedNative,
        ),
        (
            "soft-v",
            &verifiable,
            &verifiable,
            false,
            Protection::Verified,
        ),
        ("soft-s", &raw, &rewritten, false, Protection::Sandboxed),
    ] {
        n.repository.add_bytecode(name, program);
        if certify {
            world.certify_by_root(name, &[Right::RunKernel]).unwrap();
        }
        let path = format!("/kernel/{name}");
        let report = n.load(name, &LoadOptions::kernel(path.as_str())).unwrap();
        assert_eq!(report.protection, want);
        let component = n.bind(KERNEL_DOMAIN, &path).unwrap();

        let mut checked = Interp::new(oracle);
        checked.load_data(0, &frame);
        let expected = checked.run(1 << 20).unwrap();

        for _ in 0..8 {
            component.invoke("component", "run", &args).unwrap();
        }
        let allocs = count_allocs(|| {
            for _ in 0..CALLS {
                let sum = component.invoke("component", "run", &args).unwrap();
                assert_eq!(sum, Value::Int(expected.result as i64));
            }
        });
        assert_eq!(
            allocs, 0,
            "{want:?}: {allocs} allocations in {CALLS} warmed component.run calls"
        );
        let steps = component.invoke("component", "steps", &[]).unwrap();
        assert_eq!(steps, Value::Int(expected.steps as i64), "{want:?}");

        // The packet-filter path: the adapter in front of the component
        // adds its own dispatch and nothing on the heap.
        let filter = adapt_bytecode_filter(component);
        for _ in 0..8 {
            filter.invoke("filter", "check", &args[..1]).unwrap();
        }
        let allocs = count_allocs(|| {
            for _ in 0..CALLS {
                filter.invoke("filter", "check", &args[..1]).unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "{want:?}: {allocs} allocations in {CALLS} warmed filter.check calls"
        );
    }
}

#[test]
fn analysis_allocations_follow_the_program_not_the_fixpoint() {
    // The analysis allocates its tables — the CFG's per-block edge lists,
    // one entry state per block, one state and one `Facts` per pc — and
    // nothing per block *visit*: a worklist pass that collected its
    // successors into a fresh `Vec` cost `kernel_ext`'s certified program
    // 149 allocations where its tables are 20.
    use paramecium::sfi::{analysis, workloads};
    for program in [
        workloads::checksum_loop_verified(256, 1),
        workloads::checksum_loop(256, 1),
        workloads::bloom_insert_verified(4),
    ] {
        let mut analysed = None;
        let allocs = count_allocs(|| analysed = analysis::analyze(&program).ok());
        let a = analysed.expect("converges");
        let blocks = a.cfg.blocks.len() as u64;
        assert!(
            a.report.iterations > blocks,
            "a loop revisits blocks, or this pins nothing"
        );
        assert!(
            allocs <= 10 + 3 * blocks,
            "{allocs} allocations for {blocks} blocks ({} visits)",
            a.report.iterations
        );
    }
}

#[test]
fn data_segment_is_built_once_on_its_way_to_the_link() {
    // A data segment's bytes move once: out of the send ring into the
    // frame buffer, headers written around them in place. On the way
    // down `tcp → arp → simlink` that is the frame buffer, the `Bytes`
    // it leaves in, and nothing per layer after that: the segments of a
    // pump leave as one burst in the endpoint's own (kept) output queue,
    // ARP hands an already-unicast burst through as that very list, and
    // the link's deque keeps its buffer. So an idle pump allocates
    // nothing and one that emits k full segments at most 2k + 1. A
    // builder that stacks header + copy per protocol layer, an ARP
    // `to_vec`, a fresh list per burst per layer, or a checksum that
    // copies the segment behind a pseudo-header fails here.
    use paramecium::machine::Machine;
    use paramecium::netstack::arp::make_arp;
    use paramecium::netstack::simlink::{make_simlink, LinkConfig};
    use paramecium::netstack::tcp::{make_tcp, BASE_RTO, TCP_MSS};
    use paramecium::netstack::wire;
    use std::sync::Arc;

    const IP_A: u32 = 0x0A00_0001;
    const IP_B: u32 = 0x0A00_0002;
    const MAC_A: [u8; 6] = [2, 0, 0, 0, 0, 0xAA];
    const MAC_B: [u8; 6] = [2, 0, 0, 0, 0, 0xBB];

    let machine = Arc::new(parking_lot::Mutex::new(Machine::new()));
    let (end_a, end_b) = make_simlink(machine.clone(), LinkConfig::perfect(5));
    let arp_b = make_arp(end_b, IP_B, MAC_B);
    let a = make_tcp(machine.clone(), make_arp(end_a, IP_A, MAC_A), IP_A, MAC_A);
    let b = make_tcp(machine.clone(), arp_b.clone(), IP_B, MAC_B);
    let settle = || {
        for _ in 0..6 {
            a.invoke("tcp", "pump", &[]).unwrap();
            b.invoke("tcp", "pump", &[]).unwrap();
            machine.lock().tick(BASE_RTO / 4);
        }
    };

    b.invoke("tcp", "listen", &[Value::Int(80)]).unwrap();
    let id = a
        .invoke("tcp", "connect", &[Value::Int(IP_B as i64), Value::Int(80)])
        .unwrap();
    settle();
    let accepted = b.invoke("tcp", "accept", &[Value::Int(80)]).unwrap();
    assert!(accepted.as_int().unwrap() > 0, "handshake completes");

    let drain = [accepted, Value::Int(1 << 20)];
    // One pump of `a` with `k` full segments queued, the peer quiet.
    let emit_allocs = |k: usize| {
        let chunk = Value::Bytes(bytes::Bytes::from(vec![0x5A; k * TCP_MSS]));
        a.invoke("tcp", "send", &[id.clone(), chunk]).unwrap();
        count_allocs(|| {
            a.invoke("tcp", "pump", &[]).unwrap();
        })
    };
    // Warm: ARP bindings learned, rings, queues and the link at capacity.
    for _ in 0..8 {
        emit_allocs(4);
        settle();
        b.invoke("tcp", "recv", &drain).unwrap();
        settle();
    }
    let idle = count_allocs(|| {
        a.invoke("tcp", "pump", &[]).unwrap();
    });
    assert_eq!(idle, 0, "an idle pump must not touch the heap");
    for k in [1, 4, 1, 4] {
        let emitting = emit_allocs(k) as usize;
        assert!(
            emitting <= 2 * k + 1,
            "sending {k} segments of {TCP_MSS} B cost {emitting} allocations"
        );
        settle();
        b.invoke("tcp", "recv", &drain).unwrap();
        settle();
    }

    // And the receiving codec reads the frame where it lies.
    emit_allocs(1);
    machine.lock().tick(BASE_RTO / 4);
    let frame = arp_b.invoke("netdev", "recv", &[]).unwrap();
    let frame = frame.as_bytes().unwrap();
    let parse_allocs = count_allocs(|| {
        let (_, _, payload) = wire::parse_tcp_frame(frame).unwrap();
        assert_eq!(payload.len(), TCP_MSS);
    });
    assert_eq!(parse_allocs, 0, "parsing a segment must not copy it");
}

#[test]
fn idle_recv_says_nothing_without_allocating() {
    // "No frame" is an empty `Bytes`, and an empty `Bytes` is one shared
    // buffer, not a fresh one per call: an idle `recv` costs no heap
    // traffic through `arp → simlink`, nor through a router polling two
    // such interfaces.
    use paramecium::netstack::arp::make_arp;
    use paramecium::netstack::route::{make_router, RouteIf};
    use paramecium::netstack::simlink::{make_simlink, LinkConfig};

    let machine = std::sync::Arc::new(parking_lot::Mutex::new(Machine::new()));
    let iface = |n: u8| {
        let (near, _far) = make_simlink(machine.clone(), LinkConfig::perfect(5));
        let (ip, mac) = (0x0A00_0001 + u32::from(n), [2, 0, 0, 0, 0, n]);
        (make_arp(near, ip, mac), ip, mac)
    };
    let (arp, ..) = iface(1);
    let router = make_router(
        [2, 3]
            .map(|n| {
                let (dev, ip, mac) = iface(n);
                RouteIf { dev, ip, mac }
            })
            .into(),
    );
    for (name, dev) in [("arp → simlink", arp), ("router", router)] {
        for _ in 0..8 {
            dev.invoke("netdev", "recv", &[]).unwrap();
        }
        let allocs = count_allocs(|| {
            for _ in 0..CALLS {
                let frame = dev.invoke("netdev", "recv", &[]).unwrap();
                assert!(frame.as_bytes().unwrap().is_empty());
            }
        });
        assert_eq!(allocs, 0, "{name}: {allocs} allocs / {CALLS} idle recvs");
    }
}

#[test]
fn store_write_path_meets_its_allocation_budgets() {
    // A write batch is one flat list that every layer borrows: what is
    // left on the heap per call is what ownership really needs — the
    // journal's queued copy of the batch, its record sectors, the one
    // list each crossing carries. Budgets are allocations inside the
    // stack (arguments are built outside the counted region), warmed,
    // one above what each measures (5, 5, 4 and 8). Before the borrowed
    // batch the same four measured 22, 10, 72 and 16.
    use paramecium::core::memsvc::MemService;
    use paramecium::machine::dev::disk::SECTOR_SIZE;
    use paramecium::store::vectored::pairs_arg;
    use paramecium::store::{JournalConfig, RetryConfig, StackBuilder};
    use std::sync::Arc;

    let sector = |fill: u8| bytes::Bytes::from(vec![fill; SECTOR_SIZE]);
    let journalled = || {
        let machine = Arc::new(parking_lot::Mutex::new(Machine::new()));
        let mem = Arc::new(MemService::new(machine));
        StackBuilder::disk(&mem, KERNEL_DOMAIN)
            .retry(RetryConfig::default())
            .journal(JournalConfig::default())
    };

    // driver → retry → journal.
    let top = journalled().build().unwrap().top;
    let batch = |round: u8| [pairs_arg((0..8).map(|sec| (sec, sector(round))))];
    let single = |round: u8| [Value::Int(9), Value::Bytes(sector(round))];
    // Warm past the first inline checkpoint, so the overlay map, the
    // commit queue and every dispatch cache have reached their size.
    for round in 0..16 {
        top.invoke("blockdev", "write_many", &batch(round)).unwrap();
        top.invoke("blockdev", "write", &single(round)).unwrap();
    }
    top.invoke("blockdev", "flush", &[]).unwrap();

    let args = batch(0x21);
    let write_many = count_allocs(|| {
        top.invoke("blockdev", "write_many", &args).unwrap();
    });
    assert!(
        write_many <= 6,
        "8-sector write_many: {write_many} allocations"
    );
    let args = single(0x22);
    let write = count_allocs(|| {
        top.invoke("blockdev", "write", &args).unwrap();
    });
    assert!(write <= 6, "single-sector write: {write} allocations");

    // A checkpoint of 56 overlay sectors (seven 8-sector transactions:
    // 70 of the log's 126 slots, so none was checkpointed inline).
    top.invoke("blockdev", "flush", &[]).unwrap();
    for t in 0..7 {
        let pairs = (0..8).map(|k| (100 + 8 * t + k, sector(0x23)));
        top.invoke("blockdev", "write_many", &[pairs_arg(pairs)])
            .unwrap();
    }
    let mut homed = Value::Unit;
    let flush = count_allocs(|| {
        homed = top.invoke("blockdev", "flush", &[]).unwrap();
    });
    assert_eq!(homed, Value::Int(56));
    assert!(flush <= 5, "56-sector checkpoint: {flush} allocations");

    // cache → journal: a full one-shard cache of clean lines but one,
    // the dirty line coldest; the next miss evicts exactly it.
    let top = journalled().cache(8).build().unwrap().top;
    for round in 0..4u8 {
        for sec in 0..32 {
            let args = [Value::Int(sec), Value::Bytes(sector(round))];
            top.invoke("blockdev", "write", &args).unwrap();
        }
    }
    top.invoke("blockdev", "flush", &[]).unwrap();
    top.invoke(
        "blockdev",
        "write",
        &[Value::Int(40), Value::Bytes(sector(0x24))],
    )
    .unwrap();
    for sec in 41..48 {
        top.invoke("blockdev", "read", &[Value::Int(sec)]).unwrap();
    }
    let stats = |top: &ObjRef| top.invoke("cache", "stats", &[]).unwrap();
    let writebacks = |v: &Value| v.as_list().unwrap()[2].as_int().unwrap();
    let before = writebacks(&stats(&top));
    let args = [Value::Int(48)];
    let evict = count_allocs(|| {
        top.invoke("blockdev", "read", &args).unwrap();
    });
    assert_eq!(writebacks(&stats(&top)), before + 1, "one dirty eviction");
    assert!(evict <= 9, "one-line dirty eviction: {evict} allocations");
}
