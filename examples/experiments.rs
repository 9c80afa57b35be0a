//! Prints every simulated-cycle experiment table.
//!
//! The paper (a HotOS position paper) has no tables or figures, so the
//! experiment set is derived from its quantitative *claims*; each
//! table's heading names the section of the paper it tests. Every number
//! is a count of the machine's virtual cycles, VM steps or events, so
//! every run prints the same bytes. CI diffs a fresh run against the
//! pinned `examples/experiments.expected`; a change that moves a number
//! re-pins that file, and the diff is its explanation. Host-clock
//! figures are not printed here: dispatch, interposition and crypto
//! timings are the criterion targets `b1`/`b6`/`b9` and the ledger's
//! `obj.*`/`crypto.*` probes (`bench-records/README.md`), which is why
//! there is no E2 or E9.
//!
//! ```text
//! cargo run --release --example experiments
//! cargo run --release --example experiments > examples/experiments.expected   # re-pin
//! ```

use std::sync::Arc;

use paramecium::cert::{
    AdminCertifier, Authority, CertificationPolicy, CertifyMethod, CompilerCertifier,
    ProverCertifier,
};
use paramecium::machine::dev::Nic;
use paramecium::machine::trap::{Trap, TrapKind};
use paramecium::netstack::{
    filter::{adapt_bytecode_filter, udp_port_filter_program},
    install_driver, make_network_monitor, make_udp_stack, wire,
};
use paramecium::prelude::*;
use paramecium::sfi::{sandbox::sandbox_rewrite, verifier, workloads, ElidedInterp, ElidedProgram};
use paramecium::threads::popup::PopupFactory;
use paramecium::threads::Semaphore;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    println!("# Paramecium experiment tables\n");
    println!("(regenerate with `cargo run --release --example experiments`)\n");
    e1_invocation();
    e3_crossdomain();
    e4_certification_vs_software();
    e5_popup();
    e6_interpose();
    e7_placement();
    e8_delegation();
}

// ---------------------------------------------------------------- E1 ---

fn e1_invocation() {
    println!("## E1 — method invocation overhead (paper §2)\n");
    println!("Modelled overhead vs component grain size (simulated cycles;");
    println!(
        "dispatch = indirect call, {} cycles):\n",
        CostModel::default().indirect_call
    );
    println!("| work per call (cycles) | overhead |");
    println!("|---|---|");
    let model = CostModel::default();
    for work in [10u64, 100, 1_000, 10_000, 100_000] {
        let overhead =
            100.0 * (model.indirect_call - model.call) as f64 / (model.call + work) as f64;
        println!("| {work} | {overhead:.2}% |");
    }
    println!();
}

// ---------------------------------------------------------------- E3 ---

fn e3_crossdomain() {
    println!("## E3 — cross-domain invocation via proxies (paper §1, §3)\n");
    println!("Simulated cycles per call (deterministic):\n");
    println!("| configuration | arg bytes | cycles/call |");
    println!("|---|---|---|");

    let world = World::boot();
    let n = &world.nucleus;
    let echo = ObjectBuilder::new("echo")
        .interface("echo", |i| {
            i.method("echo", &[TypeTag::Bytes], TypeTag::Bytes, |_, args| {
                Ok(args[0].clone())
            })
        })
        .build();
    n.register(KERNEL_DOMAIN, "/svc/echo", echo).unwrap();
    let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();

    let run = |obj: &ObjRef, size: usize, label: &str| {
        let payload = Value::Bytes(bytes::Bytes::from(vec![0u8; size]));
        let calls = 100u64;
        let t0 = n.now();
        for _ in 0..calls {
            obj.invoke("echo", "echo", std::slice::from_ref(&payload))
                .unwrap();
        }
        let per = (n.now() - t0) / calls;
        println!("| {label} | {size} | {per} |");
    };

    let same = n.bind(KERNEL_DOMAIN, "/svc/echo").unwrap();
    run(&same, 0, "same-domain (direct)");
    run(&same, 4096, "same-domain (direct)");

    let cross = n.bind(app.id, "/svc/echo").unwrap();
    for size in [0usize, 64, 1024, 4096] {
        run(&cross, size, "cross-domain (proxy)");
    }

    // TLB ablation on the shared-memory path: 4 KiB reads out of a page
    // shared between the domains, TLB on vs off.
    {
        let kbase = n
            .mem
            .alloc(KERNEL_DOMAIN, 4, paramecium::machine::Perms::RW)
            .unwrap();
        let ubase = n
            .mem
            .share(
                KERNEL_DOMAIN,
                kbase,
                4,
                app.id,
                paramecium::machine::Perms::R,
            )
            .unwrap();
        let mut buf = vec![0u8; 4096];
        for (label, enabled) in [
            ("shared-page read 4 KiB, TLB on", true),
            ("shared-page read 4 KiB, TLB off", false),
        ] {
            n.machine().lock().mmu.tlb.set_enabled(enabled);
            // Warm (or not) the TLB, then measure.
            n.mem.read(app.id, ubase, &mut buf).unwrap();
            let t0 = n.now();
            for _ in 0..100 {
                n.mem.read(app.id, ubase, &mut buf).unwrap();
            }
            println!("| {label} | 4096 | {} |", (n.now() - t0) / 100);
        }
        n.machine().lock().mmu.tlb.set_enabled(true);
    }

    // Argument transport ablation: copy vs page-mapping for large args
    // (the paper's fault handler "maps in arguments").
    for size in [4096usize, 65536] {
        use std::sync::atomic::Ordering;
        let payload = Value::Bytes(bytes::Bytes::from(vec![0u8; size]));
        n.proxy_stats().map_threshold.store(0, Ordering::Relaxed);
        let t0 = n.now();
        for _ in 0..50 {
            cross
                .invoke("echo", "echo", std::slice::from_ref(&payload))
                .unwrap();
        }
        let copy = (n.now() - t0) / 50;
        n.proxy_stats().map_threshold.store(4096, Ordering::Relaxed);
        let t0 = n.now();
        for _ in 0..50 {
            cross
                .invoke("echo", "echo", std::slice::from_ref(&payload))
                .unwrap();
        }
        let mapped = (n.now() - t0) / 50;
        n.proxy_stats().map_threshold.store(0, Ordering::Relaxed);
        println!("| cross-domain, args copied | {size} | {copy} |");
        println!("| cross-domain, args page-mapped | {size} | {mapped} |");
    }

    println!(
        "\ntotal crossings {} · bytes marshalled {}\n",
        n.proxy_stats().crossings(),
        n.proxy_stats().bytes()
    );
}

// ---------------------------------------------------------------- E4 ---

/// VM steps `program` takes to `Halt` (its run-time cost in cycles).
fn vm_steps(program: &paramecium::sfi::Program) -> u64 {
    let lowered = ElidedProgram::lower(program);
    let out = ElidedInterp::new(&lowered).run(u64::MAX);
    out.expect("workload halts").steps
}

fn e4_certification_vs_software() {
    println!("## E4 — load-time certification vs run-time software protection (paper §4, §5)\n");
    println!("One component (byte checksum over 1 KiB), same job under each regime.");
    println!("Load cost is paid once; run cost scales with work. Simulated cycles.\n");
    println!("| iterations | SFI total | Verified total | Certified total | winner |");
    println!("|---|---|---|---|---|");

    let sig_cost = paramecium::core::certsvc::DEFAULT_SIG_CHECK_COST;
    let digest_cost = |image_len: usize| (image_len as u64) * 3;

    for iters in [1u32, 10, 100, 1_000, 10_000] {
        // SFI: rewrite once, guards on every access.
        let raw = workloads::checksum_loop(1024, iters);
        let (sandboxed, stats) = sandbox_rewrite(&raw);
        let sfi_load = (stats.original_len + stats.rewritten_len) as u64 * 2;
        let sfi_run = vm_steps(&sandboxed);
        let sfi_total = sfi_load + sfi_run;

        // Verified: verify once, compiler-emitted guards only.
        let verified = workloads::checksum_loop_verified(1024, iters);
        let vreport = verifier::verify(&verified).unwrap();
        let ver_load = vreport.evaluations * CostModel::default().analysis_eval;
        let ver_run = vm_steps(&verified);
        let ver_total = ver_load + ver_run;

        // Certified: one RSA verification + digest, then native.
        let cert_load = sig_cost + digest_cost(raw.encode().len());
        let cert_run = vm_steps(&raw);
        let cert_total = cert_load + cert_run;

        let winner = [
            ("SFI", sfi_total),
            ("Verified", ver_total),
            ("Certified", cert_total),
        ]
        .iter()
        .min_by_key(|(_, v)| *v)
        .unwrap()
        .0;
        println!("| {iters} | {sfi_total} | {ver_total} | {cert_total} | {winner} |");
    }

    println!("\nSteady-state run cost only (load amortised away), 100 iterations:\n");
    println!("| regime | VM steps | overhead vs native |");
    println!("|---|---|---|");
    let native = vm_steps(&workloads::checksum_loop(1024, 100));
    let (sb, _) = sandbox_rewrite(&workloads::checksum_loop(1024, 100));
    let sfi = vm_steps(&sb);
    let ver = vm_steps(&workloads::checksum_loop_verified(1024, 100));
    println!("| Certified native | {native} | 1.00x |");
    println!(
        "| Verified (compiler guards) | {ver} | {:.2}x |",
        ver as f64 / native as f64
    );
    println!(
        "| SFI sandboxed | {sfi} | {:.2}x |",
        sfi as f64 / native as f64
    );

    // Certification cache ablation.
    println!("\nValidation-cache ablation (loading the same certified component 10×):\n");
    println!("| cache | signature checks | total load cycles |");
    println!("|---|---|---|");
    for cache in [true, false] {
        let world = World::boot();
        let image = world
            .nucleus
            .repository
            .add_bytecode("c", &workloads::checksum_loop_verified(1024, 1));
        let cert = world
            .root
            .certify(
                "c",
                &image,
                vec![Right::RunKernel],
                CertifyMethod::Administrator,
            )
            .unwrap();
        world.nucleus.certsvc.install(cert, vec![]);
        world.nucleus.certsvc.set_cache_enabled(cache);
        let t0 = world.nucleus.now();
        for i in 0..10 {
            world
                .nucleus
                .load("c", &LoadOptions::kernel(format!("/kernel/c{i}")).strict())
                .unwrap();
        }
        let cycles = world.nucleus.now() - t0;
        let checks = world.nucleus.certsvc.stats().signature_checks;
        println!(
            "| {} | {checks} | {cycles} |",
            if cache { "on" } else { "off" }
        );
    }
    println!();
}

// ---------------------------------------------------------------- E5 ---

fn e5_popup() {
    println!("## E5 — proto-thread fast path for interrupts (paper §3)\n");
    println!("1000 interrupts, handler does 50 cycles of work. Simulated cycles/interrupt.\n");
    println!("| strategy | cycles/interrupt | threads created |");
    println!("|---|---|---|");

    let run = |mode: Option<PopupMode>, block_every: u64| -> (u64, u64) {
        let machine = Arc::new(parking_lot::Mutex::new(Machine::new()));
        let events = Arc::new(paramecium::core::events::EventService::new());
        let scheduler = Scheduler::new(machine.clone());
        let trap = Trap::exception(TrapKind::Breakpoint);
        let n_irqs = 1000u64;

        match mode {
            None => {
                // Raw call-back: no thread semantics at all.
                events
                    .register(
                        trap.vector,
                        KERNEL_DOMAIN,
                        Arc::new({
                            let machine = machine.clone();
                            move |_| machine.lock().charge(50)
                        }),
                    )
                    .unwrap();
                let t0 = machine.lock().now();
                for _ in 0..n_irqs {
                    events.deliver(&machine, &trap);
                }
                ((machine.lock().now() - t0) / n_irqs, 0)
            }
            Some(m) => {
                let engine = PopupEngine::new(scheduler.clone(), m);
                let sem = Semaphore::new(&scheduler, 0);
                let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
                let factory: PopupFactory = Arc::new({
                    let (sem, counter) = (sem.clone(), counter.clone());
                    move |_| {
                        let n = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let sem = sem.clone();
                        let mut waited = false;
                        Box::new(move |ctx| {
                            ctx.work(50);
                            if block_every > 0 && n % block_every == 0 && !waited {
                                // Consume the permit (possibly after being
                                // woken) so later blockers really block.
                                if sem.try_acquire() {
                                    waited = true;
                                } else {
                                    return Step::Block(sem.clone());
                                }
                            }
                            Step::Done
                        })
                    }
                });
                engine
                    .attach(&events, trap.vector, KERNEL_DOMAIN, factory)
                    .unwrap();
                let t0 = machine.lock().now();
                for i in 0..n_irqs {
                    events.deliver(&machine, &trap);
                    scheduler.run_until_idle(16);
                    // Signal only the interrupts that actually blocked, so
                    // permits do not accumulate and turn later blockers
                    // into fast-path completions.
                    if block_every > 0 && i % block_every == 0 {
                        sem.release();
                        scheduler.run_until_idle(16);
                    }
                }
                let stats = engine.stats();
                let created = stats.promotions + stats.eager_creations;
                ((machine.lock().now() - t0) / n_irqs, created)
            }
        }
    };

    let (c, t) = run(None, 0);
    println!("| raw call-back (no thread semantics) | {c} | {t} |");
    let (c, t) = run(Some(PopupMode::Proto), 0);
    println!("| proto-thread, never blocks | {c} | {t} |");
    let (c, t) = run(Some(PopupMode::Proto), 10);
    println!("| proto-thread, 10% block (promoted) | {c} | {t} |");
    let (c, t) = run(Some(PopupMode::Proto), 1);
    println!("| proto-thread, 100% block | {c} | {t} |");
    let (c, t) = run(Some(PopupMode::Eager), 0);
    println!("| eager pop-up thread (baseline) | {c} | {t} |");
    println!();
}

// ---------------------------------------------------------------- E6 ---

fn e6_interpose() {
    println!("## E6 — interposing monitor overhead (paper §2)\n");
    println!("Receive path through /shared/network with stacked monitors.");
    println!("1000 × 512-byte frames. Simulated cycles/frame.\n");
    println!("| monitors | cycles/frame |");
    println!("|---|---|");

    for monitors in 0..=4usize {
        let world = World::boot();
        let n = &world.nucleus;
        install_driver(n, KERNEL_DOMAIN).unwrap();
        for _ in 0..monitors {
            let target = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
            let (agent, _) = make_network_monitor(target);
            n.interpose(KERNEL_DOMAIN, "/shared/network", agent)
                .unwrap();
        }
        let dev = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
        let frames = 1000u64;
        let machine = n.machine().clone();
        let t0 = n.now();
        let mut received = 0u64;
        while received < frames {
            {
                let mut m = machine.lock();
                let nic = m.device_mut::<Nic>("nic").unwrap();
                for _ in 0..32 {
                    nic.inject_rx(vec![0u8; 512]);
                }
            }
            for _ in 0..32 {
                let f = dev.invoke("netdev", "recv", &[]).unwrap();
                if !f.as_bytes().unwrap().is_empty() {
                    received += 1;
                }
            }
        }
        let cyc = (n.now() - t0) / frames;
        println!("| {monitors} | {cyc} |");
    }
    println!();
}

// ---------------------------------------------------------------- E7 ---

fn e7_placement() {
    println!("## E7 — filter placement: kernel vs user domain (paper §1)\n");
    println!("UDP pump with a port filter, 500 frames. Simulated cycles/frame.\n");
    println!("| filter placement / protection | 64 B frames | 1400 B frames |");
    println!("|---|---|---|");

    let run = |which: &str, payload: usize| -> u64 {
        let world = World::boot();
        let n = &world.nucleus;
        install_driver(n, KERNEL_DOMAIN).unwrap();
        let dev = n.bind(KERNEL_DOMAIN, "/shared/network").unwrap();
        let stack = make_udp_stack(dev, 0x0A00_0001, [2, 0, 0, 0, 0, 1]);
        n.register(KERNEL_DOMAIN, "/shared/udp", stack.clone())
            .unwrap();
        stack.invoke("udp", "bind", &[Value::Int(53)]).unwrap();

        let filter: ObjRef = match which {
            "native-kernel" => {
                let f = paramecium::netstack::make_native_port_filter(53);
                n.register(KERNEL_DOMAIN, "/kernel/filter", f).unwrap();
                n.bind(KERNEL_DOMAIN, "/kernel/filter").unwrap()
            }
            "native-user" => {
                let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
                let f = paramecium::netstack::make_native_port_filter(53);
                n.register_shared(app.id, "/app/filter", f).unwrap();
                // The *kernel-side* stack imports the user-domain filter:
                // one crossing per packet.
                n.bind(KERNEL_DOMAIN, "/app/filter").unwrap()
            }
            "bytecode-certified" | "bytecode-verified" | "bytecode-sandboxed" => {
                // The *same* filter program under three protection regimes.
                let prog = udp_port_filter_program(53);
                let image = n.repository.add_bytecode("f", &prog);
                let report = match which {
                    "bytecode-certified" => {
                        let cert = world
                            .root
                            .certify(
                                "f",
                                &image,
                                vec![Right::RunKernel],
                                CertifyMethod::Administrator,
                            )
                            .unwrap();
                        n.certsvc.install(cert, vec![]);
                        n.load("f", &LoadOptions::kernel("/kernel/f").strict())
                            .unwrap()
                    }
                    "bytecode-verified" => n.load("f", &LoadOptions::kernel("/kernel/f")).unwrap(),
                    _ => n
                        .load("f", &LoadOptions::kernel("/kernel/f").sandboxed())
                        .unwrap(),
                };
                let want = match which {
                    "bytecode-certified" => Protection::CertifiedNative,
                    "bytecode-verified" => Protection::Verified,
                    _ => Protection::Sandboxed,
                };
                assert_eq!(report.protection, want);
                let comp = n.bind(KERNEL_DOMAIN, "/kernel/f").unwrap();
                adapt_bytecode_filter(comp)
            }
            _ => unreachable!(),
        };
        stack
            .invoke("udp", "set_filter", &[Value::Handle(filter)])
            .unwrap();

        let frames = 500u64;
        let machine = n.machine().clone();
        let frame = wire::build_udp_frame(
            [9; 6],
            [2, 0, 0, 0, 0, 1],
            0x0A00_0002,
            0x0A00_0001,
            4444,
            53,
            &vec![0xABu8; payload],
        );
        let t0 = n.now();
        let mut done = 0u64;
        while done < frames {
            {
                let mut m = machine.lock();
                let nic = m.device_mut::<Nic>("nic").unwrap();
                for _ in 0..32 {
                    nic.inject_rx(frame.clone());
                }
            }
            let v = stack.invoke("udp", "pump", &[]).unwrap();
            done += v.as_int().unwrap() as u64;
        }
        (n.now() - t0) / done
    };

    for which in [
        "native-kernel",
        "native-user",
        "bytecode-certified",
        "bytecode-verified",
        "bytecode-sandboxed",
    ] {
        let small = run(which, 22);
        let large = run(which, 1350);
        let label = match which {
            "native-kernel" => "native filter, kernel domain (direct)",
            "native-user" => "native filter, user domain (proxy/packet)",
            "bytecode-certified" => "bytecode filter, certified native in kernel",
            "bytecode-verified" => "bytecode filter, load-time verified in kernel",
            "bytecode-sandboxed" => "bytecode filter, SFI-sandboxed in kernel",
            _ => unreachable!(),
        };
        println!("| {label} | {small} | {large} |");
    }
    println!();
}

// ---------------------------------------------------------------- E8 ---

fn e8_delegation() {
    println!("## E8 — delegation chains and the escape hatch (paper §4)\n");
    println!("Certificate validation cost vs chain depth (simulated cycles):\n");
    println!("| chain depth | signature checks | validation cycles |");
    println!("|---|---|---|");

    let mut rng = StdRng::seed_from_u64(7);
    for depth in [0usize, 1, 2, 4, 8] {
        let world = World::boot();
        let n = &world.nucleus;
        // Build a delegation chain of the requested depth.
        let mut chain = Vec::new();
        let mut prev = world.root.clone();
        for i in 0..depth {
            let next = Authority::new(format!("level{i}"), &mut rng, 512);
            chain.push(
                prev.delegate(format!("level{i}"), next.public(), vec![Right::RunKernel])
                    .unwrap(),
            );
            prev = next;
        }
        let image = n
            .repository
            .add_bytecode("c", &workloads::checksum_loop_verified(64, 1));
        let cert = prev
            .certify(
                "c",
                &image,
                vec![Right::RunKernel],
                CertifyMethod::Administrator,
            )
            .unwrap();
        n.certsvc.install(cert, chain);
        n.certsvc.set_cache_enabled(false);
        let t0 = n.now();
        n.load("c", &LoadOptions::kernel("/kernel/c").strict())
            .unwrap();
        let cycles = n.now() - t0;
        let checks = n.certsvc.stats().signature_checks;
        println!("| {depth} | {checks} | {cycles} |");
    }

    println!("\nEscape-hatch walk: which subordinate signs, and the off-line effort spent:\n");
    println!("| component | subordinates tried | signer | total certify effort |");
    println!("|---|---|---|---|");
    let mut rng = StdRng::seed_from_u64(9);
    let root = Authority::new("root", &mut rng, 512);
    let verifiable = workloads::checksum_loop_verified(64, 1).encode();
    let honest_raw = workloads::checksum_loop(64, 8).encode();
    let policy = CertificationPolicy::standard(
        &root,
        CompilerCertifier::new(
            Authority::new("compiler", &mut rng, 512),
            CostModel::default().analysis_eval,
        ),
        ProverCertifier::new(Authority::new("prover", &mut rng, 512), 2_000),
        AdminCertifier::new(Authority::new("admin", &mut rng, 512), &[&honest_raw]),
        vec![Right::RunKernel, Right::RunUser],
    )
    .unwrap();
    for (name, image) in [("verifiable", &verifiable), ("honest-raw", &honest_raw)] {
        let out = policy.certify(name, image, &[Right::RunKernel]).unwrap();
        println!(
            "| {name} | {} | #{} | {} |",
            out.attempts.len(),
            out.signer_index,
            out.total_effort
        );
    }
    match policy.certify(
        "malicious",
        &workloads::wild_writer().encode(),
        &[Right::RunKernel],
    ) {
        Err(e) => println!("| malicious | 3 | refused | — ({e}) |"),
        Ok(_) => unreachable!(),
    }
    println!();
}
