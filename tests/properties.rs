//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary inputs and operation sequences.

use proptest::prelude::*;

use paramecium::core::directory::{NameSpace, NsEntry};
use paramecium::prelude::*;
use paramecium::sfi::{interp::Interp, sandbox::sandbox_rewrite, verifier};

/// Strategy producing arbitrary [`Value`] trees (all variants, including
/// handles and nested lists) up to a bounded depth.
struct ValueTree {
    depth: u32,
}

fn value_tree(depth: u32) -> ValueTree {
    ValueTree { depth }
}

impl Strategy for ValueTree {
    type Value = Value;
    fn sample(&self, rng: &mut proptest::TestRng) -> Value {
        sample_value(rng, self.depth)
    }
}

fn sample_value(rng: &mut proptest::TestRng, depth: u32) -> Value {
    // Lists only below the depth budget so generation terminates.
    let variants = if depth == 0 { 6 } else { 7 };
    match rng.below(variants) {
        0 => Value::Unit,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Int(rng.next_u64() as i64),
        3 => {
            let len = rng.below(12) as usize;
            Value::Str(
                (0..len)
                    .map(|_| char::from(b'a' + rng.below(26) as u8))
                    .collect(),
            )
        }
        4 => {
            let len = rng.below(32) as usize;
            Value::Bytes(bytes::Bytes::from(
                (0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>(),
            ))
        }
        5 => Value::Handle(ObjectBuilder::new("leaf").build()),
        _ => {
            let len = rng.below(4) as usize;
            Value::List((0..len).map(|_| sample_value(rng, depth - 1)).collect())
        }
    }
}

/// An abstract name-space operation for the model-based test.
#[derive(Clone, Debug)]
enum NsOp {
    Register(u8),
    Unregister(u8),
    Replace(u8),
    Lookup(u8),
}

fn ns_op() -> impl Strategy<Value = NsOp> {
    prop_oneof![
        (0u8..20).prop_map(NsOp::Register),
        (0u8..20).prop_map(NsOp::Unregister),
        (0u8..20).prop_map(NsOp::Replace),
        (0u8..20).prop_map(NsOp::Lookup),
    ]
}

proptest! {
    /// The name space behaves like a map: any operation sequence agrees
    /// with a HashMap model.
    #[test]
    fn namespace_agrees_with_map_model(ops in proptest::collection::vec(ns_op(), 0..120)) {
        let ns = NameSpace::root();
        let mut model: std::collections::HashMap<u8, String> = Default::default();
        for op in ops {
            match op {
                NsOp::Register(k) => {
                    let class = format!("c{k}");
                    let r = ns.register(
                        &format!("/p/{k}"),
                        NsEntry { obj: ObjectBuilder::new(class.clone()).build(), home: KERNEL_DOMAIN },
                    );
                    prop_assert_eq!(r.is_ok(), !model.contains_key(&k));
                    model.entry(k).or_insert(class);
                }
                NsOp::Unregister(k) => {
                    let r = ns.unregister(&format!("/p/{k}"));
                    prop_assert_eq!(r.is_ok(), model.remove(&k).is_some());
                }
                NsOp::Replace(k) => {
                    let class = format!("r{k}");
                    let r = ns.replace(
                        &format!("/p/{k}"),
                        NsEntry { obj: ObjectBuilder::new(class.clone()).build(), home: KERNEL_DOMAIN },
                    );
                    prop_assert_eq!(r.is_ok(), model.contains_key(&k));
                    if let Some(slot) = model.get_mut(&k) {
                        *slot = class;
                    }
                }
                NsOp::Lookup(k) => {
                    match ns.lookup(&format!("/p/{k}")) {
                        Ok(e) => prop_assert_eq!(Some(e.obj.class().to_owned()), model.get(&k).cloned()),
                        Err(_) => prop_assert!(!model.contains_key(&k)),
                    }
                }
            }
        }
        prop_assert_eq!(ns.local_len(), model.len());
    }

    /// A crossing records exactly the marshalled size of what crosses — Σ
    /// `marshalled_size` of the arguments plus that of the result — and
    /// the first crossing of a freshly bound proxy records the same count
    /// as every later one. The frame mixes flat values, which
    /// cross as they are, with a list holding an arbitrary value tree
    /// (the echo's last parameter is a `list`), whose handles make the
    /// proxy rebuild it.
    #[test]
    fn proxy_marshalling_byte_count_parity(
        ints in proptest::collection::vec(any::<i64>(), 0..4),
        blob in proptest::collection::vec(any::<u8>(), 0..256),
        s in "[a-z0-9]{0,24}",
        tree in value_tree(2),
    ) {
        let (nucleus, app) = shared_proxy_world();
        let stats = nucleus.proxy_stats();
        let args = vec![
            Value::List(ints.iter().map(|&i| Value::Int(i)).collect()),
            Value::Bytes(bytes::Bytes::from(blob.clone())),
            Value::Str(s.clone()),
            Value::List(vec![tree]),
        ];
        // The echo returns its arguments as one list.
        let frame: usize = args.iter().map(Value::marshalled_size).sum();
        let expected = (frame + 5 + frame) as u64;
        // A fresh proxy: its first crossing resolves the method handle.
        let proxy = nucleus.bind(*app, "/svc/echo").unwrap();
        let mut per_call = Vec::new();
        for _ in 0..3 {
            let before = stats.bytes();
            proxy.invoke("echo", "echo", &args).unwrap();
            per_call.push(stats.bytes() - before);
        }
        prop_assert!(
            per_call.iter().all(|&n| n == expected),
            "cold, warm crossings recorded {:?} bytes, marshalled size is {}", per_call, expected
        );
    }

    /// Values survive a cross-domain proxy round trip unchanged
    /// (marshalling is lossless for flat values and lists).
    #[test]
    fn proxy_marshalling_is_lossless(
        ints in proptest::collection::vec(any::<i64>(), 0..8),
        blob in proptest::collection::vec(any::<u8>(), 0..512),
        s in "[a-zA-Z0-9/ ]{0,40}",
        flag in any::<bool>(),
    ) {
        // One shared world for all cases (booting runs RSA keygen).
        let proxy = shared_echo_proxy();

        let args = vec![
            Value::List(ints.iter().map(|&i| Value::Int(i)).collect()),
            Value::Bytes(bytes::Bytes::from(blob.clone())),
            Value::Str(s.clone()),
            Value::Bool(flag),
            Value::Unit,
        ];
        let out = proxy.invoke("echo", "echo", &args).unwrap();
        prop_assert_eq!(out, Value::List(args));
    }

    /// SFI containment: for arbitrary (decodable) programs, the sandboxed
    /// rewrite never produces a memory fault or jump escape — only clean
    /// halts, contained arithmetic traps, or step exhaustion.
    #[test]
    fn sandboxed_programs_never_escape(
        seed_insns in proptest::collection::vec(any::<u8>(), 0..200),
        data_len in 1u32..4096,
    ) {
        // Build a syntactically valid random program from the byte soup by
        // decoding what we can and padding with Halt.
        let mut code = Vec::new();
        let mut pos = 0;
        // Re-encode arbitrary bytes through the decoder by brute force:
        // interpret consecutive bytes as (op-ish) values.
        while pos + 4 <= seed_insns.len() && code.len() < 64 {
            let b = &seed_insns[pos..];
            let reg = |x: u8| paramecium::sfi::Reg::new(x % 16);
            let insn = match b[0] % 12 {
                0 => paramecium::sfi::Insn::Li { rd: reg(b[1]), imm: i64::from(b[2]) * 37 - 1000 },
                1 => paramecium::sfi::Insn::Add { rd: reg(b[1]), rs1: reg(b[2]), rs2: reg(b[3]) },
                2 => paramecium::sfi::Insn::LdB { rd: reg(b[1]), base: reg(b[2]), off: i32::from(b[3] as i8) },
                3 => paramecium::sfi::Insn::StB { rs: reg(b[1]), base: reg(b[2]), off: i32::from(b[3] as i8) },
                4 => paramecium::sfi::Insn::Ld { rd: reg(b[1]), base: reg(b[2]), off: i32::from(b[3] as i8) },
                5 => paramecium::sfi::Insn::St { rs: reg(b[1]), base: reg(b[2]), off: i32::from(b[3] as i8) },
                6 => paramecium::sfi::Insn::Bltu { rs1: reg(b[1]), rs2: reg(b[2]), target: u32::from(b[3]) % 64 },
                7 => paramecium::sfi::Insn::Jmp { target: u32::from(b[1]) % 64 },
                8 => paramecium::sfi::Insn::Jr { rs: reg(b[1]) },
                9 => paramecium::sfi::Insn::Mul { rd: reg(b[1]), rs1: reg(b[2]), rs2: reg(b[3]) },
                10 => paramecium::sfi::Insn::Shr { rd: reg(b[1]), rs1: reg(b[2]), rs2: reg(b[3]) },
                _ => paramecium::sfi::Insn::Divu { rd: reg(b[1]), rs1: reg(b[2]), rs2: reg(b[3]) },
            };
            code.push(insn);
            pos += 4;
        }
        code.push(paramecium::sfi::Insn::Halt);
        // Clamp branch targets into range now that length is known.
        let len = code.len() as u32;
        for insn in &mut code {
            match insn {
                paramecium::sfi::Insn::Bltu { target, .. }
                | paramecium::sfi::Insn::Jmp { target } => *target %= len,
                _ => {}
            }
        }
        let program = paramecium::sfi::Program::new(code, data_len);
        let (sandboxed, _) = sandbox_rewrite(&program);
        let mut interp = Interp::new(&sandboxed);
        match interp.run(10_000) {
            Ok(_) => {}
            // Contained traps are fine; escapes are not. Guard-zone
            // faults (masked base + immediate offset) stay inside the
            // simulation's bounds check — also contained.
            Err(paramecium::sfi::InterpError::OutOfSteps)
            | Err(paramecium::sfi::InterpError::DivideByZero { .. }) => {}
            Err(paramecium::sfi::InterpError::Fault { addr, .. }) => {
                // Must be a guard-zone hit: within one max offset (±128)
                // of the segment, never far away.
                let lo = 0i64.saturating_sub(128);
                let hi = i64::from(data_len) + 128 + 8;
                let a = addr as i64;
                prop_assert!(a >= lo && a <= hi, "wild fault at {addr:#x}");
            }
            Err(paramecium::sfi::InterpError::BadJump { .. }) => {
                prop_assert!(false, "sandboxed program escaped the code segment");
            }
        }
    }

    /// Verified programs never fault: whatever the verifier accepts runs
    /// to completion (or step exhaustion) on arbitrary input.
    #[test]
    fn verifier_acceptance_implies_memory_safety(
        data in proptest::collection::vec(any::<u8>(), 64..=64),
        r1 in any::<u64>(),
    ) {
        let program = paramecium::sfi::workloads::checksum_loop_verified(64, 2);
        verifier::verify(&program).unwrap();
        let mut i = Interp::new(&program);
        i.load_data(0, &data);
        i.set_reg(paramecium::sfi::Reg::new(1), r1);
        match i.run(1 << 20) {
            Ok(_) | Err(paramecium::sfi::InterpError::OutOfSteps) => {}
            Err(e) => prop_assert!(false, "verified program faulted: {e}"),
        }
    }

    /// Certificates bind to exact bytes: any mutation of a certified image
    /// is detected at validation.
    #[test]
    fn certificate_detects_any_image_mutation(
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let (image, cert) = shared_certificate();
        prop_assert!(cert.matches_image(image));
        let mut mutated = image.clone();
        mutated[flip_byte] ^= 1 << flip_bit;
        prop_assert!(!cert.matches_image(&mutated));
    }
}

/// Shared booted world with an echo service at `/svc/echo` and one app
/// domain, for properties that need to mint fresh proxies per case.
fn shared_proxy_world() -> &'static (std::sync::Arc<Nucleus>, DomainId) {
    static CELL: std::sync::OnceLock<(std::sync::Arc<Nucleus>, DomainId)> =
        std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        let world = World::boot();
        let n = world.nucleus.clone();
        use TypeTag::{Bytes, List, Str};
        let echo = ObjectBuilder::new("echo")
            .interface("echo", |i| {
                i.method("echo", &[List, Bytes, Str, List], List, |_, args| {
                    Ok(Value::List(args.to_vec()))
                })
            })
            .build();
        n.register(KERNEL_DOMAIN, "/svc/echo", echo).unwrap();
        let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
        let id = app.id;
        std::mem::forget(world);
        (n, id)
    })
}

/// Shared proxy to an echo service in another domain (built once; boots
/// run RSA key generation, far too slow to repeat per proptest case).
fn shared_echo_proxy() -> &'static ObjRef {
    static CELL: std::sync::OnceLock<ObjRef> = std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        let world = World::boot();
        let n = &world.nucleus;
        use TypeTag::{Bool, Bytes, List, Str, Unit};
        let echo = ObjectBuilder::new("echo")
            .interface("echo", |i| {
                i.method("echo", &[List, Bytes, Str, Bool, Unit], List, |_, args| {
                    Ok(Value::List(args.to_vec()))
                })
            })
            .build();
        n.register(KERNEL_DOMAIN, "/svc/echo", echo).unwrap();
        let app = n.create_domain("app", KERNEL_DOMAIN, []).unwrap();
        let proxy = n.bind(app.id, "/svc/echo").unwrap();
        // Keep the world alive for the proxy's lifetime.
        std::mem::forget(world);
        proxy
    })
}

/// Shared (image, certificate) pair, built once.
fn shared_certificate() -> &'static (Vec<u8>, paramecium::cert::Certificate) {
    static CELL: std::sync::OnceLock<(Vec<u8>, paramecium::cert::Certificate)> =
        std::sync::OnceLock::new();
    CELL.get_or_init(|| {
        let world = World::boot();
        let image: Vec<u8> = (0..64).collect();
        let cert = world
            .root
            .certify(
                "c",
                &image,
                vec![Right::RunKernel],
                paramecium::cert::CertifyMethod::Administrator,
            )
            .unwrap();
        (image, cert)
    })
}
